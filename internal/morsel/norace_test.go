//go:build !race

package morsel

// raceEnabled reports a -race build; see race_test.go.
const raceEnabled = false
