//go:build !race

package columnar

// raceEnabled reports a -race build; see race_test.go.
const raceEnabled = false
