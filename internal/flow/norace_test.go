//go:build !race

package flow

// raceEnabled reports a -race build; see race_test.go.
const raceEnabled = false
