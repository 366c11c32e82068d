//go:build race

package morsel

// raceEnabled reports a -race build. The race detector allocates on its
// own schedule, so allocation counts are exact only without it.
const raceEnabled = true
