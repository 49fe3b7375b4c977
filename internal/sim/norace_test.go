//go:build !race

package sim

// raceEnabled reports a test binary built with the race detector.
const raceEnabled = false
