//go:build race

package bench

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = true
