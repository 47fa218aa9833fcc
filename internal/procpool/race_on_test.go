//go:build race

package procpool

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = true
