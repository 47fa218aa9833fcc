//go:build race

package cluster

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = true
