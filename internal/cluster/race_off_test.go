//go:build !race

package cluster

// raceEnabled reports whether the race detector instruments this build.
// Allocation-count assertions are skipped under -race: instrumentation
// allocates shadow state the production build never sees.
const raceEnabled = false
