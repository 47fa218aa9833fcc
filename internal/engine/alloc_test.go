package engine

// Allocation-regression tests for the perf-critical paths this engine
// depends on: the monomorphic stable hashers must stay allocation-free,
// the fused narrow chain must not allocate per element, and the parallel
// shuffle router must allocate only its per-call bookkeeping. These run
// as part of `go test` so a regression (an interface conversion sneaking
// into a hasher, a closure capture boxing rows) fails CI, not a later
// profiling session. Skipped under -race: instrumentation allocates.

import (
	"runtime"
	"testing"
)

func skipIfInstrumented(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
}

// TestHashOfAllocFree: every monomorphic fast-path key type hashes with
// zero allocations. These hashes run once per element per shuffle — an
// allocation here multiplies across every shuffled record.
func TestHashOfAllocFree(t *testing.T) {
	skipIfInstrumented(t)
	s := poolSession(1)
	defer s.Close()
	var sink uint64
	cases := []struct {
		name string
		f    func()
	}{
		{"int", func() { sink += hashOf(s, 12345) }},
		{"int64", func() { sink += hashOf(s, int64(-7)) }},
		{"uint64", func() { sink += hashOf(s, uint64(99)) }},
		{"string", func() { sink += hashOf(s, "a moderately sized key string") }},
		{"pair-int-int", func() { sink += hashOf(s, Pair[int, int]{1, 2}) }},
		{"pair-int-int64", func() { sink += hashOf(s, Pair[int, int64]{1, 2}) }},
		{"pair-string-string", func() { sink += hashOf(s, Pair[string, string]{"ab", "cd"}) }},
		{"pair-string-int", func() { sink += hashOf(s, Pair[string, int]{"ab", 3}) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if avg := testing.AllocsPerRun(100, c.f); avg != 0 {
				t.Errorf("hashOf(%s) allocates %.1f per call, want 0", c.name, avg)
			}
		})
	}
	runtime.KeepAlive(sink)
}

// TestFusedNarrowPathAllocBound: a whole fused map∘filter∘map job over n
// elements stays within a fixed allocation budget that does not scale with
// n — the per-element cost of the narrow path is zero allocations. The
// unfused path allocates ~3 boxes per element (tens of thousands here);
// the bound below is two orders of magnitude under that, so any per-element
// allocation sneaking into the fused loop trips it immediately.
func TestFusedNarrowPathAllocBound(t *testing.T) {
	skipIfInstrumented(t)
	const n = 1 << 14
	data := seq(n)
	s := poolSession(1)
	defer s.Close()
	src := Parallelize(s, data, 8)
	job := func() {
		mapped := Map(src, func(v int) int { return v * 3 })
		kept := Filter(mapped, func(v int) bool { return v%8 != 0 })
		small := Map(kept, func(v int) int { return v & 255 })
		if _, err := Count(small); err != nil {
			t.Fatal(err)
		}
	}
	job()              // warm the session's pools and caches
	const budget = 600 // job/plan/stage machinery + 8 output partitions
	if avg := testing.AllocsPerRun(10, job); avg > budget {
		t.Errorf("fused narrow job allocates %.0f per run over %d elements, want <= %d", avg, n, budget)
	}
}

// TestRouteAllocBound: the counting-pass router allocates exactly its
// bookkeeping (target cache and counts per source, one batch per non-empty
// block) and nothing per element. Pool dispatch adds to that per worker, so
// the session's worker count is fixed here — one for the inline loops, four
// for the pool — and the bound is the same on any host.
func TestRouteAllocBound(t *testing.T) {
	skipIfInstrumented(t)
	const nsrc, perSrc, nt = 8, 4096, 16
	parent := benchParent(nsrc, perSrc, false)
	d := benchDep(nt)
	for _, workers := range []int{1, 4} {
		s := poolSession(workers)
		s.route(d, parent) // warm the worker pool
		// targets outer + nsrc caches + counts + blocks outer + nt blocks
		// (header and elements), plus slack.
		budget := 2*nsrc + 2*nt
		if workers > 1 {
			// Each of the two pooled passes allocates its dispatch state
			// and one runner closure per worker.
			budget += 2 * (5 + workers)
		}
		if avg := testing.AllocsPerRun(10, func() { s.route(d, parent) }); avg > float64(budget) {
			t.Errorf("route on %d workers allocates %.0f per call, want <= %d", workers, avg, budget)
		}
		s.Close()
	}
}
