package engine

import (
	"reflect"
	"strings"
	"testing"

	"matryoshka/internal/obs"
)

// fusePair runs the same dataset build on sessions with fusion disabled
// and enabled — the fused one on four host workers and on one, whose
// single runner takes every partition through the same chain instance —
// and asserts the collected output, virtual clock, and simulated cluster
// stats are bit-identical. This is the fused path's contract: it may change
// wall-clock and host allocations, never results or simulated accounting.
func fusePair[T any](t *testing.T, build func(s *Session) Dataset[T]) {
	t.Helper()
	unf := poolSession(4)
	unf.noFuse = true
	defer unf.Close()
	a, err := Collect(build(unf))
	if err != nil {
		t.Fatalf("collect unfused: %v", err)
	}
	for _, workers := range []int{4, 1} {
		fus := poolSession(workers)
		defer fus.Close()
		b, err := Collect(build(fus))
		if err != nil {
			t.Fatalf("collect fused on %d workers: %v", workers, err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("outputs differ on %d workers\nunfused: %v\nfused:   %v", workers, a, b)
		}
		if uc, fc := unf.Clock(), fus.Clock(); uc != fc {
			t.Fatalf("clocks differ on %d workers: unfused %v, fused %v", workers, uc, fc)
		}
		if us, fs := unf.Stats(), fus.Stats(); us != fs {
			t.Fatalf("stats differ on %d workers: unfused %+v, fused %+v", workers, us, fs)
		}
	}
}

func seq(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// TestFusedMatchesUnfusedChains covers every fusible operator in chains of
// varying shape, including expansion, whole-partition UDFs, id minting,
// shuffle consumers of fused output, and empty/degenerate partitions.
func TestFusedMatchesUnfusedChains(t *testing.T) {
	t.Run("map-filter-map", func(t *testing.T) {
		fusePair(t, func(s *Session) Dataset[int] {
			d := Map(Parallelize(s, seq(500), 4), func(v int) int { return v * 3 })
			return Map(Filter(d, func(v int) bool { return v%2 == 0 }), func(v int) int { return v - 1 })
		})
	})
	t.Run("flatmap-expansion", func(t *testing.T) {
		fusePair(t, func(s *Session) Dataset[int] {
			d := FlatMap(Parallelize(s, seq(200), 4), func(v int) []int { return []int{v, v + 1000} })
			return Filter(Map(d, func(v int) int { return v + 1 }), func(v int) bool { return v%3 != 0 })
		})
	})
	t.Run("mapPartitions", func(t *testing.T) {
		fusePair(t, func(s *Session) Dataset[int] {
			d := Map(Parallelize(s, seq(300), 4), func(v int) int { return v ^ 5 })
			rev := MapPartitions(d, func(xs []int) []int {
				out := make([]int, 0, len(xs))
				for i := len(xs) - 1; i >= 0; i-- {
					out = append(out, xs[i])
				}
				return out
			})
			return Map(rev, func(v int) int { return v + 7 })
		})
	})
	t.Run("mapValues", func(t *testing.T) {
		fusePair(t, func(s *Session) Dataset[Pair[int, int]] {
			kv := Map(Parallelize(s, seq(400), 4), func(v int) Pair[int, int] {
				return Pair[int, int]{Key: v % 16, Val: v}
			})
			return Filter(MapValues(kv, func(v int) int { return v * v }),
				func(p Pair[int, int]) bool { return p.Val%5 != 0 })
		})
	})
	t.Run("zip", func(t *testing.T) {
		fusePair(t, func(s *Session) Dataset[Pair[uint64, int]] {
			d := Map(Parallelize(s, seq(250), 4), func(v int) int { return v * 2 })
			return Filter(ZipWithUniqueID(d), func(p Pair[uint64, int]) bool { return p.Key%2 == 0 })
		})
	})
	t.Run("into-shuffle", func(t *testing.T) {
		fusePair(t, func(s *Session) Dataset[Pair[int, int]] {
			kv := Map(Parallelize(s, seq(600), 4), func(v int) Pair[int, int] {
				return Pair[int, int]{Key: v % 10, Val: v}
			})
			hot := Filter(kv, func(p Pair[int, int]) bool { return p.Val%4 != 0 })
			return ReduceByKey(hot, func(a, c int) int { return a + c })
		})
	})
	t.Run("half-lifted-cross", func(t *testing.T) {
		// kmeans_lifted's shape: points → cross with the broadcast configs →
		// re-key → combine, one chain from the source to the fold's output;
		// and the mirrored cross topping a chain over a filter.
		fusePair(t, func(s *Session) Dataset[Pair[int, int]] {
			configs := Parallelize(s, seq(5), 2).Unscaled()
			points := Map(Parallelize(s, seq(400), 4), func(v int) int { return v * 3 })
			crossed := CrossWithBroadcast(configs, points, func(c, p int) Pair[int, int] { return KV(c, p) })
			rekeyed := Map(crossed, func(kv Pair[int, int]) Pair[int, int] { return KV(kv.Key*10+kv.Val%4, kv.Val) })
			return ReduceByKey(rekeyed, func(a, c int) int { return a + c })
		})
		fusePair(t, func(s *Session) Dataset[int] {
			kept := Filter(Parallelize(s, seq(300), 4), func(v int) bool { return v%3 != 0 })
			return CrossBroadcastBig(kept, Parallelize(s, seq(4), 2), func(a, b int) int { return a*10 + b })
		})
	})
	t.Run("filter-drops-everything", func(t *testing.T) {
		fusePair(t, func(s *Session) Dataset[int] {
			d := Filter(Parallelize(s, seq(100), 4), func(int) bool { return false })
			return Map(d, func(v int) int { return v })
		})
	})
	t.Run("mostly-empty-partitions", func(t *testing.T) {
		fusePair(t, func(s *Session) Dataset[int] {
			d := Map(Parallelize(s, seq(3), 8), func(v int) int { return v + 1 })
			return Filter(d, func(v int) bool { return v > 0 })
		})
	})
}

// TestFusionSegmentsAtCap: a chain longer than maxFuseOps splits into
// segments at the cap, each fused on its own, with identical results.
func TestFusionSegmentsAtCap(t *testing.T) {
	fusePair(t, func(s *Session) Dataset[int] {
		d := Parallelize(s, seq(200), 4)
		for i := 0; i < maxFuseOps+5; i++ {
			d = Map(d, func(v int) int { return v + 1 })
		}
		return d
	})
}

// TestFusionBreaksAtCachedIntermediate: a .Cache() mark in mid-chain makes
// the cached node a materialization site — fusion must not run through it
// (the cached partitions have to exist for reuse), and a second job served
// from the cache must agree bit-for-bit with the unfused run.
func TestFusionBreaksAtCachedIntermediate(t *testing.T) {
	run := func(noFuse bool) ([]int, []int, float64) {
		s := poolSession(4)
		s.noFuse = noFuse
		defer s.Close()
		mid := Map(Parallelize(s, seq(300), 4), func(v int) int { return v * 2 }).Cache()
		top1 := Filter(mid, func(v int) bool { return v%3 == 0 })
		top2 := Map(mid, func(v int) int { return v + 1 })
		a, err1 := Collect(top1)
		b, err2 := Collect(top2) // served from mid's cache
		if err1 != nil || err2 != nil {
			t.Fatalf("collect errs %v %v", err1, err2)
		}
		return a, b, s.Clock()
	}
	ua, ub, uclock := run(true)
	fa, fb, fclock := run(false)
	if !reflect.DeepEqual(ua, fa) || !reflect.DeepEqual(ub, fb) {
		t.Fatal("cached-intermediate outputs differ between fused and unfused")
	}
	if uclock != fclock {
		t.Fatalf("clocks differ: unfused %v, fused %v", uclock, fclock)
	}
}

// TestFusionDiamondBreaksChain: an intermediate with two consumers is a
// fan-in memo site; each branch may fuse above it, but not through it.
func TestFusionDiamondBreaksChain(t *testing.T) {
	fusePair(t, func(s *Session) Dataset[int] {
		base := Map(Parallelize(s, seq(300), 4), func(v int) int { return v + 10 })
		left := Map(base, func(v int) int { return v * 2 })
		right := Filter(base, func(v int) bool { return v%2 == 1 })
		return Union(left, right)
	})
}

// TestFusedExplainMarker: EXPLAIN ANALYZE renders active chains as
// "fused(a∘b∘c) ×k ops" on the stage that runs them, and renders nothing
// when fusion is off.
func TestFusedExplainMarker(t *testing.T) {
	report := func(noFuse bool) string {
		rec := obs.NewRecorder()
		cfg := DefaultConfig()
		cfg.Cluster.Machines = 4
		cfg.Cluster.CoresPerMachine = 4
		cfg.DefaultParallelism = 4
		cfg.Obs = rec
		s := mustSession(cfg)
		s.noFuse = noFuse
		defer s.Close()
		d := Map(Parallelize(s, seq(100), 4), func(v int) int { return v + 1 })
		top := Map(Filter(d, func(v int) bool { return v%2 == 0 }), func(v int) int { return v * 2 })
		if _, err := Count(top); err != nil {
			t.Fatal(err)
		}
		// A half-lifted cross product is a link like any other.
		crossed := CrossWithBroadcast(Parallelize(s, seq(3), 1), d, func(a, b int) int { return a + b })
		if _, err := Count(Filter(crossed, func(v int) bool { return v%2 == 0 })); err != nil {
			t.Fatal(err)
		}
		return rec.Report()
	}
	fused := report(false)
	for _, marker := range []string{"fused(map∘filter∘map) ×3 ops", "fused(map∘crossBroadcastSmall∘filter) ×3 ops"} {
		if !strings.Contains(fused, marker) {
			t.Errorf("EXPLAIN ANALYZE missing fused chain marker %q:\n%s", marker, fused)
		}
	}
	unfused := report(true)
	if strings.Contains(unfused, "fused(") {
		t.Errorf("per-operator session still reports fused chains:\n%s", unfused)
	}
}

// TestRecoveryKeepsFusionIdentity: the OOM-recovery replan rebuilds the
// exec plan and recompiles fusion against the new frontier; the re-lowered
// run must stay bit-identical to its unfused twin.
func TestRecoveryKeepsFusionIdentity(t *testing.T) {
	run := func(noFuse bool) (map[int]int64, float64) {
		cfg, _ := recoverConfig(1 << 20)
		s := mustSession(cfg)
		s.noFuse = noFuse
		defer s.Close()
		small := Parallelize(s, makePairs(2000), 4)
		big := Parallelize(s, makePairs(10), 2)
		got, err := Collect(JoinWith(small, big, JoinBroadcastLeft, 0))
		if err != nil {
			t.Fatalf("Collect with recovery: %v", err)
		}
		vals := make(map[int]int64, len(got))
		for _, p := range got {
			vals[p.Key] = p.Val.B
		}
		return vals, s.Clock()
	}
	uvals, uclock := run(true)
	fvals, fclock := run(false)
	if !reflect.DeepEqual(uvals, fvals) {
		t.Fatalf("recovered join results differ: unfused %v, fused %v", uvals, fvals)
	}
	if uclock != fclock {
		t.Fatalf("recovered clocks differ: unfused %v, fused %v", uclock, fclock)
	}
}
