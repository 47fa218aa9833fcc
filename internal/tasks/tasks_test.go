package tasks

import (
	"math"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"matryoshka/internal/cluster"
	"matryoshka/internal/core"
	"matryoshka/internal/engine"
	"matryoshka/internal/ml"
)

// testCluster is a small simulated cluster with generous memory so
// correctness tests never trip the OOM model.
func testCluster() cluster.Config {
	cc := cluster.DefaultConfig()
	cc.Machines = 4
	cc.CoresPerMachine = 4
	return cc
}

func checkOutcome(t *testing.T, o Outcome) {
	t.Helper()
	if o.Err != nil {
		t.Fatalf("%s/%s failed: %v", o.Task, o.Strategy, o.Err)
	}
	if o.Seconds <= 0 {
		t.Errorf("%s/%s: no simulated time elapsed", o.Task, o.Strategy)
	}
	if o.Jobs <= 0 {
		t.Errorf("%s/%s: no jobs recorded", o.Task, o.Strategy)
	}
}

// --- Bounce Rate ---

func TestBounceRateAllStrategiesMatchReference(t *testing.T) {
	spec := BounceRateSpec{Visits: 20_000, Days: 13, Seed: 42}
	want := spec.Reference()
	if len(want) != 13 {
		t.Fatalf("reference has %d days", len(want))
	}
	for _, strat := range []Strategy{Matryoshka, InnerParallel, OuterParallel, DIQL} {
		t.Run(string(strat), func(t *testing.T) {
			o := spec.Run(strat, testCluster())
			checkOutcome(t, o)
			got := o.Value.(BounceRates)
			if len(got) != len(want) {
				t.Fatalf("got %d days, want %d", len(got), len(want))
			}
			for day, w := range want {
				if g := got[day]; math.Abs(g-w) > 1e-12 {
					t.Errorf("day %d: got %v, want %v", day, g, w)
				}
			}
		})
	}
}

func TestBounceRateSkewedMatchesReference(t *testing.T) {
	spec := BounceRateSpec{Visits: 30_000, Days: 32, Skewed: true, Seed: 7}
	want := spec.Reference()
	o := spec.Run(Matryoshka, testCluster())
	checkOutcome(t, o)
	got := o.Value.(BounceRates)
	for day, w := range want {
		if math.Abs(got[day]-w) > 1e-12 {
			t.Errorf("day %d: got %v, want %v", day, got[day], w)
		}
	}
}

func TestBounceRateJobCounts(t *testing.T) {
	spec := BounceRateSpec{Visits: 5_000, Days: 16, Seed: 1}
	m := spec.Run(Matryoshka, testCluster())
	inner := spec.Run(InnerParallel, testCluster())
	checkOutcome(t, m)
	checkOutcome(t, inner)
	// The paper's central claim: Matryoshka's job count is independent of
	// the number of inner computations; inner-parallel launches jobs per
	// group (here 2 per day + 1).
	if inner.Jobs < 2*16 {
		t.Errorf("inner-parallel jobs = %d, want >= 32", inner.Jobs)
	}
	if m.Jobs >= inner.Jobs {
		t.Errorf("matryoshka jobs (%d) should be far below inner-parallel (%d)", m.Jobs, inner.Jobs)
	}
}

// --- K-means ---

func kmClose(a, b []ml.Point, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if ml.Dist2(a[i], b[i]) > tol {
			return false
		}
	}
	return true
}

func TestKMeansAllStrategiesMatchReference(t *testing.T) {
	spec := KMeansSpec{TotalPoints: 8_000, K: 4, Configs: 8, Eps: 1e-6, MaxIters: 30, Seed: 3}
	want := spec.Reference()
	for _, strat := range []Strategy{Matryoshka, InnerParallel, OuterParallel} {
		t.Run(string(strat), func(t *testing.T) {
			o := spec.Run(strat, testCluster())
			checkOutcome(t, o)
			got := o.Value.(KMeansValue)
			if len(got) != spec.Configs {
				t.Fatalf("got %d configs, want %d", len(got), spec.Configs)
			}
			for id, w := range want {
				if !kmClose(got[id], w, 1e-6) {
					t.Errorf("config %d: got %v, want %v", id, got[id], w)
				}
			}
		})
	}
}

func TestKMeansDIQLRejected(t *testing.T) {
	spec := KMeansSpec{TotalPoints: 100, K: 2, Configs: 2, Eps: 1e-4, MaxIters: 3, Seed: 3}
	o := spec.Run(DIQL, testCluster())
	if o.Err != ErrControlFlowUnsupported {
		t.Fatalf("err = %v, want ErrControlFlowUnsupported", o.Err)
	}
}

func TestKMeansMatryoshkaJobsIndependentOfConfigs(t *testing.T) {
	base := KMeansSpec{TotalPoints: 4_000, K: 3, Eps: 1e-6, MaxIters: 20, Seed: 5}
	s4, s16 := base, base
	s4.Configs, s16.Configs = 4, 16
	j4 := s4.Run(Matryoshka, testCluster())
	j16 := s16.Run(Matryoshka, testCluster())
	checkOutcome(t, j4)
	checkOutcome(t, j16)
	// Job counts track lifted-loop supersteps (max iterations over runs),
	// not the number of configurations: allow a 2x band.
	if j16.Jobs > 2*j4.Jobs {
		t.Errorf("matryoshka jobs grew with configs: %d -> %d", j4.Jobs, j16.Jobs)
	}
	i4 := s4.Run(InnerParallel, testCluster())
	i16 := s16.Run(InnerParallel, testCluster())
	if i16.Jobs < 2*i4.Jobs {
		t.Errorf("inner-parallel jobs should scale with configs: %d -> %d", i4.Jobs, i16.Jobs)
	}
}

// --- PageRank ---

func prClose(t *testing.T, got, want PageRankValue, tol float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d groups, want %d", len(got), len(want))
	}
	for g, wr := range want {
		gr := got[g]
		if len(gr) != len(wr) {
			t.Fatalf("group %d: %d vertices, want %d", g, len(gr), len(wr))
		}
		for v, w := range wr {
			if math.Abs(gr[v]-w) > tol {
				t.Errorf("group %d vertex %d: got %v, want %v", g, v, gr[v], w)
			}
		}
	}
}

func TestPageRankAllStrategiesMatchReference(t *testing.T) {
	spec := PageRankSpec{Groups: 6, TotalEdges: 3_000, TotalVertices: 600, Eps: 1e-9, MaxIters: 40, Seed: 11}
	want := spec.Reference()
	for _, strat := range []Strategy{Matryoshka, InnerParallel, OuterParallel} {
		t.Run(string(strat), func(t *testing.T) {
			o := spec.Run(strat, testCluster())
			checkOutcome(t, o)
			prClose(t, o.Value.(PageRankValue), want, 1e-6)
		})
	}
}

func TestPageRankSkewedMatryoshkaMatchesReference(t *testing.T) {
	spec := PageRankSpec{Groups: 16, TotalEdges: 4_000, TotalVertices: 800, Eps: 1e-9, MaxIters: 30, Skewed: true, Seed: 13}
	want := spec.Reference()
	o := spec.Run(Matryoshka, testCluster())
	checkOutcome(t, o)
	prClose(t, o.Value.(PageRankValue), want, 1e-6)
}

// --- Average Distances ---

func TestAvgDistancesAllStrategiesMatchReference(t *testing.T) {
	spec := AvgDistSpec{Components: 4, VerticesPerComp: 12, ExtraEdgesPerComp: 6, Seed: 17}
	want := spec.Reference()
	if len(want) != 4 {
		t.Fatalf("reference has %d components", len(want))
	}
	for _, strat := range []Strategy{Matryoshka, InnerParallel, OuterParallel} {
		t.Run(string(strat), func(t *testing.T) {
			o := spec.Run(strat, testCluster())
			checkOutcome(t, o)
			got := o.Value.(AvgDistValue)
			if len(got) != len(want) {
				t.Fatalf("got %d comps, want %d", len(got), len(want))
			}
			for c, w := range want {
				if math.Abs(got[c]-w) > 1e-9 {
					t.Errorf("component %d: got %v, want %v", c, got[c], w)
				}
			}
		})
	}
}

func TestAvgDistancesInnerParallelJobExplosion(t *testing.T) {
	spec := AvgDistSpec{Components: 3, VerticesPerComp: 8, ExtraEdgesPerComp: 3, Seed: 19}
	m := spec.Run(Matryoshka, testCluster())
	inner := spec.Run(InnerParallel, testCluster())
	checkOutcome(t, m)
	checkOutcome(t, inner)
	// Inner-parallel launches jobs per (component, source, BFS level);
	// Matryoshka's job count depends only on loop depth.
	if inner.Jobs <= 2*m.Jobs {
		t.Errorf("expected job explosion: inner=%d matryoshka=%d", inner.Jobs, m.Jobs)
	}
}

// --- Cross-task OOM behaviour (Sec. 9.5): a tiny-memory cluster makes the
// outer-parallel giant group fail while Matryoshka survives. ---

func TestSkewOOMOuterParallelOnly(t *testing.T) {
	cc := testCluster()
	cc.Machines = 16
	cc.MemoryPerMachine = 4 << 20 // 4 MB machines: Matryoshka's even
	// partitions fit; the Zipf head group, resident in one task, does not.
	spec := BounceRateSpec{Visits: 60_000, Days: 64, Skewed: true, Seed: 23}
	outer := spec.Run(OuterParallel, cc)
	if !outer.OOM {
		t.Errorf("outer-parallel should OOM on skewed groups: %v", outer)
	}
	m := spec.Run(Matryoshka, cc)
	if m.Err != nil {
		t.Errorf("matryoshka should survive the same cluster: %v", m.Err)
	}
}

// TestPageRankForcedJoinStrategiesSameValues checks the Fig. 8a ablation
// is purely physical: forcing either join algorithm must not change the
// computed ranks.
func TestPageRankForcedJoinStrategiesSameValues(t *testing.T) {
	spec := PageRankSpec{Groups: 5, TotalEdges: 1_500, TotalVertices: 300, Eps: 1e-9, MaxIters: 20, Seed: 29}
	want := spec.Reference()
	for _, opt := range []core.Options{
		{ForceScalarJoin: core.ForceJoin(engine.JoinBroadcastLeft)},
		{ForceScalarJoin: core.ForceJoin(engine.JoinRepartition)},
	} {
		o := spec.RunMatryoshka(testCluster(), opt)
		checkOutcome(t, o)
		prClose(t, o.Value.(PageRankValue), want, 1e-6)
	}
}

// TestKMeansForcedHalfLiftedSameValues checks the Fig. 8b ablation
// likewise only changes the physical plan.
func TestKMeansForcedHalfLiftedSameValues(t *testing.T) {
	spec := KMeansSpec{TotalPoints: 3_000, K: 3, Configs: 6, Eps: 1e-6, MaxIters: 15, Seed: 31}
	want := spec.Reference()
	for _, opt := range []core.Options{
		{ForceHalfLifted: core.ForceHalf(core.BroadcastScalar)},
		{ForceHalfLifted: core.ForceHalf(core.BroadcastPrimary)},
	} {
		o := spec.RunMatryoshka(testCluster(), opt)
		checkOutcome(t, o)
		got := o.Value.(KMeansValue)
		for id, w := range want {
			if !kmClose(got[id], w, 1e-6) {
				t.Errorf("config %d: forced plan changed the result", id)
			}
		}
	}
}

// TestSkewBarelyAffectsMatryoshka is the Sec. 9.5 claim as a test: the
// simulated runtime on Zipf-distributed groups stays within 40% of the
// uniform runtime on the same volume (the paper reports 15% at cluster
// scale; small simulations are noisier).
func TestSkewBarelyAffectsMatryoshka(t *testing.T) {
	skew := BounceRateSpec{Visits: 60_000, Days: 256, Skewed: true, Seed: 37}
	flat := skew
	flat.Skewed = false
	cc := testCluster()
	so := skew.Run(Matryoshka, cc)
	fo := flat.Run(Matryoshka, cc)
	checkOutcome(t, so)
	checkOutcome(t, fo)
	if ratio := so.Seconds / fo.Seconds; ratio > 1.4 || ratio < 0.6 {
		t.Errorf("skew ratio = %.2f (skew %.1fs vs uniform %.1fs), want within 40%%",
			ratio, so.Seconds, fo.Seconds)
	}
}

// TestFailureInjectionDoesNotChangeResults runs Matryoshka bounce rate on
// a cluster with injected task failures: results identical, simulated time
// higher.
func TestFailureInjectionDoesNotChangeResults(t *testing.T) {
	spec := BounceRateSpec{Visits: 10_000, Days: 16, Seed: 41}
	clean := spec.Run(Matryoshka, testCluster())
	checkOutcome(t, clean)
	cc := testCluster()
	cc.TaskFailureRate = 0.2
	flaky := spec.Run(Matryoshka, cc)
	checkOutcome(t, flaky)
	want := clean.Value.(BounceRates)
	got := flaky.Value.(BounceRates)
	for day, w := range want {
		if math.Abs(got[day]-w) > 1e-12 {
			t.Errorf("day %d differs under failure injection", day)
		}
	}
	if flaky.Seconds <= clean.Seconds {
		t.Errorf("retries should cost time: %.2f <= %.2f", flaky.Seconds, clean.Seconds)
	}
}

// TestNoCoPartitionSameValues: the co-partitioning ablation changes only
// the physical plan.
func TestNoCoPartitionSameValues(t *testing.T) {
	spec := PageRankSpec{Groups: 4, TotalEdges: 1_200, TotalVertices: 240, Eps: 1e-9, MaxIters: 25, Seed: 43}
	want := spec.Reference()
	spec.NoCoPartition = true
	o := spec.Run(Matryoshka, testCluster())
	checkOutcome(t, o)
	prClose(t, o.Value.(PageRankValue), want, 1e-6)
}

func TestUnknownStrategyAndDIQLRejections(t *testing.T) {
	cc := testCluster()
	for _, o := range []Outcome{
		BounceRateSpec{Visits: 10, Days: 2, Seed: 1}.Run(Strategy("bogus"), cc),
		PageRankSpec{Groups: 1, TotalEdges: 4, TotalVertices: 2, MaxIters: 1, Seed: 1}.Run(Strategy("bogus"), cc),
		AvgDistSpec{Components: 1, VerticesPerComp: 3, Seed: 1}.Run(Strategy("bogus"), cc),
		KMeansSpec{TotalPoints: 4, K: 2, Configs: 1, MaxIters: 1, Seed: 1}.Run(Strategy("bogus"), cc),
	} {
		if o.Err == nil {
			t.Errorf("%s: unknown strategy must error", o.Task)
		}
		if o.Err.Error() == "" {
			t.Errorf("%s: error should describe the strategy", o.Task)
		}
	}
	for _, o := range []Outcome{
		PageRankSpec{Groups: 1, TotalEdges: 4, TotalVertices: 2, MaxIters: 1, Seed: 1}.Run(DIQL, cc),
		AvgDistSpec{Components: 1, VerticesPerComp: 3, Seed: 1}.Run(DIQL, cc),
	} {
		if o.Err != ErrControlFlowUnsupported {
			t.Errorf("%s: DIQL must reject control flow, got %v", o.Task, o.Err)
		}
	}
}

func TestOutcomeString(t *testing.T) {
	ok := Outcome{Task: "t", Strategy: Matryoshka, Seconds: 1.5, Jobs: 2}
	if s := ok.String(); s == "" || s[:1] != "t" {
		t.Errorf("String() = %q", s)
	}
	oom := Outcome{Task: "t", Strategy: DIQL, OOM: true, Err: ErrControlFlowUnsupported}
	if s := oom.String(); s == "" {
		t.Error("OOM string empty")
	}
	failed := Outcome{Task: "t", Strategy: DIQL, Err: ErrControlFlowUnsupported}
	if s := failed.String(); s == "" {
		t.Error("error string empty")
	}
}

// TestFinishClosesSession: a run closes its session when it finishes, so
// the session's host worker goroutines are gone once it returns, without
// waiting for the garbage collector to find the session (it is off for
// the test, so only Close can release them).
func TestFinishClosesSession(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	base := runtime.NumGoroutine()
	spec := BounceRateSpec{Visits: 2000, Days: 5, Seed: 1}
	for _, strat := range []Strategy{Matryoshka, InnerParallel} {
		checkOutcome(t, spec.Run(strat, testCluster()))
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the runs, %d before", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}
