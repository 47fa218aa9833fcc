package ir

import (
	"math"
	"testing"

	"matryoshka/internal/bench"
	"matryoshka/internal/core"
	"matryoshka/internal/datagen"
	"matryoshka/internal/engine"
	"matryoshka/internal/obs"
	"matryoshka/internal/tasks"
)

// TestLoweredBounceRateMatchesHandLowered is the parsing phase's oracle on
// the paper's Listing 1: lowered over BounceRateSpec's visits, boxed as
// engine.Pair[any, any], on the cluster and scale of the benchmark's
// bounce_ir_boxed workload (288 000 visits, 256 days), the program gives
// the hand-lowered plan's value (BounceRateSpec.RunMatryoshka, Listings 2-3)
// in as many jobs, stages and tasks, and its simulated clock stays within
// 0.1 % of the plan's (it reads 60.168 s against 60.167 s). It lowers
// typed, so it records no ir-shape decision.
//
// The lowering's plan differs from the hand-written one only in how inner
// scalars are typed, which the clock pins: each count's InnerScalar[int64]
// is boxed to any by one map (two maps, each fused into its count's
// reduce stage), the rate and the (day, rate) pair are binaryScalarOps
// over any where the hand plan's are over int64 and float64, and the
// per-day results reach the caller through one map that unboxes them into
// Pair[int64, float64] rows (fused into the last stage), where the hand
// plan collects the tagged pairs. A lowering that runs every bag over
// Dataset[any] reads 80.4 / 60.4 = 1.33 times the plan's clock.
func TestLoweredBounceRateMatchesHandLowered(t *testing.T) {
	const visits, days, seed = 288_000, 256, 7
	cc := bench.Scale{RecordsPerGB: 6000}.PaperCluster()
	want := tasks.BounceRateSpec{Visits: visits, Days: days, Seed: seed}.RunMatryoshka(cc, core.Options{})
	if want.Err != nil {
		t.Fatal(want.Err)
	}

	data := datagen.VisitsSkew(visits, days, 0, seed)
	boxed := make([]any, len(data))
	for i, v := range data {
		boxed[i] = engine.KV[any, any](v.Day, v.IP)
	}
	ps, err := Parse(bounceRateProgram())
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.NewRecorder()
	sess, err := engine.NewSession(engine.Config{Cluster: cc, Recover: true, Obs: rec})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	res, err := Lower(ps, sess, map[string][]any{"visits": boxed}, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range rec.Decisions() {
		if d.Rule == "ir-shape" {
			t.Errorf("the program lowered boxed: %s", d.Why)
		}
	}

	rates := want.Value.(tasks.BounceRates)
	rows := res.([]any)
	if len(rows) != len(rates) {
		t.Fatalf("%d days, the hand-lowered plan has %d", len(rows), len(rates))
	}
	for _, r := range rows {
		kv := r.(engine.Pair[any, any])
		if got, want := kv.Val.(float64), rates[kv.Key.(int64)]; got != want {
			t.Errorf("day %v: rate %v, the hand-lowered plan says %v", kv.Key, got, want)
		}
	}
	st := sess.Stats()
	if st.Jobs != want.Jobs || st.Stages != want.Stages || st.Tasks != want.Tasks {
		t.Errorf("jobs/stages/tasks %d/%d/%d, the hand-lowered plan %d/%d/%d",
			st.Jobs, st.Stages, st.Tasks, want.Jobs, want.Stages, want.Tasks)
	}
	if ratio := sess.Clock() / want.Seconds; math.Abs(ratio-1) > 0.001 {
		t.Errorf("clock %.3fs, %.4f times the hand-lowered plan's %.3fs; want within 0.1 %%",
			sess.Clock(), ratio, want.Seconds)
	}
}
