package cluster

import (
	"errors"
	"math"
	"reflect"
	"testing"
)

// chaosConfig is a small cluster with an attached fault plan.
func chaosConfig(fp FaultPlan) Config {
	c := DefaultConfig()
	c.Machines = 2
	c.CoresPerMachine = 2
	c.MemoryPerMachine = 1 << 30
	c.Faults = fp
	return c
}

func TestFaultPlanHazardDeterministic(t *testing.T) {
	p := FaultPlan{MTBF: 50, Seed: 7}
	for m := 0; m < 3; m++ {
		for k := 0; k < 5; k++ {
			g1 := p.crashGap(m, k)
			g2 := p.crashGap(m, k)
			if g1 != g2 {
				t.Fatalf("gap(%d,%d) not deterministic: %g vs %g", m, k, g1, g2)
			}
			if g1 <= 0 || math.IsInf(g1, 0) || math.IsNaN(g1) {
				t.Fatalf("gap(%d,%d) = %g out of range", m, k, g1)
			}
		}
	}
	if p.crashGap(0, 0) == p.crashGap(1, 0) {
		t.Error("different machines drew identical first gaps")
	}
	other := FaultPlan{MTBF: 50, Seed: 8}
	if p.crashGap(0, 0) == other.crashGap(0, 0) {
		t.Error("different seeds drew identical gaps")
	}
	// The exponential mean should be in the right ballpark.
	var sum float64
	const draws = 2000
	for k := 0; k < draws; k++ {
		sum += p.crashGap(0, k)
	}
	if mean := sum / draws; mean < 40 || mean > 60 {
		t.Errorf("hazard mean %g, want ~50", mean)
	}
}

func TestFaultPlanValidate(t *testing.T) {
	cases := []struct {
		name string
		fp   FaultPlan
		ok   bool
	}{
		{"zero", FaultPlan{}, true},
		{"hazard", FaultPlan{MTBF: 30}, true},
		{"explicit", FaultPlan{Events: []FaultEvent{{At: 1, Machine: 1, Kind: FaultCrash}}}, true},
		{"negative mtbf", FaultPlan{MTBF: -1}, false},
		{"negative repair", FaultPlan{MTBF: 5, Repair: -1}, false},
		{"machine out of range", FaultPlan{Events: []FaultEvent{{At: 1, Machine: 9, Kind: FaultCrash}}}, false},
		{"negative time", FaultPlan{Events: []FaultEvent{{At: -1, Machine: 0, Kind: FaultCrash}}}, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := New(chaosConfig(c.fp))
			if c.ok && err != nil {
				t.Fatalf("unexpected error: %v", err)
			}
			if !c.ok && err == nil {
				t.Fatal("invalid plan accepted")
			}
		})
	}
}

// TestCrashDestroysRegisteredOutputs: an output registered before a crash
// loses exactly the crashed machine's partitions, reported as a typed
// FetchFailedError; dropping and re-registering heals it.
func TestCrashDestroysRegisteredOutputs(t *testing.T) {
	sim, err := New(chaosConfig(FaultPlan{Events: []FaultEvent{
		{At: 5, Machine: 0, Kind: FaultCrash},
	}}))
	if err != nil {
		t.Fatal(err)
	}
	id := sim.RegisterOutput(4) // machines 0,1,0,1
	if err := sim.CheckFetch(id); err != nil {
		t.Fatalf("fetch before crash: %v", err)
	}
	sim.Advance(10)
	err = sim.CheckFetch(id)
	var ff *FetchFailedError
	if !errors.As(err, &ff) {
		t.Fatalf("err = %v, want FetchFailedError", err)
	}
	if !errors.Is(err, ErrFetchFailed) {
		t.Error("FetchFailedError does not unwrap to ErrFetchFailed")
	}
	if ff.Machine != 0 || ff.Total != 4 || !reflect.DeepEqual(ff.Parts, []int{0, 2}) {
		t.Errorf("FetchFailedError = %+v", ff)
	}
	if st := sim.Stats(); st.MachineCrashes != 1 || st.FetchFailures != 1 {
		t.Errorf("stats = %+v", st)
	}
	// Repeated probes of the same lost output count one failure.
	_ = sim.CheckFetch(id)
	if st := sim.Stats(); st.FetchFailures != 1 {
		t.Errorf("FetchFailures = %d after re-probe, want 1", st.FetchFailures)
	}
	if sim.LiveMachines() != 1 {
		t.Errorf("live machines = %d, want 1", sim.LiveMachines())
	}
	// Recomputation registers a fresh output on the survivors.
	sim.DropOutput(id)
	id2 := sim.RegisterOutput(4)
	if err := sim.CheckFetch(id2); err != nil {
		t.Fatalf("fetch of recomputed output: %v", err)
	}
}

// TestStageRunsOnSurvivors: with one of two machines down, the same stage
// has half the slots and takes about twice as long; a rejoin restores it.
func TestStageRunsOnSurvivors(t *testing.T) {
	run := func(fp FaultPlan, advance float64) float64 {
		sim, err := New(chaosConfig(fp))
		if err != nil {
			t.Fatal(err)
		}
		sim.Advance(advance)
		before := sim.Clock()
		tasks := make([]Task, 8)
		for i := range tasks {
			tasks[i] = Task{Compute: 1}
		}
		if err := sim.RunStage(tasks); err != nil {
			t.Fatalf("RunStage: %v", err)
		}
		return sim.Clock() - before
	}
	full := run(FaultPlan{}, 1)
	degraded := run(FaultPlan{Events: []FaultEvent{{At: 0.5, Machine: 1, Kind: FaultCrash}}}, 1)
	if degraded <= 1.5*full {
		t.Errorf("degraded stage %.3fs vs full %.3fs, want ~2x", degraded, full)
	}
	rejoined := run(FaultPlan{Events: []FaultEvent{
		{At: 0.1, Machine: 1, Kind: FaultCrash},
		{At: 0.5, Machine: 1, Kind: FaultRejoin},
	}}, 1)
	if rejoined != full {
		t.Errorf("rejoined stage %.3fs vs full %.3fs, want equal", rejoined, full)
	}
}

// TestStageStallsUntilRejoin: with every machine down the stage waits for
// the first rejoin instead of failing; with none scheduled it fails with
// the typed dead-cluster error.
func TestStageStallsUntilRejoin(t *testing.T) {
	sim, err := New(chaosConfig(FaultPlan{Events: []FaultEvent{
		{At: 1, Machine: 0, Kind: FaultCrash},
		{At: 1, Machine: 1, Kind: FaultCrash},
		{At: 9, Machine: 0, Kind: FaultRejoin},
	}}))
	if err != nil {
		t.Fatal(err)
	}
	sim.Advance(2)
	if err := sim.RunStage([]Task{{Compute: 1}}); err != nil {
		t.Fatalf("RunStage: %v", err)
	}
	if c := sim.Clock(); c < 10 {
		t.Errorf("clock %.3f, want >= 10 (stalled to the rejoin)", c)
	}

	dead, err := New(chaosConfig(FaultPlan{Events: []FaultEvent{
		{At: 1, Machine: 0, Kind: FaultCrash},
		{At: 1, Machine: 1, Kind: FaultCrash},
	}}))
	if err != nil {
		t.Fatal(err)
	}
	dead.Advance(2)
	if err := dead.RunStage([]Task{{Compute: 1}}); !errors.Is(err, ErrNoLiveMachines) {
		t.Fatalf("err = %v, want ErrNoLiveMachines", err)
	}
}

// TestHazardFlapsDeterministically: a fixed-seed MTBF hazard produces the
// same crash/rejoin history — and the same clock — on two simulators.
func TestHazardFlapsDeterministically(t *testing.T) {
	run := func() ([]string, float64, Stats) {
		sim, err := New(chaosConfig(FaultPlan{MTBF: 3, Repair: 1, Seed: 42}))
		if err != nil {
			t.Fatal(err)
		}
		var events []string
		sim.SetFaultObserver(func(at float64, machine int, kind, detail string) {
			events = append(events, kind)
		})
		for i := 0; i < 20; i++ {
			tasks := make([]Task, 4)
			for j := range tasks {
				tasks[j] = Task{Compute: 0.5}
			}
			if err := sim.RunStage(tasks); err != nil {
				t.Fatalf("stage %d: %v", i, err)
			}
		}
		return events, sim.Clock(), sim.Stats()
	}
	ev1, clock1, st1 := run()
	ev2, clock2, st2 := run()
	if !reflect.DeepEqual(ev1, ev2) || clock1 != clock2 || !reflect.DeepEqual(st1, st2) {
		t.Errorf("hazard runs differ: %v vs %v, clock %.6f vs %.6f", ev1, ev2, clock1, clock2)
	}
	if st1.MachineCrashes == 0 {
		t.Error("hazard injected no crashes over 20 stages")
	}
	if st1.MachineRejoins == 0 {
		t.Error("hazard crashes never rejoined")
	}
}

// TestFreshSimulatorReplaysFaults: the fault schedule lives in the
// configuration, not in what a run did, so a second simulator built from
// the same configuration starts whole and replays the same failures.
func TestFreshSimulatorReplaysFaults(t *testing.T) {
	cfg := chaosConfig(FaultPlan{Events: []FaultEvent{
		{At: 1, Machine: 0, Kind: FaultCrash},
	}})
	first, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	lost := first.RegisterOutput(2)
	first.Advance(2)
	if first.CheckFetch(lost) == nil {
		t.Fatal("fetch after crash should fail")
	}
	second, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if second.LiveMachines() != 2 {
		t.Errorf("live machines of a fresh simulator = %d, want 2", second.LiveMachines())
	}
	id := second.RegisterOutput(2)
	if err := second.CheckFetch(id); err != nil {
		t.Errorf("fresh simulator lost an output before its crash: %v", err)
	}
	second.Advance(2)
	if second.LiveMachines() != 1 || second.CheckFetch(id) == nil {
		t.Error("fresh simulator does not replay the crash")
	}
}
