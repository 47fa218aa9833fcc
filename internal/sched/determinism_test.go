package sched

// Determinism is the scheduler's hard requirement: for a fixed seed,
// virtual-clock results are bit-identical across runs. These tests
// compare whole results with exact float equality: any dependence on
// map order or other run-varying state shows up as a diff, not a
// tolerance violation.

import (
	"reflect"
	"testing"

	"matryoshka/internal/cluster"
)

// TestWorkloadBitIdentical repeats an identical declared workload and
// requires exactly equal latencies, makespan, and metrics.
func TestWorkloadBitIdentical(t *testing.T) {
	run := func() WorkloadResult {
		cfg := Config{
			Cluster:   testConfig(),
			Policy:    PolicyFair,
			Speculate: true,
			Straggle:  Skew{Rate: 0.2, Factor: 8, Seed: 42},
		}
		var jobs []JobSpec
		for i := 0; i < 20; i++ {
			tenant := "a"
			if i%3 == 0 {
				tenant = "b"
			}
			jobs = append(jobs, JobSpec{
				Tenant:  tenant,
				Arrival: 0.3 * float64(i%7),
				Stages: [][]cluster.Task{
					uniformStage(4+i%9, 0.05+0.01*float64(i%5), 1<<20),
					uniformStage(2+i%3, 0.1, 1<<20),
				},
			})
		}
		res, err := Run(cfg,
			[]TenantSpec{{Name: "a", Weight: 1}, {Name: "b", Weight: 2}},
			jobs,
		)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	base := run()
	for i := 0; i < 3; i++ {
		if got := run(); !reflect.DeepEqual(base, got) {
			t.Fatalf("workload run %d diverged:\nbase: %+v\ngot:  %+v", i, base, got)
		}
	}
}

// TestSpeculationAccountingConsistent cross-checks the speculation
// counters: every win implies a launch, and wins never exceed launches;
// wasted time only appears when something won or was cancelled.
func TestSpeculationAccountingConsistent(t *testing.T) {
	cfg := Config{
		Cluster:   testConfig(),
		Speculate: true,
		Straggle:  Skew{Rate: 0.25, Factor: 10, Seed: 5},
	}
	var jobs []JobSpec
	for i := 0; i < 6; i++ {
		jobs = append(jobs, JobSpec{Tenant: "a", Arrival: float64(i),
			Stages: [][]cluster.Task{uniformStage(32, 0.5, 1<<20)}})
	}
	res, err := Run(cfg, []TenantSpec{{Name: "a"}}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	m := res.Metrics
	if m.SpecWon > m.SpecLaunched {
		t.Errorf("SpecWon %d > SpecLaunched %d", m.SpecWon, m.SpecLaunched)
	}
	if m.SpecLaunched == 0 {
		t.Error("25% straggler rate at factor 10 should trigger speculation")
	}
	if m.SpecWon > 0 && m.SpecWastedSec <= 0 {
		t.Error("wins without any wasted core·seconds")
	}
}
