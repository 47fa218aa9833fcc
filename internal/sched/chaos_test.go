package sched

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"matryoshka/internal/cluster"
)

// TestCrashRequeuesRunningTasks: a crash mid-stage kills the machine's
// running tasks; fresh copies queue behind the survivors and the elapsed
// time stays charged as waste. 8 tasks × 2s fill both machines at t=0.6;
// machine 0 crashes at t=1.6 (1s in), its 4 tasks re-queue and run on
// machine 1 when it frees at 2.6 → makespan 4.6.
func TestCrashRequeuesRunningTasks(t *testing.T) {
	s, err := New(Config{
		Cluster: testConfig(),
		Chaos: cluster.FaultPlan{Events: []cluster.FaultEvent{
			{At: 1.6, Machine: 0, Kind: cluster.FaultCrash},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.RunWorkload(
		[]TenantSpec{{Name: "a"}},
		[]JobSpec{{Tenant: "a", Stages: [][]cluster.Task{uniformStage(8, 2, 1<<20)}}},
	)
	if err != nil {
		t.Fatal(err)
	}
	if res.Jobs[0].Err != nil {
		t.Fatalf("job failed: %v", res.Jobs[0].Err)
	}
	if want := 4.6; math.Abs(res.Makespan-want) > 1e-9 {
		t.Errorf("makespan = %f, want %f", res.Makespan, want)
	}
	m := res.Metrics
	if m.Crashes != 1 || m.Rejoins != 0 {
		t.Errorf("crashes/rejoins = %d/%d, want 1/0", m.Crashes, m.Rejoins)
	}
	if m.Requeues != 4 {
		t.Errorf("requeues = %d, want 4", m.Requeues)
	}
	if want := 4.0; math.Abs(m.RequeueWastedSec-want) > 1e-9 {
		t.Errorf("requeue waste = %f, want %f", m.RequeueWastedSec, want)
	}
	// Busy time = 8 useful runs × 2s + 4 killed 1s attempts.
	if want := 20.0; math.Abs(m.Tenants[0].BusySec-want) > 1e-9 {
		t.Errorf("busy = %f, want %f", m.Tenants[0].BusySec, want)
	}
}

// TestRejoinRestoresCapacityAndBlacklistsRepeatOffender: a machine's
// first rejoin is immediate re-admission; after its second crash it is
// blacklisted for Repair seconds past the rejoin, so the re-queued tasks
// wait for the healthy machine instead of landing back on the flaky one.
func TestRejoinRestoresCapacityAndBlacklistsRepeatOffender(t *testing.T) {
	s, err := New(Config{
		Cluster: testConfig(),
		Chaos: cluster.FaultPlan{
			Repair: 1,
			Events: []cluster.FaultEvent{
				{At: 0.2, Machine: 0, Kind: cluster.FaultCrash},
				{At: 0.4, Machine: 0, Kind: cluster.FaultRejoin},
				{At: 1.0, Machine: 0, Kind: cluster.FaultCrash},
				{At: 1.2, Machine: 0, Kind: cluster.FaultRejoin},
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// 8 tasks × 1s start at 0.6 on both machines (machine 0 is back by
	// then). The 1.0 crash kills machine 0's four 0.4s-old tasks; its 1.2
	// rejoin is blacklisted until 2.2, so the re-queued tasks run on
	// machine 1 at 1.6 → makespan 2.6. Without the blacklist they would
	// have restarted on machine 0 at 1.2.
	res, err := s.RunWorkload(
		[]TenantSpec{{Name: "a"}},
		[]JobSpec{{Tenant: "a", Stages: [][]cluster.Task{uniformStage(8, 1, 1<<20)}}},
	)
	if err != nil {
		t.Fatal(err)
	}
	if res.Jobs[0].Err != nil {
		t.Fatalf("job failed: %v", res.Jobs[0].Err)
	}
	if want := 2.6; math.Abs(res.Makespan-want) > 1e-9 {
		t.Errorf("makespan = %f, want %f (blacklist not honoured?)", res.Makespan, want)
	}
	m := res.Metrics
	if m.Crashes != 2 || m.Rejoins != 2 {
		t.Errorf("crashes/rejoins = %d/%d, want 2/2", m.Crashes, m.Rejoins)
	}
	if m.Requeues != 4 {
		t.Errorf("requeues = %d, want 4", m.Requeues)
	}
	if want := 1.6; math.Abs(m.RequeueWastedSec-want) > 1e-9 {
		t.Errorf("requeue waste = %f, want %f", m.RequeueWastedSec, want)
	}
}

// TestStrandedPoolFailsJobs: an explicit plan that kills every machine
// with no rejoin fails the open jobs with the typed dead-cluster error
// instead of hanging the workload.
func TestStrandedPoolFailsJobs(t *testing.T) {
	s, err := New(Config{
		Cluster: testConfig(),
		Chaos: cluster.FaultPlan{Events: []cluster.FaultEvent{
			{At: 0.7, Machine: 0, Kind: cluster.FaultCrash},
			{At: 0.7, Machine: 1, Kind: cluster.FaultCrash},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.RunWorkload(
		[]TenantSpec{{Name: "a"}},
		[]JobSpec{{Tenant: "a", Stages: [][]cluster.Task{uniformStage(8, 2, 1<<20)}}},
	)
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(res.Jobs[0].Err, cluster.ErrNoLiveMachines) {
		t.Fatalf("job err = %v, want ErrNoLiveMachines", res.Jobs[0].Err)
	}
	if res.Metrics.Requeues != 8 {
		t.Errorf("requeues = %d, want 8 (both machines' tasks killed)", res.Metrics.Requeues)
	}
}

// TestHazardWorkloadBitIdentical: a flaky pool under a fixed-seed MTBF
// hazard produces exactly equal workload results — latencies, makespan,
// crash and requeue counters — on every run.
func TestHazardWorkloadBitIdentical(t *testing.T) {
	run := func() WorkloadResult {
		s, err := New(Config{
			Cluster: testConfig(),
			Policy:  PolicyFair,
			Chaos:   cluster.FaultPlan{MTBF: 6, Repair: 1, Seed: 5},
		})
		if err != nil {
			t.Fatal(err)
		}
		var jobs []JobSpec
		for i := 0; i < 20; i++ {
			tenant := "a"
			if i%3 == 0 {
				tenant = "b"
			}
			jobs = append(jobs, JobSpec{
				Tenant:  tenant,
				Arrival: 0.5 * float64(i),
				Stages: [][]cluster.Task{
					uniformStage(6+i%5, 0.4, 1<<20),
					uniformStage(4, 0.3, 1<<20),
				},
			})
		}
		res, err := s.RunWorkload(
			[]TenantSpec{{Name: "a"}, {Name: "b", Weight: 2}},
			jobs,
		)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	base := run()
	if base.Metrics.Crashes == 0 || base.Metrics.Requeues == 0 {
		t.Fatalf("hazard too tame to test anything: %+v", base.Metrics)
	}
	for _, j := range base.Jobs {
		if j.Err != nil {
			t.Fatalf("job failed under hazard: %v", j.Err)
		}
	}
	for i := 0; i < 3; i++ {
		if got := run(); !reflect.DeepEqual(base, got) {
			t.Fatalf("hazard run %d diverged:\nbase: %+v\ngot:  %+v", i, base.Metrics, got.Metrics)
		}
	}
}
