package sched

import (
	"errors"
	"math"
	"testing"

	"matryoshka/internal/cluster"
)

// testConfig is a small pool: 2 machines × 4 cores, 1 GB each, with
// overheads chosen so arithmetic in assertions stays simple.
func testConfig() cluster.Config {
	cfg := cluster.DefaultConfig()
	cfg.Machines = 2
	cfg.CoresPerMachine = 4
	cfg.MemoryPerMachine = 1 << 30
	cfg.JobLaunchOverhead = 0.5
	cfg.StageOverhead = 0.1
	cfg.TaskOverhead = 0
	cfg.TaskFailureRate = 0
	return cfg
}

// uniformStage builds n identical tasks.
func uniformStage(n int, compute float64, mem int64) []cluster.Task {
	tasks := make([]cluster.Task, n)
	for i := range tasks {
		tasks[i] = cluster.Task{Compute: compute, Memory: mem}
	}
	return tasks
}

func TestRunRejectsBadConfig(t *testing.T) {
	tenants := []TenantSpec{{Name: "a"}}
	jobs := []JobSpec{{Tenant: "a", Stages: [][]cluster.Task{uniformStage(1, 1, 1<<20)}}}
	bad := testConfig()
	bad.Machines = 0
	if _, err := Run(Config{Cluster: bad}, tenants, jobs); err == nil {
		t.Error("Run accepted a zero-machine cluster")
	}
	if _, err := Run(Config{Cluster: testConfig(), Policy: "lottery"}, tenants, jobs); err == nil {
		t.Error("Run accepted an unknown policy")
	}
	unknown := []JobSpec{{Tenant: "b", Stages: jobs[0].Stages}}
	if _, err := Run(Config{Cluster: testConfig()}, tenants, unknown); err == nil {
		t.Error("Run accepted a job naming an unknown tenant")
	}
}

func TestWorkloadSingleJobAccounting(t *testing.T) {
	cfg := Config{Cluster: testConfig()}
	// 16 tasks × 1s on 8 slots = 2 waves; latency = launch 0.5 +
	// stage overhead 0.1 + 2s.
	res, err := Run(cfg,
		[]TenantSpec{{Name: "a"}},
		[]JobSpec{{Tenant: "a", Stages: [][]cluster.Task{uniformStage(16, 1, 1<<20)}}},
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Jobs) != 1 || res.Jobs[0].Err != nil {
		t.Fatalf("unexpected result: %+v", res.Jobs)
	}
	want := 0.5 + 0.1 + 2.0
	if math.Abs(res.Jobs[0].Latency-want) > 1e-9 {
		t.Errorf("latency = %f, want %f", res.Jobs[0].Latency, want)
	}
	if math.Abs(res.Makespan-want) > 1e-9 {
		t.Errorf("makespan = %f, want %f", res.Makespan, want)
	}
	m := res.Metrics
	if m.QueueWaitSec != 0 {
		t.Errorf("an empty cluster charged %f queue wait", m.QueueWaitSec)
	}
	if len(m.Tenants) != 1 || m.Tenants[0].Jobs != 1 {
		t.Errorf("tenant metrics = %+v", m.Tenants)
	}
	if math.Abs(m.Tenants[0].BusySec-16.0) > 1e-9 {
		t.Errorf("busy = %f, want 16", m.Tenants[0].BusySec)
	}
}

func TestWorkloadQueueWaitUnderContention(t *testing.T) {
	cfg := Config{Cluster: testConfig()}
	// Job a fills all 8 slots for 10s; job b arrives just after and its
	// single task must wait for a slot.
	res, err := Run(cfg,
		[]TenantSpec{{Name: "a"}, {Name: "b"}},
		[]JobSpec{
			{Tenant: "a", Arrival: 0, Stages: [][]cluster.Task{uniformStage(8, 10, 1<<20)}},
			{Tenant: "b", Arrival: 0.1, Stages: [][]cluster.Task{uniformStage(1, 1, 1<<20)}},
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.QueueWaitSec <= 0 {
		t.Error("contended stage reported no queue wait")
	}
	// b becomes ready at 0.1+0.5+0.1 = 0.7, can start only when a's
	// tasks finish at 0.6+10 = 10.6, finishes 11.6.
	if got, want := res.Jobs[1].Finish, 11.6; math.Abs(got-want) > 1e-9 {
		t.Errorf("b finished at %f, want %f", got, want)
	}
}

func TestFairShareUnblocksLightTenant(t *testing.T) {
	// A heavy tenant floods the pool at t=0; a light tenant's small jobs
	// trickle in behind. FIFO makes the light jobs wait for the flood;
	// fair share interleaves them.
	lightLatency := func(policy Policy) float64 {
		cfg := Config{Cluster: testConfig(), Policy: policy}
		jobs := []JobSpec{}
		for i := 0; i < 4; i++ {
			jobs = append(jobs, JobSpec{Tenant: "heavy", Arrival: 0,
				Stages: [][]cluster.Task{uniformStage(32, 2, 1<<20)}})
		}
		for i := 0; i < 4; i++ {
			jobs = append(jobs, JobSpec{Tenant: "light", Arrival: 0.2 + 0.1*float64(i),
				Stages: [][]cluster.Task{uniformStage(2, 0.1, 1<<20)}})
		}
		res, err := Run(cfg, []TenantSpec{{Name: "heavy"}, {Name: "light"}}, jobs)
		if err != nil {
			t.Fatal(err)
		}
		var sum float64
		n := 0
		for _, j := range res.Jobs {
			if j.Tenant == "light" {
				if j.Err != nil {
					t.Fatalf("light job failed: %v", j.Err)
				}
				sum += j.Latency
				n++
			}
		}
		return sum / float64(n)
	}
	fifo := lightLatency(PolicyFIFO)
	fair := lightLatency(PolicyFair)
	if fair >= fifo {
		t.Errorf("fair share did not help the light tenant: fifo %.3f, fair %.3f", fifo, fair)
	}
	if fair > 2*fifo/5 {
		t.Logf("note: fair %.3f vs fifo %.3f (improvement smaller than expected)", fair, fifo)
	}
}

func TestSpeculationCutsStragglerTail(t *testing.T) {
	run := func(speculate bool) (float64, Metrics) {
		cfg := Config{
			Cluster:   testConfig(),
			Speculate: speculate,
			Straggle:  Skew{Rate: 0.1, Factor: 8, Seed: 3},
		}
		res, err := Run(cfg,
			[]TenantSpec{{Name: "a"}},
			[]JobSpec{{Tenant: "a", Stages: [][]cluster.Task{uniformStage(64, 1, 1<<20)}}},
		)
		if err != nil {
			t.Fatal(err)
		}
		if res.Jobs[0].Err != nil {
			t.Fatal(res.Jobs[0].Err)
		}
		return res.Makespan, res.Metrics
	}
	base, _ := run(false)
	spec, m := run(true)
	if m.SpecLaunched == 0 || m.SpecWon == 0 {
		t.Fatalf("speculation never fired: %+v", m)
	}
	if spec >= base {
		t.Errorf("speculation did not cut the tail: base %.3f, spec %.3f", base, spec)
	}
	if m.SpecWastedSec <= 0 {
		t.Error("winning backups should charge the losing copy's burned time")
	}
}

func TestTaskOverMachineMemoryFailsStageWithOOM(t *testing.T) {
	cfg := Config{Cluster: testConfig()}
	res, err := Run(cfg,
		[]TenantSpec{{Name: "a"}},
		[]JobSpec{{Tenant: "a", Stages: [][]cluster.Task{uniformStage(1, 1, 2<<30)}}},
	)
	if err != nil {
		t.Fatal(err)
	}
	var oom *cluster.OOMError
	if !errors.As(res.Jobs[0].Err, &oom) {
		t.Fatalf("err = %v, want OOMError", res.Jobs[0].Err)
	}
	if !errors.Is(res.Jobs[0].Err, cluster.ErrOutOfMemory) {
		t.Error("OOM should unwrap to ErrOutOfMemory for the engine's recovery path")
	}
}
