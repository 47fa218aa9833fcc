package engine

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"matryoshka/internal/cluster"
	"matryoshka/internal/obs"
)

// chaosConfig is the recoverConfig cluster with ample memory and a fault
// plan attached: machine failures are the only failure mode in play.
func chaosConfig(fp cluster.FaultPlan) (Config, *obs.Recorder) {
	cfg, rec := recoverConfig(1 << 30)
	cfg.Cluster.Faults = fp
	return cfg, rec
}

// chaosWorkload is a diamond with two independently materialized shuffle
// parents: side a (reduce, 3 parts) and side b (group, 5 parts) join at 4
// parts, so both sides shuffle and the join stage fetches two boundary
// outputs that were registered at different virtual times. A crash between
// those times destroys the earlier side's resident partitions while the
// later side (registered post-crash) survives — exactly the window where a
// fetch failure with partial lineage loss is observable.
func chaosWorkload(s *Session) (map[int]int64, error) {
	left := Parallelize(s, makePairs(600), 3)
	right := Parallelize(s, makePairs(600), 5)
	a := ReduceByKeyN(left, func(x, y int64) int64 { return x + y }, 3)
	b := MapValues(GroupByKeyN(right, 5), func(vs []int64) int64 { return int64(len(vs)) })
	j := JoinWith(a, b, JoinRepartition, 4)
	return CollectMap(MapValues(j, func(t Tuple2[int64, int64]) int64 { return t.A + t.B }))
}

// chaosCrashTime runs the workload fault-free and returns a virtual time
// strictly inside the window of the last pre-join stage: after the earlier
// shuffle outputs are resident, before the final parent registers. The
// simulator is deterministic, so the same instant lands in the same window
// on every faulty run.
func chaosCrashTime(t *testing.T) float64 {
	t.Helper()
	cfg, rec := chaosConfig(cluster.FaultPlan{})
	s := mustSession(cfg)
	defer s.Close()
	if _, err := chaosWorkload(s); err != nil {
		t.Fatalf("clean run: %v", err)
	}
	jobs := rec.Jobs()
	if len(jobs) != 1 {
		t.Fatalf("clean run produced %d jobs, want 1", len(jobs))
	}
	stages := jobs[0].Stages
	if len(stages) < 3 {
		t.Fatalf("clean run produced %d stages, want >= 3", len(stages))
	}
	at := cfg.Cluster.JobLaunchOverhead
	for _, st := range stages[:len(stages)-2] {
		at += st.Seconds
	}
	return at + stages[len(stages)-2].Seconds/2
}

// TestFetchFailureRecomputesLineage is the tentpole's end-to-end check: a
// machine crash mid-job destroys resident shuffle outputs, the consuming
// stage raises a typed fetch failure, the engine rewinds the lost parents
// along lineage and recomputes only them, and the job completes with the
// same answer as a fault-free run — all deterministically.
func TestFetchFailureRecomputesLineage(t *testing.T) {
	crashAt := chaosCrashTime(t)
	fp := cluster.FaultPlan{Events: []cluster.FaultEvent{
		{At: crashAt, Machine: 0, Kind: cluster.FaultCrash},
	}}

	run := func() (map[int]int64, float64, cluster.Stats, string) {
		cfg, rec := chaosConfig(fp)
		s := mustSession(cfg)
		defer s.Close()
		got, err := chaosWorkload(s)
		if err != nil {
			t.Fatalf("chaos run: %v", err)
		}
		return got, s.Clock(), s.Stats(), rec.Report()
	}

	got, clock, stats, report := run()
	if len(got) != 600 {
		t.Fatalf("join produced %d keys, want 600", len(got))
	}
	for k := 0; k < 600; k++ {
		if got[k] != int64(k)+1 {
			t.Fatalf("key %d = %d, want %d", k, got[k], k+1)
		}
	}
	if stats.MachineCrashes != 1 {
		t.Errorf("MachineCrashes = %d, want 1", stats.MachineCrashes)
	}
	if stats.FetchFailures == 0 {
		t.Error("no fetch failures recorded despite mid-job crash")
	}
	for _, want := range []string{
		"fetch-failed(m0)",
		"recomputed parents {",
		"→ ok",
		"Fault events: 1 crashes, 0 rejoins",
		"machine 0 crash",
	} {
		if !strings.Contains(report, want) {
			t.Errorf("report missing %q:\n%s", want, report)
		}
	}

	// The outcome is pinned, not only repeatable: these are the numbers of
	// the engine that held every routed block to the end of the job. Which
	// deps count as fetched before the crash — so what is lost, recomputed
	// and charged — must not depend on whether their blocks are still held.
	wantStats := cluster.Stats{Jobs: 1, Stages: 7, Tasks: 26, BusySeconds: 0.12414566400000002, MachineCrashes: 1, FetchFailures: 3}
	if clock != 1.10757576 || stats != wantStats {
		t.Errorf("chaos outcome moved: clock %v, stats %+v; want 1.10757576, %+v", clock, stats, wantStats)
	}

	// Fixed-seed fault injection is bit-identical across runs.
	got2, clock2, stats2, report2 := run()
	if !reflect.DeepEqual(got, got2) || clock != clock2 || stats != stats2 || report != report2 {
		t.Errorf("chaos runs diverged: clock %.6f vs %.6f", clock, clock2)
	}

	// And the crash costs time: recomputation plus the lost machine.
	cleanCfg, _ := chaosConfig(cluster.FaultPlan{})
	clean := mustSession(cleanCfg)
	defer clean.Close()
	if _, err := chaosWorkload(clean); err != nil {
		t.Fatal(err)
	}
	if clock <= clean.Clock() {
		t.Errorf("chaos clock %.3f not above clean clock %.3f", clock, clean.Clock())
	}
}

// TestFetchFailureWithoutRecoveryAborts: the same crash with the recovery
// loop disabled aborts the job with the typed fetch-failure error.
func TestFetchFailureWithoutRecoveryAborts(t *testing.T) {
	crashAt := chaosCrashTime(t)
	cfg, _ := chaosConfig(cluster.FaultPlan{Events: []cluster.FaultEvent{
		{At: crashAt, Machine: 0, Kind: cluster.FaultCrash},
	}})
	cfg.Recover = false
	s := mustSession(cfg)
	defer s.Close()
	if _, err := chaosWorkload(s); !errors.Is(err, cluster.ErrFetchFailed) {
		t.Fatalf("err = %v, want ErrFetchFailed", err)
	}
}

// TestWholeClusterOutageStallsAndResumes: every machine crashes mid-job;
// the job stalls until the rejoin, recomputes everything it lost, and
// still produces the right answer.
func TestWholeClusterOutageStallsAndResumes(t *testing.T) {
	crashAt := chaosCrashTime(t)
	rejoinAt := crashAt + 20
	cfg, rec := chaosConfig(cluster.FaultPlan{Events: []cluster.FaultEvent{
		{At: crashAt, Machine: 0, Kind: cluster.FaultCrash},
		{At: crashAt, Machine: 1, Kind: cluster.FaultCrash},
		{At: rejoinAt, Machine: 0, Kind: cluster.FaultRejoin},
		{At: rejoinAt, Machine: 1, Kind: cluster.FaultRejoin},
	}})
	s := mustSession(cfg)
	defer s.Close()
	got, err := chaosWorkload(s)
	if err != nil {
		t.Fatalf("outage run: %v", err)
	}
	if len(got) != 600 || got[599] != 600 {
		t.Fatalf("wrong result after outage: %d keys", len(got))
	}
	if c := s.Clock(); c < rejoinAt {
		t.Errorf("clock %.3f, want >= %.3f (stalled to the rejoin)", c, rejoinAt)
	}
	if st := s.Stats(); st.MachineCrashes != 2 || st.MachineRejoins != 2 {
		t.Errorf("stats = %+v, want 2 crashes and 2 rejoins", st)
	}
	if report := rec.Report(); !strings.Contains(report, "Fault events: 2 crashes, 2 rejoins") {
		t.Errorf("report missing fault summary:\n%s", report)
	}
}

// TestPermanentOutageAborts: when an explicit plan kills every machine
// with no rejoin scheduled, the job fails with the typed dead-cluster
// error rather than spinning.
func TestPermanentOutageAborts(t *testing.T) {
	crashAt := chaosCrashTime(t)
	cfg, _ := chaosConfig(cluster.FaultPlan{Events: []cluster.FaultEvent{
		{At: crashAt, Machine: 0, Kind: cluster.FaultCrash},
		{At: crashAt, Machine: 1, Kind: cluster.FaultCrash},
	}})
	s := mustSession(cfg)
	defer s.Close()
	if _, err := chaosWorkload(s); !errors.Is(err, cluster.ErrNoLiveMachines) {
		t.Fatalf("err = %v, want ErrNoLiveMachines", err)
	}
}

// TestFlappingHazardIsBoundedAndDeterministic: under a pathologically
// flaky hazard (MTBF on the order of a stage) the job either completes —
// having paid for recomputation — or aborts with the full failure report;
// either way the outcome is bit-identical across runs and the recompute
// caps keep it from spinning forever.
func TestFlappingHazardIsBoundedAndDeterministic(t *testing.T) {
	run := func() (map[int]int64, error, float64, string) {
		cfg, rec := chaosConfig(cluster.FaultPlan{MTBF: 0.05, Repair: 0.03, Seed: 11})
		s := mustSession(cfg)
		defer s.Close()
		got, err := chaosWorkload(s)
		return got, err, s.Clock(), rec.Report()
	}
	got1, err1, clock1, report1 := run()
	got2, err2, clock2, report2 := run()
	if (err1 == nil) != (err2 == nil) || clock1 != clock2 || report1 != report2 {
		t.Fatalf("flapping runs diverged: err %v vs %v, clock %.6f vs %.6f", err1, err2, clock1, clock2)
	}
	// Pinned like TestFetchFailureRecomputesLineage's: five fetch failures
	// deep, every relaunch re-reads or re-routes its inputs.
	if err1 != nil || clock1 != 1.2456007403143814 {
		t.Errorf("flapping outcome moved: err %v, clock %v; want a completed job at 1.2456007403143814", err1, clock1)
	}
	if err1 != nil {
		if !errors.Is(err1, cluster.ErrFetchFailed) {
			t.Fatalf("abort err = %v, want ErrFetchFailed in chain", err1)
		}
		if msg := err1.Error(); !strings.Contains(msg, "job aborted by machine failures") {
			t.Errorf("abort message = %q", msg)
		}
	} else {
		if !reflect.DeepEqual(got1, got2) {
			t.Error("flapping runs produced different results")
		}
		if len(got1) != 600 {
			t.Errorf("flapping run produced %d keys, want 600", len(got1))
		}
		if !strings.Contains(report1, "fetch-failed(m") {
			t.Errorf("flapping run recovered without any fetch failure:\n%s", report1)
		}
	}
}
