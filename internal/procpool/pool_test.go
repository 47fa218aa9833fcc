package procpool

import (
	"context"
	"os"
	"reflect"
	"strings"
	"syscall"
	"testing"
	"time"

	"matryoshka/internal/cluster"
	"matryoshka/internal/engine"
	"matryoshka/internal/obs"
	"matryoshka/internal/tasks"
)

// TestMain is the worker hook: pool workers are re-execs of this very
// test binary, so a worker launch must divert into the protocol loop
// before the test framework runs anything.
func TestMain(m *testing.M) {
	if IsWorker() {
		WorkerMain()
	}
	os.Exit(m.Run())
}

// withBackend routes every session the tasks package builds through the
// pool for the duration of f. Tests using it must not run in parallel.
func withBackend(t *testing.T, b engine.Backend, f func()) {
	t.Helper()
	old := tasks.Backend
	tasks.Backend = b
	defer func() { tasks.Backend = old }()
	f()
}

func startPool(t *testing.T, cfg Config) *Pool {
	t.Helper()
	p, err := Start(cfg)
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(p.Close)
	return p
}

// TestChaosABBitIdentical runs the chaos diamond on a private simulator
// and again on the process pool: the values must be DeepEqual, and the
// proc run must actually have shipped tasks to worker processes.
func TestChaosABBitIdentical(t *testing.T) {
	pool := startPool(t, Config{Workers: 2})
	sp := tasks.ChaosSpec{Records: 3000, Keys: 64, Parts: 4, Rounds: 2}

	simOut := sp.Run(cluster.Config{})
	if simOut.Err != nil {
		t.Fatalf("sim run: %v", simOut.Err)
	}
	var procOut tasks.Outcome
	withBackend(t, pool, func() { procOut = sp.Run(cluster.Config{}) })
	if procOut.Err != nil {
		t.Fatalf("proc run: %v", procOut.Err)
	}
	if !reflect.DeepEqual(simOut.Value, procOut.Value) {
		t.Fatalf("values differ:\n sim: %+v\nproc: %+v", simOut.Value, procOut.Value)
	}
	if want := sp.Reference(); !reflect.DeepEqual(procOut.Value, want) {
		t.Fatalf("proc value %+v != reference %+v", procOut.Value, want)
	}
	if pool.RemoteTasks() == 0 {
		t.Fatal("no tasks ran in worker processes")
	}
	if pool.BytesShipped() == 0 {
		t.Fatal("no bytes crossed the process boundary")
	}
}

// TestKMeansInnerABBitIdentical is the Fig. 1 workload's inner-parallel
// plan: its assign map ships a JSON-parameterized UDF (the per-iteration
// centroids), so bit-identical results prove float64 parameters survive
// the driver→worker round trip exactly.
func TestKMeansInnerABBitIdentical(t *testing.T) {
	pool := startPool(t, Config{Workers: 2})
	sp := tasks.KMeansSpec{TotalPoints: 2000, K: 3, Configs: 3, Eps: 1e-6, MaxIters: 4, Seed: 1}

	simOut := sp.Run(tasks.InnerParallel, cluster.Config{})
	if simOut.Err != nil {
		t.Fatalf("sim run: %v", simOut.Err)
	}
	var procOut tasks.Outcome
	withBackend(t, pool, func() { procOut = sp.Run(tasks.InnerParallel, cluster.Config{}) })
	if procOut.Err != nil {
		t.Fatalf("proc run: %v", procOut.Err)
	}
	if !reflect.DeepEqual(simOut.Value, procOut.Value) {
		t.Fatalf("values differ:\n sim: %+v\nproc: %+v", simOut.Value, procOut.Value)
	}
	if pool.RemoteTasks() == 0 {
		t.Fatal("no tasks ran in worker processes")
	}
}

// TestWorkerCrashRecovery kills a worker mid-stage (the KillAfterTasks
// hook) and asserts the run still completes correctly: the dead worker's
// registered shuffle outputs surface as a cluster.FetchFailedError at the
// consuming stage, and the engine's existing lineage recovery rewinds and
// recomputes them — visible as a Recovery line in EXPLAIN ANALYZE.
func TestWorkerCrashRecovery(t *testing.T) {
	// Task 10 of the pool's lifetime lands in the chaos diamond's
	// group-count stage, after the reduce parent's outputs registered.
	// Respawn is off so the fleet stays shrunk and the LiveWorkers
	// assertion is deterministic (health_test.go covers respawn).
	pool := startPool(t, Config{Workers: 2, KillAfterTasks: 10, DisableRespawn: true})
	sp := tasks.ChaosSpec{Records: 2000, Keys: 50, Parts: 4, Rounds: 2}

	rec := obs.NewRecorder()
	oldObs := tasks.Obs
	tasks.Obs = rec
	defer func() { tasks.Obs = oldObs }()

	var out tasks.Outcome
	withBackend(t, pool, func() { out = sp.Run(cluster.Config{}) })
	if out.Err != nil {
		t.Fatalf("run with mid-stage crash: %v", out.Err)
	}
	if want := sp.Reference(); !reflect.DeepEqual(out.Value, want) {
		t.Fatalf("value %+v != reference %+v", out.Value, want)
	}
	st := pool.Stats()
	if st.MachineCrashes == 0 {
		t.Fatal("kill hook never fired: no machine crash recorded")
	}
	if st.FetchFailures == 0 {
		t.Fatal("crash lost no shuffle outputs: no fetch failure recorded")
	}
	if pool.LiveWorkers() != 1 {
		t.Fatalf("live workers = %d, want 1", pool.LiveWorkers())
	}
	report := rec.Report()
	if !strings.Contains(report, "Recovery") {
		t.Fatalf("EXPLAIN ANALYZE shows no Recovery line:\n%s", report)
	}
}

// TestSpillToDisk shrinks the block-store budget to a single byte so
// every stored frame spills, and asserts results are still correct.
func TestSpillToDisk(t *testing.T) {
	pool := startPool(t, Config{Workers: 2, MemoryBudget: 1})
	sp := tasks.ChaosSpec{Records: 1500, Keys: 32, Parts: 3, Rounds: 1}

	var out tasks.Outcome
	withBackend(t, pool, func() { out = sp.Run(cluster.Config{}) })
	if out.Err != nil {
		t.Fatalf("run: %v", out.Err)
	}
	if want := sp.Reference(); !reflect.DeepEqual(out.Value, want) {
		t.Fatalf("value %+v != reference %+v", out.Value, want)
	}
	blocks, bytes := pool.Spills()
	if blocks == 0 || bytes == 0 {
		t.Fatalf("nothing spilled under a 1-byte budget (blocks=%d bytes=%d)", blocks, bytes)
	}
	if pool.RemoteTasks() == 0 {
		t.Fatal("no tasks ran in worker processes")
	}
}

// TestHeartbeatDetectsStoppedWorker SIGSTOPs a worker: it is not dead
// (the connection stays open, no process exit), so only the heartbeat
// timeout can catch it.
func TestHeartbeatDetectsStoppedWorker(t *testing.T) {
	pool := startPool(t, Config{Workers: 2, HeartbeatEvery: 20 * time.Millisecond, HeartbeatTimeout: 300 * time.Millisecond, DisableRespawn: true})
	w := pool.workerList[0]
	if err := syscall.Kill(w.pid, syscall.SIGSTOP); err != nil {
		t.Fatalf("SIGSTOP: %v", err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for !w.isDead() {
		if time.Now().After(deadline) {
			t.Fatal("stopped worker was never declared dead")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if got := pool.Stats().MachineCrashes; got != 1 {
		t.Fatalf("MachineCrashes = %d, want 1", got)
	}
	if pool.LiveWorkers() != 1 {
		t.Fatalf("live workers = %d, want 1", pool.LiveWorkers())
	}

	// The pool still works on the survivor.
	sp := tasks.ChaosSpec{Records: 800, Keys: 16, Parts: 2, Rounds: 1}
	var out tasks.Outcome
	withBackend(t, pool, func() { out = sp.Run(cluster.Config{}) })
	if out.Err != nil {
		t.Fatalf("run after worker loss: %v", out.Err)
	}
	if want := sp.Reference(); !reflect.DeepEqual(out.Value, want) {
		t.Fatalf("value %+v != reference %+v", out.Value, want)
	}
}

// TestBlockStoreSpillRoundTrip exercises the store directly: frames must
// come back bit-identical whether they stayed in memory or spilled.
func TestBlockStoreSpillRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := newBlockStore(dir, 32) // tiny: most frames spill
	var ids []uint64
	var want [][]byte
	for i := 0; i < 10; i++ {
		frame := make([]byte, 16+i)
		for j := range frame {
			frame[j] = byte(i*31 + j)
		}
		id, err := s.put(frame)
		if err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
		ids = append(ids, id)
		want = append(want, frame)
	}
	blocks, _ := s.spillStats()
	if blocks == 0 {
		t.Fatal("nothing spilled under a 32-byte budget")
	}
	for i, id := range ids {
		got, err := s.get(id)
		if err != nil {
			t.Fatalf("get %d: %v", id, err)
		}
		if !reflect.DeepEqual(got, want[i]) {
			t.Fatalf("block %d corrupted by spill", id)
		}
	}
	s.clear()
	if _, err := s.get(ids[0]); err == nil {
		t.Fatal("cleared block still readable")
	}
	left, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range left {
		if strings.HasPrefix(e.Name(), "blk-") {
			t.Fatalf("spill file %s survived clear", e.Name())
		}
	}
}

// BenchmarkRemoteStage is the pool's own per-layer number: one stage of
// 1 200 single-block identity tasks on two workers — the paper's 3 × cores
// partitions over almost no data, where nothing but dispatch costs — with
// the blocks stored before the clock starts and dropped, on the driver and
// in the workers, after it stops. Host-bound (three processes share the
// cores), so it is quoted in EXPERIMENTS.md, not gated.
func BenchmarkRemoteStage(b *testing.B) {
	const tasks = 1200
	pool, err := Start(Config{Workers: 2})
	if err != nil {
		b.Fatal(err)
	}
	defer pool.Close()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		spec, want := blockSpec(b, pool, "bench-stage", tasks)
		b.StartTimer()
		res, err := pool.RunRemoteStage(context.Background(), spec)
		b.StopTimer()
		if err != nil {
			b.Fatal(err)
		}
		checkParts(b, res.Parts, want)
		pool.ReleaseBroadcasts()
		b.StartTimer()
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*tasks), "µs/task")
}
