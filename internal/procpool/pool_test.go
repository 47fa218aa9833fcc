package procpool

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"matryoshka/internal/cluster"
	"matryoshka/internal/engine"
	"matryoshka/internal/obs"
	"matryoshka/internal/taskreg"
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
// the driver→worker round trip exactly. Its points are cached, so the
// pool must receive them once per session: every job lists the same
// resident blocks, and the puts are those blocks plus every job's shuffle
// blocks. A second session on the same pool puts them afresh and computes
// the same value, and once both sessions are closed nothing is left in
// the store, on its disk or in the driver's view of any worker. The small
// store budget makes blocks spill, resident ones too, in the job that puts
// them.
func TestKMeansInnerABBitIdentical(t *testing.T) {
	pool := startPool(t, Config{Workers: 2, MemoryBudget: 16 << 10})
	sp := tasks.KMeansSpec{TotalPoints: 2000, K: 3, Configs: 3, Eps: 1e-6, MaxIters: 4, Seed: 1}

	simOut := sp.Run(tasks.InnerParallel, cluster.Config{})
	if simOut.Err != nil {
		t.Fatalf("sim run: %v", simOut.Err)
	}
	var resident [][]uint64
	for session := 1; session <= 2; session++ {
		procOut, log, puts := runLogged(t, pool, func() tasks.Outcome { return sp.Run(tasks.InnerParallel, cluster.Config{}) })
		if procOut.Err != nil {
			t.Fatalf("session %d: proc run: %v", session, procOut.Err)
		}
		if !reflect.DeepEqual(simOut.Value, procOut.Value) {
			t.Fatalf("session %d: values differ:\n sim: %+v\nproc: %+v", session, simOut.Value, procOut.Value)
		}
		resident = append(resident, log.checkPutOnce(t, puts))
	}
	for _, id := range resident[1] {
		if slices.Contains(resident[0], id) {
			t.Fatalf("second session reuses block %d of the first", id)
		}
	}
	if pool.RemoteTasks() == 0 {
		t.Fatal("no tasks ran in worker processes")
	}
	if blocks, _ := pool.Spills(); blocks == 0 {
		t.Fatal("nothing spilled under a 16 KiB budget")
	}
	checkReleased(t, pool)
}

// jobLog passes a session's backend calls through to a pool and records,
// per job, the specs that ran. At every job end it checks that the store
// kept exactly the blocks those specs listed as resident.
type jobLog struct {
	*Pool
	t     *testing.T
	tried []*engine.RemoteStageSpec   // every spec, failed ones too
	jobs  [][]*engine.RemoteStageSpec // the specs that ran, one entry per ReleaseBroadcasts
	cur   []*engine.RemoteStageSpec
}

func (l *jobLog) RunRemoteStage(ctx context.Context, spec *engine.RemoteStageSpec) (*engine.RemoteStageResult, error) {
	l.tried = append(l.tried, spec)
	res, err := l.Pool.RunRemoteStage(ctx, spec)
	if err == nil {
		l.cur = append(l.cur, spec)
	}
	return res, err
}

func (l *jobLog) ReleaseBroadcasts() {
	l.Pool.ReleaseBroadcasts()
	if got, want := l.storeIDs(), residentIDs(l.cur); !reflect.DeepEqual(got, want) {
		l.t.Errorf("job %d end: store holds %v, want the resident %v", len(l.jobs)+1, got, want)
	}
	l.jobs = append(l.jobs, l.cur)
	l.cur = nil
}

// runLogged runs f with every session the tasks package builds on a
// jobLog over pool, and returns its outcome, the log and the blocks put.
func runLogged(t *testing.T, pool *Pool, f func() tasks.Outcome) (tasks.Outcome, *jobLog, int64) {
	t.Helper()
	log := &jobLog{Pool: pool, t: t}
	before := atomic.LoadInt64(&pool.localPut)
	var out tasks.Outcome
	withBackend(t, log, func() { out = f() })
	return out, log, atomic.LoadInt64(&pool.localPut) - before
}

// checkPutOnce checks a fault-free session: every job lists the same
// resident blocks, the session's Close released the pool once more with
// nothing listed, and the blocks put are the resident ones once plus
// every job's others. It returns the resident ids.
func (l *jobLog) checkPutOnce(t *testing.T, puts int64) []uint64 {
	t.Helper()
	if n := len(l.jobs); n < 3 || len(l.jobs[n-1]) != 0 {
		t.Fatalf("%d job ends: want at least two jobs, then Close's with no spec", n)
	}
	jobs := l.jobs[:len(l.jobs)-1]
	resident := residentIDs(jobs[0])
	if len(resident) == 0 {
		t.Fatal("the first job listed no resident block")
	}
	others := 0
	for i, specs := range jobs {
		if got := residentIDs(specs); !reflect.DeepEqual(got, resident) {
			t.Fatalf("job %d lists resident %v, want the first job's %v", i+1, got, resident)
		}
		seen := map[uint64]bool{}
		for _, spec := range specs {
			for ti := range spec.Tasks {
				eachBlock(spec.Tasks[ti].Root, func(id uint64) {
					if !seen[id] && !slices.Contains(resident, id) {
						others++
					}
					seen[id] = true
				})
			}
		}
	}
	if want := int64(len(resident) + others); puts != want {
		t.Fatalf("%d blocks put, want %d: %d resident once and %d others over %d jobs", puts, want, len(resident), others, len(jobs))
	}
	return resident
}

// residentIDs is the sorted union of the specs' Resident lists.
func residentIDs(specs []*engine.RemoteStageSpec) []uint64 {
	ids := []uint64{}
	for _, spec := range specs {
		for _, id := range spec.Resident {
			if !slices.Contains(ids, id) {
				ids = append(ids, id)
			}
		}
	}
	slices.Sort(ids)
	return ids
}

// storeIDs lists the blocks the store holds: as frames in memory or
// spilled, or as batches.
func (p *Pool) storeIDs() []uint64 {
	s := p.store
	s.mu.Lock()
	defer s.mu.Unlock()
	held := map[uint64]bool{}
	for id := range s.mem {
		held[id] = true
	}
	for id := range s.disk {
		held[id] = true
	}
	for id := range s.src {
		held[id] = true
	}
	ids := []uint64{}
	for id := range held {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// checkReleased: the pool holds no block — not in the store, not in a
// spill file, not in the driver's view of any live worker.
func checkReleased(t *testing.T, pool *Pool) {
	t.Helper()
	if ids := pool.storeIDs(); len(ids) != 0 {
		t.Fatalf("store still holds %v", ids)
	}
	files, err := filepath.Glob(filepath.Join(pool.dir, "blk-*"))
	if err != nil || len(files) != 0 {
		t.Fatalf("spill files left: %v (err %v)", files, err)
	}
	for _, w := range pool.liveWorkers() {
		w.wmu.Lock()
		n := len(w.held)
		w.wmu.Unlock()
		if n != 0 {
			t.Fatalf("worker %d is believed to hold %d blocks", w.idx, n)
		}
	}
}

// TestKillInSecondJobPushesFromStore kills the worker that receives the
// first task of an inner k-means session's second job. Its share runs on
// the survivor, which never held that worker's half of the cached points:
// they are pushed from the store, not put again, so the session puts
// exactly what a run without the kill puts. The value is the reference's,
// and nobody is quarantined for a death the kill hook caused.
func TestKillInSecondJobPushesFromStore(t *testing.T) {
	sp := tasks.KMeansSpec{TotalPoints: 2000, K: 3, Configs: 2, Eps: 1e-6, MaxIters: 3, Seed: 2}
	want := sp.Reference()

	clean := startPool(t, Config{Workers: 2})
	out, log, cleanPuts := runLogged(t, clean, func() tasks.Outcome { return sp.Run(tasks.InnerParallel, cluster.Config{}) })
	if out.Err != nil {
		t.Fatalf("run without a kill: %v", out.Err)
	}
	firstJob := 0
	for _, spec := range log.jobs[0] {
		firstJob += len(spec.Tasks)
	}

	pool := startPool(t, Config{Workers: 2, KillAfterTasks: firstJob + 1, RespawnBackoff: 10 * time.Millisecond})
	out, _, puts := runLogged(t, pool, func() tasks.Outcome { return sp.Run(tasks.InnerParallel, cluster.Config{}) })
	if out.Err != nil {
		t.Fatalf("run with a kill in job 2: %v", out.Err)
	}
	if !reflect.DeepEqual(out.Value, want) {
		t.Fatalf("value %+v != reference %+v", out.Value, want)
	}
	if st := pool.Stats(); st.MachineCrashes != 1 || pool.Quarantines() != 0 {
		t.Fatalf("%d crashes and %d quarantines, want 1 and 0", st.MachineCrashes, pool.Quarantines())
	}
	if puts != cleanPuts {
		t.Fatalf("%d blocks put with the kill, %d without: resident blocks were put again", puts, cleanPuts)
	}
	checkReleased(t, pool)
}

// TestCorruptResidentSpillIsPutAgain spills every block and corrupts
// every 100th spill file. A cached dataset of 300 partitions is read by
// three jobs, so the 100th, 200th and 300th puts are resident blocks,
// found lost when they are first pushed. Each loss is a BlockLostError, a
// lineage recovery and one fresh put of that partition; the later jobs
// list the repaired set and put none of it again. Values are exact.
func TestCorruptResidentSpillIsPutAgain(t *testing.T) {
	rec := obs.NewRecorder()
	pool := startPool(t, Config{
		Workers:      2,
		MemoryBudget: 1,
		Faults:       FaultPlan{Seed: 7, CorruptSpillEvery: 100},
		Events:       rec,
	})
	log := &jobLog{Pool: pool, t: t}
	sess, err := engine.NewSession(engine.Config{Backend: log, Obs: rec, Recover: true})
	if err != nil {
		t.Fatal(err)
	}
	pairs := make([]engine.Pair[int, int64], 3000)
	want := map[int]int64{}
	for i := range pairs {
		pairs[i] = engine.KV(i%7, int64(i))
		want[i%7] += int64(i)
	}
	cached := engine.Parallelize(sess, pairs, 300).Cache()
	for job := 1; job <= 3; job++ {
		got, err := engine.CollectMap(taskreg.ReduceByKeyN[int, int64](cached, "chaos.sum", 4))
		if err != nil {
			t.Fatalf("job %d over corrupt resident spills: %v", job, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("job %d: %v, want %v", job, got, want)
		}
	}
	sess.Close()

	first := log.tried[0].Resident
	lost := pool.Stats().FetchFailures
	if len(first) != 300 || lost != 3 {
		t.Fatalf("%d cached partitions put first, %d blocks lost; want 300 and 3", len(first), lost)
	}
	repaired := residentIDs(log.jobs[0])
	fresh := 0
	for _, id := range repaired {
		if !slices.Contains(first, id) {
			fresh++
		}
	}
	if len(repaired) != 300 || fresh != lost {
		t.Fatalf("job 1 ends with %d resident blocks, %d of them fresh; want 300 and %d", len(repaired), fresh, lost)
	}
	for i, specs := range log.jobs[1:3] {
		if got := residentIDs(specs); !reflect.DeepEqual(got, repaired) {
			t.Fatalf("job %d lists resident %v, want job 1's repaired %v", i+2, got, repaired)
		}
	}
	if report := rec.Report(); !strings.Contains(report, "corrupt-block") || !strings.Contains(report, "Recovery") {
		t.Fatalf("no corrupt-block event or Recovery line:\n%s", report)
	}
	checkReleased(t, pool)
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
	// markDead marks the worker dead before it counts the crash: wait for
	// both, or a loaded host can read the count in between.
	deadline := time.Now().Add(10 * time.Second)
	for !w.isDead() || pool.Stats().MachineCrashes == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("stopped worker was never declared dead and counted (dead %v)", w.isDead())
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
		id, err := s.put(nil, frame)
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
	s.retain(nil)
	if _, err := s.get(ids[0]); err == nil {
		t.Fatal("dropped block still readable")
	}
	left, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range left {
		if strings.HasPrefix(e.Name(), "blk-") {
			t.Fatalf("spill file %s survived retain(nil)", e.Name())
		}
	}
}

// TestBlockStoreKeepsResidentAsBatch: the blocks retain keeps are served
// from their batches, encoded as they were put, wherever their frames were;
// every other block is gone, and so is every spill file.
func TestBlockStoreKeepsResidentAsBatch(t *testing.T) {
	dir := t.TempDir()
	s := newBlockStore(dir, 64) // the first frames spill
	var ids []uint64
	var frames [][]byte
	for i := 0; i < 4; i++ {
		b := sliceBatch([]int{i, 2 * i, 3 * i, 4 * i})
		frame, err := engine.EncodeBatch(nil, b)
		if err != nil {
			t.Fatal(err)
		}
		id, err := s.put(b, frame)
		if err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
		ids = append(ids, id)
		frames = append(frames, frame)
	}
	if blocks, _ := s.spillStats(); blocks == 0 {
		t.Fatal("nothing spilled under a 64-byte budget")
	}
	kept := s.retain(map[uint64]bool{ids[0]: true, ids[3]: true, 99: true})
	if !reflect.DeepEqual(kept, map[uint64]bool{ids[0]: true, ids[3]: true}) {
		t.Fatalf("retain kept %v, want %d and %d", kept, ids[0], ids[3])
	}
	for _, i := range []int{0, 3} {
		got, err := s.get(ids[i])
		if err != nil || !bytes.Equal(got, frames[i]) {
			t.Fatalf("kept block %d: %v, err %v; want its frame", ids[i], got, err)
		}
	}
	if _, err := s.get(ids[1]); err == nil {
		t.Fatal("dropped block still readable")
	}
	if files, _ := filepath.Glob(filepath.Join(dir, "blk-*")); len(files) != 0 {
		t.Fatalf("spill files %v survived retain", files)
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
