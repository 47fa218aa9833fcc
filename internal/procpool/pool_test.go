package procpool

import (
	"context"
	"os"
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
// the store or in the driver's view of any worker.
func TestKMeansInnerABBitIdentical(t *testing.T) {
	pool := startPool(t, Config{Workers: 2})
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
func runLogged(t *testing.T, pool *Pool, f func() tasks.Outcome) (tasks.Outcome, *jobLog, uint64) {
	t.Helper()
	log := &jobLog{Pool: pool, t: t}
	before := pool.puts()
	var out tasks.Outcome
	withBackend(t, log, func() { out = f() })
	return out, log, pool.puts() - before
}

// puts is how many blocks the store has ever been given: its last id.
func (p *Pool) puts() uint64 {
	p.store.mu.Lock()
	defer p.store.mu.Unlock()
	return p.store.next
}

// checkPutOnce checks a fault-free session: every job lists the same
// resident blocks, the session's Close released the pool once more with
// nothing listed, and the blocks put are the resident ones once plus
// every job's others. It returns the resident ids.
func (l *jobLog) checkPutOnce(t *testing.T, puts uint64) []uint64 {
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
	if want := uint64(len(resident) + others); puts != want {
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

// storeIDs lists the blocks the store holds, sorted.
func (p *Pool) storeIDs() []uint64 {
	p.store.mu.Lock()
	defer p.store.mu.Unlock()
	ids := []uint64{}
	for id := range p.store.blocks {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// checkReleased: the pool holds no block — not in the store, not in the
// driver's view of any live worker.
func checkReleased(t *testing.T, pool *Pool) {
	t.Helper()
	if ids := pool.storeIDs(); len(ids) != 0 {
		t.Fatalf("store still holds %v", ids)
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

// ptrRow is a shape the batch codec refuses: it has a pointer field.
type ptrRow struct{ P *int }

func derefRow(r ptrRow) int { return *r.P }

func init() {
	engine.RegisterPortableOp("ptest.deref", func([]byte) (engine.PortableCompute, error) {
		return engine.MapCompute(derefRow), nil
	})
}

// TestUnencodableBlockRunsDriverLocal: a portable stage over a shape the
// codec refuses is found out when its first block is pushed, before any
// task is sent. The stage runs driver-local with the right value, the
// decision log quotes the codec's reason, no worker dies and no remote
// stage is counted.
func TestUnencodableBlockRunsDriverLocal(t *testing.T) {
	pool := startPool(t, Config{Workers: 2})
	rec := obs.NewRecorder()
	sess, err := engine.NewSession(engine.Config{Backend: pool, Obs: rec})
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]ptrRow, 8)
	want := make([]int, len(rows))
	for i := range rows {
		v := 10 * i
		rows[i], want[i] = ptrRow{&v}, v
	}
	got, err := engine.Collect(engine.MarkPortable(engine.Map(engine.Parallelize(sess, rows, 2), derefRow), "ptest.deref", nil))
	sess.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	why := ""
	for _, d := range rec.Decisions() {
		if d.Rule == "proc-backend" && d.Choice == "driver-local" {
			why = d.Why
		}
	}
	if !strings.Contains(why, "unsupported element kind ptr") {
		t.Fatalf("driver-local decision %q does not quote the codec; decisions: %+v", why, rec.Decisions())
	}
	if pool.RemoteStages() != 0 || atomic.LoadInt64(&pool.nDispatch) != 0 {
		t.Fatalf("%d remote stages and %d dispatches over an unencodable block, want none", pool.RemoteStages(), pool.nDispatch)
	}
	if st := pool.Stats(); st.MachineCrashes != 0 || pool.LiveWorkers() != 2 {
		t.Fatalf("%d crashes and %d live workers, want 0 and 2", st.MachineCrashes, pool.LiveWorkers())
	}
}

// TestBlockStoreKeepsResidentAsBatch: retain keeps the listed blocks as
// the very batches put — an id it never handed out is ignored — and drops
// every other one, and ids keep counting up past it.
func TestBlockStoreKeepsResidentAsBatch(t *testing.T) {
	s := newBlockStore()
	var ids []uint64
	var batches []engine.Batch
	for i := 0; i < 4; i++ {
		b := sliceBatch([]int{i, 2 * i, 3 * i, 4 * i})
		ids = append(ids, s.put(b))
		batches = append(batches, b)
	}
	kept := s.retain(map[uint64]bool{ids[0]: true, ids[3]: true, 99: true})
	if !reflect.DeepEqual(kept, map[uint64]bool{ids[0]: true, ids[3]: true}) {
		t.Fatalf("retain kept %v, want %d and %d", kept, ids[0], ids[3])
	}
	for _, i := range []int{0, 3} {
		if b, ok := s.get(ids[i]); !ok || b != batches[i] {
			t.Fatalf("kept block %d: %v (found %v), want the batch put", ids[i], b, ok)
		}
	}
	for _, i := range []int{1, 2} {
		if _, ok := s.get(ids[i]); ok {
			t.Fatalf("dropped block %d still readable", ids[i])
		}
	}
	if id := s.put(sliceBatch([]int{7})); id != ids[3]+1 {
		t.Fatalf("put after retain got id %d, want %d", id, ids[3]+1)
	}
	s.retain(nil)
	if _, ok := s.get(ids[0]); ok {
		t.Fatal("retain(nil) left a block")
	}
}

// BenchmarkRemoteStage is the pool's own per-layer number: one stage of
// 1 200 single-block identity tasks on two workers — the paper's 3 × cores
// partitions over almost no data, where nothing but dispatch costs — with
// the blocks put before the clock starts (they are encoded as they are
// pushed, inside it) and dropped, on the driver and in the workers, after
// it stops. Host-bound (three processes share the
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
