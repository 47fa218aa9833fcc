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
// resident blocks, and the ids handed out are those blocks plus every
// job's shuffle blocks. A second session on the same pool puts them
// afresh under new ids and computes the same value, and once both
// sessions are closed nothing is left in the store or in the driver's
// view of any worker.
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
// jobLog over pool, and returns its outcome, the log and the ids the
// store handed out.
func runLogged(t *testing.T, pool *Pool, f func() tasks.Outcome) (tasks.Outcome, *jobLog, uint64) {
	t.Helper()
	log := &jobLog{Pool: pool, t: t}
	before := pool.puts()
	var out tasks.Outcome
	withBackend(t, log, func() { out = f() })
	return out, log, pool.puts() - before
}

// puts is how many ids the store has handed out: its last id. A batch
// put again while the store holds it takes none.
func (p *Pool) puts() uint64 {
	p.store.mu.Lock()
	defer p.store.mu.Unlock()
	return p.store.next
}

// checkPutOnce checks a fault-free session: every job lists the same
// resident blocks, the session's Close released the pool once more with
// nothing listed, and the ids handed out are the resident ones once plus
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
				for _, in := range spec.Tasks[ti].Inputs {
					if id := in.Block; in.Step == 0 && id != 0 {
						if !seen[id] && !slices.Contains(resident, id) {
							others++
						}
						seen[id] = true
					}
				}
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

// heldIDs lists the blocks the driver believes w holds, sorted.
func heldIDs(w *workerProc) []uint64 {
	w.wmu.Lock()
	defer w.wmu.Unlock()
	ids := []uint64{}
	for id := range w.held {
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
		if ids := heldIDs(w); len(ids) != 0 {
			t.Fatalf("worker %d is believed to hold %v", w.idx, ids)
		}
	}
}

// TestKillInSecondJobPushesFromStore kills the worker that receives the
// first task of an inner k-means session's second job. Its share runs on
// the survivor, which never held that worker's half of the cached points:
// they are pushed from the store, not put again, so the session puts
// exactly what a run without the kill puts. The value is the reference's,
// and nobody is quarantined for a death the fault plan caused.
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

	pool := startPool(t, Config{Workers: 2, Faults: FaultPlan{KillAfterTasks: firstJob + 1}, RespawnBackoff: 10 * time.Millisecond})
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

// TestWorkerCrashRecovery kills a worker mid-stage (the fault plan's
// KillAfterTasks) and asserts the run still completes correctly: the dead
// worker's registered shuffle outputs surface as a
// cluster.FetchFailedError at the consuming stage, and the engine's
// existing lineage recovery rewinds and recomputes them — visible as a
// Recovery line in EXPLAIN ANALYZE.
func TestWorkerCrashRecovery(t *testing.T) {
	// Task 10 of the pool's lifetime lands in the chaos diamond's
	// group-count stage, after the reduce parent's outputs registered.
	// Respawn is off so the fleet stays shrunk and the LiveWorkers
	// assertion is deterministic (health_test.go covers respawn).
	pool := startPool(t, Config{Workers: 2, Faults: FaultPlan{KillAfterTasks: 10}, RespawnBudget: -1})
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
	pool := startPool(t, Config{Workers: 2, heartbeatEvery: 20 * time.Millisecond, heartbeatTimeout: 300 * time.Millisecond, RespawnBudget: -1})
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

func refRow(x int) ptrRow { return ptrRow{&x} }

// failAt7Runs counts the calls of failAt7 in this process; a worker's calls
// happen in its own.
var failAt7Runs atomic.Int64

// failAt7 panics on the row 7.
func failAt7(x int) int {
	failAt7Runs.Add(1)
	if x == 7 {
		panic("bad row 7")
	}
	return x
}

func init() {
	engine.RegisterPortableOp("ptest.deref", func(string) (engine.PortableCompute, error) {
		return engine.MapCompute(derefRow), nil
	})
	engine.RegisterPortableOp("ptest.ref", func(string) (engine.PortableCompute, error) {
		return engine.MapCompute(refRow), nil
	})
	engine.RegisterPortableOp("ptest.failAt7", func(string) (engine.PortableCompute, error) {
		return engine.MapCompute(failAt7), nil
	})
}

// TestPanickingKernelFailsItsJob runs a portable op whose kernel panics on
// one row on a simulator session and on a 2-worker pool session. On both,
// Collect returns the task's error naming the op, and a good job runs
// after it on the same session. On the pool the task fails on a worker and
// the job fails with the worker's error: the driver never runs the kernel
// itself (no driver-local decision, no call in this process), no worker
// dies, and the failed job keeps no block on the pool.
func TestPanickingKernelFailsItsJob(t *testing.T) {
	pool := startPool(t, Config{Workers: 2})
	for _, c := range []struct {
		name    string
		backend engine.Backend
		want    string // what the error quotes
	}{{"sim", nil, "task 1 of map"}, {"proc", pool, "task 1 of ptest.failAt7 panicked: bad row 7"}} {
		rec := obs.NewRecorder()
		sess, err := engine.NewSession(engine.Config{Backend: c.backend, Obs: rec})
		if err != nil {
			t.Fatal(err)
		}
		rows := []int{1, 3, 5, 7, 9, 11}
		failAt7Runs.Store(0)
		_, err = engine.Collect(engine.MarkPortable(engine.Map(engine.Parallelize(sess, rows, 2), failAt7), "ptest.failAt7", ""))
		if n := failAt7Runs.Load(); c.backend != nil && n != 0 {
			t.Fatalf("the driver ran the kernel %d times after it failed on a worker, want 0", n)
		}
		if err == nil || !strings.Contains(err.Error(), c.want) || !strings.Contains(err.Error(), "panicked: bad row 7") {
			t.Fatalf("%s: Collect error %v, want the task's panic quoting %q", c.name, err, c.want)
		}
		if c.backend != nil {
			for _, d := range rec.Decisions() {
				if d.Rule == "proc-backend" && d.Choice == "driver-local" {
					t.Fatalf("a stage whose task failed on a worker ran driver-local: %q", d.Why)
				}
			}
			if st := pool.Stats(); st.MachineCrashes != 0 || pool.LiveWorkers() != 2 {
				t.Fatalf("%d crashes and %d live workers after a panicking kernel, want 0 and 2", st.MachineCrashes, pool.LiveWorkers())
			}
			checkReleased(t, pool)
		}
		remote := pool.RemoteStages()
		got, err := engine.Collect(engine.MarkPortable(engine.Map(engine.Parallelize(sess, []int{1, 2, 3}, 2), failAt7), "ptest.failAt7", ""))
		sess.Close()
		if err != nil || !reflect.DeepEqual(got, []int{1, 2, 3}) {
			t.Fatalf("%s: the job after the failed one: %v, %v", c.name, got, err)
		}
		if c.backend != nil && pool.RemoteStages() == remote {
			t.Fatal("the job after the failed one did not run on the pool")
		}
	}
}

// TestUnencodableBlockRunsDriverLocal: a portable stage whose input or
// output rows the codec refuses does not run on the pool. An input is
// found out when its first block is pushed, before any task is sent; an
// output, by the spec builder, before anything is put. Either way the
// stage runs driver-local with the right value, the decision log quotes
// the codec's reason, no worker dies, and no remote stage, task or
// dispatch is counted.
func TestUnencodableBlockRunsDriverLocal(t *testing.T) {
	pool := startPool(t, Config{Workers: 2})
	ints := make([]int, 8)
	for i := range ints {
		ints[i] = 10 * i
	}
	for _, c := range []struct {
		name string
		run  func(sess *engine.Session) ([]int, error)
	}{
		{"input", func(sess *engine.Session) ([]int, error) {
			rows := make([]ptrRow, len(ints))
			for i := range rows {
				rows[i] = refRow(ints[i])
			}
			return engine.Collect(engine.MarkPortable(engine.Map(engine.Parallelize(sess, rows, 2), derefRow), "ptest.deref", ""))
		}},
		{"output", func(sess *engine.Session) ([]int, error) {
			refs, err := engine.Collect(engine.MarkPortable(engine.Map(engine.Parallelize(sess, ints, 2), refRow), "ptest.ref", ""))
			got := make([]int, len(refs))
			for i, r := range refs {
				got[i] = derefRow(r)
			}
			return got, err
		}},
	} {
		rec := obs.NewRecorder()
		sess, err := engine.NewSession(engine.Config{Backend: pool, Obs: rec})
		if err != nil {
			t.Fatal(err)
		}
		tasks, dispatches := pool.RemoteTasks(), atomic.LoadInt64(&pool.nDispatch)
		got, err := c.run(sess)
		sess.Close()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !reflect.DeepEqual(got, ints) {
			t.Fatalf("%s: got %v, want %v", c.name, got, ints)
		}
		why := ""
		for _, d := range rec.Decisions() {
			if d.Rule == "proc-backend" && d.Choice == "driver-local" {
				why = d.Why
			}
		}
		if !strings.Contains(why, "unsupported element kind ptr") {
			t.Fatalf("%s: driver-local decision %q does not quote the codec; decisions: %+v", c.name, why, rec.Decisions())
		}
		if pool.RemoteStages() != 0 || pool.RemoteTasks() != tasks || atomic.LoadInt64(&pool.nDispatch) != dispatches {
			t.Fatalf("%s: %d remote stages, %d remote tasks and %d dispatches over unencodable rows, want none",
				c.name, pool.RemoteStages(), pool.RemoteTasks()-tasks, atomic.LoadInt64(&pool.nDispatch)-dispatches)
		}
		if st := pool.Stats(); st.MachineCrashes != 0 || pool.LiveWorkers() != 2 {
			t.Fatalf("%s: %d crashes and %d live workers, want 0 and 2", c.name, st.MachineCrashes, pool.LiveWorkers())
		}
	}
}

// TestBlockStoreKeepsResidentAsBatch: retain keeps the listed blocks as
// the very batches put — an id it never handed out is ignored — and drops
// every other one, and ids keep counting up past it. A batch is keyed by
// identity: put twice while the store holds it, it gets one id; put again
// after retain dropped it, a fresh one.
func TestBlockStoreKeepsResidentAsBatch(t *testing.T) {
	s := newBlockStore()
	var ids []uint64
	var batches []engine.Batch
	for i := 0; i < 5; i++ {
		b := sliceBatch([]int{i, 2 * i, 3 * i, 4 * i})
		ids = append(ids, s.put(b))
		batches = append(batches, b)
	}
	for i, b := range batches {
		if id := s.put(b); id != ids[i] {
			t.Fatalf("batch %d put again got id %d, want the %d it has", i, id, ids[i])
		}
	}
	kept := s.retain(map[uint64]bool{ids[0]: true, ids[3]: true, 99: true})
	if !reflect.DeepEqual(kept, map[uint64]bool{ids[0]: true, ids[3]: true}) {
		t.Fatalf("retain kept %v, want %d and %d", kept, ids[0], ids[3])
	}
	for _, i := range []int{0, 3} {
		if b, ok := s.get(ids[i]); !ok || b != batches[i] {
			t.Fatalf("kept block %d: %v (found %v), want the batch put", ids[i], b, ok)
		}
		if id := s.put(batches[i]); id != ids[i] {
			t.Fatalf("kept batch %d put again got id %d, want %d", i, id, ids[i])
		}
	}
	for _, i := range []int{1, 2, 4} {
		if _, ok := s.get(ids[i]); ok {
			t.Fatalf("dropped block %d still readable", ids[i])
		}
	}
	if id := s.put(batches[4]); id != ids[4]+1 {
		t.Fatalf("dropped batch put again got id %d, want the fresh %d", id, ids[4]+1)
	}
	s.retain(nil)
	if _, ok := s.get(ids[0]); ok {
		t.Fatal("retain(nil) left a block")
	}
	if id := s.put(batches[0]); id != ids[4]+2 {
		t.Fatalf("batch put after retain(nil) got id %d, want the fresh %d", id, ids[4]+2)
	}
}

// BenchmarkRemoteStage is the pool's own per-layer number: one stage of
// 1 200 single-block identity tasks on two workers — the paper's 3 × cores
// partitions over almost no data, where nothing but dispatch costs — with
// the blocks put before the clock starts (they are encoded as they are
// pushed, inside it) and dropped, on the driver and in the workers, after
// it stops. Host-bound (three processes share the
// cores), so it is quoted in BENCHLOG.md, not gated.
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
