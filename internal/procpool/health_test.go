package procpool

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"matryoshka/internal/cluster"
	"matryoshka/internal/engine"
	"matryoshka/internal/obs"
	"matryoshka/internal/tasks"
)

// The adversarial test operators. They register in both the driver and
// the worker (same binary, same init), and none of them need real input
// data — their single input is Kind "empty".
func init() {
	engine.RegisterPortableOp("htest.ok", func([]byte) (engine.PortableCompute, error) {
		return func(_ *engine.Ctx, _ int, inputs []engine.Batch) engine.Batch {
			return inputs[0]
		}, nil
	})
	// htest.exit is a poison task: it takes the worker process down with
	// exit code 3, every time, on every worker.
	engine.RegisterPortableOp("htest.exit", func([]byte) (engine.PortableCompute, error) {
		return func(_ *engine.Ctx, _ int, _ []engine.Batch) engine.Batch {
			os.Exit(3)
			return nil
		}, nil
	})
	// htest.hang wedges forever — but only for whichever process first
	// wins the O_EXCL create of the flag file (the arg). Re-runs after
	// the deadline kill see the file and return promptly.
	engine.RegisterPortableOp("htest.hang", func(arg []byte) (engine.PortableCompute, error) {
		return func(_ *engine.Ctx, _ int, inputs []engine.Batch) engine.Batch {
			f, err := os.OpenFile(string(arg), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o600)
			if err == nil {
				f.Close()
				select {} // wedge; only the task deadline can end this
			}
			return inputs[0]
		}, nil
	})
	// htest.sleep naps for the duration its arg spells (300ms without
	// one), for cancellation to interrupt and deadlines to outlast.
	engine.RegisterPortableOp("htest.sleep", func(arg []byte) (engine.PortableCompute, error) {
		nap := 300 * time.Millisecond
		if len(arg) > 0 {
			var err error
			if nap, err = time.ParseDuration(string(arg)); err != nil {
				return nil, err
			}
		}
		return func(_ *engine.Ctx, _ int, inputs []engine.Batch) engine.Batch {
			time.Sleep(nap)
			return inputs[0]
		}, nil
	})
}

// opSpec builds a minimal one-op stage: parts tasks, each running op on
// an empty input.
func opSpec(label, op string, arg []byte, parts int) *engine.RemoteStageSpec {
	spec := &engine.RemoteStageSpec{Label: label}
	for p := 0; p < parts; p++ {
		spec.Tasks = append(spec.Tasks, engine.RemoteTask{Part: p, Root: &engine.RemoteNode{
			Op: op, Arg: arg, Part: p,
			Inputs: []engine.RemoteInput{{Kind: "empty"}},
		}})
	}
	return spec
}

// waitLive polls until the pool reports at least n live workers.
func waitLive(t *testing.T, p *Pool, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for p.LiveWorkers() < n {
		if time.Now().After(deadline) {
			t.Fatalf("fleet never recovered to %d live workers (now %d)", n, p.LiveWorkers())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRespawnRestoresFleet kills a worker mid-run (KillAfterTasks) with
// respawn on: the run must still be correct, a replacement must join, and
// the fleet must return to full strength.
func TestRespawnRestoresFleet(t *testing.T) {
	rec := obs.NewRecorder()
	pool := startPool(t, Config{Workers: 2, KillAfterTasks: 10, RespawnBackoff: 10 * time.Millisecond, Events: rec})
	sp := tasks.ChaosSpec{Records: 2000, Keys: 50, Parts: 4, Rounds: 2}

	var out tasks.Outcome
	withBackend(t, pool, func() { out = sp.Run(cluster.Config{}) })
	if out.Err != nil {
		t.Fatalf("run with respawn: %v", out.Err)
	}
	if want := sp.Reference(); !reflect.DeepEqual(out.Value, want) {
		t.Fatalf("value %+v != reference %+v", out.Value, want)
	}
	if pool.Stats().MachineCrashes == 0 {
		t.Fatal("kill hook never fired")
	}
	waitLive(t, pool, 2)
	// The replacement is live from its handshake on; the respawn is
	// counted and reported a moment later, by the goroutine that waited
	// for that handshake.
	deadline := time.Now().Add(10 * time.Second)
	for pool.Respawns() == 0 || !strings.Contains(rec.Report(), "respawn") {
		if time.Now().After(deadline) {
			t.Fatalf("fleet restored but no respawn counted (%d) or reported:\n%s", pool.Respawns(), rec.Report())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if report := rec.Report(); !strings.Contains(report, "crash") {
		t.Fatalf("fault events missing the crash:\n%s", report)
	}
}

// TestQuorumLostFailsFast: with respawn disabled and the whole fleet
// dead, dispatch must fail immediately with engine.QuorumLostError — not
// burn the full QuorumWait, and never deadlock.
func TestQuorumLostFailsFast(t *testing.T) {
	pool := startPool(t, Config{Workers: 1, DisableRespawn: true, QuorumWait: 30 * time.Second})
	w := pool.snapshotWorkers()[0]
	p0 := time.Now()
	pool.markDead(w, fmt.Errorf("test: induced death"))
	spec := opSpec("quorum-stage", "htest.ok", nil, 2)
	_, err := pool.RunRemoteStage(context.Background(), spec)
	elapsed := time.Since(p0)
	var q *engine.QuorumLostError
	if !errors.As(err, &q) {
		t.Fatalf("got %v, want QuorumLostError", err)
	}
	if q.Stage != "quorum-stage" || q.Live != 0 {
		t.Fatalf("bad quorum error: %+v", q)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("quorum failure took %v; should fail fast when no respawn can come", elapsed)
	}
}

// TestPoisonTaskQuarantine dispatches a task that exits the worker
// process, every time. After it has destroyed quarantineAfter distinct
// worker incarnations the stage must fail with engine.PoisonTaskError
// naming the operator — and the pool must stay live for the next job.
func TestPoisonTaskQuarantine(t *testing.T) {
	rec := obs.NewRecorder()
	pool := startPool(t, Config{Workers: 2, RespawnBackoff: 10 * time.Millisecond, Events: rec})
	_, err := pool.RunRemoteStage(context.Background(), opSpec("poison-stage", "htest.exit", nil, 1))
	var pe *engine.PoisonTaskError
	if !errors.As(err, &pe) {
		t.Fatalf("got %v, want PoisonTaskError", err)
	}
	if pe.Workers != quarantineAfter {
		t.Fatalf("quarantined after %d workers, want %d", pe.Workers, quarantineAfter)
	}
	if !strings.Contains(err.Error(), "htest.exit") {
		t.Fatalf("quarantine error does not name the operator chain: %v", err)
	}
	if pool.Quarantines() != 1 {
		t.Fatalf("Quarantines() = %d, want 1", pool.Quarantines())
	}
	// Blame is per death: a worker whose share of the one-task stage was
	// empty never ran the task and must not count against it.
	if got := pool.Stats().MachineCrashes; got != quarantineAfter {
		t.Fatalf("%d workers died before the quarantine, want %d", got, quarantineAfter)
	}

	// The pool is still a functioning pool: fleet recovers, healthy
	// stages run.
	waitLive(t, pool, 1)
	res, err := pool.RunRemoteStage(context.Background(), opSpec("after-poison", "htest.ok", nil, 3))
	if err != nil {
		t.Fatalf("healthy stage after quarantine: %v", err)
	}
	if len(res.Parts) != 3 {
		t.Fatalf("healthy stage returned %d parts, want 3", len(res.Parts))
	}
	if !strings.Contains(rec.Report(), "quarantine") {
		t.Fatalf("no quarantine fault event:\n%s", rec.Report())
	}
}

// TestPoisonMidShareIsTheOneBlamed puts the poison task in the middle of a
// share, behind ten healthy tasks the worker reads in the same batch. The
// worker runs its queue in order and answers what it finished before it
// first runs a new kernel, so each death must be blamed on the poison task
// and on nothing else: the stage ends in PoisonTaskError naming its Part
// after exactly quarantineAfter incarnations died — a death blamed on any
// other task would have cost one more.
func TestPoisonMidShareIsTheOneBlamed(t *testing.T) {
	pool := startPool(t, Config{Workers: 2, RespawnBackoff: 10 * time.Millisecond})
	spec := opSpec("poison-mid-share", "htest.ok", nil, 40)
	const poison = 21 // eleventh task of the second worker's share
	spec.Tasks[poison].Root.Op = "htest.exit"
	_, err := pool.RunRemoteStage(context.Background(), spec)
	var pe *engine.PoisonTaskError
	if !errors.As(err, &pe) {
		t.Fatalf("got %v, want PoisonTaskError", err)
	}
	if pe.Part != poison || pe.Workers != quarantineAfter || !strings.Contains(pe.Ops, "htest.exit") {
		t.Fatalf("quarantined task %d [%s] after %d workers, want task %d [htest.exit] after %d", pe.Part, pe.Ops, pe.Workers, poison, quarantineAfter)
	}
	if got := pool.Stats().MachineCrashes; got != quarantineAfter {
		t.Fatalf("%d incarnations died, want %d: some death was blamed on another task", got, quarantineAfter)
	}
}

// TestTaskDeadlineRequeues wedges a task on its first execution (it
// ignores everything, forever), in the middle of a share. The deadline
// must kill the stuck worker and blame that task — not the answered ones
// before it, not the unstarted ones behind it — and the retry, which sees
// the flag file, must complete the stage. One incarnation died, no
// quarantine.
func TestTaskDeadlineRequeues(t *testing.T) {
	flag := filepath.Join(t.TempDir(), "hung-once")
	rec := obs.NewRecorder()
	pool := startPool(t, Config{Workers: 2, TaskDeadline: 500 * time.Millisecond, RespawnBackoff: 10 * time.Millisecond, Events: rec})
	spec := opSpec("deadline-stage", "htest.ok", nil, 6)
	spec.Tasks[3].Root = &engine.RemoteNode{Op: "htest.hang", Arg: []byte(flag), Part: 3, Inputs: []engine.RemoteInput{{Kind: "empty"}}}
	res, err := pool.RunRemoteStage(context.Background(), spec)
	if err != nil {
		t.Fatalf("stage with one wedged attempt: %v", err)
	}
	if len(res.Parts) != 6 {
		t.Fatalf("got %d parts, want 6", len(res.Parts))
	}
	if got := pool.Stats().MachineCrashes; got != 1 {
		t.Fatalf("%d workers died, want the one the wedged task sat on", got)
	}
	if report := rec.Report(); !strings.Contains(report, "task 3 exceeded its 500ms deadline") {
		t.Fatalf("the deadline kill does not name the wedged task:\n%s", report)
	}
	if pool.Quarantines() != 0 {
		t.Fatalf("single deadline kill quarantined the task (%d quarantines)", pool.Quarantines())
	}
}

// TestTaskDeadlineBoundsOneTaskNotTheShare: the deadline is re-armed on
// every answer, so a share well over twice as long as the deadline —
// twelve 100ms tasks queued on one worker, 500ms allowed — completes with
// nobody killed. (An answer waits for the next heartbeat at most, so the
// gaps are 120ms; the rest of the 500 is for a host that freezes a process
// for a few hundred milliseconds, which this one does.)
func TestTaskDeadlineBoundsOneTaskNotTheShare(t *testing.T) {
	rec := obs.NewRecorder()
	pool := startPool(t, Config{Workers: 1, TaskDeadline: 500 * time.Millisecond, HeartbeatEvery: 20 * time.Millisecond, Events: rec})
	res, err := pool.RunRemoteStage(context.Background(), opSpec("long-share", "htest.sleep", []byte("100ms"), 12))
	if err != nil {
		t.Fatalf("share of short tasks: %v", err)
	}
	if len(res.Parts) != 12 {
		t.Fatalf("got %d parts, want 12", len(res.Parts))
	}
	if got := pool.Stats().MachineCrashes; got != 0 {
		t.Fatalf("%d workers killed for the length of their share:\n%s", got, rec.Report())
	}
}

// TestCtxCancelStopsDispatch covers RunRemoteStage's cancellation
// contract: a pre-cancelled context dispatches nothing, and a mid-flight
// cancellation returns promptly, dropping the pending replies without
// killing any worker.
func TestCtxCancelStopsDispatch(t *testing.T) {
	pool := startPool(t, Config{Workers: 2})

	// Pre-cancelled: not a single task may reach a worker (the op would
	// kill it, which is the proof).
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := pool.RunRemoteStage(ctx, opSpec("cancelled-stage", "htest.exit", nil, 4)); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled dispatch: got %v, want context.Canceled", err)
	}
	if got := pool.Stats().MachineCrashes; got != 0 {
		t.Fatalf("pre-cancelled stage still dispatched (crashes=%d)", got)
	}

	// Mid-flight: tasks are sleeping on workers; cancellation must
	// return well before they finish, and the workers stay alive.
	ctx2, cancel2 := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel2()
	}()
	p0 := time.Now()
	_, err := pool.RunRemoteStage(ctx2, opSpec("sleepy-stage", "htest.sleep", nil, 2))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-flight cancel: got %v, want context.Canceled", err)
	}
	if elapsed := time.Since(p0); elapsed > 250*time.Millisecond {
		t.Fatalf("cancelled stage returned after %v; should not wait for the sleep", elapsed)
	}
	if pool.LiveWorkers() != 2 {
		t.Fatalf("cancel killed a worker (live=%d)", pool.LiveWorkers())
	}

	// The abandoned sleepers finish on their own; the pool still serves.
	res, err := pool.RunRemoteStage(context.Background(), opSpec("after-cancel", "htest.ok", nil, 2))
	if err != nil {
		t.Fatalf("stage after cancellation: %v", err)
	}
	if len(res.Parts) != 2 {
		t.Fatalf("got %d parts, want 2", len(res.Parts))
	}
}

// TestCloseDrainsEverything: after Close, no worker process may survive
// (drained or killed, but always reaped), the store holds no block — not
// even one a job kept as resident — and the pool's temp directory, where
// its socket was, must be gone.
func TestCloseDrainsEverything(t *testing.T) {
	pool, err := Start(Config{Workers: 3, DrainTimeout: 2 * time.Second})
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	if _, err := pool.RunRemoteStage(context.Background(), opSpec("pre-close", "htest.ok", nil, 3)); err != nil {
		t.Fatalf("stage: %v", err)
	}
	spec, _ := blockSpec(t, pool, "resident", 3)
	spec.Resident = []uint64{spec.Tasks[1].Root.Inputs[0].Block}
	if _, err := pool.RunRemoteStage(context.Background(), spec); err != nil {
		t.Fatalf("resident stage: %v", err)
	}
	pool.ReleaseBroadcasts()
	if got := pool.storeIDs(); !reflect.DeepEqual(got, spec.Resident) {
		t.Fatalf("store keeps %v, want the resident %v", got, spec.Resident)
	}
	var pids []int
	for _, w := range pool.snapshotWorkers() {
		pids = append(pids, w.pid)
	}
	dir := pool.dir
	pool.Close()
	for _, pid := range pids {
		// After the reap the pid must be gone entirely — ESRCH, not a
		// zombie that still answers signal 0.
		if err := syscall.Kill(pid, 0); !errors.Is(err, syscall.ESRCH) {
			t.Fatalf("worker pid %d survived Close (kill(0) = %v)", pid, err)
		}
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatalf("pool dir %s survived Close (stat err %v)", dir, err)
	}
	if got := pool.storeIDs(); len(got) != 0 {
		t.Fatalf("store holds %v after Close", got)
	}
	// Close is idempotent.
	pool.Close()
}

// TestRaceMarkDeadVsDispatch hammers dispatch while concurrently
// declaring workers dead — the -race interleaving test for the pending
// map, the slot list, and the respawn bookkeeping. Any per-stage outcome
// (success or quorum loss) is fine; the invariant is no race, no panic,
// no deadlock.
func TestRaceMarkDeadVsDispatch(t *testing.T) {
	pool := startPool(t, Config{Workers: 2, RespawnBackoff: time.Millisecond, RespawnBudget: 1000, QuorumWait: 5 * time.Second})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if ws := pool.liveWorkers(); len(ws) > 0 {
				pool.markDead(ws[i%len(ws)], fmt.Errorf("test: race kill %d", i))
			}
			// Paced so respawned workers get long enough to serve a few
			// tasks: the point is the interleaving, not a dead pool.
			time.Sleep(25 * time.Millisecond)
		}
	}()
	for i := 0; i < 15; i++ {
		_, err := pool.RunRemoteStage(context.Background(), opSpec("race-stage", "htest.ok", nil, 4))
		if err != nil {
			// Under a sustained external kill storm both degradations are
			// legitimate: quorum loss, or quarantine of a task that
			// happened to be in flight on three murdered incarnations.
			var q *engine.QuorumLostError
			var pe *engine.PoisonTaskError
			if !errors.As(err, &q) && !errors.As(err, &pe) {
				t.Fatalf("iteration %d: unexpected error %v", i, err)
			}
		}
	}
	close(stop)
	wg.Wait()
}

// TestWorkerDiesBetweenPutAndLaunch registers a block, kills a worker in
// the gap before dispatch, and launches a stage reading the block: the
// driver-resident block must survive the death and the stage must
// complete on the remaining fleet.
func TestWorkerDiesBetweenPutAndLaunch(t *testing.T) {
	pool := startPool(t, Config{Workers: 2, RespawnBackoff: 5 * time.Millisecond})
	id, err := pool.PutBlock(&engine.Vec[any]{})
	if err != nil {
		t.Fatalf("PutBlock: %v", err)
	}
	pool.markDead(pool.snapshotWorkers()[0], fmt.Errorf("test: died after PutBlock"))
	spec := &engine.RemoteStageSpec{Label: "put-then-die", Tasks: []engine.RemoteTask{{
		Part: 0,
		Root: &engine.RemoteNode{Op: "identity", Part: 0,
			Inputs: []engine.RemoteInput{{Kind: "block", Block: id}}},
	}}}
	res, err := pool.RunRemoteStage(context.Background(), spec)
	if err != nil {
		t.Fatalf("stage after worker death: %v", err)
	}
	if len(res.Parts) != 1 {
		t.Fatalf("got %d parts, want 1", len(res.Parts))
	}
}
