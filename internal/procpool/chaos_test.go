package procpool

import (
	"context"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"matryoshka/internal/cluster"
	"matryoshka/internal/engine"
	"matryoshka/internal/tasks"
)

// TestFaultPlanDeterministic: every fault decision must be a pure
// function of (Seed, counter) — two plans with the same seed agree on
// every draw, and the derived choices stay in range.
func TestFaultPlanDeterministic(t *testing.T) {
	a := FaultPlan{Seed: 42, KillEveryTasks: 7, DelayEveryFrames: 3, DropEveryFrames: 5, ResetEveryFrames: 11}
	b := FaultPlan{Seed: 42, KillEveryTasks: 7, DelayEveryFrames: 3, DropEveryFrames: 5, ResetEveryFrames: 11}
	other := FaultPlan{Seed: 43}
	sawDiff := false
	for n := uint64(1); n <= 1000; n++ {
		if a.frameFaultAt(n) != b.frameFaultAt(n) {
			t.Fatalf("frame fault diverged at %d", n)
		}
		if a.killsAt(n) != b.killsAt(n) {
			t.Fatalf("kill decision diverged at %d", n)
		}
		if a.draw(1, n) != b.draw(1, n) {
			t.Fatalf("draw diverged at %d", n)
		}
		if a.draw(1, n) != other.draw(1, n) {
			sawDiff = true
		}
		if tp := a.tearPoint(n, 100); tp < 1 || tp > 99 {
			t.Fatalf("tear point %d of frame 100 out of range", tp)
		}
	}
	if !sawDiff {
		t.Fatal("different seeds never produced a different draw")
	}
	// Cadence arithmetic: reset beats drop beats delay on collisions.
	p := FaultPlan{DelayEveryFrames: 2, DropEveryFrames: 4, ResetEveryFrames: 8}
	if got := p.frameFaultAt(8); got != frameReset {
		t.Fatalf("frame 8: got %d, want reset", got)
	}
	if got := p.frameFaultAt(4); got != frameDrop {
		t.Fatalf("frame 4: got %d, want drop", got)
	}
	if got := p.frameFaultAt(2); got != frameDelay {
		t.Fatalf("frame 2: got %d, want delay", got)
	}
	if got := p.frameFaultAt(3); got != frameClean {
		t.Fatalf("frame 3: got %d, want clean", got)
	}
	if (FaultPlan{}).Active() {
		t.Fatal("zero plan claims to be active")
	}
}

// sliceBatch wraps xs in a Batch using only what engine exports: the
// MapPartitions kernel over an empty input hands back whatever its UDF
// returns.
func sliceBatch[T any](xs []T) engine.Batch {
	k := engine.MapPartitionsCompute(func([]T) []T { return xs })
	return k(&engine.Ctx{}, 0, []engine.Batch{&engine.Vec[T]{}})
}

// blockSpec stores n small blocks in the pool and builds the stage that
// reads them back: task i is the identity over block i.
func blockSpec(t testing.TB, pool *Pool, label string, n int) (*engine.RemoteStageSpec, [][]int) {
	t.Helper()
	spec := &engine.RemoteStageSpec{Label: label}
	want := make([][]int, n)
	for i := range want {
		want[i] = []int{i, 10 * i, 100 * i}
		id, err := pool.PutBlock(sliceBatch(want[i]))
		if err != nil {
			t.Fatalf("PutBlock: %v", err)
		}
		spec.Tasks = append(spec.Tasks, engine.RemoteTask{Steps: []engine.RemoteStep{{
			Op: "identity", Part: i, Inputs: []engine.RemoteInput{{Block: id}},
		}}})
	}
	return spec, want
}

func checkParts(t testing.TB, parts []engine.Batch, want [][]int) {
	t.Helper()
	if len(parts) != len(want) {
		t.Fatalf("got %d parts, want %d", len(parts), len(want))
	}
	for i, b := range parts {
		if !reflect.DeepEqual(b.Data(), want[i]) {
			t.Fatalf("part %d = %v, want %v", i, b.Data(), want[i])
		}
	}
}

// TestDroppedBlockIsPushedAgain drops exactly one pushed block. One worker
// makes the frame order deterministic — block 1, task 1, block 2, ... —
// so the seventh frame is the fourth task's block, and the re-dispatch
// (frames nine and ten) stays short of the fourteenth. The task must
// answer that its input is missing and run again once the block is pushed
// a second time: reference values, and no worker dies or takes blame for
// the transport's loss.
func TestDroppedBlockIsPushedAgain(t *testing.T) {
	pool := startPool(t, Config{Workers: 1, Faults: FaultPlan{DropEveryFrames: 7}})
	spec, want := blockSpec(t, pool, "dropped-block", 4)
	res, err := pool.RunRemoteStage(context.Background(), spec)
	if err != nil {
		t.Fatalf("stage with a dropped block frame: %v", err)
	}
	checkParts(t, res.Parts, want)
	if got := atomic.LoadUint64(&pool.frameSeq); got != 10 {
		t.Fatalf("%d data-plane frames, want 10: eight, then the dropped block and its task again", got)
	}
	if st := pool.Stats(); st.MachineCrashes != 0 || pool.Respawns() != 0 {
		t.Fatalf("a dropped block cost %d crashes and %d respawns, want none", st.MachineCrashes, pool.Respawns())
	}
}

// TestDroppedResidentBlockIsPushedAgain drops the push of a block the
// stage lists as resident — the fourth task's, as in
// TestDroppedBlockIsPushedAgain — so it is pushed again. The job's end
// keeps all four blocks in the store and on the worker, and the next
// job's stage over three of them sends three task frames and no block.
func TestDroppedResidentBlockIsPushedAgain(t *testing.T) {
	pool := startPool(t, Config{Workers: 1, Faults: FaultPlan{DropEveryFrames: 7}})
	spec, want := blockSpec(t, pool, "dropped-resident", 4)
	for _, task := range spec.Tasks {
		spec.Resident = append(spec.Resident, task.Steps[0].Inputs[0].Block)
	}
	res, err := pool.RunRemoteStage(context.Background(), spec)
	if err != nil {
		t.Fatalf("stage with a dropped resident block: %v", err)
	}
	checkParts(t, res.Parts, want)
	pool.ReleaseBroadcasts()
	if got := pool.storeIDs(); !reflect.DeepEqual(got, spec.Resident) {
		t.Fatalf("store keeps %v, want the resident %v", got, spec.Resident)
	}
	w := pool.liveWorkers()[0]
	w.wmu.Lock()
	held := len(w.held)
	w.wmu.Unlock()
	if held != 4 {
		t.Fatalf("worker is believed to hold %d blocks, want 4", held)
	}

	next := &engine.RemoteStageSpec{Label: "resident-again", Tasks: spec.Tasks[:3], Resident: spec.Resident[:3]}
	res, err = pool.RunRemoteStage(context.Background(), next)
	if err != nil {
		t.Fatalf("second job: %v", err)
	}
	checkParts(t, res.Parts, want[:3])
	if got := atomic.LoadUint64(&pool.frameSeq); got != 13 {
		t.Fatalf("%d data-plane frames, want 13: ten in the first job, three tasks in the second", got)
	}
	pool.ReleaseBroadcasts()
	if got := pool.storeIDs(); !reflect.DeepEqual(got, next.Resident) {
		t.Fatalf("store keeps %v after the second job, want %v", got, next.Resident)
	}
}

// TestFrameFaultsStillCorrect runs the chaos workload through a transport
// that delays, drops, and tears data-plane frames on seeded cadences. The
// task deadline unwedges dropped frames, torn frames kill connections and
// trigger respawn — and the results must still match the reference.
func TestFrameFaultsStillCorrect(t *testing.T) {
	pool := startPool(t, Config{
		Workers:        2,
		TaskDeadline:   2 * time.Second,
		RespawnBackoff: 10 * time.Millisecond,
		Faults: FaultPlan{
			Seed:             3,
			DelayEveryFrames: 7,
			Delay:            time.Millisecond,
			DropEveryFrames:  23,
			ResetEveryFrames: 41,
		},
	})
	sp := tasks.ChaosSpec{Records: 2000, Keys: 32, Parts: 4, Rounds: 2}

	var out tasks.Outcome
	withBackend(t, pool, func() { out = sp.Run(cluster.Config{}) })
	if out.Err != nil {
		t.Fatalf("run under frame faults: %v", out.Err)
	}
	if want := sp.Reference(); !reflect.DeepEqual(out.Value, want) {
		t.Fatalf("value %+v != reference %+v", out.Value, want)
	}
}
