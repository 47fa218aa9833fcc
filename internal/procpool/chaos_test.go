package procpool

import (
	"context"
	"fmt"
	"reflect"
	"strings"
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
	a := FaultPlan{Seed: 42, KillAfterTasks: 5, KillEveryTasks: 7, DelayEveryFrames: 3, ResetEveryFrames: 11}
	b := FaultPlan{Seed: 42, KillAfterTasks: 5, KillEveryTasks: 7, DelayEveryFrames: 3, ResetEveryFrames: 11}
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
	// Cadence arithmetic: reset beats delay on collisions.
	p := FaultPlan{DelayEveryFrames: 2, ResetEveryFrames: 4}
	if got := p.frameFaultAt(4); got != frameReset {
		t.Fatalf("frame 4: got %d, want reset", got)
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
	// The one-shot kill fires at its dispatch and no other.
	once := FaultPlan{KillAfterTasks: 5}
	if !once.Active() {
		t.Fatal("a one-shot kill plan claims to be inactive")
	}
	for n := uint64(1); n <= 20; n++ {
		if once.killsAt(n) != (n == 5) {
			t.Fatalf("one-shot kill at 5: killsAt(%d) = %v", n, once.killsAt(n))
		}
	}
}

// sliceBatch wraps xs in a Batch using only what engine exports: the
// MapPartitions kernel over an empty input hands back whatever its UDF
// returns.
func sliceBatch[T any](xs []T) engine.Batch {
	k := engine.MapPartitionsCompute(func([]T) []T { return xs })
	return k(&engine.Ctx{}, 0, []engine.Batch{&engine.Vec[T]{}})
}

// rowsOf is b's elements as the typed slice they are kept in.
func rowsOf(b engine.Batch) any {
	elem, rows := b.Rows()
	return reflect.SliceAt(elem, rows, b.Len()).Interface()
}

// blockSpec stores n small blocks in the pool and builds the stage that
// reads them back: task i is the identity over block i.
func blockSpec(t testing.TB, pool *Pool, label string, n int) (*engine.RemoteStageSpec, [][]int) {
	t.Helper()
	want, batches := smallBlocks(n)
	return specOver(t, pool, label, batches), want
}

// smallBlocks returns n small int batches and their rows.
func smallBlocks(n int) ([][]int, []engine.Batch) {
	want := make([][]int, n)
	batches := make([]engine.Batch, n)
	for i := range want {
		want[i] = []int{i, 10 * i, 100 * i}
		batches[i] = sliceBatch(want[i])
	}
	return want, batches
}

// specOver puts batches in the pool and builds the stage that reads them
// back: task i is the identity over batches[i].
func specOver(t testing.TB, pool *Pool, label string, batches []engine.Batch) *engine.RemoteStageSpec {
	t.Helper()
	spec := &engine.RemoteStageSpec{Label: label}
	for i, b := range batches {
		id, err := pool.PutBlock(b)
		if err != nil {
			t.Fatalf("PutBlock: %v", err)
		}
		spec.Tasks = append(spec.Tasks, engine.RemoteTask{
			Steps:  []engine.RemoteStep{{Op: "identity", Part: i, NumInputs: 1}},
			Inputs: []engine.RemoteInput{{Block: id}},
		})
	}
	return spec
}

func checkParts(t testing.TB, parts []engine.Batch, want [][]int) {
	t.Helper()
	if len(parts) != len(want) {
		t.Fatalf("got %d parts, want %d", len(parts), len(want))
	}
	for i, b := range parts {
		if got := rowsOf(b); !reflect.DeepEqual(got, want[i]) {
			t.Fatalf("part %d = %v, want %v", i, got, want[i])
		}
	}
}

// TestResidentBlocksStayForTheNextJob: blocks a stage lists as resident
// survive the job's end in the store and on the worker. One worker runs
// both jobs, so the next job, which puts three of the same batches again,
// gets the ids they already have and pushes no block: the worker is still
// believed to hold them, the bytes shipped are the results alone, and the
// tasks find their inputs in the worker's cache (a missing one would fail
// the stage).
func TestResidentBlocksStayForTheNextJob(t *testing.T) {
	pool := startPool(t, Config{Workers: 1})
	want, batches := smallBlocks(4)
	spec := specOver(t, pool, "resident", batches)
	var frames []int64 // encoded size of each block; an identity task's result is the same frame
	for i, task := range spec.Tasks {
		spec.Resident = append(spec.Resident, task.Inputs[0].Block)
		b, err := engine.EncodeBatch(nil, sliceBatch(want[i]))
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, int64(len(b)))
	}
	res, err := pool.RunRemoteStage(context.Background(), spec)
	if err != nil {
		t.Fatalf("first job: %v", err)
	}
	checkParts(t, res.Parts, want)
	if sum := frames[0] + frames[1] + frames[2] + frames[3]; res.BytesShipped != 2*sum {
		t.Fatalf("first job shipped %d bytes, want %d: four blocks pushed, four results", res.BytesShipped, 2*sum)
	}
	pool.ReleaseBroadcasts()
	if got := pool.storeIDs(); !reflect.DeepEqual(got, spec.Resident) {
		t.Fatalf("store keeps %v, want the resident %v", got, spec.Resident)
	}
	if got := heldIDs(pool.liveWorkers()[0]); !reflect.DeepEqual(got, spec.Resident) {
		t.Fatalf("worker is believed to hold %v, want the resident %v", got, spec.Resident)
	}

	next := specOver(t, pool, "resident-again", batches[:3])
	if !reflect.DeepEqual(next.Tasks, spec.Tasks[:3]) {
		t.Fatalf("the same batches put again read %+v, want the ids they have %+v", next.Tasks, spec.Tasks[:3])
	}
	next.Resident = spec.Resident[:3]
	res, err = pool.RunRemoteStage(context.Background(), next)
	if err != nil {
		t.Fatalf("second job: %v", err)
	}
	checkParts(t, res.Parts, want[:3])
	if sum := frames[0] + frames[1] + frames[2]; res.BytesShipped != sum {
		t.Fatalf("second job shipped %d bytes, want %d: three results and no block", res.BytesShipped, sum)
	}
	pool.ReleaseBroadcasts()
	if got := pool.storeIDs(); !reflect.DeepEqual(got, next.Resident) {
		t.Fatalf("store keeps %v after the second job, want %v", got, next.Resident)
	}
	if got := heldIDs(pool.liveWorkers()[0]); !reflect.DeepEqual(got, next.Resident) {
		t.Fatalf("worker is believed to hold %v after the second job, want %v", got, next.Resident)
	}
	if st := pool.Stats(); st.MachineCrashes != 0 {
		t.Fatalf("%d crashes in a fault-free run", st.MachineCrashes)
	}
}

// TestMissingBlockFailsItsTask: a block the driver believes a worker
// holds but never pushed — a bookkeeping bug, since an open stream loses
// no frame — is not pushed again. The task that reads it answers an error
// naming the block, the stage fails with it (and the engine fails the job:
// the error does not wrap engine.ErrNotPortable), and the worker lives on
// to run the next stage.
func TestMissingBlockFailsItsTask(t *testing.T) {
	pool := startPool(t, Config{Workers: 1})
	spec, want := blockSpec(t, pool, "missing", 3)
	lost := spec.Tasks[1].Inputs[0].Block
	w := pool.liveWorkers()[0]
	w.wmu.Lock()
	w.held[lost] = true
	w.wmu.Unlock()
	_, err := pool.RunRemoteStage(context.Background(), spec)
	if msg := fmt.Sprintf(`stage "missing" task 1: procpool: block %d is not in the worker's cache`, lost); err == nil || !strings.Contains(err.Error(), msg) {
		t.Fatalf("stage over a block never pushed: got %v, want an error saying %q", err, msg)
	}
	if st := pool.Stats(); st.MachineCrashes != 0 || pool.LiveWorkers() != 1 {
		t.Fatalf("%d crashes and %d live workers after a missing block, want 0 and 1", st.MachineCrashes, pool.LiveWorkers())
	}
	again, _ := blockSpec(t, pool, "after-missing", 3)
	res, err := pool.RunRemoteStage(context.Background(), again)
	if err != nil {
		t.Fatalf("stage after the missing block: %v", err)
	}
	checkParts(t, res.Parts, want)
}

// TestFrameFaultsStillCorrect runs the chaos workload through a transport
// that delays and tears data-plane frames on seeded cadences. Torn frames
// kill connections and trigger respawn — and the results must still match
// the reference.
func TestFrameFaultsStillCorrect(t *testing.T) {
	pool := startPool(t, Config{
		Workers:        2,
		RespawnBackoff: 10 * time.Millisecond,
		Faults: FaultPlan{
			Seed:             3,
			DelayEveryFrames: 7,
			Delay:            time.Millisecond,
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
