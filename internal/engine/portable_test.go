package engine

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"matryoshka/internal/cluster"
	"matryoshka/internal/obs"
)

// The test pipeline's operators, registered once for the whole process
// (the registry is global and rejects duplicates).
func ptestTag(x int) Pair[int, int]               { return KV(x%7, x) }
func ptestRekey(kv Pair[int, int]) Pair[int, int] { return KV(kv.Key%3, kv.Val) }
func ptestSum(a, b int) int                       { return a + b }

// errPtestFail is what ptest.fail's kernel panics with.
var errPtestFail = errors.New("ptest.fail: bad row")

// ptestScaleMade counts calls of ptest.scale's factory: what the evaluator
// is meant to make once per (op, arg), not once per task.
var ptestScaleMade int

func init() {
	RegisterBatchShape[int]()
	RegisterBatchShape[Pair[int, int]]()
	RegisterPortableOp("ptest.scale", func(arg string) (PortableCompute, error) {
		ptestScaleMade++
		k, err := strconv.Atoi(arg)
		if err != nil {
			return nil, err
		}
		return MapCompute(func(x int) int { return k * x }), nil
	})
	RegisterPortableOp("ptest.tag", func(string) (PortableCompute, error) {
		return MapCompute(ptestTag), nil
	})
	RegisterPortableOp("ptest.rekey", func(string) (PortableCompute, error) {
		return MapCompute(ptestRekey), nil
	})
	RegisterPortableOp("ptest.sum", func(string) (PortableCompute, error) {
		return ReduceByKeyCompute[int](ptestSum), nil
	})
	RegisterPortableOp("ptest.fail", func(string) (PortableCompute, error) {
		return MapCompute(func(x int) int {
			if x == 2 {
				panic(errPtestFail)
			}
			return x
		}), nil
	})
}

// fakeRemoteRunner is an in-process RemoteRunner: it keeps the batches put
// in a map and evaluates shipped tasks with a RemoteEvaluator right here —
// the whole portable spec/serialization path without process management,
// so failures point at the spec builder rather than the pool. Like the
// pool, it encodes a block only when a stage reads it: a spec naming a
// block whose shuffle memory the engine already released would decode
// the poison a mustSession writes there. It keeps blocks as the contract
// says: by identity, until a ReleaseBroadcasts no spec since the previous
// one kept them from.
type fakeRemoteRunner struct {
	*cluster.Simulator // Backend + Residency facets
	blocks             map[uint64]Batch
	ids                map[Batch]uint64
	keep               map[uint64]bool // listed Resident since the last release
	next               uint64          // ids handed out
	puts               int             // PutBlock calls
	eval               RemoteEvaluator
	stages             int
	tasks              int
	specs              []*RemoteStageSpec // every spec received, failed ones too
	releases           int                // ReleaseBroadcasts calls
}

func (f *fakeRemoteRunner) ReleaseBroadcasts() {
	f.releases++
	for id, b := range f.blocks {
		if !f.keep[id] {
			delete(f.blocks, id)
			delete(f.ids, b)
		}
	}
	f.keep = map[uint64]bool{}
	f.Simulator.ReleaseBroadcasts()
}

func newFakeRemoteRunner(t *testing.T) *fakeRemoteRunner {
	t.Helper()
	sim, err := cluster.New(cluster.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return &fakeRemoteRunner{Simulator: sim, blocks: map[uint64]Batch{}, ids: map[Batch]uint64{}, keep: map[uint64]bool{}}
}

func (f *fakeRemoteRunner) PutBlock(b Batch) (uint64, error) {
	f.puts++
	if id, ok := f.ids[b]; ok {
		return id, nil
	}
	f.next++
	f.blocks[f.next] = b
	f.ids[b] = f.next
	return f.next, nil
}

// RunRemoteStage round-trips every task, and every block a task reads,
// through the codec as it runs, like the real pool, so shapes that cannot
// cross a process boundary fail here too: a block the codec refuses wraps
// ErrNotPortable, as the pool's push does.
func (f *fakeRemoteRunner) RunRemoteStage(_ context.Context, spec *RemoteStageSpec) (*RemoteStageResult, error) {
	f.specs = append(f.specs, spec)
	for _, id := range spec.Resident {
		f.keep[id] = true
	}
	parts := make([]Batch, len(spec.Tasks))
	for i := range spec.Tasks {
		body, err := AppendTask(nil, &spec.Tasks[i])
		if err != nil {
			return nil, err
		}
		task, err := ReadTask(body)
		if err != nil {
			return nil, err
		}
		b, err := f.eval.RunRemoteTask(&task, func(id uint64) (Batch, error) {
			blk, ok := f.blocks[id]
			if !ok {
				return nil, codecErr("fake runner: unknown block %d", id)
			}
			enc, err := EncodeBatch(nil, blk)
			if err != nil {
				return nil, fmt.Errorf("%w: %w", ErrNotPortable, err)
			}
			dec, _, err := DecodeBatch(enc)
			return dec, err
		})
		if err != nil {
			return nil, err
		}
		parts[i] = b
		f.tasks++
	}
	f.stages++
	return &RemoteStageResult{Parts: parts, Workers: 1}, nil
}

func ptestPipeline(t *testing.T, cfg Config) map[int]int {
	t.Helper()
	sess := mustSession(cfg)
	data := make([]int, 500)
	for i := range data {
		data[i] = i
	}
	d := Parallelize(sess, data, 4)
	tagged := MarkPortable(Map(d, ptestTag), "ptest.tag", "")
	summed := MarkCombinePortable(
		MarkPortable(ReduceByKeyN(tagged, ptestSum, 3), "ptest.sum", ""),
		"ptest.sum", "")
	out, err := CollectMap(summed)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestRemoteRunnerBitIdentical: the same marked pipeline on a plain
// simulator and on a RemoteRunner backend must produce identical values,
// and the remote path must actually have run the shippable stages.
func TestRemoteRunnerBitIdentical(t *testing.T) {
	simOut := ptestPipeline(t, Config{})
	fr := newFakeRemoteRunner(t)
	remoteOut := ptestPipeline(t, Config{Backend: fr})
	if !reflect.DeepEqual(simOut, remoteOut) {
		t.Fatalf("values differ:\n sim:    %v\n remote: %v", simOut, remoteOut)
	}
	if fr.stages == 0 || fr.tasks == 0 {
		t.Fatalf("nothing ran remotely (stages=%d tasks=%d)", fr.stages, fr.tasks)
	}
}

// quorumOnceRunner fails its first remote stage with *QuorumLostError, as
// a pool whose whole fleet is dead would, and runs the rest normally.
type quorumOnceRunner struct {
	*fakeRemoteRunner
	failed bool
}

func (q *quorumOnceRunner) RunRemoteStage(ctx context.Context, spec *RemoteStageSpec) (*RemoteStageResult, error) {
	if !q.failed {
		q.failed = true
		return nil, &QuorumLostError{Stage: spec.Label}
	}
	return q.fakeRemoteRunner.RunRemoteStage(ctx, spec)
}

// TestQuorumLossRecoveryLine: a lost worker quorum is retried as a whole
// job, and its Recovery line says so instead of naming a fetch failure of
// a machine -1 that does not exist.
func TestQuorumLossRecoveryLine(t *testing.T) {
	rec := obs.NewRecorder()
	fr := &quorumOnceRunner{fakeRemoteRunner: newFakeRemoteRunner(t)}
	got := ptestPipeline(t, Config{Backend: fr, Recover: true, Obs: rec})
	if want := ptestPipeline(t, Config{}); !reflect.DeepEqual(got, want) {
		t.Fatalf("after a quorum loss: %v, want %v", got, want)
	}
	report := rec.Report()
	if !strings.Contains(report, "worker quorum lost") || !strings.Contains(report, "job retry 1/") || strings.Contains(report, "m-1") {
		t.Fatalf("report should show the quorum loss retried as a job, and no machine -1:\n%s", report)
	}
}

// TestRemoteShuffleChainReadsLiveBlocks runs two portable shuffles in one
// job: ptest.sum by x%7, then again by that key mod 3. The runner encodes
// each block only as the stage reading it runs, and the session poisons
// the shuffle memory a stage releases, so the result is right only if no
// spec names a block the engine released — that is, only if a block that
// is not resident is named by the one spec it was put for.
func TestRemoteShuffleChainReadsLiveBlocks(t *testing.T) {
	fr := newFakeRemoteRunner(t)
	sess := mustSession(Config{Backend: fr})
	data := make([]int, 500)
	want := map[int]int{}
	for i := range data {
		data[i] = i
		want[i%7%3] += i
	}
	sum := func(d Dataset[Pair[int, int]], parts int) Dataset[Pair[int, int]] {
		return MarkCombinePortable(MarkPortable(ReduceByKeyN(d, ptestSum, parts), "ptest.sum", ""), "ptest.sum", "")
	}
	tagged := MarkPortable(Map(Parallelize(sess, data, 4), ptestTag), "ptest.tag", "")
	rekeyed := MarkPortable(Map(sum(tagged, 3), ptestRekey), "ptest.rekey", "")
	got, err := CollectMap(sum(rekeyed, 2))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	if fr.stages < 3 {
		t.Fatalf("%d stages ran remotely, want the three of two shuffles", fr.stages)
	}
	namedBy := map[uint64]int{} // block id -> the spec that named it first
	for si, spec := range fr.specs {
		for _, task := range spec.Tasks {
			for _, in := range task.Inputs {
				if in.Step != 0 || in.Block == 0 {
					continue
				}
				if first, ok := namedBy[in.Block]; ok && first != si {
					t.Fatalf("block %d is named by specs %d and %d", in.Block, first, si)
				}
				namedBy[in.Block] = si
			}
		}
	}
}

// TestEvaluatorResolvesKernelsOnce ships a 64-task stage through one
// RemoteEvaluator: the operator's factory must run once for the whole
// stage, once more for a second argument, and again after Reset — and the
// values must be what the driver's own evaluation of the stage gives.
func TestEvaluatorResolvesKernelsOnce(t *testing.T) {
	data := make([]int, 640)
	for i := range data {
		data[i] = i
	}
	scaled := func(cfg Config, k int) []int {
		t.Helper()
		sess := mustSession(cfg)
		f := func(x int) int { return k * x }
		out, err := Collect(MarkPortable(Map(Parallelize(sess, data, 64), f), "ptest.scale", strconv.Itoa(k)))
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	want3, want5 := scaled(Config{}, 3), scaled(Config{}, 5)

	fr := newFakeRemoteRunner(t)
	firstRuns := 0
	fr.eval.FirstRun = func() { firstRuns++ }
	made := ptestScaleMade
	if got := scaled(Config{Backend: fr}, 3); !reflect.DeepEqual(got, want3) {
		t.Fatalf("remote values differ from the driver's:\n got  %v\n want %v", got, want3)
	}
	if fr.tasks != 64 || ptestScaleMade-made != 1 {
		t.Fatalf("%d tasks made the kernel %d times, want 64 tasks and 1 kernel", fr.tasks, ptestScaleMade-made)
	}
	if got := scaled(Config{Backend: fr}, 5); !reflect.DeepEqual(got, want5) {
		t.Fatalf("second argument: got %v, want %v", got, want5)
	}
	scaled(Config{Backend: fr}, 3)
	if ptestScaleMade-made != 2 || firstRuns != 2 {
		t.Fatalf("two arguments over three stages made %d kernels and %d first runs, want 2 and 2", ptestScaleMade-made, firstRuns)
	}
	fr.eval.Reset()
	if got := scaled(Config{Backend: fr}, 3); !reflect.DeepEqual(got, want3) || ptestScaleMade-made != 3 {
		t.Fatalf("after Reset: values equal %v, %d kernels made, want true and 3", reflect.DeepEqual(got, want3), ptestScaleMade-made)
	}
}

// TestRemoteTaskPanicIsItsError: a kernel that panics with an error fails
// its task with an error wrapping that value and naming the task and the
// op of the step that panicked, as the driver names a task of its own.
func TestRemoteTaskPanicIsItsError(t *testing.T) {
	task := RemoteTask{
		Steps:  []RemoteStep{{Op: "ptest.scale", Arg: "1", Part: 3, NumInputs: 1}, {Op: "ptest.fail", Part: 3, NumInputs: 1}},
		Inputs: []RemoteInput{{Block: 1}, {Step: 1}},
	}
	var e RemoteEvaluator
	b, err := e.RunRemoteTask(&task, func(uint64) (Batch, error) { return batchOf([]int{1, 2, 3}, 3), nil })
	if b != nil || !errors.Is(err, errPtestFail) {
		t.Fatalf("RunRemoteTask = %v, %v; want no batch and an error wrapping %v", b, err, errPtestFail)
	}
	if want := "engine: task 3 of ptest.fail panicked: ptest.fail: bad row"; err.Error() != want {
		t.Fatalf("error %q, want %q", err, want)
	}
}

// failingRunner fails every remote stage with err, having run nothing.
type failingRunner struct {
	*fakeRemoteRunner
	err error
}

func (f *failingRunner) RunRemoteStage(context.Context, *RemoteStageSpec) (*RemoteStageResult, error) {
	return nil, f.err
}

// TestRemoteErrorOutcomes holds the executor to the RemoteRunner contract,
// one case per outcome it can take from a runner's error: one that wraps
// ErrNotPortable runs the stage driver-local, with the driver's value and a
// decision saying why; any other error fails the job with an error that
// wraps it, and the driver does not run the stage's UDF. (A
// *QuorumLostError is retried as a job: TestQuorumLossRecoveryLine.)
func TestRemoteErrorOutcomes(t *testing.T) {
	errRunner := errors.New("runner: task 0 failed on a worker")
	for _, c := range []struct {
		name  string
		err   error
		local bool // the stage runs driver-local
	}{
		{"not portable", fmt.Errorf("%w: the runner cannot carry it", ErrNotPortable), true},
		{"task failed", errRunner, false},
	} {
		rec := obs.NewRecorder()
		sess := mustSession(Config{Backend: &failingRunner{newFakeRemoteRunner(t), c.err}, Obs: rec})
		var driverRuns atomic.Int64
		triple := func(x int) int { driverRuns.Add(1); return 3 * x }
		got, err := Collect(MarkPortable(Map(Parallelize(sess, []int{1, 2, 3, 4}, 2), triple), "ptest.scale", "3"))
		var local []string
		for _, d := range rec.Decisions() {
			if d.Rule == "proc-backend" && d.Choice == "driver-local" {
				local = append(local, d.Why)
			}
		}
		if c.local {
			if err != nil || !reflect.DeepEqual(got, []int{3, 6, 9, 12}) || driverRuns.Load() != 4 {
				t.Fatalf("%s: got %v, %v after %d driver runs; want [3 6 9 12] from 4", c.name, got, err, driverRuns.Load())
			}
			if len(local) != 1 || !strings.Contains(local[0], "the runner cannot carry it") {
				t.Fatalf("%s: driver-local decisions %q, want one quoting the runner", c.name, local)
			}
			continue
		}
		if !errors.Is(err, errRunner) || driverRuns.Load() != 0 || len(local) != 0 {
			t.Fatalf("%s: got %v after %d driver runs and driver-local decisions %q; want an error wrapping %q, no run, no decision",
				c.name, err, driverRuns.Load(), local, errRunner)
		}
	}
}

// TestUnportableStageFallsBackDriverLocal: a pipeline with an unmarked
// closure must still produce correct results on a RemoteRunner backend —
// its stages run driver-local — and the decision log must say why.
func TestUnportableStageFallsBackDriverLocal(t *testing.T) {
	fr := newFakeRemoteRunner(t)
	rec := obs.NewRecorder()
	sess := mustSession(Config{Backend: fr, Obs: rec})
	data := []int{5, 6, 7, 8}
	doubled, err := Collect(Map(Parallelize(sess, data, 2), func(x int) int { return 2 * x }))
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{10, 12, 14, 16}; !reflect.DeepEqual(doubled, want) {
		t.Fatalf("got %v, want %v", doubled, want)
	}
	if fr.stages != 0 {
		t.Fatalf("unmarked stage ran remotely (%d stages)", fr.stages)
	}
	found := false
	for _, d := range rec.Decisions() {
		if d.Rule == "proc-backend" && d.Choice == "driver-local" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no driver-local fallback decision logged; decisions: %+v", rec.Decisions())
	}
}

// TestUnmarkedOperatorUnderPortableRoot: a stage whose root is marked
// portable but reads an unmarked operator is refused by the walk that
// builds its spec. It runs driver-local with the driver's values, the
// decision log names the unmarked operator, the runner never sees the
// stage, and no block was put.
func TestUnmarkedOperatorUnderPortableRoot(t *testing.T) {
	fr := newFakeRemoteRunner(t)
	rec := obs.NewRecorder()
	sess := mustSession(Config{Backend: fr, Obs: rec})
	unmarked := Filter(Parallelize(sess, []int{5, 6, 7, 8}, 2), func(x int) bool { return x > 5 })
	got, err := Collect(MarkPortable(Map(unmarked, func(x int) int { return 3 * x }), "ptest.scale", "3"))
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{18, 21, 24}; !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	if len(fr.specs) != 0 || fr.puts != 0 {
		t.Fatalf("the runner saw %d specs and %d blocks, want none", len(fr.specs), fr.puts)
	}
	found := false
	for _, d := range rec.Decisions() {
		if d.Rule == "proc-backend" && d.Choice == "driver-local" && strings.Contains(d.Why, `operator "filter"`) {
			found = true
		}
	}
	if !found {
		t.Fatalf("no driver-local decision naming the unmarked operator; decisions: %+v", rec.Decisions())
	}
}

// TestCachedPartitionsListedAsResident: every spec that reads a cached
// dataset lists each of its partitions in Resident, under the id PutBlock
// returned for that very batch. The runner keeps them by identity, so a
// second job over the same cache puts the same batches and gets the same
// ids, while a job that does not read them lets them go and the next one
// gets fresh ids. Each Close hands the backend a ReleaseBroadcasts, after
// which it holds nothing.
func TestCachedPartitionsListedAsResident(t *testing.T) {
	fr := newFakeRemoteRunner(t)
	sess := mustSession(Config{Backend: fr, Recover: true})
	data := make([]int, 100)
	for i := range data {
		data[i] = i
	}
	cached := Parallelize(sess, data, 4).Cache()
	scale := func(k int) []uint64 {
		t.Helper()
		f := func(x int) int { return k * x }
		got, err := Collect(MarkPortable(Map(cached, f), "ptest.scale", strconv.Itoa(k)))
		if err != nil {
			t.Fatal(err)
		}
		for i, x := range got {
			if x != k*data[i] {
				t.Fatalf("scale %d: element %d = %d, want %d", k, i, x, k*data[i])
			}
		}
		resident := fr.specs[len(fr.specs)-1].Resident
		if len(resident) != 4 {
			t.Fatalf("scale %d: resident %v, want the 4 cached partitions", k, resident)
		}
		for p, id := range resident {
			if fr.ids[cached.n.cacheData[p]] != id {
				t.Fatalf("scale %d: resident id %d of partition %d is not the id its batch was put under", k, id, p)
			}
		}
		return resident
	}

	first := scale(2)
	if fr.next != 4 || fr.puts != 4 {
		t.Fatalf("first job: %d puts, %d ids; want 4 and 4", fr.puts, fr.next)
	}
	if again := scale(3); fr.next != 4 || fr.puts != 8 || !reflect.DeepEqual(again, first) {
		t.Fatalf("second job: %d puts, %d ids, resident %v; want 8, 4 and %v", fr.puts, fr.next, again, first)
	}

	// A job that does not read the cached dataset lists nothing and lets
	// its blocks go.
	if _, err := Collect(MarkPortable(Map(Parallelize(sess, data, 2), func(x int) int { return x }), "ptest.scale", "1")); err != nil {
		t.Fatal(err)
	}
	if uncached := fr.specs[len(fr.specs)-1].Resident; len(uncached) != 0 {
		t.Fatalf("a spec over no cached dataset lists resident %v", uncached)
	}
	ids := fr.next
	if fresh := scale(5); fr.next != ids+4 || slices.Contains(first, fresh[0]) {
		t.Fatalf("after a job without them: %d new ids, resident %v; want 4 fresh ids", fr.next-ids, fresh)
	}

	releases := fr.releases
	sess.Close()
	sess.Close()
	if fr.releases != releases+2 || len(fr.blocks) != 0 {
		t.Fatalf("Close twice: %d releases, %d blocks kept; want 2 and none", fr.releases-releases, len(fr.blocks))
	}
}
