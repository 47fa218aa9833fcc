package engine

import (
	"context"
	"reflect"
	"slices"
	"strconv"
	"testing"

	"matryoshka/internal/cluster"
	"matryoshka/internal/obs"
)

// The test pipeline's operators, registered once for the whole process
// (the registry is global and rejects duplicates).
func ptestTag(x int) Pair[int, int]               { return KV(x%7, x) }
func ptestRekey(kv Pair[int, int]) Pair[int, int] { return KV(kv.Key%3, kv.Val) }
func ptestSum(a, b int) int                       { return a + b }

// ptestScaleMade counts calls of ptest.scale's factory: what the evaluator
// is meant to make once per (op, arg), not once per task.
var ptestScaleMade int

func init() {
	RegisterBatchShape[int]()
	RegisterBatchShape[Pair[int, int]]()
	RegisterPortableOp("ptest.scale", func(arg []byte) (PortableCompute, error) {
		ptestScaleMade++
		k, err := strconv.Atoi(string(arg))
		if err != nil {
			return nil, err
		}
		return MapCompute(func(x int) int { return k * x }), nil
	})
	RegisterPortableOp("ptest.tag", func([]byte) (PortableCompute, error) {
		return MapCompute(ptestTag), nil
	})
	RegisterPortableOp("ptest.rekey", func([]byte) (PortableCompute, error) {
		return MapCompute(ptestRekey), nil
	})
	RegisterPortableOp("ptest.sum", func([]byte) (PortableCompute, error) {
		return ReduceByKeyCompute[int](ptestSum), nil
	})
	RegisterPortableOp("ptest.sum.combine", func([]byte) (PortableCompute, error) {
		return CombineCompute[int](ptestSum), nil
	})
}

// fakeRemoteRunner is an in-process RemoteRunner: it keeps the batches put
// in a map and evaluates shipped tasks with a RemoteEvaluator right here —
// the whole portable spec/serialization path without process management,
// so failures point at the spec builder rather than the pool. Like the
// pool, it encodes a block only when a stage reads it: a spec naming a
// block whose shuffle memory the engine already released would decode
// the poison a mustSession writes there.
type fakeRemoteRunner struct {
	*cluster.Simulator // Backend + Residency facets
	blocks             map[uint64]Batch
	next               uint64
	eval               RemoteEvaluator
	stages             int
	tasks              int
	specs              []*RemoteStageSpec // every spec received, failed ones too
	releases           int                // ReleaseBroadcasts calls
}

func (f *fakeRemoteRunner) ReleaseBroadcasts() {
	f.releases++
	f.Simulator.ReleaseBroadcasts()
}

func newFakeRemoteRunner(t *testing.T) *fakeRemoteRunner {
	t.Helper()
	sim, err := cluster.New(cluster.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return &fakeRemoteRunner{Simulator: sim, blocks: map[uint64]Batch{}}
}

func (f *fakeRemoteRunner) PutBlock(b Batch) (uint64, error) {
	f.next++
	f.blocks[f.next] = b
	return f.next, nil
}

// RunRemoteStage round-trips every block a task reads through the codec
// as it runs, like the real pool, so shapes that cannot cross a process
// boundary fail here too.
func (f *fakeRemoteRunner) RunRemoteStage(_ context.Context, spec *RemoteStageSpec) (*RemoteStageResult, error) {
	f.specs = append(f.specs, spec)
	parts := make([]Batch, len(spec.Tasks))
	for i := range spec.Tasks {
		b, err := f.eval.RunRemoteTask(&spec.Tasks[i], func(id uint64) (Batch, error) {
			blk, ok := f.blocks[id]
			if !ok {
				return nil, codecErr("fake runner: unknown block %d", id)
			}
			enc, err := EncodeBatch(nil, blk)
			if err != nil {
				return nil, err
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
	tagged := MarkPortable(Map(d, ptestTag), "ptest.tag", nil)
	summed := MarkCombinePortable(
		MarkPortable(ReduceByKeyN(tagged, ptestSum, 3), "ptest.sum", nil),
		"ptest.sum.combine", nil)
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
		return MarkCombinePortable(MarkPortable(ReduceByKeyN(d, ptestSum, parts), "ptest.sum", nil), "ptest.sum.combine", nil)
	}
	tagged := MarkPortable(Map(Parallelize(sess, data, 4), ptestTag), "ptest.tag", nil)
	rekeyed := MarkPortable(Map(sum(tagged, 3), ptestRekey), "ptest.rekey", nil)
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
	var walk func(si int, rn *RemoteNode)
	walk = func(si int, rn *RemoteNode) {
		for _, in := range rn.Inputs {
			switch {
			case in.Node != nil:
				walk(si, in.Node)
			case in.Block != 0:
				if first, ok := namedBy[in.Block]; ok && first != si {
					t.Fatalf("block %d is named by specs %d and %d", in.Block, first, si)
				}
				namedBy[in.Block] = si
			}
		}
	}
	for si, spec := range fr.specs {
		for ti := range spec.Tasks {
			walk(si, spec.Tasks[ti].Root)
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
		out, err := Collect(MarkPortable(Map(Parallelize(sess, data, 64), f), "ptest.scale", []byte(strconv.Itoa(k))))
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

// TestCachedPartitionsPutOncePerSession: a cached dataset's partitions
// are put once for the session and listed as resident by every spec that
// reads them. A job that does not read them forgets their ids, as the
// backend drops those blocks at its end, so a later job puts them again.
// Close hands the backend one more ReleaseBroadcasts when the session
// holds any, and closing twice releases nothing more.
func TestCachedPartitionsPutOncePerSession(t *testing.T) {
	fr := newFakeRemoteRunner(t)
	sess := mustSession(Config{Backend: fr, Recover: true})
	data := make([]int, 100)
	for i := range data {
		data[i] = i
	}
	cached := Parallelize(sess, data, 4).Cache()
	scale := func(k int) {
		t.Helper()
		f := func(x int) int { return k * x }
		got, err := Collect(MarkPortable(Map(cached, f), "ptest.scale", []byte(strconv.Itoa(k))))
		if err != nil {
			t.Fatal(err)
		}
		for i, x := range got {
			if x != k*data[i] {
				t.Fatalf("scale %d: element %d = %d, want %d", k, i, x, k*data[i])
			}
		}
	}
	lastResident := func() []uint64 { return fr.specs[len(fr.specs)-1].Resident }

	scale(2)
	first := lastResident()
	if fr.next != 4 || len(first) != 4 {
		t.Fatalf("first job: %d puts, %d resident ids; want 4 and 4", fr.next, len(first))
	}
	scale(3)
	if fr.next != 4 || !reflect.DeepEqual(lastResident(), first) {
		t.Fatalf("second job: %d puts, resident %v; want 4 and %v", fr.next, lastResident(), first)
	}

	// A job that does not read the cached dataset lets its blocks go.
	if _, err := Collect(MarkPortable(Map(Parallelize(sess, data, 2), func(x int) int { return x }), "ptest.scale", []byte("1"))); err != nil {
		t.Fatal(err)
	}
	if cached.n.cacheBlocks != nil || len(sess.resident) != 0 {
		t.Fatalf("unread cached blocks kept: %v (%d resident nodes)", cached.n.cacheBlocks, len(sess.resident))
	}
	puts := fr.next
	scale(5)
	if fr.next != puts+4 || slices.Contains(first, lastResident()[0]) {
		t.Fatalf("after a job without them: %d new puts, resident %v; want 4 fresh ids", fr.next-puts, lastResident())
	}

	releases := fr.releases
	sess.Close()
	sess.Close()
	if fr.releases != releases+1 || cached.n.cacheBlocks != nil {
		t.Fatalf("Close twice: %d releases, cache blocks %v; want 1 and none", fr.releases-releases, cached.n.cacheBlocks)
	}
}
