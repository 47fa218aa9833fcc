package engine

// Shuffle block lifetimes (exec.go, runner.go, arena.go): routed blocks are
// released when the last stage that reads them succeeds, their memory is
// reused by the next shuffle, and a stage relaunched afterwards routes them
// again. Every session here poisons what is released (mustSession), so a
// block read after its release shows as a wrong result, not a lucky one.

import (
	"reflect"
	"slices"
	"testing"

	"matryoshka/internal/cluster"
)

// liveArenas counts the arenas the job's routed blocks are cut from.
func liveArenas(j *job) int {
	n := 0
	for _, r := range j.blocks {
		n += len(r.arenas)
	}
	return n
}

// readers returns the stages of the job's plan that read shuffle dep d, in
// launch order.
func readers(j *job, d *dep) []*stage {
	var out []*stage
	for _, st := range j.ep.stages {
		for _, e := range st.boundary {
			if e.dep == d {
				out = append(out, st)
			}
		}
	}
	return out
}

// mustRun materializes stage root n of the job's plan and everything below.
func mustRun(t *testing.T, j *job, n *node) {
	t.Helper()
	if f := j.runStages(n); f != nil {
		t.Fatalf("stage %q: %v", n.label, f.err)
	}
}

func sumInt64(a, b int64) int64 { return a + b }

// TestOnlyPointerFreeShapesAreCarved: blocks are laid over unscanned words
// only for element types the collector has nothing to find in; every other
// shape, and the zero-size one, is allocated typed as before.
func TestOnlyPointerFreeShapesAreCarved(t *testing.T) {
	x := 1
	lens := []int32{3, 0, 5}
	for _, c := range []struct {
		proto Batch
		raw   bool
	}{
		{batchOf([]int32{1}, 1), true},
		{batchOf([]foldShape{{}}, 1), true},
		{batchOf([]structKey{{}}, 1), true},
		{batchOf([]Pair[bool, [3]complex64]{{}}, 1), true},
		{batchOf([]struct{}{{}}, 1), false},
		{batchOf([]string{"a"}, 1), false},
		{batchOf([]Pair[string, int]{{}}, 1), false},
		{batchOf([]Pair[int, []int]{{}}, 1), false},
		{batchOf([]*int{&x}, 1), false},
		{batchOf([]struct{ F func() }{{}}, 1), false},
		{batchOf([]map[int]int{nil}, 1), false},
		{boxedOf([]any{1}), false},
	} {
		var list arenaList
		blocks := make([]Batch, len(lens))
		arenas := newBlocks(c.proto, lens, blocks, &list)
		if got := len(arenas) > 0; got != c.raw {
			t.Errorf("%s: carved from an arena = %t, want %t", shapeOf(c.proto), got, c.raw)
		}
		for i, n := range lens {
			switch b := blocks[i]; {
			case n == 0 && b != nil:
				t.Errorf("%s: empty block %d is not nil", shapeOf(c.proto), i)
			case n > 0 && (b.Len() != int(n) || b.BoxedCap() != blockCap(int(n)) || reflect.TypeOf(b) != reflect.TypeOf(c.proto)):
				t.Errorf("%s: block %d = %s len %d cap %d", shapeOf(c.proto), i, shapeOf(b), b.Len(), b.BoxedCap())
			}
		}
	}
}

// TestIdentityConsumersKeepTheirBlocks: PartitionByKey and Repartition hand
// their routed blocks on as their output, so those blocks must outlive the
// stage that read them — in a cache a second job reads, and in the result a
// caller holds while later jobs shuffle the same shape. A dep of theirs
// marked recyclable fails here: the cached rows turn into the poison
// pattern.
func TestIdentityConsumersKeepTheirBlocks(t *testing.T) {
	s := poolSession(4)
	defer s.Close()
	pairs := makePairs(2000)
	byKey := PartitionByKey(Parallelize(s, pairs, 5), 7).Cache()
	spread := Repartition(Parallelize(s, ints(2000), 5), 7).Cache()
	held := materializedParts(t, PartitionByKey(Parallelize(s, pairs, 3), 4))
	// First jobs fill the caches; each is followed by shuffles of the same
	// row shapes, which would reuse the cached blocks' memory had it been
	// released.
	for round := 0; round < 2; round++ {
		if n, err := Count(byKey); err != nil || n != 2000 {
			t.Fatalf("round %d: count over PartitionByKey = %d, %v", round, n, err)
		}
		if n, err := Count(spread); err != nil || n != 2000 {
			t.Fatalf("round %d: count over Repartition = %d, %v", round, n, err)
		}
		if n, err := Count(ReduceByKey(Parallelize(s, pairs, 5), sumInt64)); err != nil || n != 2000 {
			t.Fatalf("round %d: reduce = %d, %v", round, n, err)
		}
		if n, err := Count(Distinct(Parallelize(s, ints(2000), 5))); err != nil || n != 2000 {
			t.Fatalf("round %d: distinct = %d, %v", round, n, err)
		}
	}
	got := sortedCollect(t, MapValues(byKey, func(v int64) int64 { return v }), func(a, b Pair[int, int64]) bool { return a.Key < b.Key })
	if !slices.Equal(got, pairs) {
		t.Error("a second job read other rows from the cached PartitionByKey than were routed")
	}
	if got := sortedCollect(t, Map(spread, func(v int) int { return v }), func(a, b int) bool { return a < b }); !slices.Equal(got, ints(2000)) {
		t.Error("a second job read other rows from the cached Repartition than were routed")
	}
	var rows []Pair[int, int64]
	for _, b := range held {
		rows = append(rows, elems[Pair[int, int64]](b)...)
	}
	slices.SortFunc(rows, func(a, b Pair[int, int64]) int { return a.Key - b.Key })
	if !slices.Equal(rows, pairs) {
		t.Error("the partitions a PartitionByKey job returned did not survive the jobs after it")
	}
}

// TestBlocksDieWithTheirLastReader drives one job stage by stage over a
// reduce whose output two later stages consume: the blocks stay while a
// stage of the plan still reads them, go back to the free list when the
// last one has succeeded, and the entry that says "routed" stays behind.
func TestBlocksDieWithTheirLastReader(t *testing.T) {
	s := poolSession(4)
	defer s.Close()
	red := ReduceByKey(Parallelize(s, makePairs(3000), 6), sumInt64)
	a := ReduceByKey(MapValues(red, func(v int64) int64 { return v + 1 }), sumInt64)
	b := ReduceByKey(MapValues(red, func(v int64) int64 { return -v }), sumInt64)
	target := Union(a, b)
	d := &red.n.deps[0]

	j := s.newJob()
	j.ep = s.buildExecPlan(target.n, nil)
	rs := readers(j, d)
	if len(rs) != 2 {
		t.Fatalf("%d stages read the shared reduce, want 2:\n%s", len(rs), j.ep)
	}
	first, last := rs[0].root, rs[1].root
	mustRun(t, j, first)
	r := j.blocks[d]
	if r == nil || r.blocks == nil || len(r.arenas) == 0 {
		t.Fatalf("after the first of two readers the blocks are gone: %+v", r)
	}
	checkRoute(t, d, j.front[d.parent].data, r.blocks)
	arena := r.arenas[0]
	mustRun(t, j, last)
	if j.blocks[d] != r || r.blocks != nil || r.arenas != nil {
		t.Fatalf("after the last reader: entry %+v, want it present and empty", j.blocks[d])
	}
	if !slices.ContainsFunc(s.arenas.free, func(f []uint64) bool { return &f[0] == &arena[0] }) {
		t.Fatal("the released blocks' arena is not on the free list")
	}
	if arena[0] != poisonWord || arena[len(arena)-1] != poisonWord {
		t.Fatal("the poison seam did not overwrite the released arena")
	}
	mustRun(t, j, target.n)
	if n := liveArenas(j); n != 0 {
		t.Errorf("%d arenas still lent out after the job's last stage", n)
	}
	if want := (refOracle{}).parts(target.n); !sameParts(j.front[target.n].data, want) {
		t.Error("result differs from the plan-free oracle")
	}
	j.end()
}

// lostOutputs is a Residency whose every registered output has been lost.
type lostOutputs struct{ Residency }

func (lostOutputs) CheckFetch(cluster.OutputID) error {
	return &cluster.FetchFailedError{Machine: 1, Parts: []int{0}, Total: 1}
}

// TestRelaunchRoutesReleasedBlocksAgain: a stage whose inputs were released
// and whose own output is then lost (rewindNode) is relaunched. The released
// dep still counts as fetched — its parent's output may be gone from the
// cluster by now, the driver's frontier copy is not — the blocks it is
// routed again are the reference's, and the stage's output is what it was.
// Only when the routing is forgotten does the dep have to be fetched anew.
func TestRelaunchRoutesReleasedBlocksAgain(t *testing.T) {
	cfg, _ := recoverConfig(1 << 30)
	s := mustSession(cfg)
	defer s.Close()
	red := ReduceByKey(Parallelize(s, makePairs(3000), 6), sumInt64)
	target := GroupByKey(MapValues(red, func(v int64) int64 { return v * 3 }))
	d := &red.n.deps[0]

	j := s.newJob()
	j.ep = s.buildExecPlan(target.n, nil)
	rs := readers(j, d)
	if len(rs) != 1 {
		t.Fatalf("%d stages read the reduce, want 1", len(rs))
	}
	st := rs[0]
	consumer := st.root
	mustRun(t, j, consumer)
	first := j.front[consumer].data
	if r := j.blocks[d]; r == nil || r.blocks != nil {
		t.Fatalf("the stage succeeded and its input blocks are still held: %+v", r)
	}

	s.resid = lostOutputs{s.resid}
	if f := j.checkFetch(d, consumer, st); f != nil {
		t.Fatalf("a released dep does not count as fetched: %v", f.err)
	}
	j.rewindNode(consumer)
	if _, routed := j.blocks[d]; !routed {
		t.Fatal("rewinding the consumer forgot that its input was routed")
	}
	j.buildBlocks(d)
	checkRoute(t, d, j.front[d.parent].data, j.blocks[d].blocks)
	if f := j.launchStage(consumer, st).fail; f != nil {
		t.Fatal(f.err)
	}
	if !reflect.DeepEqual(j.front[consumer].data, first) {
		t.Error("the relaunched stage produced other partitions than its first run")
	}

	// Forgetting the routing (here: the reader re-lowered) makes the next
	// reader fetch from the cluster again, and that fetch fails.
	j.purgeNode(red.n)
	if f := j.checkFetch(d, consumer, st); f == nil || f.lost != d.parent {
		t.Errorf("with the routing forgotten the lost parent fetched cleanly: %+v", f)
	}
	// Rewinding the parent takes its routed blocks with it.
	j.buildBlocks(d)
	free, lent := len(s.arenas.free), len(j.blocks[d].arenas)
	j.rewindNode(d.parent)
	if _, routed := j.blocks[d]; routed {
		t.Error("rewinding the parent left its routed blocks behind")
	}
	if got := len(s.arenas.free) - free; got != lent || lent == 0 {
		t.Errorf("rewinding the parent put back %d arenas of %d", got, lent)
	}
	j.end()
}

// TestNoRegionOutlivesItsJob: whatever ends a routing's life early — the
// consumer re-lowered (purgeNode), a from-scratch retry (retryJob), the job
// ending with stages unrun — puts every arena back.
func TestNoRegionOutlivesItsJob(t *testing.T) {
	// build routes both sides of a join and stops before the join's stage,
	// so two routings are live.
	build := func(t *testing.T) (*Session, *job, *node, int) {
		cfg, _ := recoverConfig(1 << 30)
		s := mustSession(cfg)
		l := Parallelize(s, makePairs(1500), 4)
		r := Parallelize(s, makePairs(1500), 3)
		join := JoinWith(l, r, JoinRepartition, 5)
		j := s.newJob()
		j.ep = s.buildExecPlan(join.n, nil)
		mustRun(t, j, l.n)
		mustRun(t, j, r.n)
		for i := range join.n.deps {
			j.buildBlocks(&join.n.deps[i])
		}
		lent := liveArenas(j)
		if lent < 2 {
			t.Fatalf("%d arenas lent to the join's two routings", lent)
		}
		return s, j, join.n, lent
	}
	for name, end := range map[string]func(j *job, join *node){
		"purgeNode": func(j *job, join *node) { j.purgeNode(join) },
		"retryJob": func(j *job, join *node) {
			if _, ok := j.retryJob(&stageFailure{root: join}); !ok {
				t.Error("retryJob refused its first retry")
			}
		},
		"job end": func(j *job, join *node) { j.end() },
	} {
		t.Run(name, func(t *testing.T) {
			s, j, join, lent := build(t)
			defer s.Close()
			free := len(s.arenas.free)
			end(j, join)
			if n := liveArenas(j); n != 0 {
				t.Errorf("%d arenas still lent out", n)
			}
			if got := len(s.arenas.free) - free; got != lent {
				t.Errorf("%d arenas came back to the free list, %d were lent", got, lent)
			}
			for i := range join.deps {
				if r := j.blocks[&join.deps[i]]; r != nil && r.blocks != nil {
					t.Errorf("dep %d still holds blocks", i)
				}
			}
		})
	}
}

// TestShuffleJobsSurviveTaskFailures: stages that exhaust their injected
// task failures are rerun; a rerun reads the blocks its failed attempt left
// in place, and whatever was released in between is routed again. The
// answer and the recovered clock are those of every other run at the seed.
func TestShuffleJobsSurviveTaskFailures(t *testing.T) {
	run := func(rate float64) (map[int]int64, float64) {
		cfg, _ := recoverConfig(1 << 30)
		cfg.Cluster.TaskFailureRate = rate
		s := mustSession(cfg)
		defer s.Close()
		got, err := chaosWorkload(s)
		if err != nil {
			t.Fatalf("rate %.2f: %v", rate, err)
		}
		return got, s.Clock()
	}
	clean, cleanClock := run(0)
	flaky, flakyClock := run(0.3)
	again, againClock := run(0.3)
	if !reflect.DeepEqual(flaky, clean) || !reflect.DeepEqual(again, clean) {
		t.Error("reruns over routed blocks changed the join's result")
	}
	if flakyClock != againClock || flakyClock <= cleanClock {
		t.Errorf("clocks: clean %.6f, flaky %.6f and %.6f", cleanClock, flakyClock, againClock)
	}
}
