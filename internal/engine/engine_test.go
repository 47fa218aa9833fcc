package engine

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"matryoshka/internal/cluster"
	"matryoshka/internal/obs"
)

// mustSession unwraps NewSession for tests using known-valid configs.
// mustSession is the session of every in-package test, so the whole suite
// runs with released shuffle memory poisoned: an operator that keeps a
// routed block past its stage reads garbage, not plausible rows.
func mustSession(cfg Config) *Session {
	s, err := NewSession(cfg)
	if err != nil {
		panic(err)
	}
	s.arenas.poison = true
	return s
}

func testSession() *Session {
	cfg := DefaultConfig()
	cfg.Cluster.Machines = 4
	cfg.Cluster.CoresPerMachine = 4
	cfg.DefaultParallelism = 8
	return mustSession(cfg)
}

func ints(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func sortedCollect[T any](t *testing.T, d Dataset[T], less func(a, b T) bool) []T {
	t.Helper()
	got, err := Collect(d)
	if err != nil {
		t.Fatalf("Collect: %v", err)
	}
	sort.Slice(got, func(i, j int) bool { return less(got[i], got[j]) })
	return got
}

func TestParallelizeCollectRoundTrip(t *testing.T) {
	s := testSession()
	data := ints(100)
	got := sortedCollect(t, Parallelize(s, data, 7), func(a, b int) bool { return a < b })
	if len(got) != 100 {
		t.Fatalf("len = %d", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("got[%d] = %d", i, v)
		}
	}
}

func TestEmptyDataset(t *testing.T) {
	s := testSession()
	d := Empty[string](s)
	n, err := Count(d)
	if err != nil || n != 0 {
		t.Fatalf("Count = %d, %v", n, err)
	}
	if _, err := Reduce(d, func(a, b string) string { return a + b }); !errors.Is(err, ErrEmpty) {
		t.Fatalf("Reduce on empty: %v, want ErrEmpty", err)
	}
}

func TestMapFilterFlatMapChain(t *testing.T) {
	s := testSession()
	d := Parallelize(s, ints(50), 0)
	doubled := Map(d, func(x int) int { return 2 * x })
	evens := Filter(doubled, func(x int) bool { return x%4 == 0 })
	expanded := FlatMap(evens, func(x int) []int { return []int{x, x + 1} })
	n, err := Count(expanded)
	if err != nil {
		t.Fatal(err)
	}
	if n != 50 { // 25 multiples of 4 in 0..98, each expands to 2
		t.Fatalf("count = %d, want 50", n)
	}
}

func TestMapPartitionsPreservesAll(t *testing.T) {
	s := testSession()
	d := Parallelize(s, ints(40), 5)
	rev := MapPartitions(d, func(in []int) []int {
		out := make([]int, len(in))
		for i, v := range in {
			out[len(in)-1-i] = v
		}
		return out
	})
	got := sortedCollect(t, rev, func(a, b int) bool { return a < b })
	if len(got) != 40 || got[0] != 0 || got[39] != 39 {
		t.Fatalf("got %v", got)
	}
}

func TestUnion(t *testing.T) {
	s := testSession()
	a := Parallelize(s, []int{1, 2, 3}, 2)
	b := Parallelize(s, []int{4, 5}, 3)
	got := sortedCollect(t, Union(a, b), func(x, y int) bool { return x < y })
	want := []int{1, 2, 3, 4, 5}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestUnionKeepsDuplicates(t *testing.T) {
	s := testSession()
	a := Parallelize(s, []int{1, 1}, 1)
	b := Parallelize(s, []int{1}, 1)
	n, err := Count(Union(a, b))
	if err != nil || n != 3 {
		t.Fatalf("count = %d, %v; want 3", n, err)
	}
}

func TestReduceByKey(t *testing.T) {
	s := testSession()
	var pairs []Pair[string, int]
	for i := 0; i < 100; i++ {
		pairs = append(pairs, KV(fmt.Sprintf("k%d", i%3), 1))
	}
	d := ReduceByKey(Parallelize(s, pairs, 9), func(a, b int) int { return a + b })
	m, err := CollectMap(d)
	if err != nil {
		t.Fatal(err)
	}
	if m["k0"] != 34 || m["k1"] != 33 || m["k2"] != 33 {
		t.Fatalf("m = %v", m)
	}
}

func TestReduceByKeyExplicitParts(t *testing.T) {
	s := testSession()
	pairs := []Pair[int, int]{{1, 10}, {2, 20}, {1, 1}}
	d := ReduceByKeyN(Parallelize(s, pairs, 2), func(a, b int) int { return a + b }, 3)
	if d.NumPartitions() != 3 {
		t.Fatalf("parts = %d", d.NumPartitions())
	}
	m, err := CollectMap(d)
	if err != nil || m[1] != 11 || m[2] != 20 {
		t.Fatalf("m = %v, err %v", m, err)
	}
}

func TestGroupByKey(t *testing.T) {
	s := testSession()
	pairs := []Pair[string, int]{{"a", 1}, {"b", 2}, {"a", 3}, {"a", 5}}
	groups, err := CollectMap(GroupByKey(Parallelize(s, pairs, 3)))
	if err != nil {
		t.Fatal(err)
	}
	sort.Ints(groups["a"])
	if fmt.Sprint(groups["a"]) != "[1 3 5]" || fmt.Sprint(groups["b"]) != "[2]" {
		t.Fatalf("groups = %v", groups)
	}
}

func TestGroupVsReduceAgree(t *testing.T) {
	// Property: sum over groupByKey groups == reduceByKey with +.
	s := testSession()
	f := func(keys []uint8) bool {
		pairs := make([]Pair[uint8, int], len(keys))
		for i, k := range keys {
			pairs[i] = KV(k%5, 1)
		}
		d := Parallelize(s, pairs, 4)
		viaReduce, err1 := CollectMap(ReduceByKey(d, func(a, b int) int { return a + b }))
		viaGroup, err2 := CollectMap(GroupByKey(d))
		if err1 != nil || err2 != nil {
			return false
		}
		if len(viaReduce) != len(viaGroup) {
			return false
		}
		for k, vs := range viaGroup {
			sum := 0
			for _, v := range vs {
				sum += v
			}
			if viaReduce[k] != sum {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestDistinct(t *testing.T) {
	s := testSession()
	d := Parallelize(s, []int{1, 2, 2, 3, 3, 3}, 4)
	got := sortedCollect(t, Distinct(d), func(a, b int) bool { return a < b })
	if fmt.Sprint(got) != "[1 2 3]" {
		t.Fatalf("got %v", got)
	}
}

func TestZipWithUniqueIDUniqueAndComplete(t *testing.T) {
	s := testSession()
	d := ZipWithUniqueID(Parallelize(s, ints(200), 7))
	got, err := Collect(d)
	if err != nil {
		t.Fatal(err)
	}
	ids := map[uint64]bool{}
	vals := map[int]bool{}
	for _, p := range got {
		if ids[p.Key] {
			t.Fatalf("duplicate id %d", p.Key)
		}
		ids[p.Key] = true
		vals[p.Val] = true
	}
	if len(vals) != 200 {
		t.Fatalf("lost values: %d", len(vals))
	}
}

func joinReference[K comparable](l, r []Pair[K, int]) map[string]int {
	out := map[string]int{}
	for _, a := range l {
		for _, b := range r {
			if a.Key == b.Key {
				out[fmt.Sprint(a.Key, ":", a.Val, ":", b.Val)]++
			}
		}
	}
	return out
}

func joinResultSet[K comparable](t *testing.T, d Dataset[Pair[K, Tuple2[int, int]]]) map[string]int {
	t.Helper()
	got, err := Collect(d)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]int{}
	for _, p := range got {
		out[fmt.Sprint(p.Key, ":", p.Val.A, ":", p.Val.B)]++
	}
	return out
}

func TestJoinStrategiesAgreeWithNestedLoopReference(t *testing.T) {
	s := testSession()
	l := []Pair[int, int]{{1, 10}, {2, 20}, {2, 21}, {3, 30}}
	r := []Pair[int, int]{{2, 200}, {2, 201}, {3, 300}, {4, 400}}
	want := joinReference(l, r)
	ld := Parallelize(s, l, 3)
	rd := Parallelize(s, r, 2)
	for _, strat := range []JoinStrategy{JoinRepartition, JoinBroadcastLeft, JoinBroadcastRight} {
		t.Run(strat.String(), func(t *testing.T) {
			got := joinResultSet(t, JoinWith(ld, rd, strat, 0))
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("%s: got %v, want %v", strat, got, want)
			}
		})
	}
}

func TestJoinProperty(t *testing.T) {
	s := testSession()
	f := func(lk, rk []uint8) bool {
		l := make([]Pair[uint8, int], len(lk))
		for i, k := range lk {
			l[i] = KV(k%8, i)
		}
		r := make([]Pair[uint8, int], len(rk))
		for i, k := range rk {
			r[i] = KV(k%8, i+1000)
		}
		want := joinReference(l, r)
		got, err := Collect(Join(Parallelize(s, l, 3), Parallelize(s, r, 4)))
		if err != nil {
			return false
		}
		gm := map[string]int{}
		for _, p := range got {
			gm[fmt.Sprint(p.Key, ":", p.Val.A, ":", p.Val.B)]++
		}
		return fmt.Sprint(gm) == fmt.Sprint(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestCrossWithBroadcast(t *testing.T) {
	s := testSession()
	small := Parallelize(s, []int{1, 2}, 1)
	big := Parallelize(s, []int{10, 20, 30}, 2)
	sum := func(a, b int) int { return a + b }
	for name, d := range map[string]Dataset[int]{
		"broadcastSmall": CrossWithBroadcast(small, big, sum),
		"broadcastBig":   CrossBroadcastBig(small, big, sum),
	} {
		got := sortedCollect(t, d, func(a, b int) bool { return a < b })
		if fmt.Sprint(got) != "[11 12 21 22 31 32]" {
			t.Errorf("%s: got %v", name, got)
		}
	}
}

func TestJobsCountedPerAction(t *testing.T) {
	s := testSession()
	d := Parallelize(s, ints(10), 2)
	before := s.Stats().Jobs
	for i := 0; i < 3; i++ {
		if _, err := Count(d); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Stats().Jobs - before; got != 3 {
		t.Fatalf("jobs = %d, want 3 (one per action)", got)
	}
}

func TestClockAdvancesWithJobs(t *testing.T) {
	s := testSession()
	d := Parallelize(s, ints(1000), 4)
	c0 := s.Clock()
	if _, err := Count(Map(d, func(x int) int { return x * x })); err != nil {
		t.Fatal(err)
	}
	if s.Clock() <= c0 {
		t.Fatal("clock did not advance")
	}
}

func TestNarrowChainIsOneStage(t *testing.T) {
	s := testSession()
	d := Parallelize(s, ints(100), 4)
	chain := Map(Map(Map(d, inc), inc), inc)
	before := s.Stats().Stages
	if _, err := Count(chain); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().Stages - before; got != 1 {
		t.Fatalf("stages = %d, want 1 (pipelined narrow chain)", got)
	}
}

func inc(x int) int { return x + 1 }

func TestShuffleAddsStage(t *testing.T) {
	s := testSession()
	d := Parallelize(s, []Pair[int, int]{{1, 1}, {2, 2}}, 2)
	red := ReduceByKey(d, func(a, b int) int { return a + b })
	before := s.Stats().Stages
	if _, err := Count(red); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().Stages - before; got != 2 {
		t.Fatalf("stages = %d, want 2 (map side + reduce side)", got)
	}
}

func TestCacheAvoidsRecompute(t *testing.T) {
	s := testSession()
	calls := 0
	d := Map(Parallelize(s, ints(10), 1), func(x int) int { calls++; return x })
	d = d.Cache()
	if _, err := Count(d); err != nil {
		t.Fatal(err)
	}
	if _, err := Count(d); err != nil {
		t.Fatal(err)
	}
	if calls != 10 {
		t.Fatalf("map called %d times, want 10 (cached second job)", calls)
	}
}

func TestDiamondReusesWithinJobViaRoots(t *testing.T) {
	// A cached diamond base computes once even when two branches read it.
	s := testSession()
	calls := 0
	base := Map(Parallelize(s, ints(10), 1), func(x int) int { calls++; return x }).Cache()
	left := Map(base, inc)
	right := Map(base, func(x int) int { return x * 2 })
	if _, err := Count(Union(left, right)); err != nil {
		t.Fatal(err)
	}
	if calls != 10 {
		t.Fatalf("base computed %d element-calls, want 10", calls)
	}
}

func TestBroadcastOOM(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Cluster.Machines = 2
	cfg.Cluster.CoresPerMachine = 2
	cfg.Cluster.MemoryPerMachine = 4 << 10 // 4 KB machines
	cfg.DefaultParallelism = 4
	s := mustSession(cfg)
	small := Parallelize(s, makePairs(2000), 4) // far beyond 4 KB when broadcast
	big := Parallelize(s, makePairs(10), 2)
	_, err := Collect(JoinWith(small, big, JoinBroadcastLeft, 0))
	if !errors.Is(err, cluster.ErrOutOfMemory) {
		t.Fatalf("err = %v, want OOM", err)
	}
}

func TestHugeTaskOOM(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Cluster.Machines = 2
	cfg.Cluster.CoresPerMachine = 2
	cfg.Cluster.MemoryPerMachine = 8 << 10
	cfg.DefaultParallelism = 4
	s := mustSession(cfg)
	// One giant group: groupByKey puts it in a single task.
	pairs := make([]Pair[int, int64], 5000)
	for i := range pairs {
		pairs[i] = KV(7, int64(i))
	}
	_, err := Collect(GroupByKey(Parallelize(s, pairs, 8)))
	if !errors.Is(err, cluster.ErrOutOfMemory) {
		t.Fatalf("err = %v, want OOM", err)
	}
}

func makePairs(n int) []Pair[int, int64] {
	out := make([]Pair[int, int64], n)
	for i := range out {
		out[i] = KV(i, int64(i))
	}
	return out
}

func TestRepartitionPreservesElements(t *testing.T) {
	s := testSession()
	d := Repartition(Parallelize(s, ints(100), 2), 16)
	if d.NumPartitions() != 16 {
		t.Fatalf("parts = %d", d.NumPartitions())
	}
	got := sortedCollect(t, d, func(a, b int) bool { return a < b })
	if len(got) != 100 || got[99] != 99 {
		t.Fatalf("len=%d", len(got))
	}
}

func TestKeyByKeysValuesMapValues(t *testing.T) {
	s := testSession()
	d := Map(Parallelize(s, []string{"aa", "b", "ccc"}, 2), func(s string) Pair[int, string] { return KV(len(s), s) })
	ks := sortedCollect(t, Keys(d), func(a, b int) bool { return a < b })
	if fmt.Sprint(ks) != "[1 2 3]" {
		t.Fatalf("keys %v", ks)
	}
	vs := sortedCollect(t, Values(d), func(a, b string) bool { return a < b })
	if fmt.Sprint(vs) != "[aa b ccc]" {
		t.Fatalf("values %v", vs)
	}
	ud := MapValues(d, func(v string) string { return v + "!" })
	m, err := CollectMap(ud)
	if err != nil || m[2] != "aa!" {
		t.Fatalf("m=%v err=%v", m, err)
	}
}

func TestMapCtxChargesWork(t *testing.T) {
	s := testSession()
	d := Parallelize(s, ints(4), 1)
	plain := Map(d, inc)
	if _, err := Count(plain); err != nil {
		t.Fatal(err)
	}
	t1 := s.Clock()
	heavy := MapCtx(d, func(tc *Ctx, x int) int {
		tc.Charge(1_000_000)
		return x
	})
	if _, err := Count(heavy); err != nil {
		t.Fatal(err)
	}
	t2 := s.Clock()
	if t2-t1 <= t1 {
		t.Fatalf("charged job (%.3fs) should be much slower than plain (%.3fs)", t2-t1, t1)
	}
}

func TestMoreMachinesFasterForParallelWork(t *testing.T) {
	run := func(machines int) float64 {
		cfg := DefaultConfig()
		cfg.Cluster.Machines = machines
		cfg.Cluster.CoresPerMachine = 4
		cfg.DefaultParallelism = machines * 12
		s := mustSession(cfg)
		d := Parallelize(s, ints(200_000), machines*12)
		if _, err := Count(Map(d, inc)); err != nil {
			panic(err)
		}
		return s.Clock()
	}
	if t1, t8 := run(1), run(8); t8 >= t1 {
		t.Fatalf("8 machines (%.4f) not faster than 1 (%.4f)", t8, t1)
	}
}

// TestTaskPanicPropagatesWithContext: a task UDF that panics fails its job
// with an error naming the task and its operator and wrapping the panic
// value, and the session runs the next job.
func TestTaskPanicPropagatesWithContext(t *testing.T) {
	s := testSession()
	boom := errors.New("boom")
	d := Map(Parallelize(s, ints(10), 2), func(x int) int {
		if x == 5 {
			panic(boom)
		}
		return x
	})
	_, err := Collect(d)
	if !errors.Is(err, boom) {
		t.Fatalf("Collect error %v does not wrap the panic value", err)
	}
	if msg := err.Error(); !strings.Contains(msg, "task 1 of map") || !strings.Contains(msg, "panicked: boom") {
		t.Fatalf("error %q does not name the task and its operator", msg)
	}
	if n, err := Count(Parallelize(s, ints(10), 2)); err != nil || n != 10 {
		t.Fatalf("next job: %d, %v; want 10, nil", n, err)
	}
}

// TestReducePanicIsItsError: Reduce folds on the driver, outside any task;
// a panic of its function is the action's error, wrapping the panic value.
func TestReducePanicIsItsError(t *testing.T) {
	s := testSession()
	boom := errors.New("boom")
	_, err := Reduce(Parallelize(s, ints(10), 2), func(a, b int) int {
		if b == 5 {
			panic(boom)
		}
		return a + b
	})
	if !errors.Is(err, boom) || !strings.Contains(err.Error(), "reduce function panicked") {
		t.Fatalf("Reduce error %v, want the reduce function's panic", err)
	}
}

// TestFailedJobLeavesSessionClean: a job whose broadcast-cross UDF panics
// ends like any other failed job. Its broadcast is unpinned, so the same
// job without the panic fits a memory budget that holds it only when
// nothing else is pinned; and the recorder keeps one record per job the
// backend counts, the failed one carrying its error.
func TestFailedJobLeavesSessionClean(t *testing.T) {
	rec := obs.NewRecorder()
	cfg := DefaultConfig()
	cfg.Cluster.Machines = 2
	cfg.Cluster.CoresPerMachine = 2
	// The cross needs 1 812 342 bytes a machine, its broadcast 604 114 of
	// them: a second pinned copy does not fit.
	cfg.Cluster.MemoryPerMachine = 2_000_000
	cfg.DefaultParallelism = 4
	cfg.Obs = rec
	s := mustSession(cfg)
	small, big := Parallelize(s, ints(1000), 2), Parallelize(s, ints(4), 4)
	cross := func(fail bool) Dataset[int] {
		return CrossWithBroadcast(small, big, func(a, b int) int {
			if fail && a == 7 && b == 2 {
				panic("boom")
			}
			return a + b
		})
	}
	if _, err := Count(cross(true)); err == nil || !strings.Contains(err.Error(), "panicked: boom") {
		t.Fatalf("panicking cross: error %v, want the task's panic", err)
	}
	if n, err := Count(cross(false)); err != nil || n != 4000 {
		t.Fatalf("the same cross after the failed one: %d, %v; want 4000, nil", n, err)
	}
	jobs := rec.Jobs()
	if len(jobs) != s.Stats().Jobs {
		t.Fatalf("the recorder lists %d jobs, the backend counts %d", len(jobs), s.Stats().Jobs)
	}
	if len(jobs) != 2 || !strings.Contains(jobs[0].Err, "panicked: boom") || jobs[1].Err != "" {
		t.Fatalf("job records %+v: want the failed job with its error, then the good one", jobs)
	}
}

// TestEscapingPanicEndsItsJob: a panic of the driver's own code (here the
// partitioner, over a key it cannot hash) still escapes the action, but the
// job ends first: the recorder closes it with an error, agreeing with the
// backend's count, and the session runs the next job.
func TestEscapingPanicEndsItsJob(t *testing.T) {
	rec := obs.NewRecorder()
	cfg := DefaultConfig()
	cfg.Obs = rec
	s := mustSession(cfg)
	func() {
		defer func() {
			if msg, _ := recover().(string); !strings.Contains(msg, "cannot be hashed") {
				t.Fatalf("recovered %q, want the partitioner's panic", msg)
			}
		}()
		_, _ = Count(PartitionByKey(Parallelize(s, []Pair[any, int]{KV[any]([]int{1}, 0)}, 1), 2))
	}()
	if n, err := Count(Parallelize(s, ints(10), 2)); err != nil || n != 10 {
		t.Fatalf("next job: %d, %v; want 10, nil", n, err)
	}
	jobs := rec.Jobs()
	if len(jobs) != 2 || s.Stats().Jobs != 2 || jobs[0].Err != errJobPanicked.Error() || jobs[1].Err != "" {
		t.Fatalf("%d jobs counted, records %+v: want 2, the first ended with %q", s.Stats().Jobs, jobs, errJobPanicked)
	}
}

func TestPartitionByKeyCoPartitionedJoinSkipsShuffle(t *testing.T) {
	s := testSession()
	l := PartitionByKey(Parallelize(s, []Pair[int, string]{{1, "a"}, {2, "b"}, {3, "c"}}, 2), 4).Cache()
	if _, err := Count(l); err != nil { // materialize the partitioned side
		t.Fatal(err)
	}
	r := Parallelize(s, []Pair[int, string]{{2, "x"}, {3, "y"}, {4, "z"}}, 3)

	before := s.Stats()
	joined, err := Collect(Join(l, r))
	if err != nil {
		t.Fatal(err)
	}
	if len(joined) != 2 {
		t.Fatalf("join results: %v", joined)
	}
	// Stages in the join job: the right side's shuffle map stage plus the
	// join stage. The pre-partitioned left side must NOT add a stage.
	if got := s.Stats().Stages - before.Stages; got != 2 {
		t.Errorf("stages = %d, want 2 (left side read narrowly)", got)
	}
}

func TestPartitionByKeyIdempotent(t *testing.T) {
	s := testSession()
	d := PartitionByKey(Parallelize(s, []Pair[int, int]{{1, 1}}, 1), 4)
	d2 := PartitionByKey(d, 4)
	if d2.n != d.n {
		t.Error("re-partitioning with the same layout should be a no-op")
	}
	d3 := PartitionByKey(d, 8)
	if d3.n == d.n {
		t.Error("different partition count must create a new shuffle")
	}
}

func TestFilterAndMapValuesPreservePartitioning(t *testing.T) {
	s := testSession()
	d := PartitionByKey(Parallelize(s, makePairs(100), 4), 8)
	f := Filter(d, func(p Pair[int, int64]) bool { return p.Key%2 == 0 })
	mv := MapValues(f, func(v int64) int64 { return v * 2 })
	if mv.n.pkey == nil || mv.n.pkey.parts != 8 {
		t.Fatal("filter/mapValues lost the partitioning")
	}
	plain := Map(mv, func(p Pair[int, int64]) Pair[int, int64] { return p })
	if plain.n.pkey != nil {
		t.Fatal("map may change keys and must drop the partitioning")
	}
}

func TestCoPartitionedJoinCorrectness(t *testing.T) {
	// Property: joining with one side pre-partitioned gives the same
	// result as the plain repartition join.
	s := testSession()
	f := func(lk, rk []uint8) bool {
		l := make([]Pair[uint8, int], len(lk))
		for i, k := range lk {
			l[i] = KV(k%6, i)
		}
		r := make([]Pair[uint8, int], len(rk))
		for i, k := range rk {
			r[i] = KV(k%6, i+100)
		}
		want := joinReference(l, r)
		lp := PartitionByKey(Parallelize(s, l, 3), 5)
		got, err := Collect(Join(lp, Parallelize(s, r, 4)))
		if err != nil {
			return false
		}
		gm := map[string]int{}
		for _, p := range got {
			gm[fmt.Sprint(p.Key, ":", p.Val.A, ":", p.Val.B)]++
		}
		return fmt.Sprint(gm) == fmt.Sprint(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestRecordWeightScalesCosts(t *testing.T) {
	run := func(weight float64) float64 {
		cfg := DefaultConfig()
		cfg.Cluster.Machines = 2
		cfg.Cluster.CoresPerMachine = 2
		cfg.Cluster.MemoryPerMachine = 1 << 42 // cost scaling only; no OOM
		cfg.Cluster.RecordWeight = weight
		s := mustSession(cfg)
		d := Parallelize(s, ints(50_000), 8)
		if _, err := Count(Map(d, inc)); err != nil {
			t.Fatal(err)
		}
		return s.Clock()
	}
	t1, t100 := run(1), run(10_000)
	if t100 < 10*t1 {
		t.Errorf("weight 10k run (%.3fs) should be much slower than weight 1 (%.3fs)", t100, t1)
	}
}

func TestUnscaledDataIsCheapUnderWeight(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Cluster.Machines = 2
	cfg.Cluster.CoresPerMachine = 2
	cfg.Cluster.MemoryPerMachine = 1 << 44
	cfg.Cluster.RecordWeight = 100_000
	s := mustSession(cfg)
	scaled := Parallelize(s, ints(20_000), 8)
	unscaled := Parallelize(s, ints(20_000), 8).Unscaled()
	c0 := s.Clock()
	if _, err := Count(Map(unscaled, inc)); err != nil {
		t.Fatal(err)
	}
	cheap := s.Clock() - c0
	c1 := s.Clock()
	if _, err := Count(Map(scaled, inc)); err != nil {
		t.Fatal(err)
	}
	costly := s.Clock() - c1
	if costly < 10*cheap {
		t.Errorf("scaled job (%.3fs) should dwarf unscaled job (%.3fs)", costly, cheap)
	}
}

func TestWeightPropagatesMaxOfParents(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Cluster.RecordWeight = 7
	s := mustSession(cfg)
	scaled := Parallelize(s, ints(10), 2)
	unscaled := Parallelize(s, ints(10), 2).Unscaled()
	u := Union(scaled, unscaled)
	if u.Weight() != 7 {
		t.Errorf("union weight = %v, want 7 (max of parents)", u.Weight())
	}
	if Map(unscaled, inc).Weight() != 1 {
		t.Error("map of unscaled data must stay unscaled")
	}
}

func TestReduceByKeyBoundOutputUnscaled(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Cluster.RecordWeight = 50
	s := mustSession(cfg)
	pairs := make([]Pair[int, int64], 10_000)
	for i := range pairs {
		pairs[i] = KV(i%4, int64(1))
	}
	d := Parallelize(s, pairs, 8)
	bound := ReduceByKeyBound(d, func(a, b int64) int64 { return a + b }, 0)
	if bound.Weight() != 1 {
		t.Errorf("bound reduce weight = %v, want 1", bound.Weight())
	}
	normal := ReduceByKey(d, func(a, b int64) int64 { return a + b })
	if normal.Weight() != 50 {
		t.Errorf("normal reduce weight = %v, want 50", normal.Weight())
	}
	// Results agree regardless of cost accounting.
	mb, err1 := CollectMap(bound)
	mn, err2 := CollectMap(normal)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	for k, v := range mn {
		if mb[k] != v {
			t.Errorf("key %d: bound %d != normal %d", k, mb[k], v)
		}
	}
}

func TestStageErrorIncludesChain(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Cluster.Machines = 2
	cfg.Cluster.CoresPerMachine = 2
	cfg.Cluster.MemoryPerMachine = 1 << 10
	cfg.DefaultParallelism = 2
	s := mustSession(cfg)
	d := Map(Parallelize(s, ints(50_000), 2), inc)
	_, err := Collect(d)
	if err == nil {
		t.Fatal("expected OOM")
	}
	msg := err.Error()
	if !strings.Contains(msg, "map") || !strings.Contains(msg, "<-") {
		t.Errorf("error should describe the stage chain: %q", msg)
	}
}

func TestBroadcastCountedInStats(t *testing.T) {
	s := testSession()
	small := Parallelize(s, makePairs(3), 1)
	big := Parallelize(s, makePairs(10), 2)
	before := s.Stats().Broadcasts
	if _, err := Collect(JoinWith(small, big, JoinBroadcastLeft, 0)); err != nil {
		t.Fatal(err)
	}
	if s.Stats().Broadcasts != before+1 {
		t.Errorf("broadcasts = %d, want %d", s.Stats().Broadcasts, before+1)
	}
}

func TestCollectMap(t *testing.T) {
	s := testSession()
	d := Parallelize(s, []Pair[string, int]{{"x", 1}, {"y", 2}}, 2)
	m, err := CollectMap(d)
	if err != nil || m["x"] != 1 || m["y"] != 2 {
		t.Fatalf("m = %v, err %v", m, err)
	}
}
