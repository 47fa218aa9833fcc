package engine

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"matryoshka/internal/layout"
	"matryoshka/internal/sizeest"
)

// poolSession returns a session with an explicit host worker count.
func poolSession(workers int) *Session {
	cfg := DefaultConfig()
	cfg.Cluster.Machines = 4
	cfg.Cluster.CoresPerMachine = 4
	cfg.DefaultParallelism = 8
	cfg.hostParallelism = workers
	return mustSession(cfg)
}

// boxedOf is the boxed batch of xs (an ir dataset's shape), at xs's
// capacity.
func boxedOf(xs []any) Batch { return &Vec[any]{xs: xs, bcap: cap(xs)} }

// shapeOf names b's element type as EXPLAIN does ("int", "Pair[int,int64]",
// "any").
func shapeOf(b Batch) string {
	t, _ := b.Rows()
	return shapeName(t)
}

// boxedElems reads the elements of a batch of any shape, boxed: the form a
// test compares them in.
func boxedElems(b Batch) []any {
	t, rows := b.Rows()
	data := reflect.SliceAt(t, rows, b.Len())
	out := make([]any, data.Len())
	for i := range out {
		out[i] = data.Index(i).Interface()
	}
	return out
}

// boxAll returns parent with every partition boxed: the same elements as an
// ir dataset would carry them.
func boxAll(parent []Batch) []Batch {
	out := make([]Batch, len(parent))
	for i, part := range parent {
		if part != nil {
			out[i] = boxedOf(boxedElems(part))
		}
	}
	return out
}

// randomParent builds a random materialized partition structure of ints.
// Partitions are typed int batches, or, for one parent in four, all boxed,
// so routing tests cover both the typed and the ir datasets' shape.
func randomParent(rng *rand.Rand, maxSrc, maxLen int) []Batch {
	parent := make([]Batch, rng.Intn(maxSrc+1))
	for i := range parent {
		part := make([]int, rng.Intn(maxLen+1))
		for k := range part {
			part[k] = rng.Intn(1 << 20)
		}
		parent[i] = batchOf(part, len(part))
	}
	if rng.Intn(4) == 0 {
		return boxAll(parent)
	}
	return parent
}

// perElement spells a dep's targets from a per-element partitioner, the
// form a test states a placement in.
func perElement(f func(src, idx int, e any, n int) int) func(int, Batch, int, []int32, []int32) {
	return func(src int, b Batch, nParts int, tg, ct []int32) {
		for i, e := range boxedElems(b) {
			place(uint64(f(src, i, e, nParts)), nParts, i, tg, ct)
		}
	}
}

// refRoute is the router's independent reference: for each source in
// order, for each element in order, append to the target the dep names.
func refRoute(d *dep, parent []Batch) [][]any {
	out := make([][]any, d.childParts)
	for src, part := range parent {
		n := batchLen(part)
		if n == 0 {
			continue
		}
		tg := make([]int32, n)
		d.targets(src, part, d.childParts, tg, make([]int32, d.childParts))
		xs := boxedElems(part)
		for idx, t := range tg {
			out[t] = append(out[t], xs[idx])
		}
	}
	return out
}

// checkRoute asserts routed blocks against refRoute: contents and element
// order, nil empty blocks, blockCap boxed capacity, and the sources' shape.
func checkRoute(t *testing.T, d *dep, parent, blocks []Batch) {
	t.Helper()
	shape := ""
	for _, part := range parent {
		if batchLen(part) > 0 {
			shape = shapeOf(part)
			break
		}
	}
	want := refRoute(d, parent)
	if len(blocks) != len(want) {
		t.Fatalf("%d blocks, want %d", len(blocks), len(want))
	}
	for tgt, ref := range want {
		b := blocks[tgt]
		if len(ref) == 0 {
			if b != nil {
				t.Fatalf("block %d: empty block is %v, want nil", tgt, b)
			}
			continue
		}
		if b == nil || !slices.Equal(boxedElems(b), ref) {
			t.Fatalf("block %d: got %v want %v", tgt, b, ref)
		}
		if shapeOf(b) != shape {
			t.Fatalf("block %d: shape %s, want %s", tgt, shapeOf(b), shape)
		}
		if b.BoxedCap() != blockCap(len(ref)) {
			t.Fatalf("block %d: boxed cap %d, want %d", tgt, b.BoxedCap(), blockCap(len(ref)))
		}
	}
}

// TestRouteMatchesReference asserts the router against refRoute at several
// worker counts: on the shapes where chunking has edges (nothing to route,
// one source holding everything, fewer sources than chunks, the paper's
// sparse 1200 × 1200 shuffle, typed sources among empty batches of other
// shapes, an ir dataset's boxed batches) and on randomized
// partition structures, with value-hash and positional partitioners.
func TestRouteMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	giant := make([]Batch, 40)
	giant[17] = batchOf(ints(5000), 5000)
	sparse := benchParent(1200, 2, false)
	for src := 0; src < len(sparse); src += 7 {
		sparse[src] = nil
	}
	// Only a non-empty partition has its dataset's shape; an empty one may
	// be any empty batch.
	mixed := benchParent(12, 30, true)
	mixed[0], mixed[5], mixed[9] = zeroBatch, boxedOf(nil), batchOf([]string{}, 0)
	boxed := boxAll(benchParent(12, 30, true))
	boxed[3] = nil
	type routeCase struct {
		name   string
		parent []Batch
		nt     int
	}
	cases := []routeCase{
		{"no-sources", nil, 5},
		{"all-empty", make([]Batch, 9), 5},
		{"giant-among-empty", giant, 16},
		{"fewer-sources-than-chunks", benchParent(3, 100, false), 7},
		{"sparse-paper-shape", sparse, 1200},
		{"mixed-shapes", mixed, 6},
		{"all-boxed", boxed, 6},
	}
	for trial := 0; trial < 100; trial++ {
		cases = append(cases, routeCase{"random", randomParent(rng, 40, 60), 1 + rng.Intn(17)})
	}
	for _, workers := range []int{1, 2, 3, 8} {
		s := poolSession(workers)
		for _, c := range cases {
			t.Run(fmt.Sprintf("workers=%d/%s", workers, c.name), func(t *testing.T) {
				// benchDep hashes typed and boxed int batches in place.
				byValue := benchDep(c.nt)
				checkRoute(t, byValue, c.parent, s.route(byValue, c.parent).blocks)
				byPos := &dep{kind: depShuffle, childParts: c.nt,
					targets: perElement(func(src, idx int, _ any, n int) int { return (src + idx) % n })}
				checkRoute(t, byPos, c.parent, s.route(byPos, c.parent).blocks)
			})
		}
		// A panicking partitioner surfaces on the caller, and the pool is
		// still there to route the next shuffle.
		bad := &dep{kind: depShuffle, childParts: 4, targets: perElement(func(_, _ int, e any, n int) int {
			if e.(int) == 77 {
				panic("bad key")
			}
			return e.(int) % n
		})}
		func() {
			defer func() {
				if r := recover(); r != "bad key" {
					t.Fatalf("workers=%d: recovered %v, want the partitioner's panic", workers, r)
				}
			}()
			s.route(bad, benchParent(20, 10, false))
		}()
		good := benchDep(4)
		checkRoute(t, good, boxed, s.route(good, boxed).blocks)
		s.Close()
	}
}

// TestFlattenMatchesConcatenation checks the broadcast flatten against a
// plain concatenation of its parts' elements, on typed, boxed and empty
// parents: the same elements in the same order, the parts' shape, and a
// boxed capacity equal to the length.
func TestFlattenMatchesConcatenation(t *testing.T) {
	typed := []Batch{batchOf([]int{1, 2}, 2), nil, batchOf([]int{}, 0), batchOf([]int{3, 4, 5}, 8)}
	pairs := []Batch{batchOf([]Pair[string, int]{KV("a", 1)}, 1), zeroBatch, batchOf([]Pair[string, int]{KV("b", 2), KV("a", 3)}, 2)}
	for _, c := range []struct {
		name   string
		parent []Batch
	}{
		{"typed", typed},
		{"typed-pairs", pairs},
		{"all-boxed", boxAll(typed)},
		{"all-boxed-pairs", boxAll(pairs)},
		{"all-empty", []Batch{nil, zeroBatch, batchOf([]int{}, 4)}},
		{"none", nil},
	} {
		t.Run(c.name, func(t *testing.T) {
			var want []any
			shape := ""
			for _, part := range c.parent {
				if batchLen(part) > 0 {
					want = append(want, boxedElems(part)...)
					shape = shapeOf(part)
				}
			}
			flat := flatten(c.parent)
			if got := boxedElems(flat); !slices.Equal(got, want) {
				t.Fatalf("flatten = %v, want %v", got, want)
			}
			if flat.BoxedCap() != flat.Len() {
				t.Errorf("boxed cap %d, want the length %d", flat.BoxedCap(), flat.Len())
			}
			if shape != "" && shapeOf(flat) != shape {
				t.Errorf("shape %s, want %s", shapeOf(flat), shape)
			}
			if want == nil && flat.Len() != 0 {
				t.Errorf("an empty parent flattened to %d elements", flat.Len())
			}
		})
	}
}

// TestElemsTakesOneShape: elems reads a *Vec[T] in place, reads an empty
// batch of any shape as no elements, and refuses a non-empty batch of
// another shape rather than converting it.
func TestElemsTakesOneShape(t *testing.T) {
	xs := []int{1, 2}
	if got := elems[int](batchOf(xs, 2)); &got[0] != &xs[0] {
		t.Error("elems copied a *Vec[int]")
	}
	for _, b := range []Batch{zeroBatch, boxedOf(nil), batchOf([]string{}, 0)} {
		if got := elems[int](b); got != nil {
			t.Errorf("elems[int](%s batch of 0) = %v, want nil", shapeOf(b), got)
		}
	}
	defer func() {
		if r := recover(); r == nil {
			t.Error("elems[int] read a non-empty boxed batch")
		}
	}()
	elems[int](boxedOf([]any{1}))
}

// TestSingleWorkerRoutesSerial is the 1-core pessimization audit: on a
// single-worker session, route must take the serial path outright — pool
// dispatch would be pure overhead with nothing to overlap it with. The
// session's pool is closed up front, so any dispatch attempt panics
// instead of silently passing.
func TestSingleWorkerRoutesSerial(t *testing.T) {
	s := poolSession(1)
	s.Close()
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 50; trial++ {
		parent := randomParent(rng, 6, 50)
		d := benchDep(1 + rng.Intn(9))
		checkRoute(t, d, parent, s.route(d, parent).blocks)
	}
}

// TestEstPartitionBytesMatchesBoxedReference pins estPartitionBytes — for
// typed and boxed batches alike — to what the boxed estimator computed:
// a sample built by appending every step-th element into a
// make([]any, 0, sampleN), sized with sizeest.OfSlice, scaled by n/count.
// The subtle case is n not a multiple of step: the walk then yields up to
// 2*sampleN-1 positions and the boxed append grew its sample past
// sampleN, to whatever capacity the runtime's size classes dictate (not a
// clean doubling) — that capacity was observable in every simulated
// shuffle-bytes and residency number, so the batch path must reproduce it
// exactly. A one-off regression here shifted the sec9-chaos sweep by ~6%.
func TestEstPartitionBytesMatchesBoxedReference(t *testing.T) {
	boxedRef := func(part []any) int64 {
		n := len(part)
		if n == 0 {
			return 0
		}
		if n <= sampleN {
			return sizeest.OfSlice(part)
		}
		step := n / sampleN
		sample := make([]any, 0, sampleN)
		for i := 0; i < n; i += step {
			sample = append(sample, part[i])
		}
		return sizeest.OfSlice(sample) * int64(n) / int64(len(sample))
	}
	ns := []int{0, 1, 5, 31, 32, 33, 63, 64, 65, 100, 127, 1000, 4095, 4096, 10000}
	shared := []int{1, 2, 3}
	for _, n := range ns {
		checkEstPartition(t, n, boxedRef, func(i int) Pair[int, int64] { return Pair[int, int64]{i, int64(3 * i)} })
		// Interface-bearing pairs, the ir front end's rows: small and large
		// ints, strings, nil, a nested pair, and a slice two rows share,
		// which only the reflective walk sizes (and dedups).
		checkEstPartition(t, n, boxedRef, func(i int) Pair[any, any] {
			switch i % 5 {
			case 0:
				return KV[any, any](i, "visit")
			case 1:
				return KV[any, any](int64(i)<<40, nil)
			case 2:
				return KV[any, any]("day", KV[any, any](i, strings.Repeat("x", i%7)))
			case 3:
				return KV[any, any](nil, shared)
			}
			return KV[any, any](i, float64(i))
		})
		checkEstPartition(t, n, boxedRef, func(i int) Tuple2[string, any] {
			return Tuple2[string, any]{strings.Repeat("k", i%3), KV[any, any](i, nil)}
		})
	}
}

// checkEstPartition is one TestEstPartitionBytesMatchesBoxedReference
// case: n elements made by elem, sized as a typed batch and as a boxed one,
// against the boxed reference.
func checkEstPartition[T any](t *testing.T, n int, boxedRef func([]any) int64, elem func(int) T) {
	t.Helper()
	vals := make([]T, n)
	// The reference slice is grown one append at a time from nil, the
	// way the boxed router built shuffle blocks: for n <= sampleN the
	// whole slice (capacity included) is what the boxed estimator
	// measured.
	var boxed []any
	for i := range vals {
		vals[i] = elem(i)
		boxed = append(boxed, vals[i])
	}
	if n <= sampleN && cap(boxed) != blockCap(n) {
		t.Fatalf("n=%d: append-grown cap %d, blockCap says %d", n, cap(boxed), blockCap(n))
	}
	want := boxedRef(boxed)
	// Typed batches report the boxed append-grown capacity for small
	// blocks (blockCap); above sampleN the block capacity is never
	// observed, only the sample's.
	if got := estPartitionBytes(batchOf(vals, blockCap(n)), layout.Of(reflect.TypeFor[T]())); got != want {
		t.Errorf("%T, n=%d: typed estPartitionBytes=%d, boxed reference=%d", vals, n, got, want)
	}
	if got := estPartitionBytes(boxedOf(append(make([]any, 0, blockCap(n)), boxed...)), layout.Of(reflect.TypeFor[any]())); got != want {
		t.Errorf("%T, n=%d: boxed-batch estPartitionBytes=%d, boxed reference=%d", vals, n, got, want)
	}
}

// materializedParts runs a job for d and returns the raw partitions.
func materializedParts[T any](t *testing.T, d Dataset[T]) []Batch {
	t.Helper()
	parts, err := d.s.runJob(d.n)
	if err != nil {
		t.Fatalf("runJob: %v", err)
	}
	return parts
}

// sameParts is DeepEqual on partition lists, except that an empty
// partition may be nil or an empty host slice (the router leaves empty
// blocks nil; a fused filter top that drops everything never allocates).
// What accounting sees of an empty partition, its boxed capacity, is
// covered by the callers' clock comparison.
func sameParts(a, b []Batch) bool {
	if len(a) != len(b) {
		return false
	}
	for p := range a {
		if (batchLen(a[p]) != 0 || batchLen(b[p]) != 0) && !reflect.DeepEqual(a[p], b[p]) {
			return false
		}
	}
	return true
}

// TestRepartitionDeterministic asserts that Repartition routes every
// element to the same target partition across runs and across host worker
// counts, now that the target is a pure function of (source partition,
// element index).
func TestRepartitionDeterministic(t *testing.T) {
	var layouts [][]Batch
	for _, workers := range []int{1, 2, 8} {
		s := poolSession(workers)
		d := Repartition(Parallelize(s, ints(500), 7), 16)
		first := materializedParts(t, d)
		again := materializedParts(t, Repartition(Parallelize(s, ints(500), 7), 16))
		if !reflect.DeepEqual(first, again) {
			t.Fatalf("workers=%d: two runs in one session differ", workers)
		}
		layouts = append(layouts, first)
		s.Close()
	}
	for i := 1; i < len(layouts); i++ {
		if !reflect.DeepEqual(layouts[i], layouts[0]) {
			t.Fatalf("partition layout differs between worker counts")
		}
	}
	// Round-robin should stay balanced: 500 elements into 16 partitions.
	for p, part := range layouts[0] {
		if batchLen(part) < 500/16-4 || batchLen(part) > 500/16+4 {
			t.Fatalf("partition %d badly balanced: %d elements", p, batchLen(part))
		}
	}
}

// TestNarrowFanInMemo asserts that a narrow parent consumed by several
// children (a diamond) or by two partitions of one child (a Union of a
// dataset with itself) is computed exactly once per partition, and that
// results stay correct.
func TestNarrowFanInMemo(t *testing.T) {
	t.Run("diamond", func(t *testing.T) {
		s := poolSession(4)
		defer s.Close()
		var calls atomic.Int64
		base := Map(Parallelize(s, ints(100), 8), func(x int) int {
			calls.Add(1)
			return x + 1
		})
		left := Filter(base, func(x int) bool { return x%2 == 0 })
		right := Map(base, func(x int) int { return -x })
		got := sortedCollect(t, Union(left, right), func(a, b int) bool { return a < b })
		if len(got) != 150 {
			t.Fatalf("len = %d, want 150", len(got))
		}
		if n := calls.Load(); n != 100 {
			t.Fatalf("base UDF ran %d times, want 100 (fan-in memo)", n)
		}
	})
	t.Run("union-with-itself", func(t *testing.T) {
		s := poolSession(4)
		defer s.Close()
		var calls atomic.Int64
		base := Map(Parallelize(s, ints(64), 8), func(x int) int {
			calls.Add(1)
			return x * 2
		})
		// Union partitions p and p+8 both read base partition p.
		got := sortedCollect(t, Union(base, base), func(x, y int) bool { return x < y })
		if len(got) != 128 {
			t.Fatalf("len = %d, want 128", len(got))
		}
		if n := calls.Load(); n != 64 {
			t.Fatalf("base UDF ran %d times, want 64 (fan-in memo)", n)
		}
	})
	t.Run("no-memo-single-consumer", func(t *testing.T) {
		s := poolSession(4)
		defer s.Close()
		var calls atomic.Int64
		base := Map(Parallelize(s, ints(50), 5), func(x int) int {
			calls.Add(1)
			return x
		})
		if _, err := Collect(Map(base, func(x int) int { return x + 1 })); err != nil {
			t.Fatal(err)
		}
		if n := calls.Load(); n != 50 {
			t.Fatalf("base UDF ran %d times, want 50", n)
		}
	})
}

// TestOnceSharded asserts that job.once entries for different ids do not
// serialize on one lock: a build for id 1 blocks until a build for id 2
// has started, which deadlocks under the old job-wide mutex.
func TestOnceSharded(t *testing.T) {
	j := &job{}
	started1 := make(chan struct{})
	release1 := make(chan struct{})
	done := make(chan struct{})
	go func() {
		j.once(1, func() any {
			close(started1)
			<-release1
			return 1
		})
		close(done)
	}()
	<-started1
	finished2 := make(chan struct{})
	go func() {
		j.once(2, func() any { return 2 })
		close(finished2)
	}()
	select {
	case <-finished2:
		// id 2 built while id 1's build was still in flight: sharded.
	case <-time.After(5 * time.Second):
		t.Fatal("once(2) blocked behind once(1): job-wide serialization")
	}
	close(release1)
	<-done
	if v := j.once(1, func() any { return 99 }).(int); v != 1 {
		t.Fatalf("once(1) rebuilt: got %d", v)
	}
}

// randomDAG builds a reproducible random DAG over s (same rng sequence =>
// same structure) and returns its final dataset. It mixes narrow ops,
// diamonds, unions (of a dataset with itself too), Repartition, and hash
// shuffles.
func randomDAG(s *Session, seed int64) Dataset[int] {
	rng := rand.New(rand.NewSource(seed))
	data := make([]int, 200+rng.Intn(200))
	for i := range data {
		data[i] = rng.Intn(10_000)
	}
	pool := []Dataset[int]{Parallelize(s, data, 2+rng.Intn(8))}
	pick := func() Dataset[int] { return pool[rng.Intn(len(pool))] }
	for step := 0; step < 12; step++ {
		var next Dataset[int]
		switch rng.Intn(7) {
		case 0:
			c := rng.Intn(100)
			next = Map(pick(), func(x int) int { return x + c })
		case 1:
			m := 2 + rng.Intn(5)
			next = Filter(pick(), func(x int) bool { return x%m != 0 })
		case 2:
			next = Union(pick(), pick())
		case 3:
			p := pick()
			next = Union(p, p)
		case 4:
			p := pick()
			next = Union(Map(p, func(x int) int { return x ^ 1 }), Filter(p, func(x int) bool { return x%3 != 0 }))
		case 5:
			next = Repartition(pick(), 1+rng.Intn(10))
		case 6:
			k := 1 + rng.Intn(50)
			red := ReduceByKey(Map(pick(), func(x int) Pair[int, int] { return KV(x%k, x) }),
				func(a, b int) int { return a + b })
			// Sort within each partition: reduceByKey emits in random map
			// order, and order-dependent downstream routing (Repartition)
			// would otherwise make partition CONTENTS — and so simulated
			// per-partition costs — nondeterministic run to run, a
			// pre-existing property of the engine unrelated to host
			// parallelism. Sorting restores full determinism so the test
			// can assert bit-identical accounting.
			next = MapPartitions(Values(red), func(in []int) []int {
				out := append([]int(nil), in...)
				sort.Ints(out)
				return out
			})
		}
		if rng.Intn(4) == 0 {
			next = next.Cache()
		}
		pool = append(pool, next)
	}
	// Union the last dataset with a random earlier one, maximizing shared
	// narrow parents.
	out := Union(pool[len(pool)-1], pick())
	// Then fixed-shape chains on random parents, so every run has each
	// fused materialization shape (fuseTop) and a chain the plan must
	// refuse. Union is not fusible: the chain above it starts fresh and
	// fuses whatever the picked parents are (cached, shared or themselves
	// chains).
	head := func() Dataset[int] { return Union(pick(), pick()) }
	inc := func(x int) int { return x + 1 }
	odd := func(x int) bool { return x%2 != 0 }
	dup := func(x int) []int { return []int{x, -x} }
	// Two consumers make shared a memo site cutting both chains; the two
	// links below it are a chain of their own, which the site tops.
	shared := Map(Map(head(), inc), inc)
	// Half-lifted cross products as chain links: the three-row side is
	// broadcast, the other streams. Three rows, so a link that emitted
	// broadcast-row major would reorder every partition.
	few := Parallelize(s, []int{100, 200, 300}, 2)
	mix := func(a, b int) int { return a*7 + b }
	for _, d := range []Dataset[int]{
		FlatMap(Map(head(), inc), dup),
		Filter(Map(head(), inc), odd),
		// The hidden map-side combine of ReduceByKey tops map∘mapPartitions.
		Values(ReduceByKey(Map(head(), func(x int) Pair[int, int] { return KV(x%7, x) }), func(a, b int) int { return a + b })),
		Union(Filter(Map(shared, inc), odd), Map(shared, inc)),
		// A cross between 1:1 links (sized up front), below a flatMap and
		// above a filter, and as the top of a chain with and without a
		// known row count.
		Map(CrossWithBroadcast(few, Map(head(), inc), mix), inc),
		FlatMap(CrossBroadcastBig(Filter(head(), odd), few, mix), dup),
		CrossWithBroadcast(few, Map(head(), inc), mix),
		CrossBroadcastBig(Filter(Map(head(), inc), odd), few, mix),
	} {
		out = Union(out, d)
	}
	return out
}

// refOracle is the plan-free value oracle: plain recursion over node.deps
// with no planner, runner, fan-in memo, fusion or cost accounting. It
// shares only the operator kernels, routeCore and flatten with the
// executor, so it also catches planner and runner bugs. Nodes are
// evaluated once each (computes are pure), which keeps diamonds linear.
type refOracle map[*node][]Batch

func (o refOracle) parts(n *node) []Batch {
	if out, ok := o[n]; ok {
		return out
	}
	out := make([]Batch, n.parts)
	for p := range out {
		out[p] = o.eval(n, p)
	}
	o[n] = out
	return out
}

func (o refOracle) eval(n *node, p int) Batch {
	inputs := make([]Batch, len(n.deps))
	for i := range n.deps {
		d := &n.deps[i]
		switch d.kind {
		case depNarrow:
			inputs[i] = zeroBatch
			if pp := p - d.off; pp >= 0 && pp < d.parent.parts {
				inputs[i] = o.parts(d.parent)[pp]
			}
		case depShuffle:
			if inputs[i] = routeCore(d, o.parts(d.parent), nil, 1, nil).blocks[p]; inputs[i] == nil {
				inputs[i] = zeroBatch
			}
		case depBroadcast:
			inputs[i] = flatten(o.parts(d.parent))
		}
	}
	return n.compute(&Ctx{job: &job{}}, p, inputs)
}

// TestRandomDAGFusedMatchesPerOperator runs identical randomized DAGs on a
// session forced onto the per-operator evaluator (one host worker) and on a
// default session that fuses what the plan allows (eight host workers),
// asserting bit-identical materialized partitions, virtual clocks, and
// cluster stats: fusion and host parallelism change wall-clock, never
// simulated accounting. Both must also agree with the plan-free oracle.
func TestRandomDAGFusedMatchesPerOperator(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		per := poolSession(1)
		per.noFuse = true
		fus := poolSession(8)

		perOut, fusOut := randomDAG(per, seed), randomDAG(fus, seed)
		if n := len(per.buildExecPlan(perOut.n, nil).fused); n != 0 {
			t.Fatalf("seed %d: forced per-operator session compiled %d fused chains", seed, n)
		}
		ep := fus.buildExecPlan(fusOut.n, nil)
		tops := map[string]bool{}
		crossInside := false
		for _, fi := range ep.fused {
			k := len(fi.via)
			tops[fi.via[k-1].label] = true
			crossInside = crossInside || slices.ContainsFunc(fi.via[:k-1], func(m *node) bool { return m.label == "crossBroadcastSmall" })
		}
		for _, top := range []string{"filter", "flatMap", "mapPartitions", "crossBroadcastSmall", "crossBroadcastBig"} {
			if !tops[top] {
				t.Errorf("seed %d: no fused chain topped by %s", seed, top)
			}
		}
		if !crossInside {
			t.Errorf("seed %d: no fused chain with a cross product below its top", seed)
		}
		if len(ep.memo) == 0 {
			t.Errorf("seed %d: the diamonds planned no memo site", seed)
		}
		// A memo site cuts a chain in two, and both sides fuse: the chain
		// above heads at the site, which tops the chain below it.
		memoCut := false
		for _, fi := range ep.fused {
			memoCut = memoCut || (ep.memo[fi.head] && ep.fused[fi.head] != nil)
		}
		if !memoCut {
			t.Errorf("seed %d: no chain cut by a memo site and fused on both sides", seed)
		}

		perParts := materializedParts(t, perOut)
		oracle := refOracle{}
		if want := oracle.parts(perOut.n); !sameParts(perParts, want) {
			t.Fatalf("seed %d: per-operator partitions differ from the plan-free oracle", seed)
		}
		// Typed pipelines never box: the non-empty partitions of every node
		// are one *Vec of the node's element type — int, or the pairs
		// ReduceByKey folds.
		for n, parts := range oracle {
			var shape reflect.Type
			for _, b := range parts {
				if batchLen(b) == 0 {
					continue
				}
				got := reflect.TypeOf(b)
				if shape == nil {
					shape = got
				}
				if got != shape || (got != reflect.TypeFor[*Vec[int]]() && got != reflect.TypeFor[*Vec[Pair[int, int]]]()) {
					t.Fatalf("seed %d: #%d %s has a %v partition (first: %v), want one typed vector", seed, n.id, n.label, got, shape)
				}
			}
		}
		if parts := materializedParts(t, fusOut); !sameParts(perParts, parts) {
			t.Fatalf("seed %d: fused materialized partitions differ from per-operator", seed)
		}
		// A second action reuses caches and crosses job boundaries.
		perN, err1 := Count(perOut)
		fusN, err2 := Count(fusOut)
		if err1 != nil || err2 != nil || perN != fusN {
			t.Fatalf("seed %d: count per-operator %d (%v), fused %d (%v)", seed, perN, err1, fusN, err2)
		}
		if pc, fc := per.Clock(), fus.Clock(); pc != fc {
			t.Fatalf("seed %d: virtual clocks differ: per-operator %v fused %v", seed, pc, fc)
		}
		if ps, fs := per.Stats(), fus.Stats(); ps != fs {
			t.Fatalf("seed %d: cluster stats differ: per-operator %+v fused %+v", seed, ps, fs)
		}
		per.Close()
		fus.Close()
	}
}

// TestParallelForClaimsEachIndexOnce: at every width, guided claims and
// steals hand out every index exactly once — n around one block, a stage's
// 1200 partitions and one more — each runner names itself by an r below
// the width and runs its indices one at a time, and a panicking body
// surfaces on the caller once the other runners have finished the rest.
func TestParallelForClaimsEachIndexOnce(t *testing.T) {
	p := newWorkerPool(8)
	defer p.close()
	for width := 1; width <= 8; width++ {
		for _, n := range []int{0, 1, 7, 1200, 1201} {
			seen := make([]int32, n)
			busy := make([]atomic.Int32, width)
			p.parallelFor(width, n, func(r, i int) {
				if r < 0 || r >= width {
					t.Errorf("width %d: runner %d", width, r)
					return
				}
				if busy[r].Add(1) != 1 {
					t.Errorf("width %d: runner %d ran two indices at once", width, r)
				}
				atomic.AddInt32(&seen[i], 1)
				busy[r].Add(-1)
			})
			for i, c := range seen {
				if c != 1 {
					t.Fatalf("width %d, n=%d: index %d ran %d times", width, n, i, c)
				}
			}
			if n == 0 {
				continue
			}
			var ran atomic.Int64
			func() {
				defer func() {
					if r := recover(); r != "boom" {
						t.Errorf("width %d, n=%d: recovered %v, want the body's panic", width, n, r)
					}
				}()
				p.parallelFor(width, n, func(_, i int) {
					if i == n/2 {
						panic("boom")
					}
					ran.Add(1)
				})
			}()
			want := int64(n - 1)
			if width == 1 {
				want = int64(n / 2) // inline: the panic ends the loop
			}
			if ran.Load() != want {
				t.Errorf("width %d, n=%d: %d indices ran besides the panicking one, want %d", width, n, ran.Load(), want)
			}
		}
	}
}

// TestParallelForStealsFromStalledRunner: a runner that stalls in the
// middle of its block strands nothing — the other runners take every index
// it had not started, while it is still stalled.
func TestParallelForStealsFromStalledRunner(t *testing.T) {
	p := newWorkerPool(4)
	defer p.close()
	for _, width := range []int{2, 4} {
		const n = 1200
		var ran atomic.Int64
		others := make(chan struct{})
		p.parallelFor(width, n, func(_, i int) {
			if i == 0 {
				select {
				case <-others:
				case <-time.After(10 * time.Second):
					t.Errorf("width %d: %d of the other %d indices ran while index 0's runner stalled", width, ran.Load(), n-1)
				}
				return
			}
			if ran.Add(1) == n-1 {
				close(others)
			}
		})
	}
}

// TestStagePanicPropagates: on a session whose host pool runs tasks
// concurrently, a panicking task UDF fails its job with an error naming
// the task, and the pool survives for subsequent jobs.
func TestStagePanicPropagates(t *testing.T) {
	s := poolSession(4)
	defer s.Close()
	d := Map(Parallelize(s, ints(10), 4), func(x int) int {
		if x == 7 {
			panic("boom")
		}
		return x
	})
	if _, err := Collect(d); err == nil || !strings.Contains(err.Error(), " of map") || !strings.Contains(err.Error(), "panicked: boom") {
		t.Fatalf("Collect error %v, want the task's panic with its context", err)
	}
	// The session pool must still work after a task panic.
	got := sortedCollect(t, Map(Parallelize(s, ints(5), 2), func(x int) int { return x }), func(a, b int) bool { return a < b })
	if len(got) != 5 {
		t.Fatalf("pool unusable after panic: %v", got)
	}
}
