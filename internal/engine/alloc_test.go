package engine

// Allocation-regression tests for the perf-critical paths this engine
// depends on: the monomorphic stable hashers must stay allocation-free,
// the fused narrow chain must not allocate per element, the parallel
// shuffle router must allocate only its per-call bookkeeping, and a
// combine on a warm table must allocate only its output, and sizing a
// boxed partition must not copy its sample. These run
// as part of `go test` so a regression (an interface conversion sneaking
// into a hasher, a closure capture boxing rows) fails CI, not a later
// profiling session. Skipped under -race: instrumentation allocates.

import (
	"math"
	"reflect"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"testing"
	"unsafe"

	"matryoshka/internal/layout"
)

func skipIfInstrumented(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
}

// TestHashOfAllocFree: every key type with a case in hashOf's switch hashes
// with zero allocations, boxed scalars included. HashKey runs once per
// element of a lifted group-by — an allocation here multiplies across every
// tagged record.
func TestHashOfAllocFree(t *testing.T) {
	skipIfInstrumented(t)
	var sink uint64
	boxedInt, boxedString := any(int64(-7)), any("a moderately sized key string")
	cases := []struct {
		name string
		f    func()
	}{
		{"int", func() { sink += hashOf(12345) }},
		{"int64", func() { sink += hashOf(int64(-7)) }},
		{"uint64", func() { sink += hashOf(uint64(99)) }},
		{"string", func() { sink += hashOf("a moderately sized key string") }},
		{"boxed-int64", func() { sink += hashOf(boxedInt) }},
		{"boxed-string", func() { sink += hashOf(boxedString) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if avg := testing.AllocsPerRun(100, c.f); avg != 0 {
				t.Errorf("hashOf(%s) allocates %.1f per call, want 0", c.name, avg)
			}
		})
	}
	runtime.KeepAlive(sink)
}

// TestFusedNarrowPathAllocBound: a whole fused map∘filter∘map job over n
// elements stays within a fixed allocation budget that does not scale with
// n — the per-element cost of the narrow path is zero allocations. The
// unfused path allocates ~3 boxes per element (tens of thousands here);
// the bound below is two orders of magnitude under that, so any per-element
// allocation sneaking into the fused loop trips it immediately.
func TestFusedNarrowPathAllocBound(t *testing.T) {
	skipIfInstrumented(t)
	const n = 1 << 14
	data := seq(n)
	s := poolSession(1)
	defer s.Close()
	src := Parallelize(s, data, 8)
	job := func() {
		mapped := Map(src, func(v int) int { return v * 3 })
		kept := Filter(mapped, func(v int) bool { return v%8 != 0 })
		small := Map(kept, func(v int) int { return v & 255 })
		if _, err := Count(small); err != nil {
			t.Fatal(err)
		}
	}
	job()              // warm the session's pools and caches
	const budget = 600 // job/plan/stage machinery + 8 output partitions
	if avg := testing.AllocsPerRun(10, job); avg > budget {
		t.Errorf("fused narrow job allocates %.0f per run over %d elements, want <= %d", avg, n, budget)
	}
}

// TestRouteAllocBound pins the router's cost model, O(elements + chunks ×
// targets), on a dense shuffle and on the paper's sparse shape (1200
// sources of 2 elements into 1200 targets). Allocations: one header per
// non-empty block, the √targets arenas the blocks are cut from (and the
// growing list naming them) plus fixed bookkeeping — source offsets, chunk
// bounds, the block list and the pass closures — and nothing per source or
// per element; the
// scratch (cached targets, histogram, block lengths) is the arena the
// warming call put back. Bytes: per element the payload and at worst a
// block header of its own; per source one offset. Bytes are bounded as well
// as allocations because a term in sources × targets is a single allocation
// (5.76 MB at the sparse shape) that no allocation count would notice. Pool
// dispatch adds to both per worker, so the session's worker count is fixed
// here — one for the inline loops, four for the pool — and the bounds are
// the same on any host.
func TestRouteAllocBound(t *testing.T) {
	skipIfInstrumented(t)
	for _, shape := range []struct{ nsrc, perSrc, nt int }{{8, 4096, 16}, {1200, 2, 1200}} {
		parent := benchParent(shape.nsrc, shape.perSrc, false)
		d := benchDep(shape.nt)
		for _, workers := range []int{1, 4} {
			s := poolSession(workers)
			s.route(d, parent) // warm the worker pool
			budget := shape.nt + 2*int(math.Sqrt(float64(shape.nt))) + 12
			if workers > 1 {
				// Each of the two pooled passes allocates its dispatch
				// state and one runner closure per worker.
				budget += 2 * (5 + workers)
			}
			if avg := testing.AllocsPerRun(10, func() { s.route(d, parent) }); avg > float64(budget) {
				t.Errorf("%v on %d workers: route allocates %.0f per call, want <= %d", shape, workers, avg, budget)
			}
			const calls = 10
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < calls; i++ {
				s.route(d, parent)
			}
			runtime.ReadMemStats(&after)
			elements := shape.nsrc * shape.perSrc
			bound := uint64(64*elements + 32*workers*shape.nt + 8*shape.nsrc + 2048)
			if got := (after.TotalAlloc - before.TotalAlloc) / calls; got > bound {
				t.Errorf("%v on %d workers: route allocates %d bytes per call, want <= %d", shape, workers, got, bound)
			}
			s.Close()
		}
	}
}

// TestShuffleJobRecyclesBlocks pins the lifetime of routed blocks in bytes
// and in retention. A shuffle job in a session whose free list holds the
// arenas of an identical job before it allocates no block and no route
// scratch: against the same job on an emptied list it saves the whole
// payload of both, so what is left of the router is its index (source
// offsets, chunk bounds, the block list), one header per block and the batch
// structs. A job that takes nothing from the list leaves it empty, and so
// does Close.
func TestShuffleJobRecyclesBlocks(t *testing.T) {
	skipIfInstrumented(t)
	const rows, parts = 1 << 14, 8
	s := poolSession(1)
	src := Parallelize(s, foldShapeRows(rows, rows), parts) // distinct keys: the combine shrinks nothing
	job := func() {
		if n, err := Count(ReduceByKey(src, foldShapeSum)); err != nil || n != rows {
			t.Fatalf("count = %d, %v", n, err)
		}
	}
	cold := measureBytes(10, func() {
		s.arenas.free, s.arenas.stale = nil, 0
		job()
	})
	warm := measureBytes(10, job)
	payload := uint64(rows) * uint64(unsafe.Sizeof(foldShape{})+4) // blocks and cached targets
	const slack = 4096                                             // the histogram, and the two arenas' rounding
	if warm+payload > cold+slack {
		t.Errorf("a shuffle job over a warm free list allocates %d bytes, over an empty one %d: saved %d of the %d-byte payload",
			warm, cold, int64(cold)-int64(warm), payload)
	}
	if n := len(s.arenas.free); n < 2 {
		t.Errorf("%d arenas on the free list after a shuffle job, want its blocks' and its scratch", n)
	}
	if _, err := Count(Map(src, func(kv foldShape) int { return kv.Key })); err != nil {
		t.Fatal(err)
	}
	if n := len(s.arenas.free); n != 0 {
		t.Errorf("%d arenas outlived a job that took none of them", n)
	}
	job()
	s.Close()
	if n := len(s.arenas.free); n != 0 {
		t.Errorf("%d arenas on the free list after Close", n)
	}
}

// TestStructKeyTargetsAllocFree: the router's counting pass hashes a
// composite key where it lies in its batch. Lifted shuffles key every row
// by a (tag, key) struct, which no monomorphic case covers; the compiled
// hasher takes a pointer, and handing it the address of a by-value copy of
// the key cost one heap allocation per shuffled row (1 000 here).
func TestStructKeyTargetsAllocFree(t *testing.T) {
	skipIfInstrumented(t)
	rows := make([]Pair[structKey, int64], 1000)
	for i := range rows {
		rows[i] = KV(structKey{T: [4]uint64{uint64(i), 1, 2, 3}, K: int64(i % 50)}, int64(i))
	}
	b := batchOf(rows, len(rows))
	d := pairShuffleDep[structKey, int64](nil)
	const nt = 16
	tg, ct := make([]int32, len(rows)), make([]int32, nt)
	d.targets(0, b, nt, tg, ct)
	for i, kv := range rows {
		if want := hashOf(kv.Key) % nt; uint64(tg[i]) != want {
			t.Fatalf("row %d: target %d, hashOf places it at %d", i, tg[i], want)
		}
	}
	if avg := testing.AllocsPerRun(10, func() { d.targets(0, b, nt, tg, ct) }); avg != 0 {
		t.Errorf("targets over %d struct-keyed rows allocates %.0f times, want 0", len(rows), avg)
	}
}

// foldShape is the kmeans_lifted combine row: an int key and seven floats
// of running sums, 64 bytes a pair.
type foldShape = Pair[int, [7]float64]

func foldShapeRows(n, keys int) []foldShape {
	rows := make([]foldShape, n)
	for i := range rows {
		rows[i] = foldShape{Key: (i * 31) % keys, Val: [7]float64{float64(i), 1}}
	}
	return rows
}

func foldShapeSum(a, b [7]float64) [7]float64 {
	for i := range a {
		a[i] += b[i]
	}
	return a
}

// measureBytes returns the bytes one call of part allocates, averaged over
// calls, after one warming call. The GC is held off — a cycle would empty
// the sync.Pool under test and charge the next call a new scratch — and the
// measurement runs at GOMAXPROCS=1: a sync.Pool keeps what was Put in a
// per-P slot the Get of another P cannot reach, so a test goroutine that
// migrates to another P mid-loop would build a second scratch and fail the
// bound one run in 25 (seen at GOMAXPROCS=4) without any change to the code.
func measureBytes(calls int, part func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	part()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		part()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(calls)
}

// TestFoldAllocBound pins the combine's allocation model: once a worker's
// table is warm, a partition allocates its exact-size output and a small
// constant (batch header) — nothing per input row and no table. The shape is
// kmeans_lifted's, 833 rows onto 256 keys of 64 bytes, where the buffering
// combine this replaced allocated ≈ 200 KB per partition (row buffer, fresh
// map, key order, output and its append-grown copy) against 16 KB of output;
// the two-row partition is the near-empty task of bounce_inner_jobs. Fused
// (a runner's chain instance) and per-operator evaluation share the bound.
func TestFoldAllocBound(t *testing.T) {
	skipIfInstrumented(t)
	const slack = 256
	for _, shape := range []struct{ rows, keys int }{{833, 256}, {2, 2}} {
		s := poolSession(1)
		src := Parallelize(s, foldShapeRows(shape.rows, shape.keys), 1)
		pre := Map(src, func(kv foldShape) foldShape { return kv })
		red := ReduceByKey(pre, foldShapeSum)
		comb := red.n.deps[0].parent
		fi := s.buildExecPlan(red.n, nil).fused[comb]
		if fi == nil || fi.head != src.n {
			t.Fatalf("the plan did not fuse map∘combine over the source: %+v", fi)
		}
		head := src.n.compute(nil, 0, nil)
		mid := pre.n.compute(nil, 0, []Batch{head})
		c := newChain(nil, fi)
		for name, part := range map[string]func() Batch{
			"fused":        func() Batch { return c.run(0, head) },
			"per-operator": func() Batch { return comb.compute(nil, 0, []Batch{mid}) },
		} {
			if got := part().Len(); got != shape.keys {
				t.Fatalf("%s: %d groups, want %d", name, got, shape.keys)
			}
			bound := uint64(shape.keys)*uint64(unsafe.Sizeof(foldShape{})) + slack
			if got := measureBytes(100, func() { part() }); got > bound {
				t.Errorf("%s, %d rows onto %d keys: %d bytes per partition, want <= %d", name, shape.rows, shape.keys, got, bound)
			}
		}
		s.Close()
	}
}

// TestFoldOutputsNotAliased: a finished partition's result shares no
// memory with the table that produced it — folding the next partition on
// the same table leaves it untouched. This is what lets pooled scratch sit
// behind batches that outlive the task (frontier, caches, checkpoints).
func TestFoldOutputsNotAliased(t *testing.T) {
	tab := pairTableOf[int](foldShapeSum)
	set := newSetTables[int]().Get().(*setTable[int])
	a := foldRows[foldShape](tab, foldShapeRows(833, 256))
	sa := foldRows[int](set, seq(100))
	keep, skeep := slices.Clone(a), slices.Clone(sa)
	foldRows[foldShape](tab, foldShapeRows(500, 300)[100:])
	foldRows[int](set, seq(300)[150:])
	if !slices.Equal(a, keep) || !slices.Equal(sa, skeep) {
		t.Fatal("folding the next partition changed the previous partition's result")
	}
}

// tinyRows returns rows keyed so that PartitionByKey into parts partitions
// puts p%4 of them into partition p: the paper's fixed 3 × cores
// partitions over an inner job's couple of thousand records.
func tinyRows(parts int) []Pair[int, int] {
	need, total := make([]int, parts), 0
	for p := range need {
		need[p] = p % 4
		total += need[p]
	}
	rows := make([]Pair[int, int], 0, total)
	for k := 0; len(rows) < total; k++ {
		if p := hashOf(k) % uint64(parts); need[p] > 0 {
			need[p]--
			rows = append(rows, KV(k, k))
		}
	}
	return rows
}

// TestTinyTaskAllocBound is the cost of a near-empty task: a stage of 1200
// partitions of 0–3 rows allocates, per non-empty partition, at most its
// output's header and data, nothing for an empty one, and for the stage a
// constant plus a few objects per runner (the result slice, the simulator's
// scheduling, each runner's Ctx and chain). Two stages read the same routed
// blocks: a fused filter∘map∘fold (ReduceByKey's map side) and a
// per-operator filter, each at one host worker and at four.
func TestTinyTaskAllocBound(t *testing.T) {
	skipIfInstrumented(t)
	const parts = 1200
	nonEmpty := parts * 3 / 4 // partition p holds p%4 rows
	rows := tinyRows(parts)
	for _, workers := range []int{1, 4} {
		s := poolSession(workers)
		blocks := PartitionByKey(Parallelize(s, rows, 8), parts)
		kept := Filter(blocks, func(kv Pair[int, int]) bool { return kv.Val%7 != 0 })
		keyed := Map(kept, func(kv Pair[int, int]) Pair[int, int64] { return KV(kv.Key%64, int64(1)) })
		combine := ReduceByKeyN(keyed, func(a, b int64) int64 { return a + b }, 8).n.deps[0].parent
		filter := Filter(blocks, func(kv Pair[int, int]) bool { return kv.Val%7 != 0 }).n
		for name, root := range map[string]*node{"fused": combine, "per-operator": filter} {
			j := s.newJob()
			j.ep = s.buildExecPlan(root, nil)
			if f := j.runStages(root); f != nil {
				t.Fatal(f.err)
			}
			if fused := j.ep.fused[root] != nil; fused != (name == "fused") {
				t.Fatalf("%s: the stage root tops a fused chain: %v", name, fused)
			}
			st := j.ep.stageOf[root]
			launch := func() {
				delete(j.front, root)
				if f := j.launchStage(root, st).fail; f != nil {
					t.Fatal(f.err)
				}
			}
			launch() // warm the fold tables
			// The collector is held off: a cycle would empty the tables' pool.
			gc := debug.SetGCPercent(-1)
			avg := testing.AllocsPerRun(10, launch)
			debug.SetGCPercent(gc)
			if budget := 2*nonEmpty + 32 + 16*workers; avg > float64(budget) {
				t.Errorf("%s on %d workers: a stage of %d partitions, %d of them non-empty, allocates %.0f, want <= %d",
					name, workers, parts, nonEmpty, avg, budget)
			}
			j.end()
		}
		s.Close()
	}
}

// TestEstPartitionBytesAllocBound: sizing a boxed partition of the ir front
// end's rows, whole at or below sampleN elements and sampled above it,
// allocates nothing, whatever n is. The sample is sized where its rows
// lie, reached through Rows without boxing the slice, and rows whose leaves
// are ints, strings and nested pairs never need the shared-pointer table.
func TestEstPartitionBytesAllocBound(t *testing.T) {
	skipIfInstrumented(t)
	var sink int64
	for _, n := range []int{5, sampleN, 100, 4097, 100_000} {
		rows := make([]any, n)
		for i := range rows {
			if i%3 == 0 {
				rows[i] = KV[any, any]("day", KV[any, any](int64(i), strconv.Itoa(i)))
			} else {
				rows[i] = KV[any, any](i, strconv.Itoa(i%9))
			}
		}
		part, l := boxedOf(rows), layout.Of(reflect.TypeFor[any]())
		if avg := testing.AllocsPerRun(20, func() { sink += estPartitionBytes(part, l) }); avg > 0 {
			t.Errorf("n=%d: estPartitionBytes allocates %.1f per call, want 0", n, avg)
		}
	}
	runtime.KeepAlive(sink)
}
