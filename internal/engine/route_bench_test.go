package engine

// Benchmarks for the execution hot path: shuffle routing, broadcast
// flattening, stage execution, and the narrow fan-in memo. Routing reports
// the inline and the pooled loop dispatch side by side, and narrow chains
// the per-operator and the fused evaluator. Wall-clock gains from the
// worker pool scale with GOMAXPROCS.

import (
	"runtime"
	"testing"
)

// benchParent builds nsrc source partitions of perSrc int elements as
// typed batches. skew=false: values are distinct, so a hash partitioner
// spreads them evenly. skew=true: 90% of the elements share one hot value
// (all bound for the same target block), the tail is uniform.
func benchParent(nsrc, perSrc int, skew bool) []Batch {
	parent := make([]Batch, nsrc)
	for src := range parent {
		part := make([]int, perSrc)
		for i := range part {
			v := src*perSrc + i
			if skew && i%10 != 0 {
				v = 42 // hot key
			}
			part[i] = v
		}
		parent[src] = batchOf(part, perSrc)
	}
	return parent
}

// benchSession is a session on every proc without the tests' poison seam:
// benchmarks time what production runs.
func benchSession() *Session {
	s := poolSession(runtime.GOMAXPROCS(0))
	s.arenas.poison = false
	return s
}

// benchDep places ints by a multiplicative hash, spelled as the production
// shuffle-dep constructors spell targets: the batch's slice in place, for
// typed int batches and for the boxed ones an ir dataset carries.
func benchDep(parts int) *dep {
	hash := func(e int) uint64 { return uint64(int(uint32(e) * 2654435761)) }
	return &dep{kind: depShuffle, childParts: parts, targets: func(_ int, b Batch, nParts int, tg, ct []int32) {
		if v, ok := b.(*Vec[int]); ok {
			for i, e := range v.xs {
				place(hash(e), nParts, i, tg, ct)
			}
			return
		}
		for i, e := range b.(*Vec[any]).xs {
			place(hash(e.(int)), nParts, i, tg, ct)
		}
	}}
}

// BenchmarkShuffleBoundary is the representation A/B across one whole
// shuffle stage boundary: the producing operator materializes its output
// partitions from typed host values, and the router scatters them into
// target blocks. The boxed side is the pre-batch data path — every element
// boxed into a []any seam, per-element partitioner calls, per-element
// block writes. The typed side is the batch data path — a typed output
// slice, one counting-pass dispatch per batch, typed scatter. The
// allocs/op gap is the per-element boxing the typed representation no
// longer performs; `make bench-check` gates it exactly against the
// committed baseline.
func BenchmarkShuffleBoundary(b *testing.B) {
	const nsrc, perSrc, nt = 8, 8192, 16
	src := make([][]int, nsrc) // the typed values a compute UDF produced
	for s := range src {
		vals := make([]int, perSrc)
		for i := range vals {
			vals[i] = s*perSrc + i
		}
		src[s] = vals
	}
	d := benchDep(nt)
	b.Run("boxed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			parent := make([]Batch, nsrc)
			for s, vals := range src {
				out := make([]any, len(vals))
				for k, v := range vals {
					out[k] = v
				}
				parent[s] = boxedOf(out)
			}
			routeCore(d, parent, nil, 1, nil)
		}
	})
	b.Run("typed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			parent := make([]Batch, nsrc)
			for s, vals := range src {
				out := make([]int, len(vals))
				copy(out, vals)
				parent[s] = batchOf(out, len(out))
			}
			routeCore(d, parent, nil, 1, nil)
		}
	})
}

// BenchmarkShuffleRoute compares the counting-pass router's inline and
// pooled loop dispatch on uniform and skewed key distributions, on the
// paper's sparse shape — an inner job's ~2000 records spread over the fixed
// 3 × cores = 1200 partitions on both sides, where any cost in sources ×
// targets shows and the elements do not — and on structkey, the shape of
// every lifted shuffle: rows keyed by a (tag, key) struct that only the
// compiled hasher covers. `make bench-check` gates structkey's allocs/op
// exactly: hashing such a key must not allocate per row. twice-in-job is the
// router where it lives: a job of two reduces over 64-byte rows, whose
// second shuffle is cut from the arenas the first one's last reader
// released, and whose first is cut from what the job before it left on the
// session's free list.
func BenchmarkShuffleRoute(b *testing.B) {
	type routeShape struct {
		name   string
		parent []Batch
		d      *dep
	}
	var shapes []routeShape
	for _, shape := range []struct {
		name             string
		nsrc, perSrc, nt int
		skew             bool
	}{{"uniform", 8, 8192, 16, false}, {"skewed", 8, 8192, 16, true}, {"sparse", 1200, 2, 1200, false}} {
		shapes = append(shapes, routeShape{shape.name, benchParent(shape.nsrc, shape.perSrc, shape.skew), benchDep(shape.nt)})
	}
	keyed := make([]Batch, 8)
	for src := range keyed {
		rows := make([]Pair[structKey, int64], 8192)
		for i := range rows {
			rows[i] = KV(structKey{T: [4]uint64{uint64(src), uint64(i % 64)}, K: int64(i % 500)}, int64(i))
		}
		keyed[src] = batchOf(rows, len(rows))
	}
	sd := pairShuffleDep[structKey, int64](nil)
	sd.childParts = 16
	shapes = append(shapes, routeShape{"structkey", keyed, &sd})
	b.Run("twice-in-job", func(b *testing.B) {
		s := benchSession()
		defer s.Close()
		src := Parallelize(s, foldShapeRows(1<<14, 1<<14), 8)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			once := ReduceByKey(src, foldShapeSum)
			twice := ReduceByKey(Map(once, func(kv foldShape) foldShape { return foldShape{Key: kv.Key + 1, Val: kv.Val} }), foldShapeSum)
			if n, err := Count(twice); err != nil || n != 1<<14 {
				b.Fatalf("count = %d, %v", n, err)
			}
		}
	})
	for _, shape := range shapes {
		parent, d := shape.parent, shape.d
		b.Run(shape.name+"/serial", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				routeCore(d, parent, nil, 1, nil)
			}
		})
		b.Run(shape.name+"/parallel", func(b *testing.B) {
			s := benchSession()
			defer s.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.route(d, parent)
			}
		})
	}
}

// BenchmarkBroadcastFlatten times the broadcast flatten pinBroadcast runs:
// one copy of every partition into a single exactly-sized batch. Each sub
// runs one untimed warm-up flatten first: the output is a single multi-MB
// allocation, and without the warm-up a short -benchtime run (like the
// bench-check smoke gate's 10x) measures mostly first-touch page faults
// instead of the copy.
func BenchmarkBroadcastFlatten(b *testing.B) {
	for _, size := range []struct {
		name         string
		nsrc, perSrc int
	}{{"small", 16, 8192}, {"large", 16, 65536}} {
		parent := benchParent(size.nsrc, size.perSrc, false)
		b.Run(size.name, func(b *testing.B) {
			flatten(parent)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				flatten(parent)
			}
		})
	}
}

// spin burns deterministic CPU so per-element UDF cost dominates stage
// benchmarks the way real compute does.
func spin(v, rounds int) int {
	h := uint32(v)
	for i := 0; i < rounds; i++ {
		h = h*2654435761 + 1
	}
	return int(h)
}

// expandTab backs the stage benchmark's flatMap with preallocated static
// slices: the UDF itself allocates nothing, so the benchmark measures the
// engine's per-element machinery (boxing, closure seams, routing) rather
// than UDF garbage. Values stay below 256 so boxing them is allocation-free
// (Go interns small-integer boxes) in the unfused path too — the alloc
// delta between modes is then purely the engine's own boxing of
// intermediate rows.
var expandTab = func() [16][]int {
	var tab [16][]int
	for i := range tab {
		tab[i] = []int{i * 3, i*3 + 1}
	}
	return tab
}()

// BenchmarkStageExec runs a five-op narrow chain (flatMap, keying map,
// filter, mapValues, rekeying map — the shape of a parse→project→filter→
// normalize→rekey ETL prefix) into a map-side combine and shuffle reduce,
// end to end, on the per-operator evaluator ("pooled") and with the narrow
// chain fused. A fresh DAG is built per iteration so nothing is served
// from the job cache; the source is parallelized once outside the loop so
// its one-time boxing is not measured.
func BenchmarkStageExec(b *testing.B) {
	data := make([]int, 1<<14)
	for i := range data {
		data[i] = i
	}
	run := func(b *testing.B, fuse bool) {
		s := benchSession()
		defer s.Close()
		s.noFuse = !fuse
		src := Parallelize(s, data, 8)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			expanded := FlatMap(src, func(v int) []int { return expandTab[v&15] })
			keyed := Map(expanded, func(v int) Pair[int, int] {
				return Pair[int, int]{Key: spin(v, 16) % 64, Val: v}
			})
			hot := Filter(keyed, func(kv Pair[int, int]) bool { return kv.Val%16 != 0 })
			scaled := MapValues(hot, func(v int) int { return v + 1 })
			rekeyed := Map(scaled, func(kv Pair[int, int]) Pair[int, int] {
				return Pair[int, int]{Key: kv.Key & 63, Val: kv.Val}
			})
			red := ReduceByKey(rekeyed, func(a, c int) int { return a + c })
			if _, err := Count(red); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("pooled", func(b *testing.B) { run(b, false) })
	b.Run("fused", func(b *testing.B) { run(b, true) })
}

// BenchmarkNarrowChain isolates the fused path's target shape: a pure
// narrow map∘filter∘map pipeline materialized at its root, no shuffle.
// Unfused, every operator materializes its whole output as a typed batch;
// fused, rows flow through one loop of composed closures and only the root
// materializes. In isolation the fused loop is the slower of the two (the
// closure calls cost more than the two typed seams they save); it earns
// its place on alloc_mb end to end (EXPERIMENTS.md, "Executor paths on the
// wall-clock benchmark").
func BenchmarkNarrowChain(b *testing.B) {
	data := make([]int, 1<<16)
	for i := range data {
		data[i] = i
	}
	run := func(b *testing.B, fuse bool) {
		s := benchSession()
		defer s.Close()
		s.noFuse = !fuse
		src := Parallelize(s, data, 8)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			mapped := Map(src, func(v int) int { return spin(v, 16) })
			kept := Filter(mapped, func(v int) bool { return v%8 != 0 })
			small := Map(kept, func(v int) int { return v & 255 })
			if _, err := Count(small); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("unfused", func(b *testing.B) { run(b, false) })
	b.Run("fused", func(b *testing.B) { run(b, true) })
}

// BenchmarkCombine folds one stage's worth of partitions per iteration —
// the paper's fixed 3 × cores = 1200 — on one warm pair table (fold.go), at
// the three shapes the wall-clock benchmark's combines have: kmeans_lifted's
// 833 rows onto 256 keys of 64 bytes, bounce_lifted's 560 mostly-distinct
// rows, and the two-row partition of bounce_inner_jobs. after-giant is
// ten-row partitions on a table that once held 200 000 keys: it stays
// within a small factor of sparse only while resetting a table costs the
// rows just folded, not the capacity a giant partition left behind (with a
// plain clear of the index it is three orders of magnitude slower, which
// bench-check's 3× gate catches). The table is held directly: a sync.Pool
// would hand the giant to the GC mid-run.
func BenchmarkCombine(b *testing.B) {
	sum := func(a, c int64) int64 { return a + c }
	counts := func(n, keys int) []Pair[int, int64] {
		rows := make([]Pair[int, int64], n)
		for i := range rows {
			rows[i] = KV((i*31)%keys, int64(i))
		}
		return rows
	}
	b.Run("kmeans", func(b *testing.B) {
		benchFold[foldShape](b, pairTableOf[int](foldShapeSum), foldShapeRows(833, 256))
	})
	b.Run("bounce", func(b *testing.B) {
		benchFold[Pair[int, int64]](b, pairTableOf[int](sum), counts(560, 500))
	})
	b.Run("sparse", func(b *testing.B) {
		benchFold[Pair[int, int64]](b, pairTableOf[int](sum), counts(2, 2))
	})
	b.Run("after-giant", func(b *testing.B) {
		tab := pairTableOf[int](sum)
		foldRows[Pair[int, int64]](tab, counts(200_000, 200_000))
		benchFold[Pair[int, int64]](b, tab, counts(10, 8))
	})
}

var foldSink int

func benchFold[A any](b *testing.B, tab folder[A], rows []A) {
	foldRows(tab, rows) // warm the table
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for p := 0; p < 1200; p++ {
			foldSink += len(foldRows(tab, rows))
		}
	}
}

// BenchmarkJoinProbe joins one stage's worth of partitions per iteration —
// the paper's fixed 3 × cores = 1200 — on one warm scratch (portable.go).
// pagerank is pagerank_lifted's largest join: ≈ 80 build rows against 400
// probe rows per partition on (tag, key)-shaped keys. after-giant is
// ten-row partitions on a scratch that once held 200 000 keys, bounded the
// way BenchmarkCombine/after-giant bounds the fold tables. The scratch is
// held directly: a sync.Pool would hand the giant to the GC mid-run.
func BenchmarkJoinProbe(b *testing.B) {
	rows := func(n, keys int) []Pair[structKey, int64] {
		out := make([]Pair[structKey, int64], n)
		for i := range out {
			out[i] = KV(structKey{T: [4]uint64{uint64(i % 4)}, K: int64((i * 31) % keys)}, int64(i))
		}
		return out
	}
	run := func(b *testing.B, s *joinScratch[structKey, int64, int64], build, probe []Pair[structKey, int64]) {
		s.join(build, probe) // warm the scratch
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for p := 0; p < 1200; p++ {
				foldSink += len(s.join(build, probe))
			}
		}
	}
	b.Run("pagerank", func(b *testing.B) {
		run(b, newJoinScratch[structKey, int64, int64](), rows(80, 80), rows(400, 100))
	})
	b.Run("after-giant", func(b *testing.B) {
		s := newJoinScratch[structKey, int64, int64]()
		s.join(rows(200_000, 200_000), nil)
		run(b, s, rows(10, 8), rows(10, 8))
	})
}

// BenchmarkFanInMemo runs a fan-in-heavy DAG: one expensive base dataset
// consumed by four narrow branches that are unioned, a four-way diamond.
// The fan-in memo computes the base once per (node, partition) instead of
// once per consumer.
func BenchmarkFanInMemo(b *testing.B) {
	data := make([]int, 1<<12)
	for i := range data {
		data[i] = i
	}
	b.Run("pooled", func(b *testing.B) {
		s := benchSession()
		defer s.Close()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			base := Map(Parallelize(s, data, 8), func(v int) int { return spin(v, 2000) })
			u := Union(
				Union(Map(base, func(v int) int { return v + 1 }), Filter(base, func(v int) bool { return v%2 == 0 })),
				Union(Map(base, func(v int) int { return v - 1 }), Filter(base, func(v int) bool { return v%3 == 0 })),
			)
			if _, err := Count(u); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkTinyStage runs the stages TestTinyTaskAllocBound bounds as
// whole jobs, one per op: rows routed into the paper's fixed 1200
// partitions, 0–3 rows each — an inner job's shape — then either a fused
// filter∘map∘fold (ReduceByKey's map side) or a per-operator filter over the
// routed blocks. Past its plan and its route, such a job is per-task
// overhead: the paper's first fly.
func BenchmarkTinyStage(b *testing.B) {
	const parts = 1200
	keep := func(kv Pair[int, int]) bool { return kv.Val%7 != 0 }
	for _, name := range []string{"fused", "per-operator"} {
		b.Run(name, func(b *testing.B) {
			s := benchSession()
			defer s.Close()
			blocks := PartitionByKey(Parallelize(s, tinyRows(parts), 8), parts)
			root := Filter(blocks, keep).n
			if name == "fused" {
				keyed := Map(Filter(blocks, keep), func(kv Pair[int, int]) Pair[int, int64] { return KV(kv.Key%64, int64(1)) })
				root = ReduceByKeyN(keyed, func(a, c int64) int64 { return a + c }, 8).n.deps[0].parent
			}
			if _, err := s.runJob(root); err != nil { // warm the free list and the fold tables
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.runJob(root); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWorkerPool measures raw parallelFor dispatch overhead.
func BenchmarkWorkerPool(b *testing.B) {
	const n = 64
	work := func(_, _ int) { spin(1, 5000) }
	b.Run("pool", func(b *testing.B) {
		pool := newWorkerPool(runtime.GOMAXPROCS(0))
		defer pool.close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pool.parallelFor(runtime.GOMAXPROCS(0), n, work)
		}
	})
}
