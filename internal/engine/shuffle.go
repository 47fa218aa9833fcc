package engine

import (
	"sync"

	"matryoshka/internal/obs"
)

// place records that element i of the batch being counted goes to partition
// hash mod nParts.
func place(hash uint64, nParts, i int, tg, ct []int32) {
	t := int32(hash % uint64(nParts))
	tg[i] = t
	ct[t]++
}

// pairShuffleDep builds a shuffle dep over Pair[K, V] partitions placed by
// key hash. K's hasher is resolved here, once — a key type that cannot be
// hashed is refused here — and the counting pass hashes the typed pairs
// where they lie, no boxing.
func pairShuffleDep[K comparable, V any](parent *node) dep {
	h := keyHasher[K]()
	return dep{parent: parent, kind: depShuffle, targets: func(_ int, b Batch, nParts int, tg, ct []int32) {
		xs := b.(*Vec[Pair[K, V]]).xs
		for i := range xs {
			place(h(&xs[i].Key), nParts, i, tg, ct)
		}
	}}
}

// elemShuffleDep is pairShuffleDep for element-hashed shuffles (Distinct).
func elemShuffleDep[T comparable](parent *node) dep {
	h := keyHasher[T]()
	return dep{parent: parent, kind: depShuffle, targets: func(_ int, b Batch, nParts int, tg, ct []int32) {
		xs := b.(*Vec[T]).xs
		for i := range xs {
			place(h(&xs[i]), nParts, i, tg, ct)
		}
	}}
}

// ReduceByKey merges all values sharing a key with f, using the session's
// default parallelism for the result.
func ReduceByKey[K comparable, V any](d Dataset[Pair[K, V]], f func(V, V) V) Dataset[Pair[K, V]] {
	return ReduceByKeyN(d, f, 0)
}

// ReduceByKeyN is ReduceByKey with an explicit output partition count
// (<= 0 means the session default). The lowering phase's optimizer uses the
// explicit form to right-size small InnerScalar bags (Sec. 8.1).
//
// A map-side combine runs before the shuffle, as in Spark, so shuffle
// volume is proportional to distinct keys per partition, not input size.
func ReduceByKeyN[K comparable, V any](d Dataset[Pair[K, V]], f func(V, V) V, parts int) Dataset[Pair[K, V]] {
	return reduceByKey(d, f, parts, false)
}

// ReduceByKeyBound is ReduceByKeyN for key sets whose cardinality does not
// scale with the input (e.g. lifting tags): the combine and reduce outputs
// are marked unscaled so simulated costs reflect their true row counts.
func ReduceByKeyBound[K comparable, V any](d Dataset[Pair[K, V]], f func(V, V) V, parts int) Dataset[Pair[K, V]] {
	return reduceByKey(d, f, parts, true)
}

// foldPartitions is MapPartitions for the engine's own aggregates: the same
// node to the plan (label, fixed partitioning, accounting), but rows stream
// into a folder from tables instead of being buffered for a slice UDF.
func foldPartitions[A any](d Dataset[A], tables *sync.Pool) Dataset[A] {
	n := d.s.newNode("mapPartitions", d.n.parts, []dep{narrowDep(d.n)}, foldCompute[A](tables))
	n.fixedParts = true
	linkFold[A](n, tables)
	return fromNode[A](d.s, n)
}

func reduceByKey[K comparable, V any](d Dataset[Pair[K, V]], f func(V, V) V, parts int, bound bool) Dataset[Pair[K, V]] {
	if parts <= 0 {
		parts = d.s.cfg.DefaultParallelism
	}
	// Outputs are emitted in first-seen key order, not map iteration
	// order: partition contents must be deterministic because the size
	// estimator samples by position, and a per-process sample would leak
	// wall randomness into simulated durations. Both sides fold through
	// one pool of pair tables (fold.go), the loop the process-pool kernels
	// run too.
	tables := newPairTables[K](f)
	combined := foldPartitions[Pair[K, V]](d, tables)
	if bound {
		combined = combined.Unscaled()
	}
	outRows, outWeight := combined.n.rows, combined.n.weight
	sd := pairShuffleDep[K, V](combined.n)
	kernel := foldCompute[Pair[K, V]](tables)
	n := d.s.newNode("reduceByKey", parts, []dep{sd}, func(tc *Ctx, p int, in []Batch) Batch {
		b := kernel(tc, p, in)
		tc.UseMemory(d.s.estResidentBytes(b, outRows, outWeight)) // resident build map ~ distinct keys
		return b
	})
	return fromNode[Pair[K, V]](d.s, n)
}

// GroupByKey collects all values per key into a slice. Unlike ReduceByKey
// there is no map-side combine: the full group materializes in one task,
// which is exactly why the outer-parallel workaround OOMs on large or
// skewed groups (Sec. 9.4, 9.5).
func GroupByKey[K comparable, V any](d Dataset[Pair[K, V]]) Dataset[Pair[K, []V]] {
	return GroupByKeyN(d, 0)
}

// GroupByKeyN is GroupByKey with an explicit partition count.
//
// The group build is registered as a re-lowerable choice under the
// "shred" rule: if a task OOMs building its groups, the recovery loop
// can demote the node to the spill variant (GroupByKeySpillN) instead
// of only raising partition counts — raising partitions cannot split a
// single giant group, spilling can stream it. A session whose feedback
// already denies shred=materialized (a previous run OOMed here) gets
// the spill lowering up front.
func GroupByKeyN[K comparable, V any](d Dataset[Pair[K, V]], parts int) Dataset[Pair[K, []V]] {
	if parts <= 0 {
		parts = d.s.cfg.DefaultParallelism
	}
	if why, denied := d.s.feedback.Denied("shred", "materialized"); denied {
		d.s.obs.Decide(obs.Decision{Rule: "shred", Choice: "shredded", Forced: true,
			Why: "retried-after-OOM: " + why})
		return GroupByKeySpillN(d, parts)
	}
	inRows, inWeight := d.n.rows, d.n.weight
	sd := pairShuffleDep[K, V](d.n)
	kernel := GroupByKeyCompute[K, V]()
	var n *node
	n = d.s.newNode("groupByKey", parts, []dep{sd}, func(tc *Ctx, p int, in []Batch) Batch {
		// Grouping buffers the whole input of the partition: that full
		// residency is exactly what OOMs the outer-parallel workaround
		// on large or skewed groups (Sec. 9.4, 9.5).
		tc.UseMemory(d.s.estResidentBytes(in[0], inRows, inWeight))
		return kernel(tc, p, in)
	})
	n.fallback = &refallback{
		rule: "shred", choice: "materialized", alt: "shredded",
		build: func() *node {
			return GroupByKeySpillN(d, n.parts).n
		},
	}
	return fromNode[Pair[K, []V]](d.s, n)
}

// Spill group-by cost model. A spilling build keeps only a bounded
// working set resident (run buffers plus a merge fan-in) instead of the
// whole partition: model it as 1/spillResidencyFraction of the full
// footprint. In exchange every row is written to and re-read from local
// disk across the run/merge passes, charged as spillIOFactor extra
// element-ops on top of the grouping work itself.
const (
	spillResidencyFraction = 16
	spillIOFactor          = 3
)

// GroupByKeySpill is the spill-friendly group build: identical output
// (same routing, same per-group element order — source-partition-major
// input order) to GroupByKey, but the task streams its partition
// through bounded run buffers instead of holding it resident, so a
// giant group costs I/O time rather than memory. This is the group
// build the shredded nested-bag lowering uses at un-shred boundaries.
func GroupByKeySpill[K comparable, V any](d Dataset[Pair[K, V]]) Dataset[Pair[K, []V]] {
	return GroupByKeySpillN(d, 0)
}

// GroupByKeySpillN is GroupByKeySpill with an explicit partition count.
func GroupByKeySpillN[K comparable, V any](d Dataset[Pair[K, V]], parts int) Dataset[Pair[K, []V]] {
	if parts <= 0 {
		parts = d.s.cfg.DefaultParallelism
	}
	inRows, inWeight := d.n.rows, d.n.weight
	sd := pairShuffleDep[K, V](d.n)
	kernel := GroupByKeyCompute[K, V]()
	n := d.s.newNode("groupByKeySpill", parts, []dep{sd}, func(tc *Ctx, p int, in []Batch) Batch {
		tc.UseMemory(d.s.estResidentBytes(in[0], inRows, inWeight) / spillResidencyFraction)
		tc.Charge(int64(float64(in[0].Len()) * inWeight * spillIOFactor))
		return kernel(tc, p, in)
	})
	return fromNode[Pair[K, []V]](d.s, n)
}

// Distinct removes duplicates (requires comparable elements).
func Distinct[T comparable](d Dataset[T]) Dataset[T] {
	return DistinctN(d, 0)
}

// DistinctN is Distinct with an explicit partition count. Duplicates are
// dropped map-side first, then routed by element hash and dropped again.
func DistinctN[T comparable](d Dataset[T], parts int) Dataset[T] {
	if parts <= 0 {
		parts = d.s.cfg.DefaultParallelism
	}
	tables := newSetTables[T]()
	local := foldPartitions[T](d, tables)
	outRows, outWeight := local.n.rows, local.n.weight
	s := d.s
	sd := elemShuffleDep[T](local.n)
	empty := batchOf[T](nil, 0)
	n := s.newNode("distinct", parts, []dep{sd}, func(tc *Ctx, p int, in []Batch) Batch {
		if in[0].Len() == 0 {
			return empty
		}
		// The boxed loop kept the input-length capacity it pre-sized.
		b := batchOf(foldBatch[T](tables, in[0]), in[0].Len())
		tc.UseMemory(s.estResidentBytes(b, outRows, outWeight)) // resident dedup set
		return b
	})
	return fromNode[T](s, n)
}

// PartitionByKey hash-partitions a pair dataset by its key into parts
// partitions (<= 0: session default) and records the partitioning on the
// result. A subsequent JoinWith whose key type and partition count match
// reads this side narrowly, with no re-shuffle — cache the result and
// iterative programs (PageRank's static edges, BFS adjacency) pay the
// shuffle once instead of every superstep.
func PartitionByKey[K comparable, V any](d Dataset[Pair[K, V]], parts int) Dataset[Pair[K, V]] {
	if parts <= 0 {
		parts = d.s.cfg.DefaultParallelism
	}
	if d.n.pkey.matches(partInfoFor[K](parts)) {
		return d
	}
	sd := pairShuffleDep[K, V](d.n)
	sd.aliased = true // identityCompute hands the blocks on
	n := d.s.newNode("partitionByKey", parts, []dep{sd}, identityCompute)
	// Pure routing (the shuffle blocks already are the output): portable.
	n.port = &portableMark{op: "identity"}
	n.pkey = partInfoFor[K](parts)
	return fromNode[Pair[K, V]](d.s, n)
}

// Repartition redistributes elements round-robin into parts partitions.
// The target is derived from (source partition, element index) — each
// source partition deals its elements out starting at its own offset — so
// routing is pure and deterministic regardless of element-visit order or
// host worker count, where a shared counter would not be.
func Repartition[T any](d Dataset[T], parts int) Dataset[T] {
	if parts <= 0 {
		parts = d.s.cfg.DefaultParallelism
	}
	// aliased: identityCompute hands the blocks on.
	sd := dep{parent: d.n, kind: depShuffle, aliased: true, targets: func(src int, _ Batch, nParts int, tg, ct []int32) {
		for i := range tg {
			place(uint64(src+i), nParts, i, tg, ct)
		}
	}}
	n := d.s.newNode("repartition", parts, []dep{sd}, identityCompute)
	// Pure routing (the shuffle blocks already are the output): portable.
	n.port = &portableMark{op: "identity"}
	return fromNode[T](d.s, n)
}
