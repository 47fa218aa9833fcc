package engine

// Streaming aggregation for the engine's own whole-partition operators:
// ReduceByKey's map-side combine and reduce side, and Distinct's local and
// final dedup. A folder takes rows one at a time, so a fused chain streams
// straight into it (fuseFold) and nothing is buffered in front of the
// aggregate; user UDFs keep MapPartitions' slice contract.
//
// A folder's tables are host scratch, reused across the partitions one
// worker runs for one operator instance: the sync.Pool belongs to the
// operator, so it is per-P, dies with the node and is drained by the GC.
// finish returns a fresh exact-size copy, so nothing pooled is ever
// reachable from a Batch, the frontier, a node cache, a memo entry or a
// recovery checkpoint — reuse is safe by construction. Capacities are
// invisible to simulated accounting: batches report their logical length.

import "sync"

// folder aggregates one partition. finish returns the result in first-seen
// order (partition contents must be deterministic: the size estimator
// samples by position) and leaves the folder empty for its next partition.
type folder[A any] interface {
	add(a A)
	finish() []A
}

// foldPartition runs one partition through a folder from tables; feed
// pushes the partition's rows into add. The Put is deliberately not
// deferred: a folder a panicking UDF abandoned mid-partition is dropped,
// never reused.
func foldPartition[A any](tables *sync.Pool, feed func(add func(A))) []A {
	t := tables.Get().(folder[A])
	feed(t.add)
	out := t.finish()
	tables.Put(t)
	return out
}

// foldBatch is foldPartition over a materialized input batch.
func foldBatch[A any](tables *sync.Pool, in Batch) []A {
	return foldPartition(tables, func(add func(A)) {
		for _, a := range elems[A](in) {
			add(a)
		}
	})
}

// foldTable is the scratch both folders share: an index from key to the
// row's position in a first-seen-order accumulator.
type foldTable[K comparable, E any] struct {
	idx map[K]int32
	acc []E
	hw  int // most keys idx ever held: what a clear would have to walk
}

func (t *foldTable[K, E]) insert(k K, e E) {
	t.idx[k] = int32(len(t.acc))
	t.acc = append(t.acc, e)
}

// sparseReset is the share of the index's high-water key count below which
// deleting this partition's keys beats clearing the map: the ratio of one
// per-key delete to one per-slot clear (BenchmarkCombine/after-giant).
const sparseReset = 8

// drain returns a copy of the accumulator and empties the table at a cost
// proportional to the rows just folded, never to the largest partition the
// table ever held: clear(map) walks the map's whole capacity, so after one
// giant partition it would tax every near-empty one that follows. The
// accumulator is zeroed so scratch does not pin pointerful rows.
func (t *foldTable[K, E]) drain(key func(*E) K) []E {
	out := make([]E, len(t.acc))
	copy(out, t.acc)
	t.hw = max(t.hw, len(t.acc))
	if len(t.acc)*sparseReset < t.hw {
		for i := range t.acc {
			delete(t.idx, key(&t.acc[i]))
		}
	}
	if len(t.idx) > 0 { // a dense partition, or NaN keys delete cannot find
		clear(t.idx)
	}
	clear(t.acc)
	t.acc = t.acc[:0]
	return out
}

// pairTable folds Pair rows by key with f, left to right in arrival order,
// so float sums are bit-identical to a sequential merge.
type pairTable[K comparable, V any] struct {
	foldTable[K, Pair[K, V]]
	f func(V, V) V
}

func newPairTables[K comparable, V any](f func(V, V) V) *sync.Pool {
	return &sync.Pool{New: func() any {
		return &pairTable[K, V]{foldTable[K, Pair[K, V]]{idx: map[K]int32{}}, f}
	}}
}

func (t *pairTable[K, V]) add(kv Pair[K, V]) {
	if i, ok := t.idx[kv.Key]; ok {
		t.acc[i].Val = t.f(t.acc[i].Val, kv.Val)
		return
	}
	t.insert(kv.Key, kv)
}

func (t *pairTable[K, V]) finish() []Pair[K, V] {
	return t.drain(func(kv *Pair[K, V]) K { return kv.Key })
}

// setTable keeps the first occurrence of every element.
type setTable[T comparable] struct{ foldTable[T, T] }

func newSetTables[T comparable]() *sync.Pool {
	return &sync.Pool{New: func() any {
		return &setTable[T]{foldTable[T, T]{idx: map[T]int32{}}}
	}}
}

func (t *setTable[T]) add(e T) {
	if _, ok := t.idx[e]; !ok {
		t.insert(e, e)
	}
}

func (t *setTable[T]) finish() []T {
	return t.drain(func(e *T) T { return *e })
}
