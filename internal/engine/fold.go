package engine

// Streaming aggregation for the engine's own whole-partition operators:
// ReduceByKey's map-side combine and reduce side, and Distinct's local and
// final dedup. A folder takes rows one at a time, so a fused chain streams
// straight into it (linkFold) and nothing is buffered in front of the
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

// foldBatch runs the rows of one materialized partition through a folder
// from tables. The Put is deliberately not deferred: a folder a panicking
// UDF abandoned mid-partition is dropped, never reused.
func foldBatch[A any](tables *sync.Pool, in Batch) []A {
	t := tables.Get().(folder[A])
	for _, a := range elems[A](in) {
		t.add(a)
	}
	out := t.finish()
	tables.Put(t)
	return out
}

// keyIndex is the reusable index under every pooled scratch (the folders'
// tables here, the repartition join's build side in portable.go): a map
// from key to a row position, and what emptying it cheaply needs.
type keyIndex[K comparable] struct {
	idx map[K]int32
	hw  int // most keys idx ever held: what a clear would have to walk
}

func newKeyIndex[K comparable]() keyIndex[K] { return keyIndex[K]{idx: map[K]int32{}} }

// sparseReset is the share of the index's high-water key count below which
// deleting this partition's keys beats clearing the map: the ratio of one
// per-key delete to one per-slot clear (BenchmarkCombine/after-giant).
const sparseReset = 8

// reset empties the index after a partition that put n rows into it, the
// i-th under key(i), at a cost proportional to n, never to the largest
// partition the index ever held: clear(map) walks the map's whole capacity,
// so after one giant partition it would tax every near-empty one that
// follows.
func (x *keyIndex[K]) reset(n int, key func(i int) K) {
	x.hw = max(x.hw, len(x.idx))
	if n*sparseReset < x.hw {
		for i := 0; i < n; i++ {
			delete(x.idx, key(i))
		}
	}
	if len(x.idx) > 0 { // a dense partition, or NaN keys delete cannot find
		clear(x.idx)
	}
}

// copyOut returns an exact-size copy of the rows in *scratch and leaves the
// scratch empty and zeroed, so it does not pin pointerful rows. The copy is
// what makes pooled scratch safe: nothing a Batch holds is ever reused.
func copyOut[E any](scratch *[]E) []E {
	out := make([]E, len(*scratch))
	copy(out, *scratch)
	clear(*scratch)
	*scratch = (*scratch)[:0]
	return out
}

// foldTable is the scratch both folders share: an index from key to the
// row's position in a first-seen-order accumulator.
type foldTable[K comparable, E any] struct {
	keyIndex[K]
	acc []E
}

func (t *foldTable[K, E]) insert(k K, e E) {
	t.idx[k] = int32(len(t.acc))
	t.acc = append(t.acc, e)
}

// drain returns a copy of the accumulator and empties the table; key(i) is
// the key of accumulator row i.
func (t *foldTable[K, E]) drain(key func(i int) K) []E {
	t.reset(len(t.acc), key)
	return copyOut(&t.acc)
}

// pairTable folds Pair rows by key with f, left to right in arrival order,
// so float sums are bit-identical to a sequential merge.
type pairTable[K comparable, V any] struct {
	foldTable[K, Pair[K, V]]
	f func(V, V) V
}

func newPairTables[K comparable, V any](f func(V, V) V) *sync.Pool {
	return &sync.Pool{New: func() any {
		return &pairTable[K, V]{foldTable[K, Pair[K, V]]{keyIndex: newKeyIndex[K]()}, f}
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
	return t.drain(func(i int) K { return t.acc[i].Key })
}

// setTable keeps the first occurrence of every element.
type setTable[T comparable] struct{ foldTable[T, T] }

func newSetTables[T comparable]() *sync.Pool {
	return &sync.Pool{New: func() any {
		return &setTable[T]{foldTable[T, T]{keyIndex: newKeyIndex[T]()}}
	}}
}

func (t *setTable[T]) add(e T) {
	if _, ok := t.idx[e]; !ok {
		t.insert(e, e)
	}
}

func (t *setTable[T]) finish() []T {
	return t.drain(func(i int) T { return t.acc[i] })
}
