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

import (
	"hash/maphash"
	"math/bits"
	"reflect"
	"sync"
	"unsafe"

	"matryoshka/internal/layout"
)

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

// keyIndex is the reusable index under every per-partition keyed kernel
// (the folders' tables here; GroupByKey and the repartition join's build
// side in portable.go). It holds a partition's distinct keys densely in
// insertion order — a key's position is its index in keys, and the kernels
// keep their rows at the same positions — and an open-addressing table
// over them: a power-of-two slot array, probed linearly, each slot 0 or
// 1 + the position of the key homed there.
//
// It replaces a Go map, whose hash and equality walk a padded key such as
// Tag field by field (BENCHLOG.md, "One keyed index"). Its hash
// never leaves the process, so it need not be the stable one: a key of
// integers and bools folds its padding-masked words (foldWords,
// stablehash.go), one multiply each, and any other key — a float, a
// string, an interface inside — goes to hash/maphash, which hashes a boxed
// pointer instead of refusing it: refusing is the router's job. A slot
// is taken from a hash's high bits, the bits a multiply mixes best.
type keyIndex[K comparable] struct {
	keys  []K
	slots []int32
	shift uint          // 64 - log2(len(slots))
	words []layout.Word // K's words, if it is made of integers and bools
	seed  maphash.Seed
}

// minIndexSlots is the smallest slot array; a table never fills more than
// half of its slots.
const minIndexSlots = 8

func newKeyIndex[K comparable]() keyIndex[K] {
	var x keyIndex[K]
	if x.words = layout.Of(reflect.TypeFor[K]()).Words; x.words == nil {
		x.seed = maphash.MakeSeed()
	}
	return x
}

// hash is k's in-process hash.
func (x *keyIndex[K]) hash(k *K) uint64 {
	if x.words != nil {
		return foldWords(x.words, unsafe.Pointer(k))
	}
	return maphash.Comparable(x.seed, *k)
}

// len is the number of keys the index holds.
func (x *keyIndex[K]) len() int { return len(x.keys) }

// put returns k's position, adding k at the next one if it is new. The
// probe loop is written out here and in find: as a shared method it costs
// a call per row (BenchmarkCombine/bounce, +10 %).
func (x *keyIndex[K]) put(k K) (pos int32, added bool) {
	if 2*len(x.keys) >= len(x.slots) {
		x.grow()
	}
	mask := len(x.slots) - 1
	i := int(x.hash(&k) >> x.shift)
	for s := x.slots[i]; s != 0; s = x.slots[i] {
		if x.keys[s-1] == k {
			return s - 1, false
		}
		i = (i + 1) & mask
	}
	x.keys = append(x.keys, k)
	x.slots[i] = int32(len(x.keys))
	return int32(len(x.keys) - 1), true
}

// find returns k's position, or -1.
func (x *keyIndex[K]) find(k K) int32 {
	if len(x.keys) == 0 {
		return -1
	}
	mask := len(x.slots) - 1
	i := int(x.hash(&k) >> x.shift)
	for s := x.slots[i]; s != 0; s = x.slots[i] {
		if x.keys[s-1] == k {
			return s - 1
		}
		i = (i + 1) & mask
	}
	return -1
}

// grow doubles the slot array, inside its capacity when a larger
// partition left one, and homes every key again.
func (x *keyIndex[K]) grow() {
	x.setSlots(max(minIndexSlots, 2*len(x.slots)))
	mask := len(x.slots) - 1
	for pos := range x.keys {
		i := int(x.hash(&x.keys[pos]) >> x.shift)
		for x.slots[i] != 0 {
			i = (i + 1) & mask
		}
		x.slots[i] = int32(pos + 1)
	}
}

// setSlots makes the slot array n long (a power of two) and empty.
func (x *keyIndex[K]) setSlots(n int) {
	if cap(x.slots) >= n {
		x.slots = x.slots[:n]
		clear(x.slots)
	} else {
		x.slots = make([]int32, n)
	}
	x.shift = uint(64 - bits.TrailingZeros(uint(n)))
}

// reset empties the index for its next partition and zeroes the keys it
// held, so a pooled index pins none. Clearing costs the slot array this
// partition used; when that is more than twice what its keys needed (an
// earlier, larger partition grew it), the array is cut back to that need,
// so one giant partition costs the small ones after it a single clear,
// not one each. The capacity stays for a later grow.
func (x *keyIndex[K]) reset() {
	clear(x.slots)
	need := minIndexSlots
	for need < 2*len(x.keys) {
		need *= 2
	}
	if len(x.slots) > 2*need {
		x.setSlots(need)
	}
	clear(x.keys)
	x.keys = x.keys[:0]
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

// foldTable is the scratch pairTable and GroupByKey share: the index, and
// an accumulator holding each key's row at the key's position.
type foldTable[K comparable, E any] struct {
	keyIndex[K]
	acc []E
}

// drain returns a copy of the accumulator and empties the table.
func (t *foldTable[K, E]) drain() []E {
	t.reset()
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
	if i, added := t.put(kv.Key); !added {
		t.acc[i].Val = t.f(t.acc[i].Val, kv.Val)
		return
	}
	t.acc = append(t.acc, kv)
}

func (t *pairTable[K, V]) finish() []Pair[K, V] { return t.drain() }

// setTable keeps the first occurrence of every element: the index's keys,
// in insertion order, are the rows.
type setTable[T comparable] struct{ keyIndex[T] }

func newSetTables[T comparable]() *sync.Pool {
	return &sync.Pool{New: func() any { return &setTable[T]{newKeyIndex[T]()} }}
}

func (t *setTable[T]) add(e T) { t.put(e) }

// finish copies the keys out at exact size before reset zeroes them: reset
// sizes the next partition's slot array by how many keys this one held.
func (t *setTable[T]) finish() []T {
	out := make([]T, len(t.keys))
	copy(out, t.keys)
	t.reset()
	return out
}
