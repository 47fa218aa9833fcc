package engine

// Batch is the partition representation carried across the data path: one
// typed, monomorphic vector per partition. The rule every path relies on: a
// non-empty partition of a Dataset[T] is always a *Vec[T], and an empty one
// may be any empty batch (zeroBatch, a nil shuffle block). A program the ir
// front end lowers boxed has Dataset[any]s, so theirs are *Vec[any] under the
// same rule.
// Operators build batches with batchOf and read them with elems; between
// operators the engine moves them opaquely (routing, flattening, caching,
// memoization, serialization) and never converts one shape into another.
//
// Simulated-cluster accounting must stay bit-identical to the boxed
// representation it replaced, so a batch carries BoxedCap — the capacity
// the equivalent []any partition would have had — and every size estimate
// charges that instead of the host slice's real capacity. Host-side
// layout is free to change; the observable numbers are not.

import (
	"fmt"
	"math"
	"reflect"
	"regexp"
	"sync"
	"unsafe"

	"matryoshka/internal/layout"
)

// Batch is one partition of elements. Its one implementation is *Vec[T]
// for the dataset's element type T (*Vec[any] for the ir front end's
// boxed datasets).
type Batch interface {
	// Len returns the number of elements.
	Len() int
	// BoxedCap returns the capacity of the equivalent boxed []any
	// partition — the number simulated size estimation charges.
	BoxedCap() int
	// Rows returns the element type and the address of the first element
	// (nil for a batch with no backing array): the elements where they
	// lie, for the size estimator and the codec to walk by the type's
	// layout without boxing the slice. Callers must not mutate them.
	Rows() (reflect.Type, unsafe.Pointer)
	// Shape names the element type for observability ("int",
	// "Pair[int,int64]", "any").
	Shape() string

	// newLike allocates a same-shaped batch of n zero elements with the
	// given boxed capacity (the broadcast flatten's pre-sized output).
	newLike(n, bcap int) Batch
	// newBlocks allocates the shuffle router's pre-sized blocks in this
	// shape: blocks[t] gets lens[t] elements and boxed capacity
	// blockCap(lens[t]), and stays nil where lens[t] is 0. A shape without
	// pointers is cut, in target order, out of arenas taken from the free
	// list — every slot is about to be overwritten, so what an arena held
	// before does not matter — and the arenas are returned for the caller to
	// put back once the blocks are dead. Shapes the collector has to scan,
	// and a nil list, allocate each block on the heap and return nothing.
	newBlocks(lens []int32, blocks []Batch, from *arenaList) [][]uint64
	// copyFrom copies src, a batch of the same shape, into this batch
	// starting at off (broadcast flatten).
	copyFrom(off int, src Batch)
	// scatter distributes this batch's elements into same-shaped blocks:
	// element i goes to blocks[tg[i]] at off[tg[i]], which is then
	// incremented.
	scatter(tg, off []int32, blocks []Batch)
}

// Vec is the monomorphic Batch implementation: a plain typed slice plus
// the boxed-equivalent capacity the simulator observes.
type Vec[T any] struct {
	xs   []T
	bcap int
}

func (v *Vec[T]) Len() int      { return len(v.xs) }
func (v *Vec[T]) BoxedCap() int { return v.bcap }
func (v *Vec[T]) Rows() (reflect.Type, unsafe.Pointer) {
	return reflect.TypeFor[T](), unsafe.Pointer(unsafe.SliceData(v.xs))
}

func (v *Vec[T]) Shape() string { return shapeName(reflect.TypeFor[T]()) }

func (v *Vec[T]) newLike(n, bcap int) Batch {
	return &Vec[T]{xs: make([]T, n), bcap: bcap}
}

func (v *Vec[T]) newBlocks(lens []int32, blocks []Batch, from *arenaList) [][]uint64 {
	size := int(reflect.TypeFor[T]().Size())
	// A shape of one fixed deep size is one without pointers, strings,
	// slices, maps or interfaces: exactly what may live in memory the
	// collector does not scan. One lookup a shuffle, not one a batch.
	if from == nil || size == 0 || layout.Of(reflect.TypeFor[T]()).Deep < 0 {
		for t, n := range lens {
			if n > 0 {
				blocks[t] = &Vec[T]{xs: make([]T, n), bcap: blockCap(int(n))}
			}
		}
		return nil
	}
	rest, nb := 0, 0 // elements not yet given a block; blocks there will be
	for _, n := range lens {
		if n > 0 {
			rest += int(n)
			nb++
		}
	}
	// What the list cannot supply is allocated √nb blocks at a time. One
	// piece for the whole shuffle is an allocation the page heap must find
	// fresh address space for (an 11 MB arena per session put 21 MB on
	// kmeans_lifted's HeapSys and 20 % on its peak RSS); one piece per block
	// leaves no slack to share when the next shuffle's blocks come out a
	// little larger.
	per := int(math.Ceil(math.Sqrt(float64(nb))))
	var arenas [][]uint64
	var slab []T // what is left of the arena being cut
	for t, n := range lens {
		if n == 0 {
			continue
		}
		if len(slab) < int(n) {
			fresh := 0
			for u, k := t, 0; u < len(lens) && k < per; u++ {
				if lens[u] > 0 {
					fresh += int(lens[u])
					k++
				}
			}
			a := from.take(wordsFor(int(n)*size), wordsFor(rest*size), wordsFor(fresh*size))
			arenas = append(arenas, a)
			slab = carve[T](a)
		}
		blocks[t] = &Vec[T]{xs: slab[:n:n], bcap: blockCap(int(n))}
		slab = slab[n:]
		rest -= int(n)
	}
	return arenas
}

// carve lays a pointer-free, non-empty element type over an arena: as many
// T as its words hold. It is the only place an arena's words are viewed as
// anything else. A []uint64 is allocated unscanned and aligned for any such
// T, elements packed from its start are aligned because a type's size is a
// multiple of its alignment, and the slice ends inside the arena, which is
// what -race's checkptr verifies.
func carve[T any](arena []uint64) []T {
	var zero T
	return unsafe.Slice((*T)(unsafe.Pointer(unsafe.SliceData(arena))), len(arena)*8/int(unsafe.Sizeof(zero)))
}

func (v *Vec[T]) copyFrom(off int, src Batch) { copy(v.xs[off:], src.(*Vec[T]).xs) }

func (v *Vec[T]) scatter(tg, off []int32, blocks []Batch) {
	// The write loop caches the last target's slice: shuffle targets are
	// bursty (runs of equal keys), so most iterations skip the type
	// assertion entirely.
	last := int32(-1)
	var dst []T
	for i, t := range tg {
		if t != last {
			dst = blocks[t].(*Vec[T]).xs
			last = t
		}
		dst[off[t]] = v.xs[i]
		off[t]++
	}
}

// zeroBatch is the shared empty partition: narrow reads of absent parents
// and nil shuffle blocks substitute it before compute runs.
var zeroBatch Batch = &Vec[any]{}

// batchOf wraps a typed slice as a Batch with the given boxed-equivalent
// capacity. The element type is registered with the codec once, where its
// Dataset is made (fromNode), not on every batch.
func batchOf[T any](xs []T, bcap int) Batch {
	return &Vec[T]{xs: xs, bcap: bcap}
}

// batchLen is Len on a possibly-nil batch (empty shuffle blocks stay nil).
func batchLen(b Batch) int {
	if b == nil {
		return 0
	}
	return b.Len()
}

// elems returns b's elements as []T: the backing slice of a *Vec[T],
// without copying — callers must not mutate it — and nil for an empty
// batch of any other shape. A non-empty batch of another shape breaks the
// one-shape rule and panics.
func elems[T any](b Batch) []T {
	if v, ok := b.(*Vec[T]); ok {
		return v.xs
	}
	if b.Len() > 0 {
		panic(fmt.Sprintf("engine: a %s partition read as %s", b.Shape(), shapeName(reflect.TypeFor[T]())))
	}
	return nil
}

var shapeNames sync.Map // reflect.Type -> string

// pkgQualifier matches package qualifiers in reflect type strings
// ("engine.", "matryoshka/internal/core.") so shape names read as bare
// type expressions.
var pkgQualifier = regexp.MustCompile(`[\w./\-]+\.`)

// shapeName renders an element type for EXPLAIN ANALYZE, stripping package
// qualifiers ("engine.Pair[int,int]" -> "Pair[int,int]").
func shapeName(t reflect.Type) string {
	if s, ok := shapeNames.Load(t); ok {
		return s.(string)
	}
	s := pkgQualifier.ReplaceAllString(t.String(), "")
	if t.Kind() == reflect.Interface && t.NumMethod() == 0 {
		s = "any"
	}
	shapeNames.Store(t, s)
	return s
}
