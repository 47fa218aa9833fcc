// Package sizeest estimates the in-memory size of Go values.
//
// It plays the role of Spark's SizeEstimator in the paper (Sec. 8.3): the
// half-lifted mapWithClosure optimizer compares the estimated sizes of its
// two inputs to decide which side to broadcast, and the cluster simulator
// uses the same estimates for per-machine memory accounting.
//
// The estimate is a deep traversal of the object graph. Shared pointers are
// counted once. The numbers follow the layout of the gc runtime on 64-bit
// platforms closely enough for relative comparisons, which is all the
// optimizer needs.
//
// Like Spark's estimator, which caches a layout per class, the traversal
// reads a type's layout (internal/layout), compiled once per process. A
// type whose values all have one deep size costs its constant
// (Layout.Deep). A struct whose fields are of such types or of type any,
// nested structs included, costs its plan: the constant part plus the
// values its any fields hold, read in place (Layout.Fixed, Layout.Anys). Everything
// else is walked by reflection. All three give the numbers of the one
// reflective walk, bit for bit.
package sizeest

import (
	"reflect"
	"unsafe"

	"matryoshka/internal/layout"
)

const (
	wordSize        = int64(unsafe.Sizeof(uintptr(0)))
	sliceHeaderSize = 3 * wordSize
	stringHeader    = 2 * wordSize
	mapOverhead     = 48 // hmap struct, rough
	mapBucketCost   = 16 // per-entry overhead beyond key+value payload
	ifaceSize       = 2 * wordSize
)

// Of returns the estimated deep size in bytes of v.
func Of(v any) int64 {
	if v == nil {
		return ifaceSize
	}
	seen := map[uintptr]struct{}{}
	return ifaceSize + of(reflect.ValueOf(v), seen)
}

// OfSlice estimates the total deep size of a slice of values already boxed
// as any, as the engine's partitions were sized before they became typed
// batches. The engine now sizes batches with OfBatch and OfEvery (a
// *Vec[any] batch takes this same loop); OfSlice's one caller outside
// tests is the wall-clock benchmark, and the engine's tests use it as the
// reference for boxed partitions.
//
// A slice holds few types (almost always one row type, and a pair's key
// and value types), so the loop keeps the layouts of the last few: a
// constant for fixed-size types, a plan for structs of fixed and any
// fields, and the reflective walk for the rest. Strings add their header
// plus length. The shared-pointer table is allocated lazily, for the first
// value the walk has to take, so the estimate is bit-identical to the
// fully reflective loop.
func OfSlice(vs []any) int64 {
	return sliceHeaderSize + int64(cap(vs))*ifaceSize + ofBoxed(vs, 1)
}

// Batch is the engine's typed partition shape, seen structurally to avoid
// an import cycle: a typed backing slice plus the capacity the equivalent
// boxed []any would have had. OfBatch charges that boxed capacity — batch
// estimates must be bit-identical to the boxed partitions they replaced,
// because the simulated cluster observes them.
type Batch interface {
	Len() int
	BoxedCap() int
	Rows() (reflect.Type, unsafe.Pointer)
}

// OfBatch estimates the total deep size of a batch as if it were the
// equivalent boxed []any partition: OfEvery with step 1 and the batch's
// own boxed capacity.
func OfBatch(b Batch) int64 {
	return OfEvery(b, 1, b.BoxedCap())
}

// OfEvery is OfBatch of the sample of b made of every step-th element from
// the first, under boxed capacity bcap, taken where the elements lie: no
// sample is built, and nothing is boxed. Typed batches are costed by their
// element type's layout: fixed-size types multiply its constant, strings
// sum header+length, planned structs read their any fields in place, and
// only the remaining types walk elements by reflection, sharing one lazily
// allocated pointer table across the sample as OfSlice does. Boxed batches
// take OfSlice's loop.
func OfEvery(b Batch, step, bcap int) int64 {
	total := sliceHeaderSize + int64(bcap)*ifaceSize
	t, rows := b.Rows()
	n := b.Len()
	if t == reflect.TypeFor[any]() {
		return total + ofBoxed(unsafe.Slice((*any)(rows), n), step)
	}
	l := layout.Of(t)
	if l.Deep >= 0 {
		return total + int64((n+step-1)/step)*l.Deep
	}
	var w walk
	kind, size := t.Kind(), t.Size()
	for i := 0; i < n; i += step {
		row := unsafe.Add(rows, uintptr(i)*size)
		switch {
		case kind == reflect.String:
			total += stringHeader + int64(len(*(*string)(row)))
		case kind == reflect.Interface:
			// A boxed loop unwraps the interface before walking (its
			// header is part of the bcap·ifaceSize term) and skips nils.
			if x := reflect.NewAt(t, row).Elem().Interface(); x != nil {
				total += w.boxed(&x)
			}
		case l.Fixed >= 0:
			total += w.planned(l, row)
		default:
			total += of(reflect.NewAt(t, row).Elem(), w.table())
		}
	}
	return total
}

// OfFixed is OfBatch for count elements of the fixed deep size size (see
// layout.Layout.Deep) under boxed capacity bcap: a product that looks at
// no element, so a caller that samples a partition need not build the
// sample.
func OfFixed(size int64, count, bcap int) int64 {
	return sliceHeaderSize + int64(bcap)*ifaceSize + int64(count)*size
}

// ofBoxed sums the deep sizes of the values held by every step-th element
// of vs from the first, their interface headers excluded; nil elements
// add nothing.
func ofBoxed(vs []any, step int) int64 {
	var w walk
	var total int64
	for i := 0; i < len(vs); i += step {
		if vs[i] != nil {
			total += w.boxed(&vs[i])
		}
	}
	return total
}

// A walk is the state of one estimate: the shared-pointer table, allocated
// when the reflective walk first needs it, and the layouts of the last few
// types met. A partition's rows and their fields hold few types (a pair's
// row, key and value types), so nearly every value finds its layout here
// and pays neither a type inspection nor a cache lookup.
type walk struct {
	seen  map[uintptr]struct{}
	slots [4]slot
	next  int // the slot the next layout resolved replaces
}

// A slot holds the layout of one type met, by the type word of its boxed
// values.
type slot struct {
	typ unsafe.Pointer
	str bool // the type is of string kind
	*layout.Layout
}

// slotFor returns the slot of the type of the non-nil value at x. The
// lookup compares type words: comparing reflect.Type values costs a
// runtime call each.
func (w *walk) slotFor(x *any) *slot {
	typ := (*[2]unsafe.Pointer)(unsafe.Pointer(x))[0]
	for i := range w.slots {
		if w.slots[i].typ == typ {
			return &w.slots[i]
		}
	}
	t := reflect.TypeOf(*x)
	s := &w.slots[w.next]
	w.next = (w.next + 1) % len(w.slots)
	*s = slot{typ: typ, str: t.Kind() == reflect.String, Layout: layout.Of(t)}
	return s
}

// table returns the shared-pointer table, allocating it on first use.
func (w *walk) table() map[uintptr]struct{} {
	if w.seen == nil {
		w.seen = map[uintptr]struct{}{}
	}
	return w.seen
}

// boxed is of(reflect.ValueOf(*x), w.table()) for the non-nil value at x.
func (w *walk) boxed(x *any) int64 {
	s := w.slotFor(x)
	switch {
	case s.Deep >= 0:
		return s.Deep
	case s.str:
		return stringHeader + int64(len(*(*string)(dataWord(x))))
	case s.Fixed >= 0:
		return w.planned(s.Layout, dataWord(x))
	}
	return of(reflect.ValueOf(*x), w.table())
}

// planned is of() of the planned value laid out by l at base: the fixed
// part plus, for each any field, its header and the deep size of the value
// it holds. Of a struct, of() sums its fields in order; the plan sums the
// fixed ones once and meets the any fields in that order, so the values
// they hold meet the shared-pointer table in the order the walk would.
func (w *walk) planned(l *layout.Layout, base unsafe.Pointer) int64 {
	total := l.Fixed
	for _, off := range l.Anys {
		total += ifaceSize
		if x := (*any)(unsafe.Add(base, off)); *x != nil {
			total += w.boxed(x)
		}
	}
	return total
}

// dataWord returns the data word of the interface at x, the word after its
// type word. For the values this package reads through it — strings and
// planned structs, never pointer-shaped, so never stored in the word
// itself — it is the address of the value.
func dataWord(x *any) unsafe.Pointer {
	return (*[2]unsafe.Pointer)(unsafe.Pointer(x))[1]
}

func of(v reflect.Value, seen map[uintptr]struct{}) int64 {
	switch v.Kind() {
	case reflect.Bool, reflect.Int8, reflect.Uint8:
		return 1
	case reflect.Int16, reflect.Uint16:
		return 2
	case reflect.Int32, reflect.Uint32, reflect.Float32:
		return 4
	case reflect.Int64, reflect.Uint64, reflect.Float64, reflect.Complex64,
		reflect.Int, reflect.Uint, reflect.Uintptr:
		return 8
	case reflect.Complex128:
		return 16
	case reflect.String:
		return stringHeader + int64(v.Len())
	case reflect.Slice:
		if v.IsNil() {
			return sliceHeaderSize
		}
		if !markSeen(v.Pointer(), seen) {
			return sliceHeaderSize
		}
		elem := v.Type().Elem()
		total := sliceHeaderSize
		if fixed(elem) {
			return total + int64(v.Cap())*int64(elem.Size())
		}
		for i := 0; i < v.Len(); i++ {
			total += of(v.Index(i), seen)
		}
		return total
	case reflect.Array:
		elem := v.Type().Elem()
		if fixed(elem) {
			return int64(v.Len()) * int64(elem.Size())
		}
		var total int64
		for i := 0; i < v.Len(); i++ {
			total += of(v.Index(i), seen)
		}
		return total
	case reflect.Map:
		if v.IsNil() {
			return wordSize
		}
		if !markSeen(v.Pointer(), seen) {
			return wordSize
		}
		total := int64(mapOverhead)
		iter := v.MapRange()
		for iter.Next() {
			total += mapBucketCost + of(iter.Key(), seen) + of(iter.Value(), seen)
		}
		return total
	case reflect.Pointer:
		if v.IsNil() {
			return wordSize
		}
		if !markSeen(v.Pointer(), seen) {
			return wordSize
		}
		return wordSize + of(v.Elem(), seen)
	case reflect.Struct:
		var total int64
		for i := 0; i < v.NumField(); i++ {
			total += of(v.Field(i), seen)
		}
		return total
	case reflect.Interface:
		if v.IsNil() {
			return ifaceSize
		}
		return ifaceSize + of(v.Elem(), seen)
	case reflect.Chan, reflect.Func, reflect.UnsafePointer:
		return wordSize
	default:
		return wordSize
	}
}

// fixed reports whether every value of t has one deep size
// (layout.Layout.Deep >= 0). A scalar kind answers it alone, and no other
// kind but an array or a struct can, so only those two look up t's layout.
func fixed(t reflect.Type) bool {
	switch k := t.Kind(); {
	case k >= reflect.Bool && k <= reflect.Complex128:
		return true
	case k == reflect.Array || k == reflect.Struct:
		return layout.Of(t).Deep >= 0
	}
	return false
}

func markSeen(p uintptr, seen map[uintptr]struct{}) bool {
	if p == 0 {
		return false
	}
	if _, ok := seen[p]; ok {
		return false
	}
	seen[p] = struct{}{}
	return true
}
