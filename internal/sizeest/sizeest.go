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
// resolves a type's layout once and reuses it. A type whose values all
// have one deep size is a cached constant (fixedDeep). A struct whose
// fields are of such types or of type any, nested structs included, is a
// cached plan: the constant part plus the offsets of its any fields, read
// in place. Everything else is walked by reflection. All three give the
// numbers of the one reflective walk, bit for bit.
package sizeest

import (
	"reflect"
	"sync"
	"unsafe"
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
// as any. It is the common case in the engine, where partitions hold []any.
//
// Partitions hold few types (almost always one row type, and a pair's key
// and value types), so the loop resolves a type's layout once and keeps
// the last few: a constant for fixed-size types, a plan for structs of
// fixed and any fields (the boxed engine's pairs), and the reflective walk
// for the rest. Strings add their header plus length. The shared-pointer
// table is allocated lazily, for the first value the walk has to take, so
// the estimate is bit-identical to the fully reflective loop.
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
	Data() any
}

// OfBatch estimates the total deep size of a batch as if it were the
// equivalent boxed []any partition: OfEvery with step 1 and the batch's
// own boxed capacity.
func OfBatch(b Batch) int64 {
	return OfEvery(b, 1, b.BoxedCap())
}

// OfEvery is OfBatch of the sample of b made of every step-th element from
// the first, under boxed capacity bcap, taken where the elements lie: no
// sample is built. Typed batches are costed with one type inspection:
// fixed-size element types multiply a precomputed constant, strings sum
// header+length, planned structs read their any fields in place, and only
// the remaining types walk elements by reflection, sharing one lazily
// allocated pointer table across the sample as OfSlice does. Boxed batches
// take OfSlice's loop.
func OfEvery(b Batch, step, bcap int) int64 {
	total := sliceHeaderSize + int64(bcap)*ifaceSize
	data := b.Data()
	if xs, ok := data.([]any); ok {
		return total + ofBoxed(xs, step)
	}
	n := b.Len()
	count := int64((n + step - 1) / step)
	switch xs := data.(type) {
	case []int, []int64, []uint64, []float64:
		return total + count*8
	case []string:
		for i := 0; i < n; i += step {
			total += stringHeader + int64(len(xs[i]))
		}
		return total
	}
	rv := reflect.ValueOf(data)
	t := rv.Type().Elem()
	if sz := fixedDeep(t); sz >= 0 {
		return total + count*sz
	}
	var w walk
	switch t.Kind() {
	case reflect.String:
		for i := 0; i < n; i += step {
			total += stringHeader + int64(rv.Index(i).Len())
		}
	case reflect.Interface:
		// A boxed loop unwraps the interface before walking (its header
		// is part of the bcap·ifaceSize term) and skips nils.
		for i := 0; i < n; i += step {
			if x := rv.Index(i).Interface(); x != nil {
				total += w.boxed(&x)
			}
		}
	default:
		if p := planFor(t); p != nil {
			base, size := rv.UnsafePointer(), t.Size()
			for i := 0; i < n; i += step {
				total += w.planned(p, unsafe.Add(base, uintptr(i)*size))
			}
			break
		}
		for i := 0; i < n; i += step {
			total += of(rv.Index(i), w.table())
		}
	}
	return total
}

// FixedSize returns the deep size every value of t has, or ok=false when
// the size depends on the value (strings, slices, maps, pointers,
// interfaces), which OfBatch has to walk. A fixed deep size therefore also
// means the type holds no pointer of any kind; the engine's shuffle router
// relies on that to lay such shapes over memory the collector does not
// scan. A composite type is walked once and its size cached, so a caller
// costing a batch per partition pays a lookup, not a reflective walk.
func FixedSize(t reflect.Type) (size int64, ok bool) {
	size = fixedDeep(t)
	return size, size >= 0
}

// OfFixed is OfBatch for count elements of the fixed deep size size (see
// FixedSize) under boxed capacity bcap: a product that looks at no element,
// so a caller that samples a partition need not build the sample.
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
	seen    map[uintptr]struct{}
	layouts [4]layout
	next    int // the slot the next layout resolved replaces
}

// A layout is how values of one type are sized: by a constant, as a
// string, by a plan, or, with none of these, by the reflective walk.
type layout struct {
	typ   unsafe.Pointer // the type word of the type's boxed values
	fixed int64          // deep size of every value, or -1
	str   bool           // the type is of string kind
	plan  *plan          // the type's plan, or nil
}

// layout returns the layout of the type of the non-nil value at x. The
// lookup compares type words: comparing reflect.Type values costs a
// runtime call each.
func (w *walk) layout(x *any) *layout {
	typ := (*[2]unsafe.Pointer)(unsafe.Pointer(x))[0]
	for i := range w.layouts {
		if w.layouts[i].typ == typ {
			return &w.layouts[i]
		}
	}
	t := reflect.TypeOf(*x)
	l := &w.layouts[w.next]
	w.next = (w.next + 1) % len(w.layouts)
	*l = layout{typ: typ, fixed: fixedDeep(t), str: t.Kind() == reflect.String}
	if l.fixed < 0 {
		l.plan = planFor(t)
	}
	return l
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
	l := w.layout(x)
	switch {
	case l.fixed >= 0:
		return l.fixed
	case l.str:
		return stringHeader + int64(len(*(*string)(dataWord(x))))
	case l.plan != nil:
		return w.planned(l.plan, dataWord(x))
	}
	return of(reflect.ValueOf(*x), w.table())
}

// planned is of() of the struct planned by p at base: the fixed part plus,
// for each any field, its header and the deep size of the value it holds.
func (w *walk) planned(p *plan, base unsafe.Pointer) int64 {
	total := p.size
	for _, off := range p.leaves {
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

// A plan is the compiled layout of a struct type whose fields, nested
// structs' included, are each of a fixed deep size or of type any: no
// pointer, slice, map or string field, no interface with methods and no
// array of any. Of a struct, of() sums its fields in order; a plan sums the
// fixed ones once, here, and keeps the any fields' offsets in that order,
// so the values they hold are sized — and meet the shared-pointer table —
// in the order the walk would meet them.
type plan struct {
	size   int64     // deep size of the fixed fields, summed
	leaves []uintptr // offsets of the any fields, depth first in field order
}

// plans caches planFor: reflect.Type -> *plan, nil for a type without one.
var plans sync.Map

// planFor returns the plan of type t, or nil when t has none.
func planFor(t reflect.Type) *plan {
	if t.Kind() != reflect.Struct {
		return nil
	}
	if p, ok := plans.Load(t); ok {
		return p.(*plan)
	}
	p := &plan{}
	if !p.add(t, 0) {
		p = nil
	}
	plans.Store(t, p)
	return p
}

// add appends struct type t's fields, laid out from offset off, to p and
// reports whether every one of them fits a plan.
func (p *plan) add(t reflect.Type, off uintptr) bool {
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		switch sz := fixedDeep(f.Type); {
		case sz >= 0:
			p.size += sz
		case f.Type.Kind() == reflect.Interface && f.Type.NumMethod() == 0:
			p.leaves = append(p.leaves, off+f.Offset)
		case f.Type.Kind() == reflect.Struct:
			if !p.add(f.Type, off+f.Offset) {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// fixedSizes caches fixedDeep of composite types: reflect.Type -> int64.
var fixedSizes sync.Map

// fixedDeep returns the deep size shared by all values of type t, or -1
// when it is value-dependent or the walk could consult the shared-pointer
// table. It mirrors of() exactly on its domain: scalar kinds use the
// estimator's kind sizes (not t.Size()), structs sum field deep sizes
// with no padding, and fixed-element arrays charge len times the element's
// laid-out size, as of()'s array fast path does.
func fixedDeep(t reflect.Type) int64 {
	switch t.Kind() {
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
	case reflect.Array, reflect.Struct:
		if sz, ok := fixedSizes.Load(t); ok {
			return sz.(int64)
		}
		sz := fixedComposite(t)
		fixedSizes.Store(t, sz)
		return sz
	}
	return -1
}

// fixedComposite is fixedDeep's walk of an array or struct type.
func fixedComposite(t reflect.Type) int64 {
	if t.Kind() == reflect.Array {
		if fixedDeep(t.Elem()) >= 0 {
			return int64(t.Len()) * int64(t.Elem().Size())
		}
		return -1
	}
	var total int64
	for i := 0; i < t.NumField(); i++ {
		fs := fixedDeep(t.Field(i).Type)
		if fs < 0 {
			return -1
		}
		total += fs
	}
	return total
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
		if fixedDeep(elem) >= 0 {
			return total + int64(v.Cap())*int64(elem.Size())
		}
		for i := 0; i < v.Len(); i++ {
			total += of(v.Index(i), seen)
		}
		return total
	case reflect.Array:
		elem := v.Type().Elem()
		if fixedDeep(elem) >= 0 {
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
