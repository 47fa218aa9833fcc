// Package sizeest estimates the in-memory size of Go values.
//
// It plays the role of Spark's SizeEstimator in the paper (Sec. 8.3): the
// half-lifted mapWithClosure optimizer compares the estimated sizes of its
// two inputs to decide which side to broadcast, and the cluster simulator
// uses the same estimates for per-machine memory accounting.
//
// The estimate is a deep traversal of the object graph using reflection.
// Shared pointers are counted once. The numbers follow the layout of the
// gc runtime on 64-bit platforms closely enough for relative comparisons,
// which is all the optimizer needs.
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
// Partitions are almost always type-homogeneous, so the loop works in
// batch mode: one type inspection per run of same-typed elements. When the
// run's type has a value-independent deep size (pointer-free scalars and
// structs/arrays of those — every fixed-size key and pair the engine
// shuffles), each element adds a precomputed constant; strings add their
// header plus length monomorphically. Only elements outside those shapes
// fall back to the per-element reflective walk, and the shared-pointer
// table is allocated lazily for exactly those — fixed-size and string
// elements never consult it, so the estimate is bit-identical to the
// fully reflective loop.
func OfSlice(vs []any) int64 {
	return ofBoxedElems(vs, int64(cap(vs)))
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
// equivalent boxed []any partition. Typed batches are costed with one type
// inspection per batch: fixed-size element types multiply a precomputed
// constant, strings sum header+length monomorphically, and only
// value-dependent element types walk elements reflectively (sharing one
// lazily allocated pointer table across the batch, exactly as OfSlice
// does). The boxed fallback reuses OfSlice's loop verbatim.
func OfBatch(b Batch) int64 {
	data := b.Data()
	if xs, ok := data.([]any); ok {
		return ofBoxedElems(xs, int64(b.BoxedCap()))
	}
	total := sliceHeaderSize + int64(b.BoxedCap())*ifaceSize
	switch xs := data.(type) {
	case []int:
		return total + int64(len(xs))*8
	case []int64:
		return total + int64(len(xs))*8
	case []uint64:
		return total + int64(len(xs))*8
	case []float64:
		return total + int64(len(xs))*8
	case []string:
		for _, s := range xs {
			total += stringHeader + int64(len(s))
		}
		return total
	}
	rv := reflect.ValueOf(data)
	t := rv.Type().Elem()
	n := rv.Len()
	if sz := fixedDeep(t); sz >= 0 {
		return total + int64(n)*sz
	}
	if t.Kind() == reflect.String {
		for i := 0; i < n; i++ {
			total += stringHeader + int64(rv.Index(i).Len())
		}
		return total
	}
	var seen map[uintptr]struct{}
	for i := 0; i < n; i++ {
		v := rv.Index(i)
		if t.Kind() == reflect.Interface {
			// A boxed loop unwraps the interface before walking (its
			// header is part of the bcap·ifaceSize term) and skips nils.
			if v.IsNil() {
				continue
			}
			v = v.Elem()
		}
		if seen == nil {
			seen = map[uintptr]struct{}{}
		}
		total += of(v, seen)
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

// ofBoxedElems is OfSlice with the observed capacity passed explicitly, so
// batches can report their boxed-equivalent capacity instead of the host
// slice's.
func ofBoxedElems(vs []any, bcap int64) int64 {
	total := sliceHeaderSize + bcap*ifaceSize
	var (
		runT  reflect.Type
		runSz int64 // deep size of every value of runT, or -1 if value-dependent
		seen  map[uintptr]struct{}
	)
	for _, v := range vs {
		if v == nil {
			continue
		}
		t := reflect.TypeOf(v)
		if t != runT {
			runT = t
			runSz = fixedDeep(t)
		}
		switch {
		case runSz >= 0:
			total += runSz
		case t.Kind() == reflect.String:
			total += stringHeader + int64(len(v.(string)))
		default:
			if seen == nil {
				seen = map[uintptr]struct{}{}
			}
			total += of(reflect.ValueOf(v), seen)
		}
	}
	return total
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
		if isFixedSize(t.Elem()) {
			return int64(t.Len()) * fixedSize(t.Elem())
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
		if isFixedSize(elem) {
			return total + int64(v.Cap())*fixedSize(elem)
		}
		for i := 0; i < v.Len(); i++ {
			total += of(v.Index(i), seen)
		}
		return total
	case reflect.Array:
		elem := v.Type().Elem()
		if isFixedSize(elem) {
			return int64(v.Len()) * fixedSize(elem)
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

func isFixedSize(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32,
		reflect.Int64, reflect.Uint, reflect.Uint8, reflect.Uint16,
		reflect.Uint32, reflect.Uint64, reflect.Uintptr, reflect.Float32,
		reflect.Float64, reflect.Complex64, reflect.Complex128:
		return true
	case reflect.Array:
		return isFixedSize(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if !isFixedSize(t.Field(i).Type) {
				return false
			}
		}
		return true
	}
	return false
}

func fixedSize(t reflect.Type) int64 {
	return int64(t.Size())
}
