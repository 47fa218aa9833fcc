// Package layout compiles, once per Go type, what the engine needs to know
// of how the type's values lie in memory: the one walk behind the
// placement hash and the keyed index (internal/engine, stablehash.go and
// fold.go), the size estimator's per-type constants and plans
// (internal/sizeest), and whether a value of the type is plain data, the
// one thing the batch codec carries, with the leaves the codec walks to
// write and read it (internal/engine, batchio.go).
//
// Of walks a type's fields in declaration order, arrays expanded, down to
// its leaves, and caches the Layout it builds. Every consumer reads the
// fields it needs; each field reproduces, bit for bit, what that consumer
// once compiled and cached for itself.
package layout

import (
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"
)

// A Leaf is one part of a type that is not an array or a struct, at offset
// Off from the start of the value and Size bytes wide: a bool, integer,
// float, string, slice, interface, pointer, channel, func, map or
// unsafe.Pointer. A complex number is two float leaves, its real and its
// imaginary part.
type Leaf struct {
	Off  uintptr
	Size uintptr
	Kind reflect.Kind
	// Type is the slice type, for a slice, and the interface type, for an
	// interface with methods; nil for any other leaf.
	Type reflect.Type

	// elem caches a slice leaf's element layout (see Elem).
	elem *atomic.Pointer[Layout]
}

// Elem returns the Layout of a slice leaf's element type. It is looked up
// on a leaf's first call and kept on the leaf, so a walk over many rows
// pays for the lookup once; not when the leaf is made, because a type that
// holds a slice of itself would have to be laid out before its own walk
// ends. Concurrent first calls store the same *Layout.
func (lf *Leaf) Elem() *Layout {
	if l := lf.elem.Load(); l != nil {
		return l
	}
	l := Of(lf.Type.Elem())
	lf.elem.Store(l)
	return l
}

// A Word is one aligned 64-bit word of a value, with the bits that belong
// to no integer or bool leaf (padding) masked off.
type Word struct {
	Off  uintptr
	Mask uint64
}

// An Opaque names the first part of a type, in walk order and slice
// elements included, that keeps its values from being plain data: an
// unexported struct field, or a leaf that is not a bool, a number, a
// string or a slice. A uintptr counts as an address, not a number.
type Opaque struct {
	Type  reflect.Type // the struct of the unexported field, or the leaf's type
	Field string       // the unexported field's name; "" for a leaf
}

// A Layout is what Of learns of a type.
type Layout struct {
	// Leaves are the type's leaves in declaration order.
	Leaves []Leaf
	// Hashable: the type holds no pointer, channel, func, map, slice or
	// unsafe.Pointer, so a value has a value to hash and no identity.
	Hashable bool
	// Words cover the leaves, for the engine's keyed index to fold a key a
	// word at a time. It is nil unless every leaf is an integer or a bool
	// and the type is a whole number of aligned words: a float (two zeros
	// compare equal, and a NaN equals nothing), a string or an interface
	// cannot be read that way exactly.
	Words []Word
	// Deep is the deep size every value of the type has, as sizeest
	// charges it, or -1 when it depends on the value. A struct charges the
	// sum of its fields' sizes, padding not counted; an array of
	// fixed-size elements charges its length times the element's laid-out
	// size, padding counted. A fixed deep size also means the type holds
	// no pointer of any kind.
	Deep int64
	// Fixed and Anys are the type's plan, if it has one (Fixed >= 0): a
	// value is sized as Fixed plus, for each offset in Anys, the interface
	// header there and the deep size of what it holds. A type of one fixed
	// deep size has a plan (Fixed is Deep, Anys is empty), and so do any
	// itself and a struct whose fields each have one, nested structs'
	// fields included. Anys lists the any fields depth first in field
	// order, the order sizeest's reflective walk meets them. Fixed is -1
	// for a type without a plan.
	Fixed int64
	Anys  []uintptr
	// Opaque is nil when the type is plain data: every field met down to
	// its leaves, through slices too, is exported, and every leaf is a
	// bool, a number, a string or a slice. Otherwise it names the first
	// part that is not.
	Opaque *Opaque
}

var layouts sync.Map // reflect.Type -> *Layout

// Of returns t's Layout. The first call for a type walks it; every
// caller, concurrent first callers included, gets the same *Layout.
func Of(t reflect.Type) *Layout {
	if l, ok := layouts.Load(t); ok {
		return l.(*Layout)
	}
	var leaves []Leaf
	l := walk(t, 0, &leaves, nil)
	l.Leaves = leaves
	l.Words = words(t, leaves)
	got, _ := layouts.LoadOrStore(t, &l)
	return got.(*Layout)
}

// walk appends the leaves of a t at offset off to *leaves and returns what
// it found of t itself, Leaves and Words unset. open lists the slice types
// whose elements are being walked: a type that holds itself through a
// slice is plain data as far as its values go.
func walk(t reflect.Type, off uintptr, leaves *[]Leaf, open []reflect.Type) Layout {
	l := Layout{Deep: -1, Fixed: -1, Hashable: true}
	switch k := t.Kind(); k {
	case reflect.Array:
		var elem []Leaf
		e := walk(t.Elem(), 0, &elem, open)
		for i := 0; i < t.Len(); i++ {
			for _, lf := range elem {
				lf.Off += off + uintptr(i)*t.Elem().Size()
				*leaves = append(*leaves, lf)
			}
		}
		l.Hashable, l.Opaque = e.Hashable, e.Opaque
		if e.Deep >= 0 {
			l.Deep = int64(t.Len()) * int64(t.Elem().Size())
		}
	case reflect.Struct:
		l.Deep, l.Fixed = 0, 0
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			fl := walk(f.Type, off+f.Offset, leaves, open)
			if l.Opaque == nil && !f.IsExported() {
				l.Opaque = &Opaque{Type: t, Field: f.Name}
			} else if l.Opaque == nil {
				l.Opaque = fl.Opaque
			}
			l.Hashable = l.Hashable && fl.Hashable
			l.Deep, l.Fixed = sum(l.Deep, fl.Deep), sum(l.Fixed, fl.Fixed)
			l.Anys = append(l.Anys, fl.Anys...)
		}
	case reflect.Complex64, reflect.Complex128:
		part, half := reflect.Float32, t.Size()/2
		if k == reflect.Complex128 {
			part = reflect.Float64
		}
		*leaves = append(*leaves, Leaf{Off: off, Size: half, Kind: part}, Leaf{Off: off + half, Size: half, Kind: part})
		l.Deep = int64(t.Size())
	default:
		lf := Leaf{Off: off, Size: t.Size(), Kind: k}
		switch {
		case k >= reflect.Bool && k <= reflect.Float64:
			// A scalar's size on the 64-bit platforms sizeest models.
			l.Deep = int64(t.Size())
		case k == reflect.Interface && t.NumMethod() > 0:
			lf.Type = t
		case k == reflect.Interface:
			l.Fixed, l.Anys = 0, []uintptr{off}
		case k == reflect.Chan, k == reflect.Func, k == reflect.Map, k == reflect.Pointer,
			k == reflect.Slice, k == reflect.UnsafePointer:
			// Pointers and channels have only an identity; funcs, maps
			// and slices are not comparable.
			l.Hashable = false
		}
		switch {
		case k == reflect.Slice:
			lf.Type, lf.elem = t, new(atomic.Pointer[Layout])
			if !slices.Contains(open, t) {
				l.Opaque = walk(t.Elem(), 0, new([]Leaf), append(open, t)).Opaque
			}
		case k != reflect.String && (k == reflect.Uintptr || l.Deep < 0):
			l.Opaque = &Opaque{Type: t}
		}
		*leaves = append(*leaves, lf)
	}
	if l.Deep >= 0 {
		l.Fixed = l.Deep
	}
	return l
}

// sum adds two sizes of which -1 means none.
func sum(a, b int64) int64 {
	if a < 0 || b < 0 {
		return -1
	}
	return a + b
}

// words returns the words that cover t's leaves, or nil when reading t a
// word at a time is not safe or not exact (see Layout.Words).
func words(t reflect.Type, leaves []Leaf) []Word {
	if t.Size() == 0 || t.Size()%8 != 0 || t.Align()%8 != 0 {
		return nil
	}
	masks := make([][8]byte, t.Size()/8)
	for _, l := range leaves {
		if l.Kind > reflect.Uintptr { // past the integers
			return nil
		}
		for b := l.Off; b < l.Off+l.Size; b++ {
			masks[b/8][b%8] = 0xff
		}
	}
	var ws []Word
	for i, m := range masks {
		if m != [8]byte{} {
			// The mask in memory order, read as the word is read.
			ws = append(ws, Word{Off: uintptr(i) * 8, Mask: *(*uint64)(unsafe.Pointer(&m))})
		}
	}
	return ws
}
