package sizeest_test

import (
	"fmt"
	"reflect"
	"testing"
	"unsafe"

	"matryoshka/internal/engine"
	"matryoshka/internal/layout"
	"matryoshka/internal/sizeest"
)

type hiddenField struct {
	ID   int64
	note int32
}

type withError struct {
	ID  int64
	Err error
}

// TestFixedDeepDomains: a type's fixed deep size (layout.Layout.Deep) is
// what sizeest's reflective walk charges its zero value, for every type
// whose values all have one size, and -1 for every other. The part that
// keeps a type from being plain data (Layout.Opaque) is the one the batch
// codec's own type walk refused before the layout package took that walk
// over: its verdicts are recorded here, and the codec builds them from
// Opaque in the words opaque renders (TestBatchCodecRejects pins the
// codec's own rendering of both kinds).
func TestFixedDeepDomains(t *testing.T) {
	for _, c := range []struct {
		typ       reflect.Type
		fixed     bool
		encodable string // "" when the codec carries the type
	}{
		{reflect.TypeFor[bool](), true, ""},
		{reflect.TypeFor[int16](), true, ""},
		{reflect.TypeFor[uint32](), true, ""},
		{reflect.TypeFor[float64](), true, ""},
		{reflect.TypeFor[complex64](), true, ""},
		{reflect.TypeFor[complex128](), true, ""},
		{reflect.TypeFor[[8]int](), true, ""},
		{reflect.TypeFor[struct{ A, B int }](), true, ""},
		{reflect.TypeFor[[2]struct {
			A int8
			B int64
		}](), true, ""},
		{reflect.TypeFor[struct{}](), true, ""},
		{reflect.TypeFor[[0]int64](), true, ""},
		{reflect.TypeFor[uintptr](), true, "unsupported element kind uintptr (uintptr)"},
		{reflect.TypeFor[unsafe.Pointer](), false, "unsupported element kind unsafe.Pointer (unsafe.Pointer)"},
		{reflect.TypeFor[hiddenField](), true, "unexported field sizeest_test.hiddenField.note"},
		{reflect.TypeFor[withError](), false, "unsupported element kind interface (error)"},
		{reflect.TypeFor[engine.Pair[engine.Tag, int64]](), true, ""},
		{reflect.TypeFor[string](), false, ""},
		{reflect.TypeFor[[]int64](), false, ""},
		{reflect.TypeFor[map[int]int](), false, "unsupported element kind map (map[int]int)"},
		{reflect.TypeFor[*int](), false, "unsupported element kind ptr (*int)"},
		{reflect.TypeFor[struct{ S string }](), false, ""},
		{reflect.TypeFor[[2]string](), false, ""},
	} {
		l := layout.Of(c.typ)
		if c.fixed && l.Deep != sizeest.OfZero(c.typ) {
			t.Errorf("%v: Deep = %d, the reflective walk of its zero value = %d", c.typ, l.Deep, sizeest.OfZero(c.typ))
		}
		if !c.fixed && l.Deep != -1 {
			t.Errorf("%v: Deep = %d, want -1 for a value-dependent size", c.typ, l.Deep)
		}
		if got := opaque(l.Opaque); got != c.encodable {
			t.Errorf("%v: Opaque = %q, want %q", c.typ, got, c.encodable)
		}
	}
}

// opaque renders o as the batch codec words its refusal, after the prefix
// "engine: batch codec: "; "" for a plain type.
func opaque(o *layout.Opaque) string {
	switch {
	case o == nil:
		return ""
	case o.Field != "":
		return fmt.Sprintf("unexported field %s.%s", o.Type, o.Field)
	}
	return fmt.Sprintf("unsupported element kind %s (%s)", o.Type.Kind(), o.Type)
}
