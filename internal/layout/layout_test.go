package layout

import (
	"reflect"
	"sync"
	"testing"
)

// TestOfConcurrentFirstCalls: goroutines that ask at once for a type no one
// has laid out yet all get the one *Layout the cache keeps.
func TestOfConcurrentFirstCalls(t *testing.T) {
	type fresh struct {
		A int32
		B any
		C [3]uint16
	}
	typ := reflect.TypeFor[fresh]()
	got := make([]*Layout, 8)
	var start, done sync.WaitGroup
	start.Add(1)
	for i := range got {
		done.Add(1)
		go func() {
			defer done.Done()
			start.Wait()
			got[i] = Of(typ)
		}()
	}
	start.Done()
	done.Wait()
	for i, l := range got {
		if l != got[0] || l != Of(typ) {
			t.Fatalf("caller %d got %p, caller 0 %p, a later call %p", i, l, got[0], Of(typ))
		}
	}
}

// TestOfTypeHoldingItselfThroughASlice: a type that holds a slice of itself
// is walked once, and whether it is plain data is decided by its other
// fields.
func TestOfTypeHoldingItselfThroughASlice(t *testing.T) {
	type tree struct {
		Kids []tree
		N    int
	}
	type badTree struct {
		Kids []badTree
		P    *int
	}
	if l := Of(reflect.TypeFor[tree]()); l.Opaque != nil || l.Hashable || l.Deep != -1 || len(l.Leaves) != 2 {
		t.Errorf("tree: Opaque %v, Hashable %v, Deep %d, %d leaves", l.Opaque, l.Hashable, l.Deep, len(l.Leaves))
	}
	for _, typ := range []reflect.Type{reflect.TypeFor[badTree](), reflect.TypeFor[[]badTree]()} {
		if o := Of(typ).Opaque; o == nil || o.Type != reflect.TypeFor[*int]() || o.Field != "" {
			t.Errorf("%v: Opaque = %+v, want the pointer field's type", typ, o)
		}
	}
}
