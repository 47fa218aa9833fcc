package engine

import (
	"math"
	"reflect"
	"testing"
	"unsafe"
)

// structKey is the shape of a lifted composite key: a wide tag plus the
// user's key. No monomorphic case covers it, so it hashes through the
// compiled hasher.
type structKey struct {
	T [4]uint64
	K int64
}

// hashesAgree asserts that the three spellings of one key's hash — hashOf's
// fast path or compiled fallback, the compiled reflection hasher on its
// own, and the router's construction-time batch hasher — return the same
// bits: which one a shuffle happens to run must be invisible to routing.
func hashesAgree[K comparable](t *testing.T, s *Session, keys ...K) {
	t.Helper()
	compiled := stableHasherFor(reflect.TypeFor[K]())
	batch, ok := stableBatchHasher[K]()
	if compiled == nil || !ok {
		t.Fatalf("%T: no stable hasher", keys[0])
	}
	for _, k := range keys {
		k := k
		want := compiled(unsafe.Pointer(&k), stableSeed)
		if got := hashOf(s, k); got != want {
			t.Errorf("%T %v: hashOf = %#x, compiled hasher = %#x", k, k, got, want)
		}
		if got := batch(&k); got != want {
			t.Errorf("%T %v: batch hasher = %#x, compiled hasher = %#x", k, k, got, want)
		}
	}
}

func TestStableHashersAgree(t *testing.T) {
	s := poolSession(1)
	defer s.Close()
	// The fifteen monomorphic shapes.
	hashesAgree(t, s, 0, -1, 12345, math.MinInt)
	hashesAgree(t, s, int64(-7), int64(1)<<40)
	hashesAgree(t, s, int32(-7), int32(math.MaxInt32))
	hashesAgree(t, s, uint64(99), uint64(math.MaxUint64))
	hashesAgree(t, s, uint32(99), uint32(math.MaxUint32))
	hashesAgree(t, s, uint(99), uint(math.MaxUint))
	hashesAgree(t, s, "", "a", "exactly8", "a moderately sized key string")
	hashesAgree(t, s, Pair[int, int]{1, -2})
	hashesAgree(t, s, Pair[int, int64]{1, -2})
	hashesAgree(t, s, Pair[int64, int]{1, -2})
	hashesAgree(t, s, Pair[int64, int64]{1, -2})
	hashesAgree(t, s, Pair[uint64, uint64]{1, math.MaxUint64})
	hashesAgree(t, s, Pair[string, string]{"ab", "cd"}, Pair[string, string]{"", "abcd"})
	hashesAgree(t, s, Pair[string, int]{"ab", 3})
	hashesAgree(t, s, Pair[int, string]{3, "ab"})
	// Compiled shapes: struct, array, string in a struct, floats.
	hashesAgree(t, s, structKey{}, structKey{T: [4]uint64{1, 2, 3, 4}, K: -5})
	hashesAgree(t, s, [3]int16{1, -2, 3})
	hashesAgree(t, s, struct {
		S string
		N int8
	}{"key", -1})
	hashesAgree(t, s, 0.0, math.Copysign(0, -1), 1.5, math.Inf(-1), math.NaN())
	hashesAgree(t, s, Pair[structKey, float64]{structKey{K: 9}, 2.5})
}
