package engine

import (
	"math"
	"reflect"
	"strings"
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

// hashesAgree asserts that every way one key can reach the hash returns the
// same bits: hashOf by value, keyHasher in place, the compiled hasher on its
// own — and all three again with the key boxed, so an IR program over []any
// places its rows where its typed twin does.
func hashesAgree[K comparable](t *testing.T, keys ...K) {
	t.Helper()
	compiled, inPlace, boxedInPlace := stableHasherFor(reflect.TypeFor[K]()), keyHasher[K](), keyHasher[any]()
	for _, k := range keys {
		boxed := any(k)
		want := compiled(unsafe.Pointer(&k), stableSeed)
		inPair := mix64(want, 7) // a struct hasher visits fields in order
		for _, c := range []struct {
			how       string
			got, want uint64
		}{
			{"hashOf", hashOf(k), want},
			{"keyHasher", inPlace(&k), want},
			{"hashOf, boxed", hashOf(boxed), want},
			{"keyHasher, boxed", boxedInPlace(&boxed), want},
			{"compiled hasher of any", stableHasherFor(typAny)(unsafe.Pointer(&boxed), stableSeed), want},
			{"hashOf, in a Pair", hashOf(Pair[K, int]{k, 7}), inPair},
			{"hashOf, boxed in a Pair", hashOf(Pair[any, int]{boxed, 7}), inPair},
			{"hashOf, boxed in a boxed Pair", hashOf(any(Pair[any, int]{boxed, 7})), inPair},
		} {
			if c.got != c.want {
				t.Errorf("%T %v: %s = %#x, want %#x", k, k, c.how, c.got, c.want)
			}
		}
	}
}

// stableHasherFor is t's placement fold as a function.
func stableHasherFor(t reflect.Type) func(unsafe.Pointer, uint64) uint64 {
	s := mustShape(t)
	return func(p unsafe.Pointer, h uint64) uint64 { return stable(s, p, h) }
}

func TestStableHashersAgree(t *testing.T) {
	// The four monomorphic shapes.
	hashesAgree(t, 0, -1, 12345, math.MinInt)
	hashesAgree(t, int64(-7), int64(1)<<40)
	hashesAgree(t, uint64(99), uint64(math.MaxUint64))
	hashesAgree(t, "", "a", "exactly8", "a moderately sized key string")
	// Shapes that had a monomorphic case until nothing was found hashing
	// them: compiled now, from both sides, to the bits they always had.
	hashesAgree(t, int32(-7), int32(math.MaxInt32))
	hashesAgree(t, uint32(99), uint32(math.MaxUint32))
	hashesAgree(t, uint(99), uint(math.MaxUint))
	hashesAgree(t, Pair[int, int]{1, -2})
	hashesAgree(t, Pair[int, int64]{1, -2})
	hashesAgree(t, Pair[int64, int]{1, -2})
	hashesAgree(t, Pair[int64, int64]{1, -2})
	hashesAgree(t, Pair[uint64, uint64]{1, math.MaxUint64})
	hashesAgree(t, Pair[string, string]{"ab", "cd"}, Pair[string, string]{"", "abcd"})
	hashesAgree(t, Pair[string, int]{"ab", 3})
	hashesAgree(t, Pair[int, string]{3, "ab"})
	// Compiled shapes: struct, array, string in a struct, floats.
	hashesAgree(t, structKey{}, structKey{T: [4]uint64{1, 2, 3, 4}, K: -5})
	hashesAgree(t, [3]int16{1, -2, 3})
	hashesAgree(t, struct {
		S string
		N int8
	}{"key", -1})
	hashesAgree(t, 0.0, math.Copysign(0, -1), 1.5, math.Inf(-1), math.NaN())
	hashesAgree(t, Pair[structKey, float64]{structKey{K: 9}, 2.5})
	// Boxed shapes: the key is an interface, or holds one.
	hashesAgree(t, any(int64(-7)), any("a boxed string"), any(nil), any(structKey{K: 3}), any(any(1.5)))
	hashesAgree(t, Pair[structKey, any]{structKey{K: 9}, "v"}, Pair[structKey, any]{structKey{K: 9}, nil})
	hashesAgree[error](t, nil, errKey("an interface with methods"))
	hashesAgree[emptyIface](t, nil, 7, "a named interface without methods")

	// Hashes that are written down somewhere: a RootTag in every golden is
	// HashKey of an int or a string.
	if got, want := hashOf(1), mix64(stableSeed, 1); got != want {
		t.Errorf("hashOf(1) = %#x, want %#x", got, want)
	}
	if got, want := hashOf("ab"), mix64(mix64(stableSeed, 2), 'a'|'b'<<8); got != want {
		t.Errorf(`hashOf("ab") = %#x, want %#x`, got, want)
	}
}

type emptyIface interface{}

type errKey string

func (e errKey) Error() string { return string(e) }

// TestEqualKeysHashEqual: +0 and -0 are one key to ==, to a map and so to
// every aggregate; they must be one key to the partitioner, or the group
// splits whenever two map-side combines saw different zeros first.
func TestEqualKeysHashEqual(t *testing.T) {
	negZero := math.Copysign(0, -1)
	if hashOf(0.0) != hashOf(negZero) || hashOf(float32(0)) != hashOf(float32(negZero)) ||
		hashOf(complex(0, negZero)) != hashOf(complex(negZero, 0)) ||
		hashOf(complex64(complex(0, negZero))) != hashOf(complex64(complex(negZero, 0))) ||
		hashOf(any(0.0)) != hashOf(any(negZero)) {
		t.Error("+0 and -0 hash apart")
	}
	if hashOf(0.0) == hashOf(1.0) || hashOf(1.5) != mix64(stableSeed, math.Float64bits(1.5)) {
		t.Error("non-zero floats no longer hash by their bits")
	}
	s := poolSession(2)
	defer s.Close()
	rows := []Pair[float64, int]{{0.0, 1}, {0.0, 1}, {negZero, 1}, {negZero, 1}}
	got, err := Collect(ReduceByKeyN(Parallelize(s, rows, 2), func(a, b int) int { return a + b }, 7))
	if err != nil || len(got) != 1 || got[0].Val != 4 {
		t.Fatalf("groups %v, %v; want one group of 4", got, err)
	}
}

// TestUnhashableKeysAreRefused: a key with no value to walk is refused by
// name — when the dep is built if the key type says so, out of the
// partitioner (where routing surfaces any partitioner's panic) if only a
// boxed key's dynamic type does. It is never placed by an address.
func TestUnhashableKeysAreRefused(t *testing.T) {
	type ptrKey struct {
		ID int
		P  *int
	}
	refused := func(what, typeName string, f func()) {
		t.Helper()
		defer func() {
			t.Helper()
			if msg, _ := recover().(string); !strings.Contains(msg, typeName) || !strings.Contains(msg, "cannot be hashed") {
				t.Errorf("%s: recovered %q, want a refusal naming %s", what, msg, typeName)
			}
		}()
		f()
	}
	refused("dep over a pointer-holding key", "engine.ptrKey", func() { pairShuffleDep[ptrKey, int](nil) })
	refused("Distinct over pointers", "*int", func() { elemShuffleDep[*int](nil) })
	refused("HashKey of a channel", "chan int", func() { HashKey(make(chan int)) })

	for _, workers := range []int{1, 4} {
		s := poolSession(workers)
		rows := make([]Pair[any, int], 200)
		for i := range rows {
			rows[i] = KV(any(i), i)
		}
		rows[77].Key = &rows[77].Val
		refused("routing a boxed pointer key", "*int", func() {
			d := pairShuffleDep[any, int](nil)
			d.childParts = 4
			s.route(&d, []Batch{batchOf(rows[:100], 100), batchOf(rows[100:], 100)})
		})
		// The pool is still there: a job over the same rows gets as far as
		// the same refusal, and one over the good rows completes.
		sum := func(a, b int) int { return a + b }
		refused("a job over a boxed pointer key", "*int", func() { Collect(ReduceByKey(Parallelize(s, rows, 4), sum)) })
		if got, err := Collect(ReduceByKey(Parallelize(s, rows[:77], 4), sum)); err != nil || len(got) != 77 {
			t.Errorf("workers=%d: job after the refusals returned %d groups, %v", workers, len(got), err)
		}
		s.Close()
	}
}

// paddedElem leaves padding after each field but the last.
type paddedElem struct {
	A uint8
	B uint64
	C int16
}

// pinnedHash asserts that k hashes to want by value (hashOf, HashKey) and
// in place (keyHasher, the router's).
func pinnedHash[K comparable](t *testing.T, name string, k K, want uint64) {
	t.Helper()
	if got := hashOf(k); got != want {
		t.Errorf("%s: hashOf = %#016x, want %#016x", name, got, want)
	}
	if got := keyHasher[K]()(&k); got != want {
		t.Errorf("%s: keyHasher = %#016x, want %#016x", name, got, want)
	}
}

// TestStableHashPinned: shuffle placement, and every simulated number
// downstream of it, is a function of these bits, recorded from the
// closure-tree hasher. Any rewrite of the hashers must leave them alone.
func TestStableHashPinned(t *testing.T) {
	negZero := math.Copysign(0, -1)
	type strAny struct {
		S string
		X any
		N int32
	}
	pinnedHash(t, "int8(-1)", int8(-1), 0xde0a564cbcd060c4)
	pinnedHash(t, "int8(-128)", int8(-128), 0xd97f1c2a834479ff)
	pinnedHash(t, "int16(-300)", int16(-300), 0x5f6a0543987fa04e)
	pinnedHash(t, "int32(-70000)", int32(-70000), 0xf18c26a2928440ef)
	pinnedHash(t, "true", true, 0xe4d971771b652c20)
	pinnedHash(t, "false", false, 0xe220a8397b1dcdaf)
	pinnedHash(t, "float32(-0)", float32(negZero), 0xe220a8397b1dcdaf)
	pinnedHash(t, "float32(NaN)", math.Float32frombits(0x7fc00001), 0xaaa45d9c08a66ecc)
	pinnedHash(t, "float64(-0)", negZero, 0xe220a8397b1dcdaf)
	pinnedHash(t, "float64(NaN)", math.Float64frombits(0x7ff8000000000001), 0xe602dfb0e3b8f1a5)
	pinnedHash(t, "complex64", complex64(complex(1.5, -2)), 0x41aaea698f70644e)
	pinnedHash(t, "complex128", complex(negZero, 3.25), 0x2608815441c2da32)
	pinnedHash(t, "[2]paddedElem", [2]paddedElem{{1, 2, -3}, {4, 5, -6}}, 0xa304fa6f5733eeb4)
	pinnedHash(t, "strAny", strAny{"key", int64(-7), -1}, 0xd85fe62314c1df92)
	pinnedHash(t, "strAny, nil", strAny{"", nil, 0}, 0x33fe8bd4f9c57863)
	pinnedHash(t, "strAny, boxed struct", strAny{"a longer key string", paddedElem{1, 2, 3}, 9}, 0xf32ca7e6cde40310)
	pinnedHash(t, "Tag", Tag{2, [3]uint64{17, 4, 0}}, 0xcc20f03751c662a9)
	pinnedHash(t, "Pair[Tag, int64]", Pair[Tag, int64]{Tag{1, [3]uint64{99}}, -5}, 0xb7f275c5eb264b35)
	pinnedHash(t, "Pair[Tag, string]", Pair[Tag, string]{Tag{3, [3]uint64{1, 2, 3}}, "ab"}, 0xe985621acb091391)
}
