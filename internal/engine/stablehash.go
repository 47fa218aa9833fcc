package engine

// Deterministic key hashing: the one function that places a shuffled row
// and names a lifted group (HashKey). Go's own hashes (hash/maphash, map
// internals) are randomized per process on purpose; if placement used
// them, the records each partition receives — and with them task
// durations, shuffle volumes, and OOM boundaries — would change from one
// invocation of the same program to the next. The simulation's contract is
// stronger: identical inputs produce bit-identical virtual results across
// processes, so experiment tables are exactly regenerable and a fixed-seed
// chaos run fails in exactly the same place every time.
//
// compileStableHasher builds, once per key type, a hash function that
// walks the value's concrete representation (integers, floats, strings,
// arrays, struct fields at their offsets — skipping padding) and mixes it
// with splitmix64 from one fixed seed. A boxed key (any, or an interface
// field of a struct key) hashes as the value it holds, through the hasher
// of its dynamic type, so an IR program over []any places its rows where
// its typed twin does. What has no value to walk — pointers, channels,
// funcs, maps, slices: identity, or not comparable at all — is refused by
// name (mustHasher): when the dep is built if the key type says so, as a
// panic out of the partitioner if only a boxed key's dynamic type does.
// There is no fallback that would place such a key differently in every
// process.
//
// Two switches sit in front of the compiled hashers, for the key types
// that carry the traffic (measured: EXPERIMENTS.md, "Key hashing: one
// path"): hashOf dispatches per call and takes the key by value, because a
// key handed by pointer to an indirect call escapes to the heap — it backs
// HashKey inside Map closures; keyHasher resolves once per shuffle dep to a
// closure that reads the key where it lies in its batch. Both list int,
// int64, uint64, string and any, replay exactly the fold the compiled
// hasher performs, and send every other type to the compiled hasher — same
// bits, asserted by TestStableHashersAgree.

import (
	"fmt"
	"math"
	"reflect"
	"sync"
	"unsafe"
)

// hashFn folds the value at p into h.
type hashFn func(p unsafe.Pointer, h uint64) uint64

// stableSeed is the fixed initial state: two sessions, in one process or in
// two, place elements identically.
const stableSeed uint64 = 0x9e3779b97f4a7c15

var stableHashers sync.Map // reflect.Type -> hashFn (nil func when refused)

// stableHasherFor returns the compiled hasher for t, or nil if t (or a
// nested field) has no representation to walk.
func stableHasherFor(t reflect.Type) hashFn {
	if fn, ok := stableHashers.Load(t); ok {
		return fn.(hashFn)
	}
	fn := compileStableHasher(t)
	stableHashers.Store(t, fn)
	return fn
}

// mustHasher is stableHasherFor for a type about to be used as a key.
func mustHasher(t reflect.Type) hashFn {
	fn := stableHasherFor(t)
	if fn == nil {
		panic(fmt.Sprintf("engine: key type %v cannot be hashed reproducibly: it holds a pointer, channel, func, map or slice", t))
	}
	return fn
}

var (
	typInt    = reflect.TypeFor[int]()
	typInt64  = reflect.TypeFor[int64]()
	typUint64 = reflect.TypeFor[uint64]()
	typString = reflect.TypeFor[string]()
	typAny    = reflect.TypeFor[any]()
)

// hashOf hashes a key by value (no interface boxing of a typed key —
// converting it to any would allocate).
func hashOf[K comparable](k K) uint64 {
	switch reflect.TypeFor[K]() {
	case typInt:
		return mix64(stableSeed, uint64(*(*int)(unsafe.Pointer(&k))))
	case typInt64:
		return mix64(stableSeed, uint64(*(*int64)(unsafe.Pointer(&k))))
	case typUint64:
		return mix64(stableSeed, *(*uint64)(unsafe.Pointer(&k)))
	case typString:
		return hashString(*(*string)(unsafe.Pointer(&k)), stableSeed)
	case typAny:
		return hashBoxed(*(*any)(unsafe.Pointer(&k)), stableSeed)
	}
	fn := mustHasher(reflect.TypeFor[K]())
	// The copy keeps k itself off the heap: &kk escapes into the indirect
	// hasher call, but only here, so the cases above stay allocation-free.
	kk := k
	return fn(unsafe.Pointer(&kk), stableSeed)
}

// HashKey is the hash shuffles place a key by. The lowering phase derives
// group tags from it, so tagging inner elements is a narrow map rather
// than a shuffle partitioned by the (possibly skewed) grouping key.
func HashKey[K comparable](k K) uint64 { return hashOf(k) }

// keyHasher returns hashOf for keys read in place: a closure resolved once,
// when a shuffle dep is built, so the router's counting pass hashes whole
// batches without per-element type dispatch and a composite key is walked
// where it lies. It refuses a K that cannot be hashed.
func keyHasher[K comparable]() func(*K) uint64 {
	switch reflect.TypeFor[K]() {
	case typInt:
		return func(k *K) uint64 { return mix64(stableSeed, uint64(*(*int)(unsafe.Pointer(k)))) }
	case typInt64:
		return func(k *K) uint64 { return mix64(stableSeed, uint64(*(*int64)(unsafe.Pointer(k)))) }
	case typUint64:
		return func(k *K) uint64 { return mix64(stableSeed, *(*uint64)(unsafe.Pointer(k))) }
	case typString:
		return func(k *K) uint64 { return hashString(*(*string)(unsafe.Pointer(k)), stableSeed) }
	case typAny:
		return func(k *K) uint64 { return hashBoxed(*(*any)(unsafe.Pointer(k)), stableSeed) }
	}
	fn := mustHasher(reflect.TypeFor[K]())
	return func(k *K) uint64 { return fn(unsafe.Pointer(k), stableSeed) }
}

// hashBoxed folds the value e holds into h: what the hasher of e's dynamic
// type would fold, so boxing a key does not change its hash. Anything the
// compiled hashers accept is stored in an interface indirectly (only
// pointer-shaped types — pointers, channels, funcs, maps — are stored in
// the data word itself, and those are refused), so the data word is the
// address of the value and nothing is copied.
func hashBoxed(e any, h uint64) uint64 {
	switch v := e.(type) {
	case nil:
		return mix64(h, 0)
	case int:
		return mix64(h, uint64(v))
	case int64:
		return mix64(h, uint64(v))
	case uint64:
		return mix64(h, v)
	case string:
		return hashString(v, h)
	}
	fn := mustHasher(reflect.TypeOf(e))
	return fn((*[2]unsafe.Pointer)(unsafe.Pointer(&e))[1], h)
}

func mix64(h, v uint64) uint64 {
	h ^= v
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

func compileStableHasher(t reflect.Type) hashFn {
	switch t.Kind() {
	case reflect.Bool:
		return func(p unsafe.Pointer, h uint64) uint64 {
			var v uint64
			if *(*bool)(p) {
				v = 1
			}
			return mix64(h, v)
		}
	case reflect.Int8:
		return func(p unsafe.Pointer, h uint64) uint64 { return mix64(h, uint64(*(*int8)(p))) }
	case reflect.Int16:
		return func(p unsafe.Pointer, h uint64) uint64 { return mix64(h, uint64(*(*int16)(p))) }
	case reflect.Int32:
		return func(p unsafe.Pointer, h uint64) uint64 { return mix64(h, uint64(*(*int32)(p))) }
	case reflect.Int64:
		return func(p unsafe.Pointer, h uint64) uint64 { return mix64(h, uint64(*(*int64)(p))) }
	case reflect.Int:
		return func(p unsafe.Pointer, h uint64) uint64 { return mix64(h, uint64(*(*int)(p))) }
	case reflect.Uint8:
		return func(p unsafe.Pointer, h uint64) uint64 { return mix64(h, uint64(*(*uint8)(p))) }
	case reflect.Uint16:
		return func(p unsafe.Pointer, h uint64) uint64 { return mix64(h, uint64(*(*uint16)(p))) }
	case reflect.Uint32:
		return func(p unsafe.Pointer, h uint64) uint64 { return mix64(h, uint64(*(*uint32)(p))) }
	case reflect.Uint64:
		return func(p unsafe.Pointer, h uint64) uint64 { return mix64(h, *(*uint64)(p)) }
	case reflect.Uint:
		return func(p unsafe.Pointer, h uint64) uint64 { return mix64(h, uint64(*(*uint)(p))) }
	case reflect.Uintptr:
		return func(p unsafe.Pointer, h uint64) uint64 { return mix64(h, uint64(*(*uintptr)(p))) }
	case reflect.Float32:
		return func(p unsafe.Pointer, h uint64) uint64 { return mix64(h, bits32(*(*float32)(p))) }
	case reflect.Float64:
		return func(p unsafe.Pointer, h uint64) uint64 { return mix64(h, bits64(*(*float64)(p))) }
	case reflect.Complex64:
		return func(p unsafe.Pointer, h uint64) uint64 {
			c := *(*complex64)(p)
			return mix64(mix64(h, bits32(real(c))), bits32(imag(c)))
		}
	case reflect.Complex128:
		return func(p unsafe.Pointer, h uint64) uint64 {
			c := *(*complex128)(p)
			return mix64(mix64(h, bits64(real(c))), bits64(imag(c)))
		}
	case reflect.String:
		return func(p unsafe.Pointer, h uint64) uint64 { return hashString(*(*string)(p), h) }
	case reflect.Array:
		elem := compileStableHasher(t.Elem())
		if elem == nil {
			return nil
		}
		n, sz := t.Len(), t.Elem().Size()
		return func(p unsafe.Pointer, h uint64) uint64 {
			for i := 0; i < n; i++ {
				h = elem(unsafe.Add(p, uintptr(i)*sz), h)
			}
			return h
		}
	case reflect.Struct:
		type field struct {
			off uintptr
			fn  hashFn
		}
		fields := make([]field, 0, t.NumField())
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			fn := compileStableHasher(f.Type)
			if fn == nil {
				return nil
			}
			fields = append(fields, field{off: f.Offset, fn: fn})
		}
		return func(p unsafe.Pointer, h uint64) uint64 {
			for _, f := range fields {
				h = f.fn(unsafe.Add(p, f.off), h)
			}
			return h
		}
	case reflect.Interface:
		if t.NumMethod() == 0 {
			return func(p unsafe.Pointer, h uint64) uint64 { return hashBoxed(*(*any)(p), h) }
		}
		// An interface with methods has an itab where any has the type;
		// reflect converts between the two without copying the value.
		return func(p unsafe.Pointer, h uint64) uint64 {
			return hashBoxed(reflect.NewAt(t, p).Elem().Interface(), h)
		}
	default:
		// Pointers, channels: identity. Funcs, maps, slices: not comparable.
		return nil
	}
}

// bits64 and bits32 are Float64bits and Float32bits with -0 read as +0: the
// two zeros compare equal, so as keys they are one group and must hash as
// one. (Every NaN is its own group; its bits may hash as they are.)
func bits64(f float64) uint64 {
	if f == 0 {
		return 0
	}
	return math.Float64bits(f)
}

func bits32(f float32) uint64 {
	if f == 0 {
		return 0
	}
	return uint64(math.Float32bits(f))
}

// hashString folds a string 8 bytes at a time (length first, so "a"+"b"
// and "ab"+"" in adjacent struct fields do not collide trivially).
func hashString(s string, h uint64) uint64 {
	h = mix64(h, uint64(len(s)))
	for len(s) >= 8 {
		h = mix64(h, uint64(s[0])|uint64(s[1])<<8|uint64(s[2])<<16|uint64(s[3])<<24|
			uint64(s[4])<<32|uint64(s[5])<<40|uint64(s[6])<<48|uint64(s[7])<<56)
		s = s[8:]
	}
	if len(s) > 0 {
		var v uint64
		for i := 0; i < len(s); i++ {
			v |= uint64(s[i]) << (8 * i)
		}
		h = mix64(h, v)
	}
	return h
}
