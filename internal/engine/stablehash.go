package engine

// Deterministic key hashing for shuffle partitioning. Go's runtime hash
// (hash/maphash, map internals) is randomized per process on purpose; if
// partitioners used it, the records each partition receives — and with
// them task durations, shuffle volumes, and OOM boundaries — would
// change from one invocation of the same program to the next. The
// simulation's contract is stronger: identical inputs produce
// bit-identical virtual results across processes, so experiment tables
// are exactly regenerable and a fixed-seed chaos run fails in exactly
// the same place every time.
//
// stableHasher compiles, once per key type, a hash function that walks
// the value's concrete representation (integers, floats, strings,
// arrays, struct fields at their offsets — skipping padding) and mixes
// it with splitmix64. Types it cannot walk deterministically (pointers,
// interfaces) fall back to the process-seeded maphash. One workload keys
// on such a type: bounce rate lowered through internal/ir shuffles on
// `any` keys, so the benchmark's bounce_ir_boxed places its records — and
// reports its sim_s — differently in every process (ROADMAP item 4).

import (
	"math"
	"reflect"
	"sync"
	"unsafe"
)

// hashFn folds the value at p into h.
type hashFn func(p unsafe.Pointer, h uint64) uint64

// stableSeed is the fixed initial state. One constant for every session
// keeps the A/B property of the old process-wide seed (two sessions in
// one process — or now in any process — place elements identically).
const stableSeed uint64 = 0x9e3779b97f4a7c15

var stableHashers sync.Map // reflect.Type -> hashFn (nil when unsupported)

// stableHasherFor returns the compiled hasher for t, or nil if t (or a
// nested field) cannot be hashed deterministically.
func stableHasherFor(t reflect.Type) hashFn {
	if fn, ok := stableHashers.Load(t); ok {
		if fn == nil {
			return nil
		}
		return fn.(hashFn)
	}
	fn := compileStableHasher(t)
	if fn == nil {
		stableHashers.Store(t, nil)
		return nil
	}
	stableHashers.Store(t, fn)
	return fn
}

// Monomorphic fast-path hashing: hashOf dispatches on the key type once
// (a dictionary-resolved reflect.TypeFor compare, no interface boxing —
// converting the key to any would allocate) and folds the value inline.
// Each case replays exactly the fold the compiled reflection hasher
// performs for that type — a struct hasher visits fields in order, so
// Pair[K, V] hashes as key then value — and a test asserts bit-equality
// against the compiled hashers. Keys outside the set report !ok and take
// the compiled path.
var (
	typInt            = reflect.TypeFor[int]()
	typInt64          = reflect.TypeFor[int64]()
	typInt32          = reflect.TypeFor[int32]()
	typUint64         = reflect.TypeFor[uint64]()
	typUint32         = reflect.TypeFor[uint32]()
	typUint           = reflect.TypeFor[uint]()
	typString         = reflect.TypeFor[string]()
	typPairIntInt     = reflect.TypeFor[Pair[int, int]]()
	typPairIntInt64   = reflect.TypeFor[Pair[int, int64]]()
	typPairInt64Int   = reflect.TypeFor[Pair[int64, int]]()
	typPairInt64Int64 = reflect.TypeFor[Pair[int64, int64]]()
	typPairU64U64     = reflect.TypeFor[Pair[uint64, uint64]]()
	typPairStrStr     = reflect.TypeFor[Pair[string, string]]()
	typPairStrInt     = reflect.TypeFor[Pair[string, int]]()
	typPairIntStr     = reflect.TypeFor[Pair[int, string]]()
)

func stableHashFast[K comparable](k K) (uint64, bool) {
	switch reflect.TypeFor[K]() {
	case typInt:
		return mix64(stableSeed, uint64(*(*int)(unsafe.Pointer(&k)))), true
	case typInt64:
		return mix64(stableSeed, uint64(*(*int64)(unsafe.Pointer(&k)))), true
	case typInt32:
		return mix64(stableSeed, uint64(*(*int32)(unsafe.Pointer(&k)))), true
	case typUint64:
		return mix64(stableSeed, *(*uint64)(unsafe.Pointer(&k))), true
	case typUint32:
		return mix64(stableSeed, uint64(*(*uint32)(unsafe.Pointer(&k)))), true
	case typUint:
		return mix64(stableSeed, uint64(*(*uint)(unsafe.Pointer(&k)))), true
	case typString:
		return hashString(*(*string)(unsafe.Pointer(&k)), stableSeed), true
	case typPairIntInt:
		v := *(*Pair[int, int])(unsafe.Pointer(&k))
		return mix64(mix64(stableSeed, uint64(v.Key)), uint64(v.Val)), true
	case typPairIntInt64:
		v := *(*Pair[int, int64])(unsafe.Pointer(&k))
		return mix64(mix64(stableSeed, uint64(v.Key)), uint64(v.Val)), true
	case typPairInt64Int:
		v := *(*Pair[int64, int])(unsafe.Pointer(&k))
		return mix64(mix64(stableSeed, uint64(v.Key)), uint64(v.Val)), true
	case typPairInt64Int64:
		v := *(*Pair[int64, int64])(unsafe.Pointer(&k))
		return mix64(mix64(stableSeed, uint64(v.Key)), uint64(v.Val)), true
	case typPairU64U64:
		v := *(*Pair[uint64, uint64])(unsafe.Pointer(&k))
		return mix64(mix64(stableSeed, v.Key), v.Val), true
	case typPairStrStr:
		v := *(*Pair[string, string])(unsafe.Pointer(&k))
		return hashString(v.Val, hashString(v.Key, stableSeed)), true
	case typPairStrInt:
		v := *(*Pair[string, int])(unsafe.Pointer(&k))
		return mix64(hashString(v.Key, stableSeed), uint64(v.Val)), true
	case typPairIntStr:
		v := *(*Pair[int, string])(unsafe.Pointer(&k))
		return hashString(v.Val, mix64(stableSeed, uint64(v.Key))), true
	}
	return 0, false
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
		return func(p unsafe.Pointer, h uint64) uint64 {
			return mix64(h, uint64(math.Float32bits(*(*float32)(p))))
		}
	case reflect.Float64:
		return func(p unsafe.Pointer, h uint64) uint64 {
			return mix64(h, math.Float64bits(*(*float64)(p)))
		}
	case reflect.Complex64:
		return func(p unsafe.Pointer, h uint64) uint64 {
			c := *(*complex64)(p)
			return mix64(mix64(h, uint64(math.Float32bits(real(c)))), uint64(math.Float32bits(imag(c))))
		}
	case reflect.Complex128:
		return func(p unsafe.Pointer, h uint64) uint64 {
			c := *(*complex128)(p)
			return mix64(mix64(h, math.Float64bits(real(c))), math.Float64bits(imag(c)))
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
	default:
		// Pointers, interfaces, channels: identity-based, cannot be
		// walked deterministically.
		return nil
	}
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

// stableBatchHasher returns a monomorphic closure producing the same bits
// as hashOf(s, *k) for every value of K, resolved once at dep-construction
// time so the shuffle router's counting pass hashes whole batches without
// boxing or per-element type dispatch. It takes the key by pointer and only
// reads through it: the router passes the address of the key inside its
// batch, so a composite key (a struct the compiled hasher walks) is hashed
// where it lies — handing the compiled hasher the address of a by-value
// copy cost one heap allocation per shuffled row. Keys whose hash is
// process-seeded (pointers, interfaces — the maphash fallback) report
// ok=false; their deps route through the boxed per-element partitioner as
// before.
func stableBatchHasher[K comparable]() (func(*K) uint64, bool) {
	switch reflect.TypeFor[K]() {
	case typInt:
		return func(k *K) uint64 { return mix64(stableSeed, uint64(*(*int)(unsafe.Pointer(k)))) }, true
	case typInt64:
		return func(k *K) uint64 { return mix64(stableSeed, uint64(*(*int64)(unsafe.Pointer(k)))) }, true
	case typInt32:
		return func(k *K) uint64 { return mix64(stableSeed, uint64(*(*int32)(unsafe.Pointer(k)))) }, true
	case typUint64:
		return func(k *K) uint64 { return mix64(stableSeed, *(*uint64)(unsafe.Pointer(k))) }, true
	case typUint32:
		return func(k *K) uint64 { return mix64(stableSeed, uint64(*(*uint32)(unsafe.Pointer(k)))) }, true
	case typUint:
		return func(k *K) uint64 { return mix64(stableSeed, uint64(*(*uint)(unsafe.Pointer(k)))) }, true
	case typString:
		return func(k *K) uint64 { return hashString(*(*string)(unsafe.Pointer(k)), stableSeed) }, true
	case typPairIntInt:
		return func(k *K) uint64 {
			v := *(*Pair[int, int])(unsafe.Pointer(k))
			return mix64(mix64(stableSeed, uint64(v.Key)), uint64(v.Val))
		}, true
	case typPairIntInt64:
		return func(k *K) uint64 {
			v := *(*Pair[int, int64])(unsafe.Pointer(k))
			return mix64(mix64(stableSeed, uint64(v.Key)), uint64(v.Val))
		}, true
	case typPairInt64Int:
		return func(k *K) uint64 {
			v := *(*Pair[int64, int])(unsafe.Pointer(k))
			return mix64(mix64(stableSeed, uint64(v.Key)), uint64(v.Val))
		}, true
	case typPairInt64Int64:
		return func(k *K) uint64 {
			v := *(*Pair[int64, int64])(unsafe.Pointer(k))
			return mix64(mix64(stableSeed, uint64(v.Key)), uint64(v.Val))
		}, true
	case typPairU64U64:
		return func(k *K) uint64 {
			v := *(*Pair[uint64, uint64])(unsafe.Pointer(k))
			return mix64(mix64(stableSeed, v.Key), v.Val)
		}, true
	case typPairStrStr:
		return func(k *K) uint64 {
			v := *(*Pair[string, string])(unsafe.Pointer(k))
			return hashString(v.Val, hashString(v.Key, stableSeed))
		}, true
	case typPairStrInt:
		return func(k *K) uint64 {
			v := *(*Pair[string, int])(unsafe.Pointer(k))
			return mix64(hashString(v.Key, stableSeed), uint64(v.Val))
		}, true
	case typPairIntStr:
		return func(k *K) uint64 {
			v := *(*Pair[int, string])(unsafe.Pointer(k))
			return hashString(v.Val, mix64(stableSeed, uint64(v.Key)))
		}, true
	}
	if fn := stableHasherFor(reflect.TypeFor[K]()); fn != nil {
		return func(k *K) uint64 { return fn(unsafe.Pointer(k), stableSeed) }, true
	}
	return nil, false
}
