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
// A key type's layout (internal/layout) is its leaf list: every scalar it
// holds (integers, floats, bools, strings, interfaces, the elements of
// arrays, the fields of structs) with its offset, padding skipped. Two
// folds walk it. stable mixes each leaf into the state with splitmix64
// from one fixed seed, in declaration order — the hash that places rows.
// foldWords is the in-process hash of the engine's keyed index (keyIndex,
// fold.go), whose slots nothing outside the process sees: it mixes, one
// cheaper multiply each, the aligned words that hold a key's integer and
// bool leaves, padding masked off (Layout.Words). A key the words cannot
// hash exactly — a float, a string, an interface — takes hash/maphash
// there instead; nothing the index emits depends on its hash.
//
// A boxed key (any, or an interface field of a struct key) hashes as the
// value it holds, through the leaf list of its dynamic type, so an IR
// program over []any places its rows where its typed twin does. What has
// no value to walk — pointers, channels, funcs, maps, slices: identity, or
// not comparable at all — is refused by name (mustShape): when the dep is
// built if the key type says so, as a panic out of the partitioner if
// only a boxed key's dynamic type does. There is no fallback that would
// place such a key differently in every process.
//
// Two switches sit in front of the leaf lists, for the key types that
// carry the traffic (measured: BENCHLOG.md, "Key hashing: one path"):
// hashOf dispatches per call and takes the key by value, because a key
// handed by pointer to an indirect call escapes to the heap — it backs
// HashKey inside Map closures; keyHasher resolves once per shuffle dep to
// a closure that reads the key where it lies in its batch. Both list int,
// int64, uint64, string and any, replay exactly the fold of their one
// leaf, and send every other type to its leaf list — same bits, asserted
// by TestStableHashersAgree and pinned by TestStableHashPinned.

import (
	"fmt"
	"math"
	"math/bits"
	"reflect"
	"unsafe"

	"matryoshka/internal/layout"
)

// stableSeed is the fixed initial state: two sessions, in one process or in
// two, place elements identically.
const stableSeed uint64 = 0x9e3779b97f4a7c15

// mustShape is the layout of t, a type about to be used as a key.
func mustShape(t reflect.Type) *layout.Layout {
	s := layout.Of(t)
	if !s.Hashable {
		panic(fmt.Sprintf("engine: key type %v cannot be hashed reproducibly: it holds a pointer, channel, func, map or slice", t))
	}
	return s
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
	s := mustShape(reflect.TypeFor[K]())
	// The copy keeps k itself off the heap: &kk escapes into the fold (an
	// interface leaf goes through reflect), but only here, so the cases
	// above stay allocation-free.
	kk := k
	return stable(s, unsafe.Pointer(&kk), stableSeed)
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
	s := mustShape(reflect.TypeFor[K]())
	return func(k *K) uint64 { return stable(s, unsafe.Pointer(k), stableSeed) }
}

// hashBoxed folds the value e holds into h: what the leaf list of e's
// dynamic type would fold, so boxing a key does not change its hash.
// Anything with a leaf list is stored in an interface indirectly (only
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
	s := mustShape(reflect.TypeOf(e))
	return stable(s, (*[2]unsafe.Pointer)(unsafe.Pointer(&e))[1], h)
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

// stable folds the key at p, laid out by s, into h, leaf by leaf: the
// placement hash.
func stable(s *layout.Layout, p unsafe.Pointer, h uint64) uint64 {
	for i := range s.Leaves {
		l := &s.Leaves[i]
		q := unsafe.Add(p, l.Off)
		switch l.Kind {
		case reflect.Int64, reflect.Uint64:
			// The common leaf, read here: through word it costs
			// ShuffleRoute/structkey about 12 %.
			h = mix64(h, *(*uint64)(q))
		case reflect.String:
			h = hashString(*(*string)(q), h)
		case reflect.Interface:
			if l.Type == nil {
				h = hashBoxed(*(*any)(q), h)
				break
			}
			// An interface with methods has an itab where any has the
			// type; reflect converts between the two.
			h = hashBoxed(reflect.NewAt(l.Type, q).Elem().Interface(), h)
		default:
			h = mix64(h, word(l.Kind, q))
		}
	}
	return h
}

// localSeed and localMul drive the keyed index's fold, which no other
// process sees: wyhash's constants.
const (
	localSeed uint64 = 0xe7037ed1a0b428db
	localMul  uint64 = 0xa0761d6478bd642f
)

// localMix is one wyhash-style round: the two halves of a 128-bit product,
// folded.
func localMix(h, v uint64) uint64 {
	hi, lo := bits.Mul64(h^v, localMul)
	return hi ^ lo
}

// foldWords is the keyed index's hash of the key at p.
func foldWords(words []layout.Word, p unsafe.Pointer) uint64 {
	h := localSeed
	for _, w := range words {
		h = localMix(h, *(*uint64)(unsafe.Add(p, w.Off))&w.Mask)
	}
	return h
}

// word reads a bool, integer or float leaf of kind k at q as the 64 bits
// the placement fold mixes: signed integers sign-extended, -0 read as +0.
func word(k reflect.Kind, q unsafe.Pointer) uint64 {
	switch k {
	case reflect.Bool, reflect.Uint8:
		return uint64(*(*uint8)(q))
	case reflect.Uint16:
		return uint64(*(*uint16)(q))
	case reflect.Uint32:
		return uint64(*(*uint32)(q))
	case reflect.Uint:
		return uint64(*(*uint)(q))
	case reflect.Uintptr:
		return uint64(*(*uintptr)(q))
	case reflect.Int8:
		return uint64(*(*int8)(q))
	case reflect.Int16:
		return uint64(*(*int16)(q))
	case reflect.Int32:
		return uint64(*(*int32)(q))
	case reflect.Int:
		return uint64(*(*int)(q))
	case reflect.Float32:
		return bits32(*(*float32)(q))
	case reflect.Float64:
		return bits64(*(*float64)(q))
	}
	return *(*uint64)(q)
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
