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
// compileStableHasher flattens a key type, once, into a leaf list: every
// scalar it holds (integers, floats, bools, strings, interfaces, the
// elements of arrays, the fields of structs) with its offset, padding
// skipped. Two folds walk that one list. keyShape.stable mixes each leaf
// into the state with splitmix64 from one fixed seed, in declaration order
// — the hash that places rows. foldWords is the in-process hash of the
// engine's keyed index (keyIndex, fold.go), whose slots nothing outside
// the process sees: it mixes, one cheaper multiply each, the aligned words
// that hold a key's integer and bool leaves, padding masked off
// (localWords). A key the words cannot hash exactly — a float, a string,
// an interface — takes hash/maphash there instead; nothing the index
// emits depends on its hash.
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
	"sync"
	"unsafe"
)

// stableSeed is the fixed initial state: two sessions, in one process or in
// two, place elements identically.
const stableSeed uint64 = 0x9e3779b97f4a7c15

// leaf is one scalar of a key: a bool, integer, float, string or
// interface of kind at offset off, size bytes wide. typ is set for an
// interface with methods.
type leaf struct {
	off  uintptr
	size uintptr
	kind reflect.Kind
	typ  reflect.Type
}

// keyShape is a key type's leaf list, in declaration order, and the words
// the keyed index folds (localWords).
type keyShape struct {
	leaves []leaf
	words  []keyWord
}

var stableShapes sync.Map // reflect.Type -> *keyShape (nil when refused)

// shapeFor returns the leaf list of t, or nil if t (or a nested field) has
// no representation to walk.
func shapeFor(t reflect.Type) *keyShape {
	if s, ok := stableShapes.Load(t); ok {
		return s.(*keyShape)
	}
	s := compileStableHasher(t)
	stableShapes.Store(t, s)
	return s
}

// mustShape is shapeFor for a type about to be used as a key.
func mustShape(t reflect.Type) *keyShape {
	s := shapeFor(t)
	if s == nil {
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
	return s.stable(unsafe.Pointer(&kk), stableSeed)
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
	return func(k *K) uint64 { return s.stable(unsafe.Pointer(k), stableSeed) }
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
	return s.stable((*[2]unsafe.Pointer)(unsafe.Pointer(&e))[1], h)
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

// stable folds the key at p into h, leaf by leaf: the placement hash.
func (s *keyShape) stable(p unsafe.Pointer, h uint64) uint64 {
	for i := range s.leaves {
		l := &s.leaves[i]
		q := unsafe.Add(p, l.off)
		switch l.kind {
		case reflect.Int64, reflect.Uint64:
			// The common leaf, read here: through word it costs
			// ShuffleRoute/structkey about 12 %.
			h = mix64(h, *(*uint64)(q))
		case reflect.String:
			h = hashString(*(*string)(q), h)
		case reflect.Interface:
			if l.typ == nil {
				h = hashBoxed(*(*any)(q), h)
				break
			}
			// An interface with methods has an itab where any has the
			// type; reflect converts between the two.
			h = hashBoxed(reflect.NewAt(l.typ, q).Elem().Interface(), h)
		default:
			h = mix64(h, l.word(q))
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

// keyWord is one aligned 64-bit word of a key, with the bits that belong
// to no integer or bool leaf (padding) masked off.
type keyWord struct {
	off  uintptr
	mask uint64
}

// localWords returns the words that cover t's leaves, for the keyed index
// (keyIndex, fold.go) to fold, or nil if reading t whole words at a time
// is not safe or not exact: t holds a float (two zeros compare equal, and
// a NaN equals nothing), a string or an interface, or t is not a whole
// number of aligned words.
func localWords(t reflect.Type, leaves []leaf) []keyWord {
	if t.Size() == 0 || t.Size()%8 != 0 || t.Align()%8 != 0 {
		return nil
	}
	masks := make([][8]byte, t.Size()/8)
	for _, l := range leaves {
		if l.kind > reflect.Uintptr { // past the integers: a float, string or interface
			return nil
		}
		for b := l.off; b < l.off+l.size; b++ {
			masks[b/8][b%8] = 0xff
		}
	}
	var words []keyWord
	for i, m := range masks {
		if m != [8]byte{} {
			// The mask in memory order, read as the word is read.
			words = append(words, keyWord{off: uintptr(i) * 8, mask: *(*uint64)(unsafe.Pointer(&m))})
		}
	}
	return words
}

// foldWords is the keyed index's hash of the key at p.
func foldWords(words []keyWord, p unsafe.Pointer) uint64 {
	h := localSeed
	for _, w := range words {
		h = localMix(h, *(*uint64)(unsafe.Add(p, w.off))&w.mask)
	}
	return h
}

// word reads a bool, integer or float leaf at q as the 64 bits the
// placement fold mixes: signed integers sign-extended, -0 read as +0.
func (l *leaf) word(q unsafe.Pointer) uint64 {
	switch l.kind {
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

// compileStableHasher returns t's leaf list, or nil if t holds something
// with no value to walk.
func compileStableHasher(t reflect.Type) *keyShape {
	leaves, ok := appendLeaves(nil, t, 0)
	if !ok {
		return nil
	}
	return &keyShape{leaves: leaves, words: localWords(t, leaves)}
}

// appendLeaves appends the leaves of a t at offset off to dst.
func appendLeaves(dst []leaf, t reflect.Type, off uintptr) ([]leaf, bool) {
	switch k := t.Kind(); k {
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.String:
		return append(dst, leaf{off: off, size: t.Size(), kind: k}), true
	case reflect.Complex64, reflect.Complex128:
		part := reflect.Float32
		if k == reflect.Complex128 {
			part = reflect.Float64
		}
		half := t.Size() / 2
		return append(dst, leaf{off: off, size: half, kind: part}, leaf{off: off + half, size: half, kind: part}), true
	case reflect.Interface:
		l := leaf{off: off, size: t.Size(), kind: k}
		if t.NumMethod() > 0 {
			l.typ = t
		}
		return append(dst, l), true
	case reflect.Array:
		elem, ok := appendLeaves(nil, t.Elem(), 0)
		for i := 0; i < t.Len() && ok; i++ {
			for _, l := range elem {
				l.off += off + uintptr(i)*t.Elem().Size()
				dst = append(dst, l)
			}
		}
		return dst, ok
	case reflect.Struct:
		ok := true
		for i := 0; i < t.NumField() && ok; i++ {
			f := t.Field(i)
			dst, ok = appendLeaves(dst, f.Type, off+f.Offset)
		}
		return dst, ok
	}
	// Pointers, channels: identity. Funcs, maps, slices: not comparable.
	return dst, false
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
