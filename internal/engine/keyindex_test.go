package engine

// Differential tests for the keyed index (keyIndex, fold.go) against a Go
// map: the same put/find/reset sequence drives both, and every answer —
// position, whether the key was new, the key count, the keys in insertion
// order — must agree, for every kind of key the index hashes its own way.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"unsafe"
)

// mapIndex is the reference: what keyIndex replaced.
type mapIndex[K comparable] struct {
	pos   map[K]int32
	order []K
}

func (m *mapIndex[K]) put(k K) (int32, bool) {
	if i, ok := m.pos[k]; ok {
		return i, false
	}
	m.pos[k] = int32(len(m.order))
	m.order = append(m.order, k)
	return int32(len(m.order) - 1), true
}

func (m *mapIndex[K]) find(k K) int32 {
	if i, ok := m.pos[k]; ok {
		return i
	}
	return -1
}

// sameKey is == with every NaN equal to every other: stored keys compared
// position by position.
func sameKey[K comparable](a, b K) bool { return a == b || (a != a && b != b) }

// indexOp is one step of a sequence: put, find or reset, with the code
// the key is made from.
type indexOp struct {
	kind byte // 0 put, 1 find, 2 reset
	code uint16
}

// checkIndex runs ops on a fresh index and on a map, key(code) making
// each key, and fails at the first answer that differs. A reset is checked
// over the key and slot ranges the index used since the one before, which
// is all a reset could have left anything in, and the last check covers
// the whole capacity: checking the whole capacity at every reset would
// cost resets × the largest partition's keys.
func checkIndex[K comparable](t testing.TB, name string, key func(uint16) K, ops []indexOp) {
	t.Helper()
	x := newKeyIndex[K]()
	ref := &mapIndex[K]{pos: map[K]int32{}}
	used, usedSlots := 0, 0 // the most keys and slots since the last reset
	for n, op := range ops {
		k := key(op.code)
		switch op.kind {
		case 0:
			gotPos, gotAdded := x.put(k)
			wantPos, wantAdded := ref.put(k)
			if gotPos != wantPos || gotAdded != wantAdded {
				t.Fatalf("%s op %d: put(%v) = %d, %v; map says %d, %v", name, n, k, gotPos, gotAdded, wantPos, wantAdded)
			}
		case 1:
			if got, want := x.find(k), ref.find(k); got != want {
				t.Fatalf("%s op %d: find(%v) = %d; map says %d", name, n, k, got, want)
			}
		case 2:
			x.reset()
			ref = &mapIndex[K]{pos: map[K]int32{}}
			if msg := emptied(&x, used, usedSlots); msg != "" {
				t.Fatalf("%s op %d: %s", name, n, msg)
			}
			used, usedSlots = 0, 0
		}
		used, usedSlots = max(used, x.len()), max(usedSlots, len(x.slots))
		if x.len() != len(ref.order) {
			t.Fatalf("%s op %d: %d keys; map holds %d", name, n, x.len(), len(ref.order))
		}
	}
	for i, k := range ref.order {
		if !sameKey(x.keys[i], k) {
			t.Fatalf("%s: key %d is %v; map order has %v", name, i, x.keys[i], k)
		}
	}
	x.reset()
	checkEmptied(t, name+" at the end", &x)
}

// checkEmptied asserts what reset promises: no key left, and nothing a
// pooled index could reach — every slot empty, every key slot up to the
// capacity zeroed.
func checkEmptied[K comparable](t testing.TB, where string, x *keyIndex[K]) {
	t.Helper()
	if msg := emptied(x, cap(x.keys), cap(x.slots)); msg != "" {
		t.Fatalf("%s: %s", where, msg)
	}
}

// emptied says what a reset left behind in the first keys key slots and
// the first slots slots (the current slot array at least), or "".
func emptied[K comparable](x *keyIndex[K], keys, slots int) string {
	if x.len() != 0 {
		return fmt.Sprintf("%d keys after reset", x.len())
	}
	var zero K
	for i, k := range x.keys[:keys] {
		if k != zero {
			return fmt.Sprintf("key slot %d still holds %v after reset", i, k)
		}
	}
	for i, s := range x.slots[:max(slots, len(x.slots))] {
		if s != 0 {
			return fmt.Sprintf("slot %d still points at %d after reset", i, s)
		}
	}
	return ""
}

// noisyPadding returns k with the seven padding bytes after its depth
// overwritten by noise: equal keys made from different codes carry
// different padding, and must find each other all the same.
func noisyPadding(k Tag, noise uint16) Tag {
	b := (*[8]byte)(unsafe.Pointer(&k))
	for i := 1; i < 8; i++ {
		b[i] = byte(noise >> (i % 2 * 8))
	}
	return k
}

var (
	pinnedKeys = [3]int{1, 2, 3}
	floatKeys  = []float64{0, math.Copysign(0, -1), math.NaN(), 1.5, -2, math.Inf(1), math.MaxFloat64}
)

// keyChecks runs ops against each key type the index hashes differently:
// integers and padded structs (masked words), floats, strings and
// interfaces (hash/maphash).
var keyChecks = []func(testing.TB, []indexOp){
	func(t testing.TB, ops []indexOp) {
		checkIndex(t, "int", func(c uint16) int { return int(c) - 1000 }, ops)
	},
	func(t testing.TB, ops []indexOp) {
		checkIndex(t, "int64", func(c uint16) int64 { return int64(c) << 40 }, ops)
	},
	func(t testing.TB, ops []indexOp) {
		checkIndex(t, "uint64", func(c uint16) uint64 { return uint64(c) * 0x9e3779b97f4a7c15 }, ops)
	},
	func(t testing.TB, ops []indexOp) {
		checkIndex(t, "Tag", func(c uint16) Tag {
			return noisyPadding(Tag{uint8(c % 3), [3]uint64{uint64(c / 3 % 1000), 0, uint64(c%2) << 63}}, c)
		}, ops)
	},
	func(t testing.TB, ops []indexOp) {
		checkIndex(t, "liftedKey", func(c uint16) liftedKey {
			return liftedKey{noisyPadding(Tag{1, [3]uint64{uint64(c % 5)}}, c), int64(c/5%1000) - 6}
		}, ops)
	},
	func(t testing.TB, ops []indexOp) {
		checkIndex(t, "float64", func(c uint16) float64 {
			if i := int(c % 16); i < len(floatKeys) {
				return floatKeys[i]
			}
			return float64(c%16) / 4
		}, ops)
	},
	func(t testing.TB, ops []indexOp) {
		checkIndex(t, "string", func(c uint16) string { return fmt.Sprint("k", c, string(make([]byte, c%19))) }, ops)
	},
	func(t testing.TB, ops []indexOp) {
		checkIndex(t, "any", func(c uint16) any {
			switch c % 6 {
			case 0:
				return int(c)
			case 1:
				return fmt.Sprint(c)
			case 2:
				return Tag{1, [3]uint64{uint64(c)}}
			case 3:
				return &pinnedKeys[c%3]
			case 4:
				return floatKeys[c%3]
			}
			return nil
		}, ops)
	},
}

// indexKeys runs ops against every key type.
func indexKeys(t testing.TB, ops []indexOp) {
	for _, check := range keyChecks {
		check(t, ops)
	}
}

// randomOps is a sequence of mostly puts over codes below keys, a find
// now and then, and a reset with probability 1/resetEvery.
func randomOps(rng *rand.Rand, n, keys, resetEvery int) []indexOp {
	ops := make([]indexOp, n)
	for i := range ops {
		ops[i] = indexOp{kind: 0, code: uint16(rng.Intn(keys))}
		switch r := rng.Intn(resetEvery); {
		case r == 0:
			ops[i].kind = 2
		case r < resetEvery/3:
			ops[i].kind = 1
		}
	}
	return ops
}

func TestKeyIndexMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, c := range []struct {
		name                string
		n, keys, resetEvery int
	}{
		{"few-keys", 2000, 8, 300},
		{"many-keys", 5000, 4000, 2000},
		{"frequent-resets", 3000, 200, 20},
		{"all-codes", 20000, 1 << 16, 10000},
	} {
		ops := randomOps(rng, c.n, c.keys, c.resetEvery)
		t.Run(c.name, func(t *testing.T) { indexKeys(t, ops) })
	}
}

// TestKeyIndexResetAfterGiant: after a partition of 100 000 keys, a reset
// and a small partition, the next reset cuts the slot array back to what
// the small one needed, so the partitions after it clear a few slots, not
// the giant's; the index stays correct throughout.
func TestKeyIndexResetAfterGiant(t *testing.T) {
	x := newKeyIndex[Tag]()
	key := func(i int) Tag { return Tag{2, [3]uint64{uint64(i), uint64(i % 7)}} }
	for i := 0; i < 100_000; i++ {
		x.put(key(i))
	}
	giant := len(x.slots)
	x.reset()
	checkEmptied(t, "after the giant", &x)
	for p := 0; p < 5; p++ {
		ops := make([]indexOp, 0, 30)
		for i := 0; i < 10; i++ {
			ops = append(ops, indexOp{0, uint16(p*10 + i%6)}, indexOp{1, uint16(p*10 + i)})
		}
		ref := &mapIndex[Tag]{pos: map[Tag]int32{}}
		for _, op := range ops {
			k := key(int(op.code))
			if op.kind == 1 {
				if got, want := x.find(k), ref.find(k); got != want {
					t.Fatalf("partition %d: find(%v) = %d; map says %d", p, k, got, want)
				}
				continue
			}
			gotPos, gotAdded := x.put(k)
			if wantPos, wantAdded := ref.put(k); gotPos != wantPos || gotAdded != wantAdded {
				t.Fatalf("partition %d: put(%v) = %d, %v; map says %d, %v", p, k, gotPos, gotAdded, wantPos, wantAdded)
			}
		}
		x.reset()
		checkEmptied(t, fmt.Sprintf("partition %d", p), &x)
		if len(x.slots) > 64 {
			t.Fatalf("partition %d of 6 keys left %d slots to clear (the giant had %d)", p, len(x.slots), giant)
		}
	}
}

// maxFuzzOps is the most operations FuzzKeyIndex reads from an input:
// enough for a table of 64 keys in 128 slots, resets that cut it back, and
// growth inside the capacity they leave.
const maxFuzzOps = 64

// FuzzKeyIndex drives the index and a Go map with the same sequence: the
// first input byte picks the key type, and each byte pair after it is an
// operation (put, find, or a reset once in 16) and a key code, up to
// maxFuzzOps of them. The fuzzer minimizes each input that finds new
// coverage by running on the order of len² smaller ones, so a run's cost
// must not grow with the input: over all eight key types and every byte
// pair, a 500-byte input took the whole minimizing budget (60 s) while the
// progress lines read 0 execs/s. Long sequences are TestKeyIndexMatchesMap's.
func FuzzKeyIndex(f *testing.F) {
	f.Add([]byte{0, 1, 0, 1, 3, 1, 15, 0, 0, 1})
	f.Add([]byte("a longer sequence of puts and finds over printable codes"))
	rng := rand.New(rand.NewSource(2))
	seed := make([]byte, 512)
	rng.Read(seed)
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		check := keyChecks[int(data[0])%len(keyChecks)]
		data = data[1:]
		ops := make([]indexOp, 0, maxFuzzOps)
		for i := 0; i+1 < len(data) && len(ops) < maxFuzzOps; i += 2 {
			op := indexOp{code: uint16(data[i+1]) | uint16(data[i]>>4)<<8}
			switch data[i] & 15 {
			case 15:
				op.kind = 2
			case 12, 13, 14:
				op.kind = 1
			}
			ops = append(ops, op)
		}
		check(t, ops)
	})
}
