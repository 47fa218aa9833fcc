package engine

// Differential tests for the repartition join's pooled scratch (portable.go)
// against the kernel it replaced: refJoin is that kernel's body — a map of
// per-key slices and an append-grown output — kept here as the reference.
// The kernel must match it element for element, values and order, on one
// scratch reused across partitions.

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"unsafe"
)

func refJoin[K comparable, A, B any](lhs []Pair[K, A], rhs []Pair[K, B]) []Pair[K, Tuple2[A, B]] {
	build := make(map[K][]A, len(lhs))
	for _, kv := range lhs {
		build[kv.Key] = append(build[kv.Key], kv.Val)
	}
	var out []Pair[K, Tuple2[A, B]]
	for _, kv := range rhs {
		for _, a := range build[kv.Key] {
			out = append(out, Pair[K, Tuple2[A, B]]{kv.Key, Tuple2[A, B]{a, kv.Val}})
		}
	}
	return out
}

func newJoinScratch[K comparable, A, B any]() *joinScratch[K, A, B] {
	return &joinScratch[K, A, B]{keyIndex: newKeyIndex[K]()}
}

// check joins one partition on s directly — no sync.Pool in between, so
// consecutive calls are certain to reuse the scratch — and asserts what join
// promises to leave behind: an empty index and an output scratch zeroed
// over its whole capacity, pinning no row of a finished partition.
func (s *joinScratch[K, A, B]) check(t *testing.T, name string, lhs []Pair[K, A], rhs []Pair[K, B]) {
	t.Helper()
	got, want := s.join(lhs, rhs), refJoin(lhs, rhs)
	if !sameRows(got, want) {
		t.Fatalf("%s: joined %v, reference %v", name, got, want)
	}
	if cap(got) != len(got) {
		t.Fatalf("%s: result has cap %d for %d rows, want exact size", name, cap(got), len(got))
	}
	if s.len() != 0 || len(s.out) != 0 {
		t.Fatalf("%s: scratch not empty after the partition: %d index entries, %d rows", name, s.len(), len(s.out))
	}
	var zero Pair[K, Tuple2[A, B]]
	for i, e := range s.out[:cap(s.out)] {
		if !reflect.DeepEqual(e, zero) {
			t.Fatalf("%s: output scratch slot %d still holds %v", name, i, e)
		}
	}
}

func TestJoinMatchesReference(t *testing.T) {
	oneKeyL, oneKeyR := make([]Pair[int, string], 40), make([]Pair[int, float64], 30)
	distinctL, distinctR := make([]Pair[int, string], 300), make([]Pair[int, float64], 300)
	dupL, dupR := make([]Pair[int, string], 500), make([]Pair[int, float64], 400)
	for i := range oneKeyL {
		oneKeyL[i] = KV(7, fmt.Sprint("l", i))
	}
	for i := range oneKeyR {
		oneKeyR[i] = KV(7, float64(i))
	}
	for i := range distinctL {
		distinctL[i] = KV(i*31, fmt.Sprint("l", i))
		distinctR[i] = KV((299-i)*31, float64(i)) // every key matches once, probe order reversed
	}
	for i := range dupL {
		dupL[i] = KV((i*i)%37, fmt.Sprint("l", i))
	}
	for i := range dupR {
		dupR[i] = KV((i*7)%41, float64(i)) // keys 37..40 match nothing
	}
	// One scratch across every case, in order: each starts on what the
	// previous one left. String build values make the scratch pointerful.
	j := newJoinScratch[int, string, float64]()
	for _, c := range []struct {
		name string
		lhs  []Pair[int, string]
		rhs  []Pair[int, float64]
	}{
		{"both-empty", nil, nil},
		{"empty-build", nil, dupR},
		{"empty-probe", dupL, nil},
		{"one-key", oneKeyL, oneKeyR},
		{"all-distinct", distinctL, distinctR},
		{"duplicates-both-sides", dupL, dupR},
		{"no-match", distinctL[:10], []Pair[int, float64]{KV(-1, 1.0), KV(-2, 2.0)}},
		{"empty-again", nil, nil},
	} {
		j.check(t, c.name, c.lhs, c.rhs)
	}
}

// TestJoinNaNKeys: NaN never equals itself, so NaN rows never match on
// either side, and no probe finds the build side's entries again — the
// scratch must still come back empty (a leftover entry would hand the next
// partition a stale position).
func TestJoinNaNKeys(t *testing.T) {
	nan := math.NaN()
	j := newJoinScratch[float64, int, int]()
	// A dense partition first, so the NaN partition runs on the slot array
	// it grew and its reset cuts that array back.
	dense := make([]Pair[float64, int], 1000)
	for i := range dense {
		dense[i] = KV(float64(i), i)
	}
	j.check(t, "dense", dense, dense[:100])
	lhs := []Pair[float64, int]{KV(1.5, 1), KV(nan, 2), KV(1.5, 3), KV(nan, 4), KV(2.5, 5)}
	rhs := []Pair[float64, int]{KV(nan, 10), KV(1.5, 20), KV(3.5, 30), KV(2.5, 40), KV(nan, 50)}
	for round := 0; round < 2; round++ {
		j.check(t, fmt.Sprint("nan round ", round), lhs, rhs)
	}
	j.check(t, "after-nan", dense[:5], dense[:5])
}

// TestJoinAfterGiantPartition: 50 ten-row partitions on a scratch that just
// held 200 000 keys (the first reset after it cuts the slots back) are
// each still correct.
func TestJoinAfterGiantPartition(t *testing.T) {
	const giant = 200_000
	big := make([]Pair[int, int64], giant)
	for i := range big {
		big[i] = KV(i, int64(i))
	}
	j := newJoinScratch[int, int64, int64]()
	j.check(t, "giant", big, big[giant/2:giant/2+1000])
	for p := 0; p < 50; p++ {
		lhs, rhs := make([]Pair[int, int64], 10), make([]Pair[int, int64], 10)
		for i := range lhs {
			// Keys the giant held, keys it did not, and repeats.
			lhs[i] = KV((p*7919+i*(giant/3))%(2*giant)/(1+i%2), int64(p+i))
			rhs[i] = KV(lhs[(i*3)%10].Key+i%2, int64(i))
		}
		j.check(t, fmt.Sprint("partition ", p, " after the giant"), lhs, rhs)
	}
}

// TestJoinPanicLeavesPoolClean: a probe row whose key cannot be hashed
// panics mid-partition, after the build side is indexed and part of the
// output written. The panic surfaces unchanged and the half-used scratch is
// never handed to the next partition of the same operator.
func TestJoinPanicLeavesPoolClean(t *testing.T) {
	kernel := RepartitionJoinCompute[any, int, int]()
	lhs := []Pair[any, int]{KV[any](1, 10), KV[any](2, 20), KV[any](1, 30)}
	good := []Pair[any, int]{KV[any](1, 1), KV[any](3, 3), KV[any](2, 2)}
	bad := []Pair[any, int]{KV[any](1, 1), KV[any]([]int{1}, 0), KV[any](2, 2)}
	run := func(rhs []Pair[any, int]) []Pair[any, Tuple2[int, int]] {
		return elems[Pair[any, Tuple2[int, int]]](kernel(nil, 0, []Batch{batchOf(lhs, len(lhs)), batchOf(rhs, len(rhs))}))
	}
	for round := 0; round < 3; round++ {
		func() {
			defer func() {
				if r := recover(); r == nil {
					t.Fatalf("round %d: unhashable probe key did not panic", round)
				}
			}()
			run(bad)
		}()
		if got, want := run(good), refJoin(lhs, good); !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: partition after the panic joined %v, reference %v", round, got, want)
		}
	}
}

// TestJoinAllocBound gives the join the fold tables' gate: once a worker's
// scratch is warm, a partition allocates its exact-size output and a small
// constant (batch header, closure) — no map, no per-key slice, no
// append-grown output. 1 000 build rows against 1 000 probe rows over 200
// keys: 5 000 output pairs, where the map-of-slices kernel allocated the
// output twice over again in growth steps plus a map and 200 value slices.
func TestJoinAllocBound(t *testing.T) {
	skipIfInstrumented(t)
	lhs, rhs := make([]Pair[int, int64], 1000), make([]Pair[int, int64], 1000)
	for i := range lhs {
		lhs[i] = KV((i*31)%200, int64(i))
		rhs[i] = KV((i*17)%200, int64(-i))
	}
	in := []Batch{batchOf(lhs, len(lhs)), batchOf(rhs, len(rhs))}
	kernel := RepartitionJoinCompute[int, int64, int64]()
	rows := kernel(nil, 0, in).Len()
	if rows != 5000 {
		t.Fatalf("%d output rows, want 5000", rows)
	}
	// The allocator rounds an object this large up to whole 8 KB pages.
	const page = 8192
	bound := (uint64(rows)*uint64(unsafe.Sizeof(Pair[int, Tuple2[int64, int64]]{}))+page-1)/page*page + 256
	if got := measureBytes(100, func() { kernel(nil, 0, in) }); got > bound {
		t.Errorf("join of 1000 × 1000 rows over 200 keys: %d bytes per partition, want <= %d", got, bound)
	}
}
