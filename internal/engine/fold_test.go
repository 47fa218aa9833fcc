package engine

// Differential tests for the streaming fold (fold.go) against the loops it
// replaced: refMergePairs and refDistinct are the slice-UDF bodies
// ReduceByKey and Distinct ran before, kept here as the reference. Folders
// must match them element for element, values and order, on one table
// reused across partitions and through real jobs.

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
)

func refMergePairs[K comparable, V any](f func(V, V) V, in []Pair[K, V]) []Pair[K, V] {
	m := make(map[K]V)
	var order []K
	for _, kv := range in {
		if old, ok := m[kv.Key]; ok {
			m[kv.Key] = f(old, kv.Val)
		} else {
			m[kv.Key] = kv.Val
			order = append(order, kv.Key)
		}
	}
	out := make([]Pair[K, V], 0, len(order))
	for _, k := range order {
		out = append(out, Pair[K, V]{k, m[k]})
	}
	return out
}

func refDistinct[T comparable](in []T) []T {
	seen := make(map[T]struct{}, len(in))
	out := in[:0:0]
	for _, e := range in {
		if _, ok := seen[e]; !ok {
			seen[e] = struct{}{}
			out = append(out, e)
		}
	}
	return out
}

// foldRows folds one partition on t directly, so consecutive calls are
// certain to reuse the table (a sync.Pool may drop it at any GC).
func foldRows[A any](t folder[A], rows []A) []A {
	for _, a := range rows {
		t.add(a)
	}
	return t.finish()
}

// sameRows is DeepEqual on partitions, except that an empty one may be nil
// or an empty slice.
func sameRows[T any](got, want []T) bool {
	return len(got) == len(want) && (len(want) == 0 || reflect.DeepEqual(got, want))
}

// unboxed converts one of refRoute's boxed blocks back to typed rows.
func unboxed[T any](blk []any) []T {
	out := make([]T, len(blk))
	for i, e := range blk {
		out[i] = e.(T)
	}
	return out
}

func pairTableOf[K comparable, V any](f func(V, V) V) *pairTable[K, V] {
	return newPairTables[K](f).Get().(*pairTable[K, V])
}

// checkDrained asserts what finish promises about the scratch it leaves
// behind: an empty index, and the array that held the rows zeroed over
// its whole capacity, so a pooled table pins no row of a finished
// partition. A fold table's rows are its accumulator; a set table's are
// its index's keys.
func checkDrained[K comparable, E any](t *testing.T, x *keyIndex[K], rows []E) {
	t.Helper()
	if x.len() != 0 || len(rows) != 0 {
		t.Fatalf("table not empty after finish: %d index entries, %d rows", x.len(), len(rows))
	}
	var zero E
	for i, e := range rows[:cap(rows)] {
		if !reflect.DeepEqual(e, zero) {
			t.Fatalf("row slot %d still holds %v after finish", i, e)
		}
	}
}

// halve is deliberately non-associative and non-commutative: any change in
// the order f is applied in shows up in the value.
func halve(a, b float64) float64 { return a/2 + b }

func TestFoldPairsMatchReference(t *testing.T) {
	oneKey := make([]Pair[int, float64], 100)
	distinctKeys := make([]Pair[int, float64], 100)
	mixed := make([]Pair[int, float64], 1000)
	for i := range oneKey {
		oneKey[i] = KV(7, float64(i)+0.1)
		distinctKeys[i] = KV(i*31, float64(i))
	}
	for i := range mixed {
		mixed[i] = KV((i*i)%37, 1/float64(i+1))
	}
	// One table across every case, in order: each starts on the scratch
	// the previous one left.
	tab := pairTableOf[int](halve)
	for _, c := range []struct {
		name string
		rows []Pair[int, float64]
	}{
		{"empty", nil},
		{"one-row", []Pair[int, float64]{KV(3, 1.5)}},
		{"one-key", oneKey},
		{"all-distinct", distinctKeys},
		{"non-associative", mixed},
		{"empty-again", nil},
	} {
		got, want := foldRows[Pair[int, float64]](tab, c.rows), refMergePairs(halve, c.rows)
		if !sameRows(got, want) {
			t.Errorf("%s: folded %v, reference %v", c.name, got, want)
		}
		if cap(got) != len(got) {
			t.Errorf("%s: result has cap %d for %d rows, want exact size", c.name, cap(got), len(got))
		}
		checkDrained(t, &tab.keyIndex, tab.acc)
	}
}

// TestFoldNaNKeys: NaN never equals itself, so every NaN row is its own
// group, in input order, and no probe finds the entries again — the table
// must still come back empty. The reference read each group's value
// back through the map and so lost the NaN groups' (it emitted zero); the
// table keeps them, so values are checked against the input.
func TestFoldNaNKeys(t *testing.T) {
	nan := math.NaN()
	rows := []Pair[float64, int]{KV(1.5, 1), KV(nan, 2), KV(1.5, 3), KV(nan, 4), KV(2.5, 5), KV(nan, 6)}
	sum := func(a, b int) int { return a + b }
	tab := pairTableOf[float64](sum)
	// A dense partition first, so the NaN partition runs on the slot array
	// it grew and its reset cuts that array back.
	dense := make([]Pair[float64, int], 1000)
	for i := range dense {
		dense[i] = KV(float64(i), i)
	}
	foldRows[Pair[float64, int]](tab, dense)
	for round := 0; round < 2; round++ {
		got, ref := foldRows[Pair[float64, int]](tab, rows), refMergePairs(sum, rows)
		want := []Pair[float64, int]{KV(1.5, 4), KV(nan, 2), KV(nan, 4), KV(2.5, 5), KV(nan, 6)}
		if len(got) != len(want) || len(ref) != len(want) {
			t.Fatalf("round %d: %d groups, reference %d, want %d", round, len(got), len(ref), len(want))
		}
		for i := range want {
			if math.Float64bits(got[i].Key) != math.Float64bits(ref[i].Key) {
				t.Errorf("round %d: group %d has key %v, reference %v", round, i, got[i].Key, ref[i].Key)
			}
			if math.Float64bits(got[i].Key) != math.Float64bits(want[i].Key) || got[i].Val != want[i].Val {
				t.Errorf("round %d: group %d is %v, want %v", round, i, got[i], want[i])
			}
		}
		checkDrained(t, &tab.keyIndex, tab.acc)
	}

	set := newSetTables[float64]().Get().(*setTable[float64])
	elems := []float64{nan, 1, nan, 1, 2}
	got, want := foldRows[float64](set, elems), refDistinct(elems)
	if len(got) != len(want) {
		t.Fatalf("distinct with NaN: %v, reference %v", got, want)
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Errorf("distinct with NaN: element %d is %v, reference %v", i, got[i], want[i])
		}
	}
	checkDrained(t, &set.keyIndex, set.keys)
}

// TestFoldPointerfulRows: slice and string values fold like any other, and
// the scratch they passed through is zeroed (checkDrained), so a pooled
// table does not keep a finished partition's strings and slices alive.
func TestFoldPointerfulRows(t *testing.T) {
	concat := func(a, b string) string { return a + "," + b }
	var strs []Pair[string, string]
	var slcs []Pair[int, []int]
	for i := 0; i < 200; i++ {
		strs = append(strs, KV(fmt.Sprint("k", i%9), fmt.Sprint(i)))
		slcs = append(slcs, KV(i%5, []int{i}))
	}
	st := pairTableOf[string](concat)
	if got, want := foldRows[Pair[string, string]](st, strs), refMergePairs(concat, strs); !reflect.DeepEqual(got, want) {
		t.Errorf("string values: folded %v, reference %v", got, want)
	}
	checkDrained(t, &st.keyIndex, st.acc)

	app := func(a, b []int) []int { return append(a[:len(a):len(a)], b...) }
	sl := pairTableOf[int](app)
	if got, want := foldRows[Pair[int, []int]](sl, slcs), refMergePairs(app, slcs); !reflect.DeepEqual(got, want) {
		t.Errorf("slice values: folded %v, reference %v", got, want)
	}
	checkDrained(t, &sl.keyIndex, sl.acc)

	words := strings.Fields("a b a c b d a e")
	set := newSetTables[string]().Get().(*setTable[string])
	if got, want := foldRows[string](set, words), refDistinct(words); !reflect.DeepEqual(got, want) {
		t.Errorf("distinct strings: folded %v, reference %v", got, want)
	}
	checkDrained(t, &set.keyIndex, set.keys)
}

// TestFoldAfterGiantPartition: 50 ten-row partitions on a table that just
// held 200 000 keys (the first reset after it cuts the slots back) are
// each still correct, for both tables.
func TestFoldAfterGiantPartition(t *testing.T) {
	const giant = 200_000
	sum := func(a, b int64) int64 { return a + b }
	big := make([]Pair[int, int64], giant+giant/2)
	keys := make([]int, len(big))
	for i := range big {
		big[i] = KV(i%giant, int64(i))
		keys[i] = i % giant
	}
	tab := pairTableOf[int](sum)
	set := newSetTables[int]().Get().(*setTable[int])
	if got, want := foldRows[Pair[int, int64]](tab, big), refMergePairs(sum, big); !reflect.DeepEqual(got, want) {
		t.Fatalf("giant partition differs from the reference (%d vs %d groups)", len(got), len(want))
	}
	if got, want := foldRows[int](set, keys), refDistinct(keys); !reflect.DeepEqual(got, want) {
		t.Fatalf("giant distinct differs from the reference (%d vs %d elements)", len(got), len(want))
	}
	for p := 0; p < 50; p++ {
		small := make([]Pair[int, int64], 10)
		smallKeys := make([]int, 10)
		for i := range small {
			// Keys the giant held, keys it did not, and repeats.
			small[i] = KV((p*7919+i*(giant/3))%(2*giant)/(1+i%2), int64(p+i))
			smallKeys[i] = small[i].Key
		}
		if got, want := foldRows[Pair[int, int64]](tab, small), refMergePairs(sum, small); !reflect.DeepEqual(got, want) {
			t.Fatalf("partition %d after the giant: folded %v, reference %v", p, got, want)
		}
		if got, want := foldRows[int](set, smallKeys), refDistinct(smallKeys); !reflect.DeepEqual(got, want) {
			t.Fatalf("distinct partition %d after the giant: folded %v, reference %v", p, got, want)
		}
		if tab.len() != 0 || set.len() != 0 {
			t.Fatalf("partition %d left %d / %d index entries behind", p, tab.len(), set.len())
		}
	}
}

// TestFoldPanicLeavesPoolClean: a merge function that panics mid-partition
// surfaces its panic unchanged, and the half-folded table it abandoned is
// never handed to the next partition.
func TestFoldPanicLeavesPoolClean(t *testing.T) {
	sum := func(a, b int) int {
		if b < 0 {
			panic("poisoned row")
		}
		return a + b
	}
	tables := newPairTables[int](sum)
	good := []Pair[int, int]{KV(1, 1), KV(2, 2), KV(1, 3)}
	bad := []Pair[int, int]{KV(1, 10), KV(5, 50), KV(1, -1), KV(2, 20)}
	for round := 0; round < 3; round++ {
		func() {
			defer func() {
				if r := recover(); r != "poisoned row" {
					t.Fatalf("round %d: recovered %v, want the UDF's own panic", round, r)
				}
			}()
			foldBatch[Pair[int, int]](tables, batchOf(bad, len(bad)))
		}()
		if got, want := foldBatch[Pair[int, int]](tables, batchOf(good, len(good))), refMergePairs(sum, good); !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: partition after the panic folded %v, reference %v", round, got, want)
		}
	}
}

// foldJobCase checks one ReduceByKey and one Distinct over rows against
// the reference loops, partition by partition: the map-side output is the
// reference over each input partition, the reduce side the reference over
// the routed blocks (refRoute, the router's own independent reference).
func foldJobCase[K comparable, V any](t *testing.T, s *Session, cache bool, rows []Pair[K, V], f func(V, V) V) {
	t.Helper()
	pre := Map(Parallelize(s, rows, 6), func(kv Pair[K, V]) Pair[K, V] { return kv })
	keys := Keys(pre)
	if cache {
		pre, keys = pre.Cache(), keys.Cache()
	}
	in := materializedParts(t, pre)

	red := ReduceByKeyN(pre, f, 5)
	comb := red.n.deps[0].parent
	if fused := s.buildExecPlan(red.n, nil).fused[comb] != nil; fused == (cache || s.noFuse) {
		t.Fatalf("combine fused = %v with cache=%v noFuse=%v", fused, cache, s.noFuse)
	}
	mapSide := materializedParts(t, fromNode[Pair[K, V]](s, comb))
	for p := range in {
		want := refMergePairs(f, elems[Pair[K, V]](in[p]))
		if got := elems[Pair[K, V]](mapSide[p]); !sameRows(got, want) {
			t.Fatalf("combine partition %d: %v, reference %v", p, got, want)
		}
	}
	out := materializedParts(t, red)
	for p, blk := range refRoute(&red.n.deps[0], mapSide) {
		want := refMergePairs(f, unboxed[Pair[K, V]](blk))
		if got := elems[Pair[K, V]](out[p]); !sameRows(got, want) {
			t.Fatalf("reduce partition %d: %v, reference %v", p, got, want)
		}
	}

	keyParts := materializedParts(t, keys)
	dis := DistinctN(keys, 5)
	local := materializedParts(t, fromNode[K](s, dis.n.deps[0].parent))
	for p := range keyParts {
		want := refDistinct(elems[K](keyParts[p]))
		if got := elems[K](local[p]); !sameRows(got, want) {
			t.Fatalf("local distinct partition %d: %v, reference %v", p, got, want)
		}
	}
	final := materializedParts(t, dis)
	for p, blk := range refRoute(&dis.n.deps[0], local) {
		want := refDistinct(unboxed[K](blk))
		if got := elems[K](final[p]); !sameRows(got, want) {
			t.Fatalf("distinct partition %d: %v, reference %v", p, got, want)
		}
		if final[p].BoxedCap() != len(blk) {
			t.Fatalf("distinct partition %d reports boxed capacity %d, want its input length %d", p, final[p].BoxedCap(), len(blk))
		}
	}
}

// TestFoldJobsMatchReference runs the shuffle-level cases through real
// jobs on 1, 2 and 4 host workers, with the combine fused into the chain
// below it, evaluated per operator, and cut off from it by a Cache().
func TestFoldJobsMatchReference(t *testing.T) {
	floats := make([]Pair[int, float64], 3000)
	strs := make([]Pair[string, string], 900)
	for i := range floats {
		floats[i] = KV((i*i)%97, 1/float64(i+1))
	}
	for i := range strs {
		strs[i] = KV(fmt.Sprint("k", (i*7)%23), fmt.Sprint(i))
	}
	few := []Pair[int, float64]{KV(1, 1.0), KV(1, 2.0)} // most partitions empty
	concat := func(a, b string) string { return a + "," + b }
	for _, workers := range []int{1, 2, 4} {
		for _, mode := range []string{"fused", "per-operator", "cached"} {
			t.Run(fmt.Sprint(mode, "/workers=", workers), func(t *testing.T) {
				s := poolSession(workers)
				defer s.Close()
				s.noFuse = mode == "per-operator"
				foldJobCase(t, s, mode == "cached", floats, halve)
				foldJobCase(t, s, mode == "cached", strs, concat)
				foldJobCase(t, s, mode == "cached", few, halve)
				foldJobCase(t, s, mode == "cached", few[:0], halve)
			})
		}
	}
}
