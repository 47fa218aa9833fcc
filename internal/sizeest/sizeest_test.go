package sizeest

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"matryoshka/internal/layout"
)

func TestPrimitives(t *testing.T) {
	cases := []struct {
		name string
		v    any
		min  int64
	}{
		{"int", 42, 8},
		{"bool", true, 1},
		{"float64", 3.14, 8},
		{"string", "hello", 5},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := Of(c.v); got < c.min {
				t.Errorf("Of(%v) = %d, want >= %d", c.v, got, c.min)
			}
		})
	}
}

func TestNilIsSmall(t *testing.T) {
	if got := Of(nil); got <= 0 || got > 64 {
		t.Errorf("Of(nil) = %d, want small positive", got)
	}
}

func TestSliceScalesWithLength(t *testing.T) {
	small := Of(make([]int64, 10))
	large := Of(make([]int64, 1000))
	if large <= small {
		t.Fatalf("large slice (%d) should exceed small slice (%d)", large, small)
	}
	// ~8 bytes per extra element.
	perElem := float64(large-small) / 990
	if perElem < 7 || perElem > 9 {
		t.Errorf("per-element cost = %.2f, want ~8", perElem)
	}
}

func TestStringsCountBytes(t *testing.T) {
	a := Of("x")
	b := Of("x" + string(make([]byte, 1000)))
	if b-a < 900 {
		t.Errorf("long string should cost ~1000 more bytes, delta=%d", b-a)
	}
}

func TestStructDeep(t *testing.T) {
	type inner struct {
		Name string
		Vals []float64
	}
	type outer struct {
		ID int64
		In inner
	}
	v := outer{ID: 1, In: inner{Name: "abc", Vals: make([]float64, 100)}}
	got := Of(v)
	if got < 800 {
		t.Errorf("deep struct = %d, want >= 800 (100 float64s inside)", got)
	}
}

func TestSharedPointerCountedOnce(t *testing.T) {
	big := make([]int64, 1000)
	type two struct{ A, B *[]int64 }
	shared := Of(two{&big, &big})
	distinct := Of(two{&big, ptrTo(make([]int64, 1000))})
	if shared >= distinct {
		t.Errorf("shared ptr (%d) should be smaller than distinct (%d)", shared, distinct)
	}
}

func ptrTo[T any](v T) *T { return &v }

func TestMapScales(t *testing.T) {
	m1 := map[int]int{1: 1}
	m2 := make(map[int]int)
	for i := 0; i < 1000; i++ {
		m2[i] = i
	}
	if Of(m2) <= Of(m1) {
		t.Error("bigger map should have bigger estimate")
	}
}

func TestOfSliceMatchesSumOrder(t *testing.T) {
	vs := []any{int64(1), "hello", 3.0}
	if got := OfSlice(vs); got < 30 {
		t.Errorf("OfSlice = %d, want >= 30", got)
	}
}

// Property: the estimate is always positive and monotone in slice length.
func TestQuickMonotone(t *testing.T) {
	f := func(n uint8) bool {
		a := Of(make([]int32, int(n)))
		b := Of(make([]int32, int(n)+10))
		return a > 0 && b > a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCyclicStructure(t *testing.T) {
	type node struct {
		Next *node
		Data [64]byte
	}
	a := &node{}
	b := &node{Next: a}
	a.Next = b   // cycle
	got := Of(a) // must terminate
	if got < 128 {
		t.Errorf("cycle of two nodes = %d, want >= 128", got)
	}
}

func TestMoreKinds(t *testing.T) {
	type fixedArr struct{ A [4]int32 }
	cases := []any{
		complex64(1 + 2i),
		complex128(3 + 4i),
		uint16(7),
		int8(1),
		[3]string{"a", "bb", "ccc"}, // array of variable-size elems
		fixedArr{},
		make(chan int),
		func() {},
		map[string][]int{"k": {1, 2, 3}},
		struct{ P *int }{},
		[]any{nil, 1, "x"},
	}
	for _, c := range cases {
		if got := Of(c); got <= 0 {
			t.Errorf("Of(%T) = %d, want positive", c, got)
		}
	}
}

func TestNilSliceAndMap(t *testing.T) {
	var s []int
	var m map[int]int
	if Of(s) <= 0 || Of(m) <= 0 {
		t.Error("nil containers still have header sizes")
	}
	if Of(s) >= Of(make([]int, 100)) {
		t.Error("nil slice should be smaller than a populated one")
	}
}

func TestOfSliceEmptyAndNilElems(t *testing.T) {
	if OfSlice(nil) < 0 {
		t.Error("negative size")
	}
	if OfSlice([]any{nil, nil}) <= 0 {
		t.Error("nil elements still cost headers")
	}
}

// ofSliceReference is the pre-batch-mode OfSlice loop: one reflective walk
// per element with an eagerly allocated shared-pointer table. The batch
// fast path must agree with it bit-for-bit — simulated cluster accounting
// observes these estimates, and A/B suites compare runs exactly.
func ofSliceReference(vs []any) int64 {
	seen := map[uintptr]struct{}{}
	total := sliceHeaderSize + int64(cap(vs))*ifaceSize
	for _, v := range vs {
		if v == nil {
			continue
		}
		total += of(reflect.ValueOf(v), seen)
	}
	return total
}

func TestOfSliceBatchMatchesReference(t *testing.T) {
	type pair struct {
		K int
		V int64
	}
	type padded struct {
		A int8
		B int64
		C [3]int16
	}
	shared := []int{1, 2, 3}
	cases := [][]any{
		nil,
		{nil, nil},
		{1, 2, 3, 4},
		{int8(1), uint16(2), 3.5, complex(1, 2)},
		{"", "a", "hello world, a longer string"},
		{pair{1, 2}, pair{3, 4}, pair{5, 6}},
		{padded{}, padded{1, 2, [3]int16{3, 4, 5}}},
		// Mixed-type runs: switches batch mode between constants,
		// strings, and the reflective fallback mid-slice.
		{1, "two", pair{3, 3}, []int{4, 5}, nil, 6, "seven"},
		// Shared pointers must still dedup across fallback elements.
		{shared, shared, shared},
		{map[string][]int{"k": {1}}, map[string][]int{"k": {1}}},
		{[4]string{"a", "b", "c", "d"}, [2]int{1, 2}},
	}
	cases = append(cases, planCases()...)
	for i, vs := range cases {
		if got, want := OfSlice(vs), ofSliceReference(vs); got != want {
			t.Errorf("case %d: OfSlice = %d, reference = %d", i, got, want)
		}
	}
	// Capacity beyond length is charged identically.
	withCap := make([]any, 0, 64)
	withCap = append(withCap, 1, "x", pair{2, 3})
	if got, want := OfSlice(withCap), ofSliceReference(withCap); got != want {
		t.Errorf("cap>len: OfSlice = %d, reference = %d", got, want)
	}
}

// kv is the boxed engine's row: a struct of two any fields, which has a
// plan.
type kv struct{ K, V any }

// labelled nests a kv and an any beside fixed fields, so its plan flattens
// a nested struct.
type labelled struct {
	ID  int32
	Row kv
	Tag any
	W   [2]float64
}

// withErr holds an interface with methods, and arrayRow an array of any:
// neither has a plan, both take the reflective walk.
type withErr struct {
	K   int
	Err error
}

type arrayRow [2]any

type name string

// planCases are boxed partitions of planned and unplanned rows. The shared
// slice appears with two capacities, so the total depends on which row the
// shared-pointer table meets first: a walk that visits leaves out of
// order would charge the wrong capacity.
func planCases() [][]any {
	shared := []int{1, 2, 3, 4}
	short := shared[:1:1]
	nested := kv{1, "inner"}
	return [][]any{
		{kv{1, 2}, kv{int64(1) << 40, "a longer string value"}, kv{nil, nil}, kv{"k", nested}, kv{kv{nested, nil}, 3.5}},
		{kv{short, 1}, kv{2, shared}, kv{shared, short}},
		{kv{shared, 1}, kv{2, short}},
		{labelled{1, kv{short, "x"}, shared, [2]float64{}}, labelled{ID: 2, Tag: kv{nil, short}}},
		{arrayRow{1, "x"}, arrayRow{shared, nil}, kv{short, arrayRow{}}},
		{withErr{1, nil}, withErr{2, errType{"boom"}}, kv{withErr{3, errType{"x"}}, 4}},
		{kv{1, 2}, nil, "mixed", kv{3, shared}, labelled{}, 7, kv{short, nil}},
		// A string type of another name is still sized as a string.
		{name("a"), name("longer"), kv{name("k"), "v"}},
	}
}

// testBatch is a minimal Batch: a typed backing slice plus the
// boxed-equivalent capacity, mirroring the engine's Vec.
type testBatch struct {
	data any
	n    int
	bcap int
}

func (b testBatch) Len() int      { return b.n }
func (b testBatch) BoxedCap() int { return b.bcap }
func (b testBatch) Rows() (reflect.Type, unsafe.Pointer) {
	v := reflect.ValueOf(b.data)
	return v.Type().Elem(), v.UnsafePointer()
}

// batchOver wraps a typed slice as a testBatch and returns the equivalent
// boxed partition with the same observed capacity, built element-wise the
// way the boxed engine built partitions.
func batchOver[T any](xs []T, bcap int) (testBatch, []any) {
	boxed := make([]any, 0, bcap)
	for _, x := range xs {
		boxed = append(boxed, x)
	}
	return testBatch{data: xs, n: len(xs), bcap: bcap}, boxed
}

// TestOfBatchMatchesBoxed: OfBatch on a typed batch equals the reflective
// reference estimate of the equivalent boxed []any partition, bit for bit,
// for every fast-path shape and the value-dependent fallback. This is the
// contract that lets the engine carry typed partitions while the simulated
// cluster observes exactly the numbers the boxed representation produced.
func TestOfBatchMatchesBoxed(t *testing.T) {
	type pair struct {
		K int
		V int64
	}
	shared := []int64{1, 2, 3}
	check := func(name string, b testBatch, boxed []any) {
		t.Helper()
		if got, want := OfBatch(b), ofSliceReference(boxed); got != want {
			t.Errorf("%s: OfBatch = %d, boxed reference = %d", name, got, want)
		}
	}
	b, boxed := batchOver([]int{1, -2, 3, 1 << 40}, 8)
	check("int", b, boxed)
	b, boxed = batchOver([]int64{5, 6}, 2)
	check("int64", b, boxed)
	b, boxed = batchOver([]uint64{7, 8, 9}, 4)
	check("uint64", b, boxed)
	b, boxed = batchOver([]float64{1.5, -2.5}, 16)
	check("float64", b, boxed)
	b, boxed = batchOver([]string{"", "a", "hello world, a longer string"}, 4)
	check("string", b, boxed)
	b, boxed = batchOver([]pair{{1, 2}, {3, 4}, {5, 6}}, 4)
	check("fixed-size struct", b, boxed)
	b, boxed = batchOver([][]int64{shared, shared, {4}}, 4)
	check("value-dependent with shared pointers", b, boxed)
	b, boxed = batchOver([]pair{}, 0)
	check("empty", b, boxed)

	// Interface element types skip nils and unwrap before walking, like the
	// boxed loop (whose nil slots are plain nil anys).
	errs := []error{nil, errType{"x"}, nil, errType{"yy"}}
	boxed = make([]any, 0, 8)
	for _, e := range errs {
		if e == nil {
			boxed = append(boxed, nil)
		} else {
			boxed = append(boxed, e)
		}
	}
	check("interface elems", testBatch{data: errs, n: len(errs), bcap: 8}, boxed)

	// Planned rows as a typed batch read their any fields in place; rows
	// without a plan walk. Each must equal its boxed equivalent.
	for i, rows := range planCases() {
		b, boxed = batchOver(rows, cap(rows)+3)
		check(fmt.Sprintf("plan case %d as []any", i), b, boxed)
	}
	shared4 := []int{1, 2, 3, 4}
	kvs := []kv{{1, "a"}, {shared4[:2:2], nil}, {kv{2, shared4}, int64(1) << 50}, {}}
	b, boxed = batchOver(kvs, 8)
	check("typed planned struct", b, boxed)
	b, boxed = batchOver([]labelled{{1, kv{shared4, "x"}, shared4[:1:1], [2]float64{}}, {ID: 2}}, 2)
	check("typed nested planned struct", b, boxed)
	b, boxed = batchOver([]arrayRow{{1, "x"}, {shared4, nil}}, 2)
	check("typed array of any", b, boxed)
	b, boxed = batchOver([]withErr{{1, nil}, {2, errType{"boom"}}}, 4)
	check("typed interface-with-methods field", b, boxed)

	// The boxed fallback IS the OfSlice loop: same result on shared input.
	mixed := []any{1, "two", pair{3, 3}, nil, shared}
	got := OfBatch(testBatch{data: mixed, n: len(mixed), bcap: cap(mixed)})
	if want := ofSliceReference(mixed); got != want {
		t.Errorf("boxed fallback: OfBatch = %d, reference = %d", got, want)
	}
}

// sampleEvery builds the sample the engine once copied out of a partition
// and OfEvery now walks in place: every step-th element, under the given
// boxed capacity.
func sampleEvery[T any](xs []T, step, bcap int) testBatch {
	var out []T
	for i := 0; i < len(xs); i += step {
		out = append(out, xs[i])
	}
	return testBatch{data: out, n: len(out), bcap: bcap}
}

// TestOfFixedMatchesSampledBatch: for every fixed-size shape OfFixed of the
// element type's fixed deep size (layout.Layout.Deep) equals OfBatch over
// the sample the engine would have built — so the engine may skip building
// it — and for []any and every value-dependent shape there is none.
func TestOfFixedMatchesSampledBatch(t *testing.T) {
	type pair struct {
		K int
		V int64
	}
	type padded struct {
		A int8
		B int64
		C [3]int16
	}
	fixed := func(name string, sample testBatch, full any) {
		t.Helper()
		size := layout.Of(reflect.TypeOf(full).Elem()).Deep
		if got, want := OfFixed(size, sample.n, sample.bcap), OfBatch(sample); size < 0 || got != want {
			t.Errorf("%s: OfFixed = %d, Deep %d; OfBatch of the sample = %d", name, got, size, want)
		}
	}
	ints, i64s, u64s, f64s := make([]int, 1000), make([]int64, 100), make([]uint64, 65), make([]float64, 127)
	pairs, pads, arrs := make([]pair, 4095), make([]padded, 333), make([][7]float64, 64)
	fixed("int", sampleEvery(ints, 31, 37), ints)
	fixed("int64", sampleEvery(i64s, 3, 37), i64s)
	fixed("uint64", sampleEvery(u64s, 2, 37), u64s)
	fixed("float64", sampleEvery(f64s, 3, 64), f64s)
	fixed("fixed-size struct", sampleEvery(pairs, 127, 37), pairs)
	fixed("padded struct", sampleEvery(pads, 10, 64), pads)
	fixed("array", sampleEvery(arrs, 2, 32), arrs)
	fixed("empty", sampleEvery(pairs[:0], 1, 0), pairs[:0])

	for name, data := range map[string]any{
		"boxed":            []any{1, 2, 3},
		"string":           []string{"a", "bb"},
		"slices":           [][]int64{{1}, {2, 3}},
		"string in struct": []struct{ S string }{{"x"}},
		"interface elems":  []error{nil, errType{"x"}},
		"pointers":         []*int{nil},
	} {
		if got := layout.Of(reflect.TypeOf(data).Elem()).Deep; got >= 0 {
			t.Errorf("%s: Deep = %d; want -1 for a value-dependent shape", name, got)
		}
	}
}

// TestOfEveryMatchesBuiltSample: the strided walk equals OfBatch of the
// sample built explicitly, for every step the engine can take and lengths
// that are not a multiple of it, on typed, planned, unplanned and boxed
// partitions.
func TestOfEveryMatchesBuiltSample(t *testing.T) {
	shared := []int{1, 2, 3}
	const n = 100
	ints, strs, kvs, errs, slices := make([]int, n), make([]string, n), make([]kv, n), make([]error, n), make([][]int, n)
	boxed := make([]any, n)
	for i := range n {
		ints[i] = i
		strs[i] = strings.Repeat("s", i%11)
		kvs[i] = kv{i, strs[i]}
		if i%4 == 0 {
			kvs[i] = kv{shared[: i%3 : i%3], kv{int64(i), nil}}
			errs[i] = errType{strs[i]}
		}
		slices[i] = shared[:i%4]
		boxed[i] = kvs[i]
		if i%7 == 0 {
			boxed[i] = nil
		}
	}
	for _, step := range []int{1, 2, 3, 31} {
		for _, m := range []int{0, 1, 31, 62, 63, 64, n} {
			for name, pair := range map[string][2]testBatch{
				"int":     {batch(ints[:m], 64), sampleEvery(ints[:m], step, 37)},
				"string":  {batch(strs[:m], 64), sampleEvery(strs[:m], step, 37)},
				"planned": {batch(kvs[:m], 64), sampleEvery(kvs[:m], step, 37)},
				"iface":   {batch(errs[:m], 64), sampleEvery(errs[:m], step, 37)},
				"slices":  {batch(slices[:m], 64), sampleEvery(slices[:m], step, 37)},
				"boxed":   {batch(boxed[:m], 64), sampleEvery(boxed[:m], step, 37)},
			} {
				if got, want := OfEvery(pair[0], step, 37), OfBatch(pair[1]); got != want {
					t.Errorf("%s, n=%d, step %d: OfEvery = %d, OfBatch of the sample = %d", name, m, step, got, want)
				}
			}
		}
	}
}

func batch[T any](xs []T, bcap int) testBatch { return testBatch{data: xs, n: len(xs), bcap: bcap} }

type errType struct{ s string }

func (e errType) Error() string { return e.s }
