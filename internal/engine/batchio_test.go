package engine

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

var regenFuzzCorpus = flag.Bool("regen-fuzz-corpus", false,
	"rewrite the checked-in FuzzBatchCodec seed corpus from codecBatches, pinnedFrames and badTagBatches")

// randString returns a printable string of length up to maxLen.
func randString(rng *rand.Rand, maxLen int) string {
	n := rng.Intn(maxLen + 1)
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(' ' + rng.Intn(95))
	}
	return string(b)
}

// maybeString is an optional value, so the codec cases carry a bool.
type maybeString struct {
	Val string
	OK  bool
}

// codecBatches generates one randomized batch per supported shape —
// typed scalars, strings, pairs, nested slices, and the boxed batches of an
// ir dataset (including nil elements and mixed element types).
func codecBatches(rng *rand.Rand) []Batch {
	n := rng.Intn(40)
	ints := make([]int, n)
	floats := make([]float64, n)
	strs := make([]string, n)
	pii := make([]Pair[int, int], n)
	psi := make([]Pair[string, int], n)
	groups := make([]Pair[int, []int], n)
	dict := make([]Pair[uint64, int64], n)
	dictGroups := make([]Pair[uint64, []int64], n)
	opts := make([]Pair[int, Tuple2[int, maybeString]], n)
	for i := 0; i < n; i++ {
		ints[i] = rng.Int() - rng.Int()
		floats[i] = rng.NormFloat64()
		strs[i] = randString(rng, 24)
		pii[i] = Pair[int, int]{rng.Intn(1000), rng.Intn(1000)}
		psi[i] = Pair[string, int]{randString(rng, 8), rng.Intn(100)}
		g := make([]int, rng.Intn(5))
		for k := range g {
			g[k] = rng.Intn(50)
		}
		groups[i] = Pair[int, []int]{rng.Intn(10), g}
		dict[i] = Pair[uint64, int64]{rng.Uint64(), int64(rng.Intn(1 << 20))}
		dg := make([]int64, rng.Intn(5))
		for k := range dg {
			dg[k] = int64(rng.Intn(1 << 16))
		}
		dictGroups[i] = Pair[uint64, []int64]{rng.Uint64(), dg}
		opts[i] = Pair[int, Tuple2[int, maybeString]]{
			Key: i, Val: Tuple2[int, maybeString]{A: rng.Intn(5), B: maybeString{Val: randString(rng, 6), OK: rng.Intn(2) == 0}},
		}
	}
	boxed := make([]any, n)
	for i := range boxed {
		switch rng.Intn(4) {
		case 0:
			boxed[i] = nil
		case 1:
			boxed[i] = rng.Intn(1 << 16)
		case 2:
			boxed[i] = randString(rng, 12)
		default:
			boxed[i] = Pair[int, int]{i, i * 2}
		}
	}
	bcap := n + rng.Intn(8) // bcap need not equal len; it must survive the trip
	return []Batch{
		batchOf(ints, bcap),
		batchOf(floats, bcap),
		batchOf(strs, bcap),
		batchOf(pii, bcap),
		batchOf(psi, bcap),
		batchOf(groups, bcap),
		batchOf(dict, bcap),
		batchOf(dictGroups, bcap),
		batchOf(opts, bcap),
		boxedOf(boxed),
		zeroBatch,
		nil, // encodes as the empty boxed frame
	}
}

// batchEqual compares two batches semantically: same concrete
// representation, length, boxed capacity, and elements. (DeepEqual on the
// Vec values would distinguish nil from empty backing slices, which the
// wire format deliberately does not carry.)
func batchEqual(a, b Batch) bool {
	if reflect.TypeOf(a) != reflect.TypeOf(b) {
		return false
	}
	if a.Len() != b.Len() || a.BoxedCap() != b.BoxedCap() {
		return false
	}
	return reflect.DeepEqual(boxedElems(a), boxedElems(b))
}

// TestBatchCodecRoundTrip: EncodeBatch then DecodeBatch reproduces every
// batch shape exactly — elements, length, boxed capacity, and concrete
// representation — over randomized contents, and consumes whole frames
// even when concatenated.
func TestBatchCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		var stream []byte
		batches := codecBatches(rng)
		for _, b := range batches {
			enc, err := EncodeBatch(nil, b)
			if err != nil {
				t.Fatalf("trial %d: encode %T: %v", trial, b, err)
			}
			dec, consumed, err := DecodeBatch(enc)
			if err != nil {
				t.Fatalf("trial %d: decode %T: %v", trial, b, err)
			}
			if consumed != len(enc) {
				t.Fatalf("trial %d: consumed %d of %d frame bytes", trial, consumed, len(enc))
			}
			want := b
			if want == nil {
				want = zeroBatch
			}
			if !batchEqual(dec, want) {
				t.Fatalf("trial %d: round trip differs for %s:\n got %#v\nwant %#v", trial, want.Shape(), dec, want)
			}
			stream = append(stream, enc...)
		}
		// Frames are self-delimiting: the concatenated stream decodes back
		// into the same sequence.
		for _, b := range batches {
			dec, consumed, err := DecodeBatch(stream)
			if err != nil {
				t.Fatalf("trial %d: stream decode: %v", trial, err)
			}
			want := b
			if want == nil {
				want = zeroBatch
			}
			if !batchEqual(dec, want) {
				t.Fatalf("trial %d: stream round trip differs for %s", trial, want.Shape())
			}
			stream = stream[consumed:]
		}
		if len(stream) != 0 {
			t.Fatalf("trial %d: %d stream bytes left over", trial, len(stream))
		}
	}
}

// TestBatchCodecDeterministic: the same batch always encodes to the same
// bytes — the wire format has no map iteration or randomized content.
func TestBatchCodecDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, b := range codecBatches(rng) {
		a1, err1 := EncodeBatch(nil, b)
		a2, err2 := EncodeBatch(nil, b)
		if err1 != nil || err2 != nil {
			t.Fatalf("encode: %v / %v", err1, err2)
		}
		if !reflect.DeepEqual(a1, a2) {
			t.Fatalf("nondeterministic encoding for %T", b)
		}
	}
}

// TestBatchCodecRejects: element shapes the wire format cannot carry fail
// on encode with errBatchCodec, and malformed input fails on decode
// without panicking.
func TestBatchCodecRejects(t *testing.T) {
	type hidden struct{ x int }
	encodeErr := func(b Batch) error {
		_, err := EncodeBatch(nil, b)
		return err
	}
	if err := encodeErr(batchOf([]map[int]int{{1: 2}}, 1)); !errors.Is(err, errBatchCodec) {
		t.Fatalf("map element: err = %v, want errBatchCodec", err)
	}
	if err := encodeErr(batchOf([]*int{new(int)}, 1)); !errors.Is(err, errBatchCodec) {
		t.Fatalf("pointer element: err = %v, want errBatchCodec", err)
	}
	if err := encodeErr(batchOf([]hidden{{x: 1}}, 1)); !errors.Is(err, errBatchCodec) {
		t.Fatalf("unexported field: err = %v, want errBatchCodec", err)
	}
	if err := encodeErr(boxedOf([]any{func() {}})); !errors.Is(err, errBatchCodec) {
		t.Fatalf("boxed func element: err = %v, want errBatchCodec", err)
	}
	// A batch of another interface type would decode boxed, in a shape
	// its dataset's readers do not take.
	if err := encodeErr(batchOf([]error{nil}, 1)); !errors.Is(err, errBatchCodec) {
		t.Fatalf("non-empty interface element: err = %v, want errBatchCodec", err)
	}
	// The verdict is worked out once per type: encoding a refused shape
	// again fails with the same text.
	for _, c := range []struct {
		b    Batch
		want string
	}{
		{batchOf([]hidden{{x: 1}}, 1), "engine: batch codec: unexported field engine.hidden.x"},
		{boxedOf([]any{func() {}}), "engine: batch codec: unsupported element kind func (func())"},
	} {
		if err := encodeErr(c.b); err == nil || err.Error() != c.want {
			t.Fatalf("%s encoded again: err = %v, want %s", c.b.Shape(), err, c.want)
		}
	}

	good, err := EncodeBatch(nil, batchOf([]int{1, 2, 3}, 3))
	if err != nil {
		t.Fatal(err)
	}
	bad := [][]byte{
		nil,
		good[:3],                            // short header
		append([]byte("XXXX"), good[4:]...), // bad magic
		good[:len(good)-2],                  // truncated payload
	}
	for i, data := range bad {
		if _, _, err := DecodeBatch(data); err == nil {
			t.Fatalf("malformed input %d decoded without error", i)
		}
	}
	// Unknown shape name.
	unknown := append([]byte{}, good...)
	copy(unknown[13:], []byte("zzz")) // overwrite "int" shape bytes
	if _, _, err := DecodeBatch(unknown); !errors.Is(err, errBatchCodec) {
		t.Fatalf("unknown shape: err = %v, want errBatchCodec", err)
	}

	// A name can resolve to a type that is not plain data: every shape an
	// operator builds is registered, the ir front end's Pair[any, any] and
	// the pointer batch above included. Its frame is refused on decode
	// too, typed or as a boxed element. Each payload is as long as the
	// type's leaves at 8 bytes each, and zero, so a decoder that walked
	// them anyway would succeed (with nil words) rather than crash.
	registerBatchCodec[Pair[any, any]]()
	anys, ptr := batchTypeName(reflect.TypeFor[Pair[any, any]]()), batchTypeName(reflect.TypeFor[*int]())
	for _, c := range []struct {
		name  string
		frame []byte
	}{
		{"typed Pair[any, any]", rawFrame(batchKindTyped, anys, 1, make([]byte, 16))},
		{"boxed Pair[any, any]", rawFrame(batchKindBoxed, "", 1, append(appendU32String(nil, anys), make([]byte, 16)...))},
		{"boxed *int", rawFrame(batchKindBoxed, "", 1, append(appendU32String(nil, ptr), make([]byte, 8)...))},
	} {
		if _, _, err := DecodeBatch(c.frame); !errors.Is(err, errBatchCodec) {
			t.Fatalf("%s frame: err = %v, want errBatchCodec", c.name, err)
		}
	}
}

// TestTagRoundTrip: a batch of Pair[Tag, int64] rows, at every depth
// RootTag and Push make, decodes to the rows encoded.
func TestTagRoundTrip(t *testing.T) {
	rows := []Pair[Tag, int64]{
		{Tag{}, 0},
		{RootTag(7), -1},
		{RootTag(7).Push(1 << 63), 2},
		{RootTag(math.MaxUint64).Push(0).Push(9), math.MinInt64},
	}
	enc, err := EncodeBatch(nil, batchOf(rows, len(rows)))
	if err != nil {
		t.Fatal(err)
	}
	dec, n, err := DecodeBatch(enc)
	if err != nil || n != len(enc) {
		t.Fatalf("decode: %d of %d bytes, %v", n, len(enc), err)
	}
	if got := elems[Pair[Tag, int64]](dec); !reflect.DeepEqual(got, rows) {
		t.Fatalf("decoded %v, want %v", got, rows)
	}
}

// tagTree holds Tags at every depth of itself, through a slice.
type tagTree struct {
	T    Tag
	Kids []tagTree
}

// badTags are Tags no RootTag and Push make: one level too many, and an id
// past its one level.
var badTags = []Tag{
	{Levels: MaxNestingLevels + 1, IDs: [MaxNestingLevels]uint64{1, 2, 3}},
	{Levels: 1, IDs: [MaxNestingLevels]uint64{1, 0, 5}},
}

// badTagBatches hold one Pair[Tag, int64] row per bad tag. Encode does
// not check Tags, so their frames carry the bad values.
func badTagBatches() []Batch {
	var bs []Batch
	for _, tag := range badTags {
		bs = append(bs, batchOf([]Pair[Tag, int64]{{tag, 1}}, 1))
	}
	return bs
}

// TestDecodeRefusesBadTags: a bad Tag fails the decode wherever a row holds
// it — as a field, in a slice, in a slice of a type that holds itself, as a
// boxed row — with the codec's error.
func TestDecodeRefusesBadTags(t *testing.T) {
	for i, tag := range badTags {
		good := RootTag(1)
		for _, b := range []Batch{
			batchOf([]Pair[Tag, int64]{{good, 0}, {tag, 1}}, 2),
			batchOf([]Pair[uint64, []Tag]{{1, []Tag{good, tag}}}, 1),
			batchOf([]tagTree{{T: good, Kids: []tagTree{{T: good}, {T: good, Kids: []tagTree{{T: tag}}}}}}, 1),
			boxedOf([]any{good, tag}),
		} {
			enc, err := EncodeBatch(nil, b)
			if err != nil {
				t.Fatalf("bad tag %d in %s: encode: %v", i, b.Shape(), err)
			}
			if _, _, err := DecodeBatch(enc); !errors.Is(err, errBatchCodec) || !strings.Contains(err.Error(), "tag of depth") {
				t.Fatalf("bad tag %d in %s: decode err = %v, want the codec's refusal of the tag", i, b.Shape(), err)
			}
		}
	}
}

// rawFrame builds a frame by hand: kind, shape, n (as count and capacity)
// and payload as given, whatever the payload holds.
func rawFrame(kind byte, shape string, n uint32, payload []byte) []byte {
	f := append(batchMagic[:], 0, 0, 0, 0, kind)
	f = appendU32String(f, shape)
	f = binary.LittleEndian.AppendUint32(f, n)
	f = binary.LittleEndian.AppendUint32(f, n)
	f = append(f, payload...)
	binary.LittleEndian.PutUint32(f[4:], uint32(len(f)-8))
	return f
}

// TestDecodeCountsBoundAllocation: an element count or a slice length the
// rest of the frame cannot hold fails before the decoder allocates for it:
// 64k elements and no payload, one row whose slice claims 64k elements and
// holds none, and 1k elements of at least 12 wire bytes each in 1k bytes.
func TestDecodeCountsBoundAllocation(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates shadow state")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	frame := func(n uint32, payload []byte) []byte {
		return rawFrame(batchKindTyped, batchTypeName(reflect.TypeFor[Pair[uint64, []int64]]()), n, payload)
	}
	for _, c := range []struct {
		name  string
		frame []byte
	}{
		{"element count", frame(1<<16, nil)},
		{"slice length", frame(1, binary.LittleEndian.AppendUint32(make([]byte, 8), 1<<16))},
		// Fewer elements than bytes, but too many for 12 bytes each.
		{"wire bytes per element", frame(1<<10, make([]byte, 1<<10))},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _, err := DecodeBatch(c.frame)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("%s: a %d-byte frame decoded", c.name, len(c.frame))
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 4<<10 {
			t.Errorf("%s: decoding a %d-byte frame allocated %d bytes before failing: %v", c.name, len(c.frame), got, err)
		}
	}
	if n := len(frame(1<<16, nil)); n != 48 {
		t.Fatalf("the empty frame is %d bytes, want 48", n)
	}
}

// TestEncodedBatchBytes: the observability counter equals the real frame
// size for encodable batches, 0 for unencodable ones, and never errors.
func TestEncodedBatchBytes(t *testing.T) {
	var scratch []byte
	rng := rand.New(rand.NewSource(11))
	for _, b := range codecBatches(rng) {
		enc, err := EncodeBatch(nil, b)
		if err != nil {
			t.Fatal(err)
		}
		if got := encodedBatchBytes(&scratch, b); got != int64(len(enc)) {
			t.Fatalf("%T: encodedBatchBytes = %d, want %d", b, got, len(enc))
		}
	}
	if got := encodedBatchBytes(&scratch, batchOf([]map[int]int{{1: 2}}, 1)); got != 0 {
		t.Fatalf("unencodable batch: got %d, want 0", got)
	}
}

// pinnedFrames are batches covering every kind of leaf the codec writes,
// with the SHA-256 of each one's frame as the codec wrote it before its
// row walk was rewritten. Every process that ever shipped a block agrees on
// these bytes.
func pinnedFrames() []struct {
	name string
	b    Batch
	sum  string
} {
	negZero := math.Copysign(0, -1)
	inf := math.Inf(1)
	nan32, nan64 := math.Float32frombits(0x7fc00001), math.Float64frombits(0x7ff8000000000001)
	type box struct {
		S string
		N int16
	}
	return []struct {
		name string
		b    Batch
		sum  string
	}{
		{"bool", batchOf([]bool{true, false, true}, 4), "7b6375a0c51db8d2952d393be79cbf5e1778e7f02e4970df7e25a06ca5f67eff"},
		{"int8", batchOf([]int8{-128, -1, 0, 127}, 4), "3f3f8fbbf9b03a75fae83e450e2745501a0f612a8b41400ab53f0fddfa4dfee9"},
		{"int16", batchOf([]int16{-32768, -300, 1, 32767}, 4), "8b8f5cfdf725f1890e0e748a87c4361048cae41016c3b83f32fe6b88e662296f"},
		{"int32", batchOf([]int32{math.MinInt32, -70000, 2, math.MaxInt32}, 4), "fedabaa5530ab34eb7dd8a4b48cf87819ba10524a3220944aa4671678b0aa0d0"},
		{"int64", batchOf([]int64{math.MinInt64, -5, 3, math.MaxInt64}, 4), "cfd13e7ef1f59b48ac10faae22a784bd41f832fb7d8b95e24e26ed55d8df7359"},
		{"int", batchOf([]int{math.MinInt, -6, 4, math.MaxInt}, 5), "ac56eb8f79bf56f791d1c6f603ece451eae135dc2ecb45d81144b6f8cdd746fb"},
		{"uint8", batchOf([]uint8{0, 1, 255}, 3), "0fcff1dd228e5f6910aff5147935bc922127c784475f2501f96c32f3dd914d83"},
		{"uint16", batchOf([]uint16{0, 2, 65535}, 3), "de81eb4b6e57a1aaf0ea7ffaa781bcc3776b052c77dfe6c66b22a15a44bc8266"},
		{"uint32", batchOf([]uint32{0, 3, math.MaxUint32}, 3), "6bc52a4947c1f84797b0aaa3befb0ceccfe816165670104669b188f404734c8f"},
		{"uint64", batchOf([]uint64{0, 4, math.MaxUint64}, 3), "d6099b054cb89ff7c053c2e0061e7c030db07cfebc830533bafe868ff9d5b7bb"},
		{"uint", batchOf([]uint{0, 5, math.MaxUint}, 3), "4c5de16408fcf40d330622864ab90c1139bb765cfe7917e1dab7dae150f63422"},
		{"float32", batchOf([]float32{float32(negZero), nan32, float32(inf), float32(-inf), 1.5}, 5), "e0ead3032147d3e6b7bbed7bb5e0d33125c3cbfea64b6b4493db9704e15c6f51"},
		{"float64", batchOf([]float64{negZero, nan64, inf, -inf, -2.25}, 5), "ff50c43090506925fac5123e07c5ea49613fb857ecbb2ee0d8042d5badb3129b"},
		{"complex64", batchOf([]complex64{complex(1.5, -2), complex(float32(negZero), nan32)}, 2), "260d4f94d2aff5748f8f40ff1f59ee75c051f608b25a13b4d3f96c1201f582bd"},
		{"complex128", batchOf([]complex128{complex(negZero, 3.25), complex(inf, nan64)}, 2), "6c15218c8645e744f89a55bc7c2e2047a6c900c72b66df58c27bb6184d94a3d3"},
		{"string", batchOf([]string{"", "a", "héllo, wörld"}, 3), "b4248cdd0bb4aee55674e5bc3757d3bcd22c87c32875a8fb3a6f629b4aee9806"},
		{"[]byte", batchOf([][]byte{nil, {}, []byte("bytes\x00\xff")}, 3), "83bd01cad689e032e36d75d1ea1633318a23fb70282087fb6695b3ebf91d2a1e"},
		{"[][]int16", batchOf([][][]int16{nil, {{}, {-1, 2}}, {{32767}}}, 3), "b901642141c004686e6378da22a2347161ac2f0347008b488324dc5bee724355"},
		{"[3]Pair[int32, bool]", batchOf([][3]Pair[int32, bool]{{{-1, true}, {2, false}, {3, true}}}, 1), "f6b3bb70d758c69c7b8d88a5d0dde75fb0f7c61cb0d53e5023b76d3efd04593f"},
		{"Pair[int, int]", batchOf([]Pair[int, int]{{1, -2}, {3, 4}}, 2), "183182b204862fa77c4b575923e65de7557101697754f3fb2550f6ff9614ea0c"},
		{"Pair[int, int64]", batchOf([]Pair[int, int64]{{-1, 1 << 40}}, 1), "d7cb5942724d4568a780bcff81778a6edb7dbe030ebcc71de1cb0f4207cb3e2d"},
		{"Pair[int64, int64]", batchOf([]Pair[int64, int64]{{7, -7}}, 2), "0f086e020487673f99119604e003d4ad6af6997f7a2d795ea1234f4462e729cd"},
		{"Pair[string, int]", batchOf([]Pair[string, int]{{"k", 1}, {"", -1}}, 2), "47312cbd5badae5b2bc8fabf5ccb8f8856e9557105feb4367dfc294b4229ff4f"},
		{"Pair[string, string]", batchOf([]Pair[string, string]{{"key", "value"}}, 1), "218f4d98e95a2a9bcaffdf797ed59183bb8aac3ce16cdd713aefd694401ec2bf"},
		{"Pair[uint64, int64]", batchOf([]Pair[uint64, int64]{{math.MaxUint64, math.MinInt64}}, 1), "f82f7e767e0d3e80fdd192b78edc949f646d3e9cd6d994136d2003b185c5e5d3"},
		{"Pair[uint64, uint64]", batchOf([]Pair[uint64, uint64]{{1, 2}, {3, 4}}, 3), "edb437621c3f3b98eb6172d562be4b071b06723be3ee974f346e12a0f856b49a"},
		{"Pair[uint64, []int64]", batchOf([]Pair[uint64, []int64]{{9, nil}, {10, []int64{-1, 0, 1}}}, 2), "b78bb663e373da9f7b9a4d30a73c520e133cb00d0ec078e81d68858ae4abb9e0"},
		{"boxed", boxedOf([]any{nil, -42, "boxed", box{"s", -3}, [2]uint8{1, 2}, []string{"x", ""}}), "53ac8c7c8d39ec0c77a4f603d1ddcc517c1149893e2de823326d093168d77b24"},
	}
}

// TestBatchFramesPinned: the frames of pinnedFrames hash as recorded, and
// each decodes back to a batch that encodes to the same bytes.
func TestBatchFramesPinned(t *testing.T) {
	for _, c := range pinnedFrames() {
		enc, err := EncodeBatch(nil, c.b)
		if err != nil {
			t.Fatalf("%s: encode: %v", c.name, err)
		}
		sum := sha256.Sum256(enc)
		if got := hex.EncodeToString(sum[:]); got != c.sum {
			t.Errorf("%s: frame sha256 %s, pinned %s (frame %x)", c.name, got, c.sum, enc)
		}
		dec, n, err := DecodeBatch(enc)
		if err != nil || n != len(enc) {
			t.Fatalf("%s: decode: %d of %d bytes, %v", c.name, n, len(enc), err)
		}
		if again, err := EncodeBatch(nil, dec); err != nil || !bytes.Equal(again, enc) {
			t.Errorf("%s: decoded batch encodes to %x, %v; want %x", c.name, again, err, enc)
		}
	}
}

const fuzzCorpusDir = "testdata/fuzz/FuzzBatchCodec"

// TestFuzzCorpus keeps the checked-in FuzzBatchCodec seed corpus honest:
// every file must parse as a Go corpus entry whose frame either decodes
// cleanly or fails with errBatchCodec — never panics. Run with
// -regen-fuzz-corpus to rewrite the seeds from codecBatches, pinnedFrames
// and badTagBatches.
func TestFuzzCorpus(t *testing.T) {
	if *regenFuzzCorpus {
		if err := os.MkdirAll(fuzzCorpusDir, 0o755); err != nil {
			t.Fatal(err)
		}
		write := func(name string, b Batch) {
			enc, err := EncodeBatch(nil, b)
			if err != nil {
				t.Fatal(err)
			}
			body := fmt.Sprintf("go test fuzz v1\n[]byte(%s)\n", strconv.Quote(string(enc)))
			if err := os.WriteFile(filepath.Join(fuzzCorpusDir, name), []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		rng := rand.New(rand.NewSource(1))
		for i, b := range codecBatches(rng) {
			write(fmt.Sprintf("seed-%02d", i), b)
		}
		for i, c := range pinnedFrames() {
			write(fmt.Sprintf("pinned-%02d", i), c.b)
		}
		for i, b := range badTagBatches() {
			write(fmt.Sprintf("tag-%02d", i), b)
		}
	}
	files, err := filepath.Glob(filepath.Join(fuzzCorpusDir, "*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatalf("no seed corpus in %s (run go test -run TestFuzzCorpus -regen-fuzz-corpus)", fuzzCorpusDir)
	}
	for _, name := range files {
		raw, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
		if len(lines) != 2 || lines[0] != "go test fuzz v1" {
			t.Fatalf("%s: not a v1 corpus entry", name)
		}
		lit := strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")")
		data, err := strconv.Unquote(lit)
		if err != nil {
			t.Fatalf("%s: bad byte literal: %v", name, err)
		}
		if _, _, err := DecodeBatch([]byte(data)); err != nil && !errors.Is(err, errBatchCodec) {
			t.Fatalf("%s: decode failed outside the codec error space: %v", name, err)
		}
	}
}

// FuzzBatchCodec: DecodeBatch must never panic on arbitrary input, and
// whatever it accepts must re-encode and decode to the same batch. A Tag
// it accepts must be the one RootTag and Push build from its levels.
func FuzzBatchCodec(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for _, b := range append(codecBatches(rng), badTagBatches()...) {
		if enc, err := EncodeBatch(nil, b); err == nil {
			f.Add(enc)
		}
	}
	for _, c := range pinnedFrames() {
		if enc, err := EncodeBatch(nil, c.b); err == nil {
			f.Add(enc)
		}
	}
	f.Add([]byte("MBA1"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		b, consumed, err := DecodeBatch(data)
		if err != nil {
			return
		}
		if consumed <= 0 || consumed > len(data) {
			t.Fatalf("consumed %d of %d", consumed, len(data))
		}
		enc, err := EncodeBatch(nil, b)
		if err != nil {
			t.Fatalf("decoded batch does not re-encode: %v", err)
		}
		again, _, err := DecodeBatch(enc)
		if err != nil {
			t.Fatalf("re-encoded frame does not decode: %v", err)
		}
		// The fixed point is the encoded frame, compared as bytes: the
		// codec is bit-preserving, and DeepEqual on decoded values would
		// reject NaN payloads the codec carries faithfully (NaN != NaN).
		enc2, err := EncodeBatch(nil, again)
		if err != nil {
			t.Fatalf("re-decoded batch does not encode: %v", err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("encode(decode(enc)) != enc")
		}
		if reflect.TypeOf(b) != reflect.TypeOf(again) {
			t.Fatalf("round trip changed batch type: %T vs %T", b, again)
		}
		if _, ok := b.(*Vec[Pair[Tag, int64]]); ok {
			for _, p := range elems[Pair[Tag, int64]](b) {
				if built := buildTag(p.Key); built != p.Key {
					t.Fatalf("decoded tag of %d levels %v, which RootTag and Push build as %d levels %v", p.Key.Levels, p.Key.IDs, built.Levels, built.IDs)
				}
			}
		}
	})
}

// buildTag builds, with RootTag and Push, the Tag of t's levels. It panics
// on a Tag deeper than MaxNestingLevels.
func buildTag(t Tag) Tag {
	var built Tag
	for i := range t.Depth() {
		if i == 0 {
			built = RootTag(t.IDs[0])
		} else {
			built = built.Push(t.IDs[i])
		}
	}
	return built
}

// pointSum has the layout of ml.PointSum: a k-means assignment task ships
// back its rows as Pair[int, ml.PointSum].
type pointSum struct {
	X, Y float64
	N    int64
}

// BenchmarkBatchCodec encodes and decodes 10 000-row frames of the k-means
// tasks' result rows, a shredded dictionary's Pair[uint64, int64] and a
// boxed batch of the ir front end's key-value pairs (boxed as
// Pair[int64, int64]: a Pair[any, any] is not plain data, so the codec
// refuses it). The frames are large enough that the ten iterations of
// make bench-check take milliseconds, not a scheduling hiccup's length.
func BenchmarkBatchCodec(b *testing.B) {
	const n = 10000
	kmeans := make([]Pair[int, pointSum], n)
	dict := make([]Pair[uint64, int64], n)
	boxed := make([]any, n)
	for i := range n {
		kmeans[i] = Pair[int, pointSum]{i % 8, pointSum{float64(i), -float64(i), int64(i)}}
		dict[i] = Pair[uint64, int64]{uint64(i) * 0x9e3779b97f4a7c15, int64(i)}
		boxed[i] = Pair[int64, int64]{int64(i), int64(i % 7)}
	}
	cases := []struct {
		name  string
		batch Batch
	}{
		{"kmeans", batchOf(kmeans, n)},
		{"dict", batchOf(dict, n)},
		{"boxed", boxedOf(boxed)},
	}
	for _, c := range cases {
		frame, err := EncodeBatch(nil, c.batch)
		if err != nil {
			b.Fatal(err)
		}
		b.Run("encode/"+c.name, func(b *testing.B) {
			b.ReportAllocs()
			buf := bytes.Clone(frame) // written once, so the timed loop starts warm
			for b.Loop() {
				buf, _ = EncodeBatch(buf[:0], c.batch)
			}
		})
		b.Run("decode/"+c.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, _, err := DecodeBatch(frame); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
