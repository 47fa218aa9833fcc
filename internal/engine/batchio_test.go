package engine

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

var regenFuzzCorpus = flag.Bool("regen-fuzz-corpus", false,
	"rewrite the checked-in FuzzBatchCodec seed corpus from codecBatches")

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

const fuzzCorpusDir = "testdata/fuzz/FuzzBatchCodec"

// TestFuzzCorpus keeps the checked-in FuzzBatchCodec seed corpus honest:
// every file must parse as a Go corpus entry whose frame either decodes
// cleanly or fails with errBatchCodec — never panics. Run with
// -regen-fuzz-corpus to rewrite the seeds from codecBatches.
func TestFuzzCorpus(t *testing.T) {
	if *regenFuzzCorpus {
		if err := os.MkdirAll(fuzzCorpusDir, 0o755); err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(1))
		for i, b := range codecBatches(rng) {
			enc, err := EncodeBatch(nil, b)
			if err != nil {
				t.Fatal(err)
			}
			body := fmt.Sprintf("go test fuzz v1\n[]byte(%s)\n", strconv.Quote(string(enc)))
			name := filepath.Join(fuzzCorpusDir, fmt.Sprintf("seed-%02d", i))
			if err := os.WriteFile(name, []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
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
// whatever it accepts must re-encode and decode to the same batch.
func FuzzBatchCodec(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for _, b := range codecBatches(rng) {
		if enc, err := EncodeBatch(nil, b); err == nil {
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
	})
}
