package engine

// batchio is the length-prefixed binary codec for Batch values — the format
// the process pool (internal/procpool) ships blocks and results in between
// the driver and its workers, and the byte counter behind the EXPLAIN
// ANALYZE boundary-bytes column.
//
// Frame layout (all integers little-endian):
//
//	magic   "MBA1" (4 bytes)
//	length  u32 — byte length of the rest of the frame
//	kind    u8  — 0 boxed (*Vec[any]), 1 typed (*Vec[T])
//	shape   u32-length-prefixed element type name ("" for boxed)
//	n       u32 — element count
//	bcap    u32 — boxed-equivalent capacity (BoxedCap)
//	payload n encoded elements
//
// Elements encode deterministically by structure: fixed-width scalars by
// kind, strings and slices u32-length-prefixed, arrays and structs in
// declaration order. Boxed payloads carry a type name per element ("" for
// nil). Maps, channels, funcs, pointers and non-empty interfaces are
// rejected — the wire format is for value data, not object graphs.
//
// Decoding is registry-driven: a type name resolves to a prototype batch
// registered by batchOf (every element shape that ever formed a batch in
// this process) or by an element type seen while encoding a boxed batch.
// Every read is bounds-checked and implausible counts are rejected, so the
// decoder is safe on adversarial input (FuzzBatchCodec).

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sync"

	"matryoshka/internal/layout"
)

var batchMagic = [4]byte{'M', 'B', 'A', '1'}

const (
	batchKindBoxed = 0
	batchKindTyped = 1
)

// errBatchCodec wraps every codec failure so callers can errors.Is it.
var errBatchCodec = errors.New("engine: batch codec")

func codecErr(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errBatchCodec, fmt.Sprintf(format, args...))
}

// The codec carries plain data (layout.Layout.Opaque): appendValue and
// batchReader.value take exactly the kinds a plain type's leaves have.
// unplain is the codec's error for a type that is not plain data, made of
// the part its layout names; a pointer to that part, so refusing a type
// allocates nothing however often it is met.
type unplain layout.Opaque

func unplainErr(t reflect.Type) error {
	if o := layout.Of(t).Opaque; o != nil {
		return (*unplain)(o)
	}
	return nil
}

func (e *unplain) Error() string {
	if e.Field != "" {
		return fmt.Sprintf("%v: unexported field %s.%s", errBatchCodec, e.Type, e.Field)
	}
	return fmt.Sprintf("%v: unsupported element kind %s (%s)", errBatchCodec, e.Type.Kind(), e.Type)
}

func (e *unplain) Unwrap() error { return errBatchCodec }

// batchProtos maps element reflect.Type -> prototype Batch (a *Vec[T] to
// newLike from) and batchProtoNames maps wire type name -> same prototype.
var (
	batchProtos     sync.Map // reflect.Type -> Batch
	batchProtoNames sync.Map // string -> Batch
	batchElemTypes  sync.Map // string -> reflect.Type (boxed element decode)
)

// registerBatchCodec makes element type T decodable by name. batchOf calls
// it on every batch construction; hot shapes are pre-registered in init so
// a decoding process that never built such a batch still resolves them.
func registerBatchCodec[T any]() {
	t := reflect.TypeFor[T]()
	if _, ok := batchProtos.Load(t); ok {
		return
	}
	proto := Batch(&Vec[T]{})
	batchProtos.Store(t, proto)
	batchProtoNames.Store(batchTypeName(t), proto)
	batchElemTypes.Store(batchTypeName(t), t)
}

func init() {
	registerBatchCodec[int]()
	registerBatchCodec[int64]()
	registerBatchCodec[uint64]()
	registerBatchCodec[float64]()
	registerBatchCodec[string]()
	registerBatchCodec[Pair[int, int]]()
	registerBatchCodec[Pair[int, int64]]()
	registerBatchCodec[Pair[int64, int64]]()
	registerBatchCodec[Pair[string, int]]()
	registerBatchCodec[Pair[string, string]]()
	// Shredded nested-bag dictionary shapes (internal/shred): inner-bag
	// contents keyed by the 64-bit group id, and the gid-keyed group
	// build those dictionaries shuffle through.
	registerBatchCodec[Pair[uint64, int64]]()
	registerBatchCodec[Pair[uint64, uint64]]()
	registerBatchCodec[Pair[uint64, []int64]]()
}

// registerElemType records a boxed element's concrete type so the same
// process (or one that made the same registrations) can decode it.
func registerElemType(t reflect.Type) {
	batchElemTypes.LoadOrStore(batchTypeName(t), t)
}

// batchTypeName is the wire name of an element type. reflect's rendering
// is deterministic and unique enough within one module.
func batchTypeName(t reflect.Type) string { return t.String() }

// EncodeBatch appends b's frame to dst and returns the extended slice.
// Element types whose values contain maps, channels, funcs, pointers or
// non-empty interfaces are rejected with an error.
func EncodeBatch(dst []byte, b Batch) ([]byte, error) {
	if b == nil {
		b = zeroBatch
	}
	dst = append(dst, batchMagic[:]...)
	lenAt := len(dst)
	dst = append(dst, 0, 0, 0, 0) // frame length backpatched below

	elem, rows := b.Rows()
	n := b.Len()
	data := reflect.SliceAt(elem, rows, n)
	// Only *Vec[any] is boxed: a frame decodes to the shape it was encoded
	// from, so any other interface element type is refused below.
	boxed := elem == typAny
	if boxed {
		dst = append(dst, batchKindBoxed)
		dst = appendU32String(dst, "")
	} else {
		if err := unplainErr(elem); err != nil {
			return nil, err
		}
		dst = append(dst, batchKindTyped)
		dst = appendU32String(dst, batchTypeName(elem))
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(n))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(b.BoxedCap()))

	var err error
	for i := 0; i < n; i++ {
		if boxed {
			dst, err = appendBoxedElem(dst, data.Index(i).Interface())
		} else {
			dst, err = appendValue(dst, data.Index(i))
		}
		if err != nil {
			return nil, err
		}
	}
	binary.LittleEndian.PutUint32(dst[lenAt:], uint32(len(dst)-lenAt-4))
	return dst, nil
}

func appendBoxedElem(dst []byte, e any) ([]byte, error) {
	if e == nil {
		return appendU32String(dst, ""), nil
	}
	rv := reflect.ValueOf(e)
	if err := unplainErr(rv.Type()); err != nil {
		return nil, err
	}
	registerElemType(rv.Type())
	dst = appendU32String(dst, batchTypeName(rv.Type()))
	return appendValue(dst, rv)
}

// DecodeBatch decodes one frame from data, returning the batch and the
// total frame size consumed.
func DecodeBatch(data []byte) (Batch, int, error) {
	if len(data) < 8 {
		return nil, 0, codecErr("short frame: %d bytes", len(data))
	}
	if [4]byte(data[:4]) != batchMagic {
		return nil, 0, codecErr("bad magic %q", data[:4])
	}
	frameLen := int(binary.LittleEndian.Uint32(data[4:8]))
	if frameLen < 0 || frameLen > len(data)-8 {
		return nil, 0, codecErr("frame length %d exceeds input %d", frameLen, len(data)-8)
	}
	r := &batchReader{data: data[8 : 8+frameLen]}
	kind, err := r.u8()
	if err != nil {
		return nil, 0, err
	}
	shape, err := r.str()
	if err != nil {
		return nil, 0, err
	}
	n, err := r.u32()
	if err != nil {
		return nil, 0, err
	}
	bcap, err := r.u32()
	if err != nil {
		return nil, 0, err
	}
	if n > uint32(len(r.data)) && n > 1<<16 {
		// More elements than payload bytes: only possible for zero-size
		// element types, and no real workload ships 64k of those.
		return nil, 0, codecErr("implausible element count %d for %d payload bytes", n, len(r.data))
	}

	var out Batch
	switch kind {
	case batchKindBoxed:
		if shape != "" {
			return nil, 0, codecErr("boxed frame with element shape %q", shape)
		}
		xs := make([]any, 0, min(int(n), 1<<12))
		for i := 0; i < int(n); i++ {
			e, err := r.boxedElem()
			if err != nil {
				return nil, 0, err
			}
			xs = append(xs, e)
		}
		out = &Vec[any]{xs: xs, bcap: int(bcap)}
	case batchKindTyped:
		protoAny, ok := batchProtoNames.Load(shape)
		if !ok {
			return nil, 0, codecErr("unknown batch shape %q", shape)
		}
		b := protoAny.(Batch).newLike(int(n), int(bcap))
		elem, rows := b.Rows()
		data := reflect.SliceAt(elem, rows, int(n))
		for i := 0; i < int(n); i++ {
			if err := r.value(data.Index(i)); err != nil {
				return nil, 0, err
			}
		}
		out = b
	default:
		return nil, 0, codecErr("unknown frame kind %d", kind)
	}
	if r.pos != len(r.data) {
		return nil, 0, codecErr("%d trailing bytes in frame", len(r.data)-r.pos)
	}
	return out, 8 + frameLen, nil
}

// encodedBatchBytes returns the frame size EncodeBatch would produce for
// b, reusing a scratch buffer; 0 when b's element type is not encodable
// (boundary-bytes observability must not fail a job).
func encodedBatchBytes(scratch *[]byte, b Batch) int64 {
	if batchLen(b) == 0 && (b == nil || b.BoxedCap() == 0) {
		// Fast path: the empty frame is header-only and shape-independent.
		return emptyBatchFrameBytes(b)
	}
	out, err := EncodeBatch((*scratch)[:0], b)
	if err != nil {
		return 0
	}
	*scratch = out
	return int64(len(out))
}

func emptyBatchFrameBytes(b Batch) int64 {
	name := ""
	if b != nil {
		if elem, _ := b.Rows(); elem.Kind() != reflect.Interface {
			name = batchTypeName(elem)
		}
	}
	return int64(4 + 4 + 1 + 4 + len(name) + 4 + 4)
}

func appendU32String(dst []byte, s string) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(s)))
	return append(dst, s...)
}

// appendValue encodes one value by structure. rv's type is plain data.
func appendValue(dst []byte, rv reflect.Value) ([]byte, error) {
	switch rv.Kind() {
	case reflect.Bool:
		if rv.Bool() {
			return append(dst, 1), nil
		}
		return append(dst, 0), nil
	case reflect.Int8:
		return append(dst, byte(rv.Int())), nil
	case reflect.Int16:
		return binary.LittleEndian.AppendUint16(dst, uint16(rv.Int())), nil
	case reflect.Int32:
		return binary.LittleEndian.AppendUint32(dst, uint32(rv.Int())), nil
	case reflect.Int, reflect.Int64:
		return binary.LittleEndian.AppendUint64(dst, uint64(rv.Int())), nil
	case reflect.Uint8:
		return append(dst, byte(rv.Uint())), nil
	case reflect.Uint16:
		return binary.LittleEndian.AppendUint16(dst, uint16(rv.Uint())), nil
	case reflect.Uint32:
		return binary.LittleEndian.AppendUint32(dst, uint32(rv.Uint())), nil
	case reflect.Uint, reflect.Uint64:
		return binary.LittleEndian.AppendUint64(dst, rv.Uint()), nil
	case reflect.Float32:
		return binary.LittleEndian.AppendUint32(dst, math.Float32bits(float32(rv.Float()))), nil
	case reflect.Float64:
		return binary.LittleEndian.AppendUint64(dst, math.Float64bits(rv.Float())), nil
	case reflect.Complex64:
		c := rv.Complex()
		dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(float32(real(c))))
		return binary.LittleEndian.AppendUint32(dst, math.Float32bits(float32(imag(c)))), nil
	case reflect.Complex128:
		c := rv.Complex()
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(real(c)))
		return binary.LittleEndian.AppendUint64(dst, math.Float64bits(imag(c))), nil
	case reflect.String:
		return appendU32String(dst, rv.String()), nil
	case reflect.Slice:
		dst = binary.LittleEndian.AppendUint32(dst, uint32(rv.Len()))
		var err error
		for i := 0; i < rv.Len(); i++ {
			if dst, err = appendValue(dst, rv.Index(i)); err != nil {
				return nil, err
			}
		}
		return dst, nil
	case reflect.Array:
		var err error
		for i := 0; i < rv.Len(); i++ {
			if dst, err = appendValue(dst, rv.Index(i)); err != nil {
				return nil, err
			}
		}
		return dst, nil
	case reflect.Struct:
		var err error
		for i := 0; i < rv.NumField(); i++ {
			if dst, err = appendValue(dst, rv.Field(i)); err != nil {
				return nil, err
			}
		}
		return dst, nil
	default:
		return nil, codecErr("unsupported value kind %s", rv.Kind())
	}
}

// batchReader is the bounds-checked frame reader.
type batchReader struct {
	data []byte
	pos  int
}

func (r *batchReader) take(n int) ([]byte, error) {
	if n < 0 || r.pos+n > len(r.data) {
		return nil, codecErr("truncated frame: need %d bytes at offset %d of %d", n, r.pos, len(r.data))
	}
	out := r.data[r.pos : r.pos+n]
	r.pos += n
	return out, nil
}

func (r *batchReader) u8() (byte, error) {
	b, err := r.take(1)
	if err != nil {
		return 0, err
	}
	return b[0], nil
}

func (r *batchReader) u16() (uint16, error) {
	b, err := r.take(2)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint16(b), nil
}

func (r *batchReader) u32() (uint32, error) {
	b, err := r.take(4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b), nil
}

func (r *batchReader) u64() (uint64, error) {
	b, err := r.take(8)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b), nil
}

func (r *batchReader) str() (string, error) {
	n, err := r.u32()
	if err != nil {
		return "", err
	}
	b, err := r.take(int(n))
	if err != nil {
		return "", err
	}
	return string(b), nil
}

func (r *batchReader) boxedElem() (any, error) {
	name, err := r.str()
	if err != nil {
		return nil, err
	}
	if name == "" {
		return nil, nil
	}
	tAny, ok := batchElemTypes.Load(name)
	if !ok {
		return nil, codecErr("unknown element type %q", name)
	}
	rv := reflect.New(tAny.(reflect.Type)).Elem()
	if err := r.value(rv); err != nil {
		return nil, err
	}
	return rv.Interface(), nil
}

// value decodes one value into the settable rv.
func (r *batchReader) value(rv reflect.Value) error {
	switch rv.Kind() {
	case reflect.Bool:
		b, err := r.u8()
		if err != nil {
			return err
		}
		rv.SetBool(b != 0)
	case reflect.Int8:
		b, err := r.u8()
		if err != nil {
			return err
		}
		rv.SetInt(int64(int8(b)))
	case reflect.Int16:
		v, err := r.u16()
		if err != nil {
			return err
		}
		rv.SetInt(int64(int16(v)))
	case reflect.Int32:
		v, err := r.u32()
		if err != nil {
			return err
		}
		rv.SetInt(int64(int32(v)))
	case reflect.Int, reflect.Int64:
		v, err := r.u64()
		if err != nil {
			return err
		}
		rv.SetInt(int64(v))
	case reflect.Uint8:
		b, err := r.u8()
		if err != nil {
			return err
		}
		rv.SetUint(uint64(b))
	case reflect.Uint16:
		v, err := r.u16()
		if err != nil {
			return err
		}
		rv.SetUint(uint64(v))
	case reflect.Uint32:
		v, err := r.u32()
		if err != nil {
			return err
		}
		rv.SetUint(uint64(v))
	case reflect.Uint, reflect.Uint64:
		v, err := r.u64()
		if err != nil {
			return err
		}
		rv.SetUint(v)
	case reflect.Float32:
		v, err := r.u32()
		if err != nil {
			return err
		}
		rv.SetFloat(float64(math.Float32frombits(v)))
	case reflect.Float64:
		v, err := r.u64()
		if err != nil {
			return err
		}
		rv.SetFloat(math.Float64frombits(v))
	case reflect.Complex64:
		re, err := r.u32()
		if err != nil {
			return err
		}
		im, err := r.u32()
		if err != nil {
			return err
		}
		rv.SetComplex(complex(float64(math.Float32frombits(re)), float64(math.Float32frombits(im))))
	case reflect.Complex128:
		re, err := r.u64()
		if err != nil {
			return err
		}
		im, err := r.u64()
		if err != nil {
			return err
		}
		rv.SetComplex(complex(math.Float64frombits(re), math.Float64frombits(im)))
	case reflect.String:
		s, err := r.str()
		if err != nil {
			return err
		}
		rv.SetString(s)
	case reflect.Slice:
		n, err := r.u32()
		if err != nil {
			return err
		}
		if int(n) > len(r.data)-r.pos && n > 1<<16 {
			return codecErr("implausible slice length %d", n)
		}
		sl := reflect.MakeSlice(rv.Type(), 0, min(int(n), 1<<12))
		elem := reflect.New(rv.Type().Elem()).Elem()
		for i := 0; i < int(n); i++ {
			elem.SetZero()
			if err := r.value(elem); err != nil {
				return err
			}
			sl = reflect.Append(sl, elem)
		}
		rv.Set(sl)
	case reflect.Array:
		for i := 0; i < rv.Len(); i++ {
			if err := r.value(rv.Index(i)); err != nil {
				return err
			}
		}
	case reflect.Struct:
		for i := 0; i < rv.NumField(); i++ {
			if err := r.value(rv.Field(i)); err != nil {
				return err
			}
		}
	default:
		return codecErr("unsupported element kind %s", rv.Kind())
	}
	return nil
}
