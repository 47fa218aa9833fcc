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
// An element encodes deterministically as the leaves of its type's layout
// (internal/layout), in declaration order with arrays expanded: each bool
// or number at its fixed width, int and uint as 8 bytes, a complex number
// as its two float parts, strings and slices u32-length-prefixed, a
// slice's elements leaf by leaf in turn. appendRow and readRow walk those
// leaves where a row lies in memory, the way the placement hash does
// (stablehash.go). Boxed payloads carry a type name per element ("" for
// nil), then the leaves of the value it holds. A type that is not plain
// data (layout.Layout.Opaque: maps, channels, funcs, pointers, interfaces,
// unexported fields) is rejected — the wire format is for value data, not
// object graphs.
//
// Decoding is registry-driven: a type name resolves to a prototype batch
// registered by batchOf (every element shape that ever formed a batch in
// this process) or by an element type seen while encoding a boxed batch.
// A name that resolves to a type that is not plain data is refused as on
// encode, every read is bounds-checked, a count the rest of the frame
// cannot hold is rejected before anything is allocated for it, and a Tag
// no RootTag and Push could make is refused before the batch is returned
// (tag.go), so the decoder is safe on adversarial input (FuzzBatchCodec).

import (
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"unsafe"

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

// The codec carries plain data (layout.Layout.Opaque): appendRow and
// batchReader.readRow take exactly the kinds a plain type's leaves have,
// so both directions refuse any other type before walking a row. unplain
// is the codec's error for a type that is not plain data, made of the part
// its layout names; a pointer to that part, so refusing a type allocates
// nothing however often it is met.
type unplain layout.Opaque

func unplainErr(l *layout.Layout) error {
	if l.Opaque != nil {
		return (*unplain)(l.Opaque)
	}
	return nil
}

// boxedRows is the layout of any, the one row type that is not plain data
// and still encodes: as boxed rows, each checked as it is written.
var boxedRows = layout.Of(typAny)

// refuseRows is EncodeBatch's check of a row type, by its layout: the
// error it fails with, before it writes a row, for a batch of that type.
func refuseRows(l *layout.Layout) error {
	if l == boxedRows {
		return nil
	}
	return unplainErr(l)
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

// registerBatchCodec makes element type T decodable by name. fromNode calls
// it once for every node it wraps; hot shapes are pre-registered in init,
// and taskreg registers its kernels' shapes, so a decoding process that
// never built such a dataset still resolves them.
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
	l := layout.Of(elem)
	if err := refuseRows(l); err != nil {
		return nil, err
	}
	// Only *Vec[any] is boxed: a frame decodes to the shape it was encoded
	// from, so any other interface element type was refused above.
	boxed := l == boxedRows
	if boxed {
		dst = append(dst, batchKindBoxed)
		dst = appendU32String(dst, "")
	} else {
		dst = append(dst, batchKindTyped)
		dst = appendU32String(dst, batchTypeName(elem))
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(n))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(b.BoxedCap()))

	if boxed {
		// Boxed rows mostly share one type: it is checked, registered and
		// named when it differs from the previous row's.
		var t reflect.Type
		var el *layout.Layout
		var name string
		for _, e := range unsafe.Slice((*any)(rows), n) {
			if e == nil {
				dst = appendU32String(dst, "")
				continue
			}
			if et := reflect.TypeOf(e); et != t {
				t, el, name = et, layout.Of(et), batchTypeName(et)
				if err := unplainErr(el); err != nil {
					return nil, err
				}
				// Registered so that this process (or one that made the
				// same registrations) decodes it; Load first, because
				// LoadOrStore boxes the name on every call.
				if _, ok := batchElemTypes.Load(name); !ok {
					batchElemTypes.LoadOrStore(name, t)
				}
			}
			dst = appendU32String(dst, name)
			// The data word is the value's address, as in hashBoxed.
			dst = appendRow(dst, el, (*[2]unsafe.Pointer)(unsafe.Pointer(&e))[1])
		}
	} else {
		size := elem.Size()
		for i := range uintptr(n) {
			dst = appendRow(dst, l, unsafe.Add(rows, i*size))
		}
	}
	binary.LittleEndian.PutUint32(dst[lenAt:], uint32(len(dst)-lenAt-4))
	return dst, nil
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

	var out Batch
	switch kind {
	case batchKindBoxed:
		if shape != "" {
			return nil, 0, codecErr("boxed frame with element shape %q", shape)
		}
		if err := r.count(n, 4); err != nil { // a boxed element's name length
			return nil, 0, err
		}
		xs := make([]any, n)
		for i := range xs {
			if xs[i], err = r.boxedElem(); err != nil {
				return nil, 0, err
			}
		}
		out = &Vec[any]{xs: xs, bcap: int(bcap)}
	case batchKindTyped:
		protoAny, ok := batchProtoNames.Load(shape)
		if !ok {
			return nil, 0, codecErr("unknown batch shape %q", shape)
		}
		proto := protoAny.(Batch)
		elem, _ := proto.Rows()
		l := layout.Of(elem)
		if err := unplainErr(l); err != nil {
			return nil, 0, err
		}
		if err := r.count(n, minWire(l)); err != nil {
			return nil, 0, err
		}
		b := proto.newLike(int(n), int(bcap))
		_, rows := b.Rows()
		size := elem.Size()
		for i := range uintptr(n) {
			if err := r.readRow(l, unsafe.Add(rows, i*size)); err != nil {
				return nil, 0, err
			}
		}
		if tags := tagSitesOf(elem); tags != nil {
			for i := range uintptr(n) {
				if err := tags.check(unsafe.Add(rows, i*size)); err != nil {
					return nil, 0, err
				}
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

// appendRow encodes the row at p, laid out by l, leaf by leaf: each bool
// or number at its wire width, int and uint as 8 bytes; a string or a
// slice as its u32 length, then its bytes or its elements' leaves. l's type
// is plain data.
func appendRow(dst []byte, l *layout.Layout, p unsafe.Pointer) []byte {
	for i := range l.Leaves {
		lf := &l.Leaves[i]
		q := unsafe.Add(p, lf.Off)
		switch lf.Kind {
		case reflect.Bool, reflect.Int8, reflect.Uint8:
			dst = append(dst, *(*uint8)(q))
		case reflect.Int16, reflect.Uint16:
			dst = binary.LittleEndian.AppendUint16(dst, *(*uint16)(q))
		case reflect.Int32, reflect.Uint32, reflect.Float32:
			dst = binary.LittleEndian.AppendUint32(dst, *(*uint32)(q))
		case reflect.Int:
			dst = binary.LittleEndian.AppendUint64(dst, uint64(*(*int)(q)))
		case reflect.Uint:
			dst = binary.LittleEndian.AppendUint64(dst, uint64(*(*uint)(q)))
		case reflect.String:
			dst = appendU32String(dst, *(*string)(q))
		case reflect.Slice:
			s := (*sliceHeader)(q)
			dst = binary.LittleEndian.AppendUint32(dst, uint32(s.Len))
			el, size := lf.Elem(), lf.Type.Elem().Size()
			for j := 0; j < s.Len; j++ {
				dst = appendRow(dst, el, unsafe.Add(s.Data, uintptr(j)*size))
			}
		default: // int64, uint64, float64
			dst = binary.LittleEndian.AppendUint64(dst, *(*uint64)(q))
		}
	}
	return dst
}

// sliceHeader is a slice as it lies in memory. Its Data field is a
// pointer, so a store of a header keeps the collector's write barrier.
type sliceHeader struct {
	Data     unsafe.Pointer
	Len, Cap int
}

// batchReader is the bounds-checked frame reader. It keeps the last boxed
// element type it resolved, by its name's bytes in the frame.
type batchReader struct {
	data []byte
	pos  int

	name []byte
	elem reflect.Type
	l    *layout.Layout
	tags *tagSites
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

func (r *batchReader) u32() (uint32, error) {
	b, err := r.take(4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b), nil
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
	n, err := r.u32()
	if err != nil {
		return nil, err
	}
	name, err := r.take(int(n))
	if err != nil || n == 0 {
		return nil, err
	}
	if string(name) != string(r.name) {
		tAny, ok := batchElemTypes.Load(string(name))
		if !ok {
			return nil, codecErr("unknown element type %q", name)
		}
		t := tAny.(reflect.Type)
		l := layout.Of(t)
		if err := unplainErr(l); err != nil {
			return nil, err
		}
		r.name, r.elem, r.l, r.tags = name, t, l, tagSitesOf(t)
	}
	v := reflect.New(r.elem)
	if err := r.readRow(r.l, v.UnsafePointer()); err != nil {
		return nil, err
	}
	if r.tags != nil {
		if err := r.tags.check(v.UnsafePointer()); err != nil {
			return nil, err
		}
	}
	return v.Elem().Interface(), nil
}

// count checks an element count read from the frame before anything is
// allocated for it: n elements of at least least wire bytes each must fit
// in the rest of the frame, and no real workload ships more than 64k
// elements that take no bytes (a type of size zero).
func (r *batchReader) count(n uint32, least int) error {
	if least > 0 && int(n)*least > len(r.data)-r.pos || least == 0 && n > 1<<16 {
		return codecErr("implausible element count %d for %d payload bytes", n, len(r.data)-r.pos)
	}
	return nil
}

// minWire is the fewest bytes a row laid out by l takes on the wire.
func minWire(l *layout.Layout) int {
	w := 0
	for i := range l.Leaves {
		w += wireWidth(l.Leaves[i].Kind)
	}
	return w
}

// readRow decodes a row laid out by l into the zeroed memory at p, the
// inverse of appendRow. Every store goes through a pointer of the leaf's
// own type, so the collector sees each pointer it writes.
func (r *batchReader) readRow(l *layout.Layout, p unsafe.Pointer) error {
	for i := range l.Leaves {
		lf := &l.Leaves[i]
		q := unsafe.Add(p, lf.Off)
		switch lf.Kind {
		case reflect.String:
			s, err := r.str()
			if err != nil {
				return err
			}
			*(*string)(q) = s
		case reflect.Slice:
			n, err := r.u32()
			if err != nil {
				return err
			}
			el, size := lf.Elem(), lf.Type.Elem().Size()
			if err := r.count(n, minWire(el)); err != nil {
				return err
			}
			data := reflect.MakeSlice(lf.Type, int(n), int(n)).UnsafePointer()
			*(*sliceHeader)(q) = sliceHeader{Data: data, Len: int(n), Cap: int(n)}
			for j := range uintptr(n) {
				if err := r.readRow(el, unsafe.Add(data, j*size)); err != nil {
					return err
				}
			}
		default:
			b, err := r.take(wireWidth(lf.Kind))
			if err != nil {
				return err
			}
			switch lf.Kind {
			case reflect.Bool:
				*(*bool)(q) = b[0] != 0
			case reflect.Int8, reflect.Uint8:
				*(*uint8)(q) = b[0]
			case reflect.Int16, reflect.Uint16:
				*(*uint16)(q) = binary.LittleEndian.Uint16(b)
			case reflect.Int32, reflect.Uint32, reflect.Float32:
				*(*uint32)(q) = binary.LittleEndian.Uint32(b)
			case reflect.Int:
				*(*int)(q) = int(binary.LittleEndian.Uint64(b))
			case reflect.Uint:
				*(*uint)(q) = uint(binary.LittleEndian.Uint64(b))
			default: // int64, uint64, float64
				*(*uint64)(q) = binary.LittleEndian.Uint64(b)
			}
		}
	}
	return nil
}

// wireWidth is the bytes a bool or number leaf of kind k takes on the
// wire, and the fewest a string or slice leaf does: its u32 length.
func wireWidth(k reflect.Kind) int {
	switch k {
	case reflect.Bool, reflect.Int8, reflect.Uint8:
		return 1
	case reflect.Int16, reflect.Uint16:
		return 2
	case reflect.Int32, reflect.Uint32, reflect.Float32, reflect.String, reflect.Slice:
		return 4
	}
	return 8
}
