package engine

// The codec tests build bare batches with batchOf, outside any Dataset, so
// nothing registers their element types (fromNode does, for a Dataset's).
// A process must register every type it decodes before its first frame;
// these are the ones the tests, BenchmarkBatchCodec and the FuzzBatchCodec
// corpus decode beyond those registered in init.
func init() {
	registerBatchCodec[bool]()
	registerBatchCodec[int8]()
	registerBatchCodec[int16]()
	registerBatchCodec[int32]()
	registerBatchCodec[uint8]()
	registerBatchCodec[uint16]()
	registerBatchCodec[uint32]()
	registerBatchCodec[uint]()
	registerBatchCodec[float32]()
	registerBatchCodec[complex64]()
	registerBatchCodec[complex128]()
	registerBatchCodec[[]byte]()
	registerBatchCodec[[][]int16]()
	registerBatchCodec[[3]Pair[int32, bool]]()
	registerBatchCodec[Pair[int, []int]]()
	registerBatchCodec[Pair[int, Tuple2[int, maybeString]]]()
	registerBatchCodec[Pair[int, pointSum]]()
	registerBatchCodec[Pair[Tag, int64]]()
	registerBatchCodec[Pair[uint64, []Tag]]()
	registerBatchCodec[tagTree]()
}
