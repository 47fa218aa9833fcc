package engine

import (
	"reflect"

	"matryoshka/internal/layout"
)

// Dataset is an immutable, partitioned, lazily-evaluated distributed
// collection — the engine's Bag abstraction (an RDD in Spark terms).
// Transformations build a DAG; actions launch jobs.
//
// Methods cannot introduce new type parameters in Go, so transformations
// that change the element type are package-level functions (Map, Filter,
// ReduceByKey, Join, ...) taking the Dataset as their first argument.
type Dataset[T any] struct {
	s *Session
	n *node
}

// Session returns the owning session.
func (d Dataset[T]) Session() *Session { return d.s }

// NumPartitions returns the dataset's partition count.
func (d Dataset[T]) NumPartitions() int { return d.n.parts }

// Cache marks the dataset for materialization: the first job that computes
// it stores the partitions, and later jobs reuse them without recomputation
// (essential for iterative programs, cf. Sec. 6). Returns the receiver.
func (d Dataset[T]) Cache() Dataset[T] {
	d.n.cached = true
	return d
}

// Unscaled marks the dataset's rows as standing for exactly one real
// record each, regardless of the session's RecordWeight. Use it for
// collections whose cardinality does not grow with the input data:
// parameter lists, group keys, lifting tags. Returns the receiver.
func (d Dataset[T]) Unscaled() Dataset[T] {
	d.n.weight = 1
	return d
}

// Weight reports how many real records one element stands for.
func (d Dataset[T]) Weight() float64 { return d.n.weight }

// CachedBytes returns an estimate of the dataset's materialized size in
// real bytes, or
// -1 if it is not currently cached. The half-lifted mapWithClosure
// optimizer (paper Sec. 8.3) uses it as its SizeEstimator input.
func (d Dataset[T]) CachedBytes() int64 {
	d.n.cacheMu.Lock()
	data := d.n.cacheData
	d.n.cacheMu.Unlock()
	if data == nil {
		return -1
	}
	var total int64
	for _, p := range data {
		total += estPartitionBytes(p, d.n.rows)
	}
	return int64(float64(total) * d.n.weight)
}

// Parallelize distributes data across parts partitions (parts <= 0 uses the
// session default). It is the engine's source operator; the per-element
// read cost is charged when a job first scans it.
func Parallelize[T any](s *Session, data []T, parts int) Dataset[T] {
	if parts <= 0 {
		parts = s.cfg.DefaultParallelism
	}
	if parts > len(data) && len(data) > 0 {
		parts = len(data)
	}
	if len(data) == 0 {
		parts = 1
	}
	// Slice the data contiguously into typed batches; the source copy
	// happens once here. Each batch's boxed-equivalent capacity is its
	// exact length, as the boxed slices were.
	batches := make([]Batch, parts)
	for i := range batches {
		lo, hi := i*len(data)/parts, (i+1)*len(data)/parts
		part := make([]T, hi-lo)
		copy(part, data[lo:hi])
		batches[i] = batchOf(part, hi-lo)
	}
	n := s.newNode("parallelize", parts, nil, func(tc *Ctx, p int, _ []Batch) Batch {
		return batches[p]
	})
	return fromNode[T](s, n)
}

// Empty returns a dataset with no elements. It is unscaled: an empty
// collection stands for nothing, so it must not impose the session's
// record weight on datasets derived from it (e.g. a lifted loop's result
// accumulator, which starts empty and unions in finished per-group
// scalars).
func Empty[T any](s *Session) Dataset[T] { return Parallelize[T](s, nil, 1).Unscaled() }

// fromNode wraps a node (internal constructor for operators). It registers
// T with the codec and looks up T's layout, once per node: every batch the
// node makes is a *Vec[T] or empty.
func fromNode[T any](s *Session, n *node) Dataset[T] {
	registerBatchCodec[T]()
	n.rows = layout.Of(reflect.TypeFor[T]())
	return Dataset[T]{s, n}
}
