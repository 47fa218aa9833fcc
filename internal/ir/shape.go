package ir

import (
	"fmt"
	"reflect"

	"matryoshka/internal/core"
	"matryoshka/internal/engine"
)

// This file is the lowering's closed shape table. A shape is the element
// type of a lowered bag — a flat bag, an inner bag, or a nested bag's inner
// elements — with the engine and core operators instantiated for it. The
// universe is closed: the leaves int64 and float64, the pairs
// engine.Pair[int64, int64] and engine.Pair[int64, float64], and the boxed
// shape, any, whose operators are the lowering over Dataset[any]. These
// are the rows of the paper's workloads (days, IPs, vertex and cluster
// ids, rates and ranks). The table is small because each typed shape puts
// its instantiations of the engine's and core's operators into every
// binary that links this package: with string, all nine pairs of three
// leaves and a map between every two of those twelve shapes, the
// benchmark binary grew from 13 to 35 MB and every process's resident set
// by 6 MB at start-up.
//
// An inner scalar holds one row per group, so its type matters little: it
// is an InnerScalar[any], except where it arrives typed — a nested bag's
// keys, the elements of a lifted flat bag of leaves — and stays so, because
// boxing such a cached representation costs a stage of its own. Scalar
// operators are instantiated for the leaves and any.
//
// A UDF keeps its view of the rows whatever the shape: a leaf arrives
// boxed, a pair as an engine.Pair[any, any], and what the UDF returns is
// unboxed into the node's shape. A row of another dynamic type breaks the
// one-type-per-node contract (package doc) and fails the job with a
// rowError. Under the boxed shape the UDFs are handed to the engine as
// they are, so the boxed arm is the untyped lowering itself.

// A shape's operators take and return a handle as any: an
// engine.Dataset[T] for a flat bag, a core.InnerBag[T] for an inner bag, a
// core.InnerScalar[T] for an inner scalar, T being the shape's element
// type.
type shape interface {
	fmt.Stringer
	// keyed returns the grouping and keyed-reduce operators of a pair
	// shape and of the boxed one; nil for a leaf.
	keyed() keyedOps
	// mapTo returns the element-wise operators from this shape into out.
	mapTo(out shape) mapOps

	source(sess *engine.Session, data []any) any
	collect(bag any) ([]any, error)
	filter(bag any, pred func(any) bool) any
	distinct(bag any) any
	union(a, b any) any
	count(bag any) (int64, error)
	reduce(bag any, f func(any, any) any, at site) (any, error)
	// liftFlat is mapWithLiftedUDF's tagging of a flat bag: the UDF sees
	// its elements as an inner scalar of the given shape.
	liftFlat(bag any, opt core.Options, udf func(*core.Ctx, any, shape) (value, error)) (value, error)
	// fromScalars is the flat bag of a lifted UDF's per-invocation results.
	fromScalars(s core.InnerScalar[any], at site) any

	filterInner(b any, pred func(any) bool) any
	distinctInner(b any) any
	unionInner(a, b any) any
	countInner(b any) core.InnerScalar[int64]
	reduceInner(b any, f func(any, any) any, at site) core.InnerScalar[any]
	flatten(b any) any
	liftBag(ctx *core.Ctx, bag any) any
	// state is the loop-state instance of the shape's inner bags.
	state() core.StateOps[any]
	// scalar is the shape of an inner scalar of this shape's elements:
	// the shape itself for a leaf and for any, any for a pair.
	scalar() shape

	// The operators on inner scalars of a leaf shape or of any; their
	// results are InnerScalar[any].
	unOp(x any, f func(any) any) core.InnerScalar[any]
	binOp(y shape) func(x, y any, f func(any, any) any) core.InnerScalar[any]
	scalarState() core.StateOps[any]
	// values is the flat bag of an inner scalar's values.
	values(x any) any
}

// keyedOps are a pair shape's grouping and keyed-reduce operators.
type keyedOps interface {
	// val is the shape of the pairs' values: a nested bag's inner shape.
	val() shape
	// groupByKey returns the nested bag's lifting context, its outer
	// InnerScalar of keys, and its inner bag.
	groupByKey(bag any, opt core.Options) (nested, error)
	reduceByKey(bag any, f func(any, any) any, at site) any
	reduceByKeyInner(b any, f func(any, any) any, at site) any
}

// mapOps are the element-wise operators from one shape into another.
type mapOps struct {
	top       func(bag any, f func(any) any, at site) any
	flatTop   func(bag any, f func(any) []any, at site) any
	inner     func(b any, f func(any) any, at site) any
	flatInner func(b any, f func(any) []any, at site) any
}

// nested is a lowered nested bag's parts.
type nested struct {
	ctx   *core.Ctx
	outer any // core.InnerScalar[K]
	inner any // core.InnerBag[V]
}

// A site names an IR node for the row check.
type site struct{ node string }

// A rowError is a row that broke the one-type-per-node contract: its UDF
// returned a value of another dynamic type than the node's shape.
type rowError struct {
	node, want string
	got        reflect.Type
}

func (e *rowError) Error() string {
	return fmt.Sprintf("ir: %s returned a %v row; its shape is %s", e.node, e.got, e.want)
}

// fail raises the row error. It panics in an engine task or fold, which
// fails the job with an error wrapping it, and Lower returns that error.
func (at site) fail(want string, got any) {
	panic(&rowError{node: at.node, want: want, got: reflect.TypeOf(got)})
}

// bagShape is the shape of element type T: how a T is boxed for a UDF and
// unboxed from its result, and the operators instantiated for T.
type bagShape[T comparable] struct {
	name  string
	box   func(T) any
	unbox func(any) (T, bool)
	kd    keyedOps
	// to holds, for each output shape, the constructor of the
	// element-wise operators into it (mapsTo), run when a plan needs them.
	to  map[shape]func(a, b shape) mapOps
	bin map[shape]func(x, y any, f func(any, any) any) core.InnerScalar[any]
	st  core.StateOps[any]
	sst core.StateOps[any]
}

func newShape[T comparable](name string, box func(T) any, unbox func(any) (T, bool)) *bagShape[T] {
	s := &bagShape[T]{name: name, box: box, unbox: unbox, to: map[shape]func(a, b shape) mapOps{},
		bin: map[shape]func(x, y any, f func(any, any) any) core.InnerScalar[any]{}}
	ops := core.BagState[T]()
	s.st = core.StateOps[any]{
		Empty: func(ctx *core.Ctx) any { return ops.Empty(ctx) },
		Filter: func(b any, keep engine.Dataset[engine.Tag], sub *core.Ctx) any {
			return ops.Filter(b.(core.InnerBag[T]), keep, sub)
		},
		Union: func(a, b any) any { return ops.Union(a.(core.InnerBag[T]), b.(core.InnerBag[T])) },
		Cache: func(b any) any { return ops.Cache(b.(core.InnerBag[T])) },
	}
	sops := core.ScalarState[T]()
	s.sst = core.StateOps[any]{
		Empty: func(ctx *core.Ctx) any { return sops.Empty(ctx) },
		Filter: func(x any, keep engine.Dataset[engine.Tag], sub *core.Ctx) any {
			return sops.Filter(x.(core.InnerScalar[T]), keep, sub)
		},
		Union: func(a, b any) any { return sops.Union(a.(core.InnerScalar[T]), b.(core.InnerScalar[T])) },
		Cache: func(x any) any { return sops.Cache(x.(core.InnerScalar[T])) },
	}
	return s
}

func (s *bagShape[T]) String() string                  { return s.name }
func (s *bagShape[T]) keyed() keyedOps                 { return s.kd }
func (s *bagShape[T]) mapTo(out shape) mapOps          { return s.to[out](s, out) }
func (s *bagShape[T]) state() core.StateOps[any]       { return s.st }
func (s *bagShape[T]) scalarState() core.StateOps[any] { return s.sst }

func (s *bagShape[T]) scalar() shape {
	if len(s.bin) == 0 {
		return boxedShape
	}
	return s
}

func (s *bagShape[T]) binOp(y shape) func(x, y any, f func(any, any) any) core.InnerScalar[any] {
	return s.bin[y]
}

// must unboxes a UDF's result, or fails the row.
func (s *bagShape[T]) must(v any, at site) T {
	x, ok := s.unbox(v)
	if !ok {
		at.fail(s.name, v)
	}
	return x
}

// pred adapts a predicate over boxed rows to T.
func (s *bagShape[T]) pred(p func(any) bool) func(T) bool {
	if f, ok := any(p).(func(T) bool); ok {
		return f
	}
	return func(x T) bool { return p(s.box(x)) }
}

// merge adapts a reduce function over boxed rows to T.
func (s *bagShape[T]) merge(f func(any, any) any, at site) func(T, T) T {
	if g, ok := any(f).(func(T, T) T); ok {
		return g
	}
	return func(a, b T) T { return s.must(f(s.box(a), s.box(b)), at) }
}

// source parallelizes data, every element of which the dry pass's scan
// found to be a T.
func (s *bagShape[T]) source(sess *engine.Session, data []any) any {
	xs, ok := any(data).([]T)
	if !ok {
		xs = make([]T, len(data))
		for i, e := range data {
			xs[i], _ = s.unbox(e)
		}
	}
	return engine.Parallelize(sess, xs, 0)
}

func (s *bagShape[T]) collect(bag any) ([]any, error) {
	xs, err := engine.Collect(bag.(engine.Dataset[T]))
	if err != nil {
		return nil, err
	}
	if rows, ok := any(xs).([]any); ok {
		return rows, nil
	}
	rows := make([]any, len(xs))
	for i, x := range xs {
		rows[i] = s.box(x)
	}
	return rows, nil
}

func (s *bagShape[T]) filter(bag any, pred func(any) bool) any {
	return engine.Filter(bag.(engine.Dataset[T]), s.pred(pred))
}

func (s *bagShape[T]) distinct(bag any) any { return engine.Distinct(bag.(engine.Dataset[T])) }

func (s *bagShape[T]) union(a, b any) any {
	return engine.Union(a.(engine.Dataset[T]), b.(engine.Dataset[T]))
}

func (s *bagShape[T]) count(bag any) (int64, error) { return engine.Count(bag.(engine.Dataset[T])) }

func (s *bagShape[T]) reduce(bag any, f func(any, any) any, at site) (any, error) {
	r, err := engine.Reduce(bag.(engine.Dataset[T]), s.merge(f, at))
	if err != nil {
		return nil, err
	}
	return s.box(r), nil
}

func (s *bagShape[T]) liftFlat(bag any, opt core.Options, udf func(*core.Ctx, any, shape) (value, error)) (value, error) {
	return core.LiftFlat(bag.(engine.Dataset[T]), opt, func(ctx *core.Ctx, elems core.InnerScalar[T]) (value, error) {
		if s.scalar() == shape(s) {
			return udf(ctx, elems, s)
		}
		return udf(ctx, s.boxScalar(elems), boxedShape)
	})
}

func (s *bagShape[T]) unOp(x any, f func(any) any) core.InnerScalar[any] {
	g, ok := any(f).(func(T) any)
	if !ok {
		g = func(v T) any { return f(s.box(v)) }
	}
	return core.UnaryScalarOp(x.(core.InnerScalar[T]), g)
}

func (s *bagShape[T]) values(x any) any { return engine.Values(x.(core.InnerScalar[T]).Repr()) }

// boxScalar views an InnerScalar[T] as an InnerScalar[any]: itself under
// the boxed shape, else one map boxing its values.
func (s *bagShape[T]) boxScalar(x core.InnerScalar[T]) core.InnerScalar[any] {
	if b, ok := any(x).(core.InnerScalar[any]); ok {
		return b
	}
	return core.UnaryScalarOp(x, s.box)
}

func (s *bagShape[T]) fromScalars(x core.InnerScalar[any], at site) any {
	if any(s) == any(boxedShape) {
		return engine.Values(x.Repr())
	}
	return engine.Map(x.Repr(), func(p engine.Pair[engine.Tag, any]) T { return s.must(p.Val, at) })
}

func (s *bagShape[T]) filterInner(b any, pred func(any) bool) any {
	return core.FilterBag(b.(core.InnerBag[T]), s.pred(pred))
}

func (s *bagShape[T]) distinctInner(b any) any { return core.DistinctBag(b.(core.InnerBag[T])) }

func (s *bagShape[T]) unionInner(a, b any) any {
	return core.UnionBags(a.(core.InnerBag[T]), b.(core.InnerBag[T]))
}

func (s *bagShape[T]) countInner(b any) core.InnerScalar[int64] {
	return core.CountBag(b.(core.InnerBag[T]))
}

func (s *bagShape[T]) reduceInner(b any, f func(any, any) any, at site) core.InnerScalar[any] {
	return s.boxScalar(core.ReduceBag(b.(core.InnerBag[T]), s.merge(f, at)))
}

func (s *bagShape[T]) flatten(b any) any { return core.FlattenBag(b.(core.InnerBag[T])) }

func (s *bagShape[T]) liftBag(ctx *core.Ctx, bag any) any {
	return core.LiftBagClosure(ctx, bag.(engine.Dataset[T]))
}

// pairOps are a typed pair shape's keyed operators.
type pairOps[K, V comparable] struct {
	v *bagShape[V]
}

func (p pairOps[K, V]) val() shape { return p.v }

func (p pairOps[K, V]) groupByKey(bag any, opt core.Options) (nested, error) {
	nb, err := core.GroupByKeyIntoNestedBag(bag.(engine.Dataset[engine.Pair[K, V]]), opt)
	return nested{ctx: nb.Ctx(), outer: nb.Outer, inner: nb.Inner}, err
}

func (p pairOps[K, V]) reduceByKey(bag any, f func(any, any) any, at site) any {
	return engine.ReduceByKey(bag.(engine.Dataset[engine.Pair[K, V]]), p.v.merge(f, at))
}

func (p pairOps[K, V]) reduceByKeyInner(b any, f func(any, any) any, at site) any {
	return core.ReduceByKeyBag(b.(core.InnerBag[engine.Pair[K, V]]), p.v.merge(f, at))
}

// boxedKeyed are the boxed shape's keyed operators: each views the rows as
// engine.Pair[any, any] for the keyed operator and boxes its output back.
type boxedKeyed struct{}

func (boxedKeyed) val() shape { return boxedShape }

func asPair(e any) engine.Pair[any, any]   { return e.(engine.Pair[any, any]) }
func fromPair(p engine.Pair[any, any]) any { return any(p) }

func (boxedKeyed) groupByKey(bag any, opt core.Options) (nested, error) {
	nb, err := core.GroupByKeyIntoNestedBag(engine.Map(bag.(engine.Dataset[any]), asPair), opt)
	return nested{ctx: nb.Ctx(), outer: nb.Outer, inner: nb.Inner}, err
}

func (boxedKeyed) reduceByKey(bag any, f func(any, any) any, _ site) any {
	red := engine.ReduceByKey(engine.Map(bag.(engine.Dataset[any]), asPair), f)
	return engine.Map(red, fromPair)
}

func (boxedKeyed) reduceByKeyInner(b any, f func(any, any) any, _ site) any {
	red := core.ReduceByKeyBag(core.MapBag(b.(core.InnerBag[any]), asPair), f)
	return core.MapBag(red, fromPair)
}

// mapsBetween instantiates the element-wise operators from a to b.
func mapsBetween[A, B comparable](a *bagShape[A], b *bagShape[B]) mapOps {
	one := func(f func(any) any, at site) func(A) B {
		if g, ok := any(f).(func(A) B); ok {
			return g
		}
		return func(x A) B { return b.must(f(a.box(x)), at) }
	}
	many := func(f func(any) []any, at site) func(A) []B {
		if g, ok := any(f).(func(A) []B); ok {
			return g
		}
		return func(x A) []B {
			rows := f(a.box(x))
			out := make([]B, len(rows))
			for i, r := range rows {
				out[i] = b.must(r, at)
			}
			return out
		}
	}
	return mapOps{
		top: func(bag any, f func(any) any, at site) any {
			return engine.Map(bag.(engine.Dataset[A]), one(f, at))
		},
		flatTop: func(bag any, f func(any) []any, at site) any {
			return engine.FlatMap(bag.(engine.Dataset[A]), many(f, at))
		},
		inner: func(ib any, f func(any) any, at site) any {
			return core.MapBag(ib.(core.InnerBag[A]), one(f, at))
		},
		flatInner: func(ib any, f func(any) []any, at site) any {
			return core.FlatMapBag(ib.(core.InnerBag[A]), many(f, at))
		},
	}
}

// The shape table: the boxed shape, the leaves by type, and the pairs by
// their key and value types.
var (
	boxedShape = newShape[any]("any", func(x any) any { return x }, func(v any) (any, bool) { return v, true })
	leafShapes = map[reflect.Type]shape{}
	pairShapes = map[[2]reflect.Type]shape{}
)

// leafShape returns T's leaf shape, making it on first use.
func leafShape[T comparable]() *bagShape[T] {
	t := reflect.TypeFor[T]()
	if s, ok := leafShapes[t]; ok {
		return s.(*bagShape[T])
	}
	s := newShape(t.String(), func(x T) any { return x }, func(v any) (T, bool) {
		x, ok := v.(T)
		return x, ok
	})
	leafShapes[t] = s
	return s
}

// pairShape returns the shape of engine.Pair[K, V], making it on first use.
// Its rows reach a UDF as engine.Pair[any, any].
func pairShape[K, V comparable]() *bagShape[engine.Pair[K, V]] {
	kt, vt := reflect.TypeFor[K](), reflect.TypeFor[V]()
	if s, ok := pairShapes[[2]reflect.Type{kt, vt}]; ok {
		return s.(*bagShape[engine.Pair[K, V]])
	}
	s := newShape(fmt.Sprintf("Pair[%v,%v]", kt, vt),
		func(p engine.Pair[K, V]) any { return engine.Pair[any, any]{Key: p.Key, Val: p.Val} },
		func(v any) (engine.Pair[K, V], bool) {
			p, ok := v.(engine.Pair[any, any])
			k, kok := p.Key.(K)
			x, vok := p.Val.(V)
			return engine.Pair[K, V]{Key: k, Val: x}, ok && kok && vok
		})
	s.kd = pairOps[K, V]{v: leafShape[V]()}
	pairShapes[[2]reflect.Type{kt, vt}] = s
	return s
}

// The registration loop: every typed shape gets the constructors of its
// element-wise operators into every typed shape, and the boxed shape into
// itself. A program lowers typed throughout or boxed throughout, so no
// operator crosses between the two.
func init() {
	boxedShape.kd = boxedKeyed{}
	boxedShape.to[boxedShape] = mapsTo[any, any]
	i, f := leafShape[int64](), leafShape[float64]()
	ii, if_ := pairShape[int64, int64](), pairShape[int64, float64]()
	mapsFrom(i)
	mapsFrom(f)
	mapsFrom(ii)
	mapsFrom(if_)
	binsFrom(i)
	binsFrom(f)
	binsFrom(boxedShape)
}

// mapsFrom registers the constructors of a's element-wise operators into
// every typed shape. Only constructors are registered: a process builds the
// operators its plans use, and its start-up runs none of their code.
func mapsFrom[A comparable](a *bagShape[A]) {
	a.to[leafShape[int64]()] = mapsTo[A, int64]
	a.to[leafShape[float64]()] = mapsTo[A, float64]
	a.to[pairShape[int64, int64]()] = mapsTo[A, engine.Pair[int64, int64]]
	a.to[pairShape[int64, float64]()] = mapsTo[A, engine.Pair[int64, float64]]
}

// mapsTo is mapsBetween behind the table's one signature.
func mapsTo[A, B comparable](a, b shape) mapOps {
	return mapsBetween(a.(*bagShape[A]), b.(*bagShape[B]))
}

// binsFrom registers the binary scalar operator on inner scalars of a and
// of each scalar shape.
func binsFrom[A comparable](a *bagShape[A]) {
	binsWith(a, leafShape[int64]())
	binsWith(a, leafShape[float64]())
	binsWith(a, boxedShape)
}

func binsWith[A, B comparable](a *bagShape[A], b *bagShape[B]) {
	a.bin[b] = func(x, y any, f func(any, any) any) core.InnerScalar[any] {
		g, ok := any(f).(func(A, B) any)
		if !ok {
			g = func(p A, q B) any { return f(a.box(p), b.box(q)) }
		}
		return core.BinaryScalarOp(x.(core.InnerScalar[A]), y.(core.InnerScalar[B]), g)
	}
}

// shapeOf returns the shape whose rows have w's dynamic type as a UDF sees
// them, or false when that type is outside the universe.
func shapeOf(w any) (shape, bool) {
	if p, ok := w.(engine.Pair[any, any]); ok {
		s, ok := pairShapes[[2]reflect.Type{reflect.TypeOf(p.Key), reflect.TypeOf(p.Val)}]
		return s, ok
	}
	s, ok := leafShapes[reflect.TypeOf(w)]
	return s, ok
}

// rowType is w's dynamic type as a shape sees it: a pair's as its key and
// value types.
func rowType(w any) string {
	if p, ok := w.(engine.Pair[any, any]); ok {
		return fmt.Sprintf("Pair[%v,%v]", reflect.TypeOf(p.Key), reflect.TypeOf(p.Val))
	}
	return fmt.Sprint(reflect.TypeOf(w))
}

// sourceShape is the shape every element of a source has, from a scan of
// all of them, or the reason there is none.
func sourceShape(name string, data []any) (shape, error) {
	if len(data) == 0 {
		return nil, unshaped("source %q is empty", name)
	}
	s, ok := shapeOf(data[0])
	if !ok {
		return nil, unshaped("source %q holds %s rows, outside the shape universe", name, rowType(data[0]))
	}
	p0, pair := data[0].(engine.Pair[any, any])
	t0, k0, v0 := reflect.TypeOf(data[0]), reflect.TypeOf(p0.Key), reflect.TypeOf(p0.Val)
	for _, e := range data[1:] {
		p, ok := e.(engine.Pair[any, any])
		if ok != pair || pair && (reflect.TypeOf(p.Key) != k0 || reflect.TypeOf(p.Val) != v0) || !pair && reflect.TypeOf(e) != t0 {
			return nil, unshaped("source %q mixes %s and %s rows", name, rowType(data[0]), rowType(e))
		}
	}
	return s, nil
}
