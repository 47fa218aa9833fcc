// Package taskreg is the by-name operator registry that makes workload
// UDFs portable across processes. A worker process is a re-exec of the
// same binary, so a UDF registered while its package initializes is
// present on both sides of the driver/worker boundary; the registration helpers here
// register its element shapes with the batch codec, install the matching
// engine kernel in the portable-op registry under one name, and hand back
// that name with the typed function (an Op or KeyedOp).
//
// Workloads keep that value in a package-level variable and build their
// DAGs through the same-named constructor wrappers (Map, ReduceByKeyN,
// ...), which call the ordinary engine constructor with the registered
// function — driver-side behavior is unchanged to the bit — and mark the
// resulting node portable. Operators built from ad-hoc closures stay
// unmarked and their stages simply run on the driver: portability is
// opt-in per operator, never required.
//
// Parameterized UDFs (RegisterMapArg) close over per-job values, e.g. the
// current K-means centroids. The parameter travels as JSON: encoding/json
// prints float64 with the shortest representation that round-trips
// exactly, so a worker reconstructs bit-identical parameters.
package taskreg

import (
	"encoding/json"
	"fmt"

	"matryoshka/internal/engine"
)

// Op is a registered UDF: the name it travels under and the typed
// function the driver runs. The Register helpers hand one back, and the
// constructor wrappers take it.
type Op[F any] struct {
	Name string
	F    F
}

// KeyedOp is a registered op of a pair operator over keys of type K. For
// the UDF-free kernels (group-by-key, join) F is nil; its type still names
// the value shapes the kernel was registered for, so a wrapper accepts
// only datasets of those shapes.
type KeyedOp[K comparable, F any] struct {
	Name string
	F    F
}

// RegisterMap registers a Map UDF under name.
func RegisterMap[A, B any](name string, f func(A) B) Op[func(A) B] {
	engine.RegisterBatchShape[A]()
	engine.RegisterBatchShape[B]()
	engine.RegisterPortableOp(name, func(string) (engine.PortableCompute, error) {
		return engine.MapCompute(f), nil
	})
	return Op[func(A) B]{name, f}
}

// Map is engine.Map with the registered UDF, marked portable.
func Map[A, B any](d engine.Dataset[A], op Op[func(A) B]) engine.Dataset[B] {
	return engine.MarkPortable(engine.Map(d, op.F), op.Name, "")
}

// RegisterMapArg registers a parameterized Map UDF: mk builds the
// per-job function from a JSON-serializable parameter (captured state
// like the current model, iteration constants, thresholds).
func RegisterMapArg[A, B, P any](name string, mk func(P) func(A) B) Op[func(P) func(A) B] {
	engine.RegisterBatchShape[A]()
	engine.RegisterBatchShape[B]()
	engine.RegisterPortableOp(name, func(arg string) (engine.PortableCompute, error) {
		var param P
		if err := json.Unmarshal([]byte(arg), &param); err != nil {
			return nil, fmt.Errorf("taskreg: %q: bad arg: %w", name, err)
		}
		return engine.MapCompute(mk(param)), nil
	})
	return Op[func(P) func(A) B]{name, mk}
}

// MapArg is engine.Map with the registered parameterized UDF applied to
// param, marked portable with the serialized parameter.
func MapArg[A, B, P any](d engine.Dataset[A], op Op[func(P) func(A) B], param P) engine.Dataset[B] {
	arg, err := json.Marshal(param)
	if err != nil {
		panic(fmt.Sprintf("taskreg: %q: unmarshalable arg: %v", op.Name, err))
	}
	return engine.MarkPortable(engine.Map(d, op.F(param)), op.Name, string(arg))
}

// RegisterFilter registers a Filter predicate under name.
func RegisterFilter[A any](name string, pred func(A) bool) Op[func(A) bool] {
	engine.RegisterBatchShape[A]()
	engine.RegisterPortableOp(name, func(string) (engine.PortableCompute, error) {
		return engine.FilterCompute(pred), nil
	})
	return Op[func(A) bool]{name, pred}
}

// Filter is engine.Filter with the registered predicate.
func Filter[A any](d engine.Dataset[A], op Op[func(A) bool]) engine.Dataset[A] {
	return engine.MarkPortable(engine.Filter(d, op.F), op.Name, "")
}

// RegisterFlatMap registers a FlatMap UDF under name.
func RegisterFlatMap[A, B any](name string, f func(A) []B) Op[func(A) []B] {
	engine.RegisterBatchShape[A]()
	engine.RegisterBatchShape[B]()
	engine.RegisterPortableOp(name, func(string) (engine.PortableCompute, error) {
		return engine.FlatMapCompute(f), nil
	})
	return Op[func(A) []B]{name, f}
}

// FlatMap is engine.FlatMap with the registered UDF.
func FlatMap[A, B any](d engine.Dataset[A], op Op[func(A) []B]) engine.Dataset[B] {
	return engine.MarkPortable(engine.FlatMap(d, op.F), op.Name, "")
}

// RegisterMapValues registers a MapValues UDF under name.
func RegisterMapValues[K comparable, V, W any](name string, f func(V) W) KeyedOp[K, func(V) W] {
	engine.RegisterBatchShape[engine.Pair[K, V]]()
	engine.RegisterBatchShape[engine.Pair[K, W]]()
	engine.RegisterPortableOp(name, func(string) (engine.PortableCompute, error) {
		return engine.MapValuesCompute[K](f), nil
	})
	return KeyedOp[K, func(V) W]{name, f}
}

// MapValues is engine.MapValues with the registered UDF.
func MapValues[K comparable, V, W any](d engine.Dataset[engine.Pair[K, V]], op KeyedOp[K, func(V) W]) engine.Dataset[engine.Pair[K, W]] {
	return engine.MarkPortable(engine.MapValues(d, op.F), op.Name, "")
}

// RegisterReduceByKey registers a ReduceByKey merge function under name.
// The one portable op serves both the reduce side and the hidden map-side
// combine the engine plans before the shuffle: both fold equal keys with
// f.
func RegisterReduceByKey[K comparable, V any](name string, f func(V, V) V) KeyedOp[K, func(V, V) V] {
	engine.RegisterBatchShape[engine.Pair[K, V]]()
	engine.RegisterPortableOp(name, func(string) (engine.PortableCompute, error) {
		return engine.ReduceByKeyCompute[K](f), nil
	})
	return KeyedOp[K, func(V, V) V]{name, f}
}

// ReduceByKeyN is engine.ReduceByKeyN with the registered merge, marking
// both the reduce root and its map-side combine portable.
func ReduceByKeyN[K comparable, V any](d engine.Dataset[engine.Pair[K, V]], op KeyedOp[K, func(V, V) V], parts int) engine.Dataset[engine.Pair[K, V]] {
	out := engine.MarkPortable(engine.ReduceByKeyN(d, op.F, parts), op.Name, "")
	return engine.MarkCombinePortable(out, op.Name, "")
}

// ReduceByKeyBound is engine.ReduceByKeyBound with the registered merge
// (for cardinality-bounded key sets), marked like ReduceByKeyN.
func ReduceByKeyBound[K comparable, V any](d engine.Dataset[engine.Pair[K, V]], op KeyedOp[K, func(V, V) V], parts int) engine.Dataset[engine.Pair[K, V]] {
	out := engine.MarkPortable(engine.ReduceByKeyBound(d, op.F, parts), op.Name, "")
	return engine.MarkCombinePortable(out, op.Name, "")
}

// RegisterGroupByKey registers the (UDF-free) group-by-key kernel for the
// key/value shapes under name, making GroupByKeyN stages portable.
func RegisterGroupByKey[K comparable, V any](name string) KeyedOp[K, func(V) []V] {
	engine.RegisterBatchShape[engine.Pair[K, V]]()
	engine.RegisterBatchShape[engine.Pair[K, []V]]()
	engine.RegisterPortableOp(name, func(string) (engine.PortableCompute, error) {
		return engine.GroupByKeyCompute[K, V](), nil
	})
	return KeyedOp[K, func(V) []V]{Name: name}
}

// GroupByKeyN is engine.GroupByKeyN marked with the registered kernel.
func GroupByKeyN[K comparable, V any](d engine.Dataset[engine.Pair[K, V]], op KeyedOp[K, func(V) []V], parts int) engine.Dataset[engine.Pair[K, []V]] {
	return engine.MarkPortable(engine.GroupByKeyN(d, parts), op.Name, "")
}

// RegisterJoin registers the (UDF-free) repartition-join kernel for the
// key and side shapes under name.
func RegisterJoin[K comparable, A, B any](name string) KeyedOp[K, func(A, B) engine.Tuple2[A, B]] {
	engine.RegisterBatchShape[engine.Pair[K, A]]()
	engine.RegisterBatchShape[engine.Pair[K, B]]()
	engine.RegisterBatchShape[engine.Pair[K, engine.Tuple2[A, B]]]()
	engine.RegisterPortableOp(name, func(string) (engine.PortableCompute, error) {
		return engine.RepartitionJoinCompute[K, A, B](), nil
	})
	return KeyedOp[K, func(A, B) engine.Tuple2[A, B]]{Name: name}
}

// JoinWith is engine.JoinWith marked with the registered kernel.
// Only the repartition strategy is portable — broadcast joins build their
// hash table through the per-job Once, which cannot ship — so other
// strategies return the plain engine operator, and their stages run on
// the driver.
func JoinWith[K comparable, A, B any](l engine.Dataset[engine.Pair[K, A]], r engine.Dataset[engine.Pair[K, B]], op KeyedOp[K, func(A, B) engine.Tuple2[A, B]], strat engine.JoinStrategy, parts int) engine.Dataset[engine.Pair[K, engine.Tuple2[A, B]]] {
	out := engine.JoinWith(l, r, strat, parts)
	if strat == engine.JoinRepartition {
		out = engine.MarkPortable(out, op.Name, "")
	}
	return out
}
