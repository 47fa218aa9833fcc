package taskreg

import (
	"fmt"
	"reflect"
	"testing"

	"matryoshka/internal/engine"
)

// One registration per helper, under names no workload uses.
func tregDouble(x int) int                    { return 2 * x }
func tregScale(k int) func(int) int           { return func(x int) int { return k * x } }
func tregOdd(x int) bool                      { return x%2 == 1 }
func tregTwice(x int) []int                   { return []int{x, -x} }
func tregLen(s string) int                    { return len(s) }
func tregSum(a, b int) int                    { return a + b }
func tregKey(x int) engine.Pair[int, int]     { return engine.KV(x%5, x) }
func tregWord(x int) engine.Pair[int, string] { return engine.KV(x%5, fmt.Sprint("w", x)) }

var (
	tregDoubleOp = RegisterMap("tregtest.double", tregDouble)
	tregScaleOp  = RegisterMapArg("tregtest.scale", tregScale)
	tregOddOp    = RegisterFilter("tregtest.odd", tregOdd)
	tregTwiceOp  = RegisterFlatMap("tregtest.twice", tregTwice)
	tregLenOp    = RegisterMapValues[int]("tregtest.len", tregLen)
	tregSumOp    = RegisterReduceByKey[int]("tregtest.sum", tregSum)
	tregGroupOp  = RegisterGroupByKey[int, int]("tregtest.group")
	tregJoinOp   = RegisterJoin[int, int, string]("tregtest.join")
	tregKeyOp    = RegisterMap("tregtest.key", tregKey)
	tregWordOp   = RegisterMap("tregtest.word", tregWord)
)

// sliceBatch wraps xs in a Batch using only what engine exports: the
// MapPartitions kernel over an empty input hands back whatever its UDF
// returns.
func sliceBatch[T any](xs []T) engine.Batch {
	k := engine.MapPartitionsCompute(func([]T) []T { return xs })
	return k(&engine.Ctx{}, 0, []engine.Batch{&engine.Vec[T]{}})
}

// throughKernel runs one partition through the kernel the portable
// registry holds under op: the task a worker would be sent, its inputs the
// given batches in dep order.
func throughKernel(t *testing.T, op, arg string, inputs ...engine.Batch) any {
	t.Helper()
	task := engine.RemoteTask{Steps: []engine.RemoteStep{{Op: op, Arg: arg, NumInputs: len(inputs)}}}
	for i := range inputs {
		task.Inputs = append(task.Inputs, engine.RemoteInput{Block: uint64(i + 1)})
	}
	var eval engine.RemoteEvaluator
	out, err := eval.RunRemoteTask(&task, func(id uint64) (engine.Batch, error) {
		return inputs[id-1], nil
	})
	if err != nil {
		t.Fatalf("%s: %v", op, err)
	}
	elem, rows := out.Rows()
	return reflect.SliceAt(elem, rows, out.Len()).Interface()
}

func collect[T any](t *testing.T, d engine.Dataset[T]) []T {
	t.Helper()
	out, err := engine.Collect(d)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestRegisteredKernelsMatchConstructors: for every Register* helper, the
// name it registers resolves in the portable-op registry, and one
// partition through that kernel — what a pool worker computes — equals
// what the same-named constructor computes for the partition on a
// simulator session.
func TestRegisteredKernelsMatchConstructors(t *testing.T) {
	sess, err := engine.NewSession(engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ints := make([]int, 40)
	for i := range ints {
		ints[i] = (i * 7) % 23
	}
	one := func() engine.Dataset[int] { return engine.Parallelize(sess, ints, 1) }
	keyed := collect(t, Map(one(), tregKeyOp))
	words := collect(t, Map(one(), tregWordOp))
	onePairs := func() engine.Dataset[engine.Pair[int, int]] { return engine.Parallelize(sess, keyed, 1) }
	oneWords := func() engine.Dataset[engine.Pair[int, string]] { return engine.Parallelize(sess, words, 1) }

	check := func(op string, got any, want any) {
		t.Helper()
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: kernel and constructor disagree\n kernel      %v\n constructor %v", op, got, want)
		}
	}
	check("tregtest.double",
		throughKernel(t, "tregtest.double", "", sliceBatch(ints)),
		collect(t, Map(one(), tregDoubleOp)))
	check("tregtest.scale",
		throughKernel(t, "tregtest.scale", "3", sliceBatch(ints)),
		collect(t, MapArg(one(), tregScaleOp, 3)))
	check("tregtest.odd",
		throughKernel(t, "tregtest.odd", "", sliceBatch(ints)),
		collect(t, Filter(one(), tregOddOp)))
	check("tregtest.twice",
		throughKernel(t, "tregtest.twice", "", sliceBatch(ints)),
		collect(t, FlatMap(one(), tregTwiceOp)))
	check("tregtest.len",
		throughKernel(t, "tregtest.len", "", sliceBatch(words)),
		collect(t, MapValues(oneWords(), tregLenOp)))
	// One partition in, one out: the map-side combine runs this kernel too.
	check("tregtest.sum", throughKernel(t, "tregtest.sum", "", sliceBatch(keyed)),
		collect(t, ReduceByKeyN(onePairs(), tregSumOp, 1)))
	check("tregtest.sum (bound)", throughKernel(t, "tregtest.sum", "", sliceBatch(keyed)),
		collect(t, ReduceByKeyBound(onePairs(), tregSumOp, 1)))
	check("tregtest.group",
		throughKernel(t, "tregtest.group", "", sliceBatch(keyed)),
		collect(t, GroupByKeyN(onePairs(), tregGroupOp, 1)))
	check("tregtest.join",
		throughKernel(t, "tregtest.join", "", sliceBatch(keyed), sliceBatch(words)),
		collect(t, JoinWith(onePairs(), oneWords(), tregJoinOp, engine.JoinRepartition, 1)))
}
