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

func init() {
	RegisterMap("tregtest.double", tregDouble)
	RegisterMapArg("tregtest.scale", tregScale)
	RegisterFilter("tregtest.odd", tregOdd)
	RegisterFlatMap("tregtest.twice", tregTwice)
	RegisterMapValues[int]("tregtest.len", tregLen)
	RegisterReduceByKey[int]("tregtest.sum", tregSum)
	RegisterGroupByKey[int, int]("tregtest.group")
	RegisterJoin[int, int, string]("tregtest.join")
	RegisterMap("tregtest.key", tregKey)
	RegisterMap("tregtest.word", tregWord)
}

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
func throughKernel(t *testing.T, op string, arg []byte, inputs ...engine.Batch) any {
	t.Helper()
	root := &engine.RemoteNode{Op: op, Arg: arg}
	for i := range inputs {
		root.Inputs = append(root.Inputs, engine.RemoteInput{Kind: "block", Block: uint64(i + 1)})
	}
	var eval engine.RemoteEvaluator
	out, err := eval.RunRemoteTask(&engine.RemoteTask{Root: root}, func(id uint64) (engine.Batch, error) {
		return inputs[id-1], nil
	})
	if err != nil {
		t.Fatalf("%s: %v", op, err)
	}
	return out.Data()
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
	keyed := collect(t, Map[int, engine.Pair[int, int]](one(), "tregtest.key"))
	words := collect(t, Map[int, engine.Pair[int, string]](one(), "tregtest.word"))
	onePairs := func() engine.Dataset[engine.Pair[int, int]] { return engine.Parallelize(sess, keyed, 1) }
	oneWords := func() engine.Dataset[engine.Pair[int, string]] { return engine.Parallelize(sess, words, 1) }

	check := func(op string, got any, want any) {
		t.Helper()
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: kernel and constructor disagree\n kernel      %v\n constructor %v", op, got, want)
		}
	}
	check("tregtest.double",
		throughKernel(t, "tregtest.double", nil, sliceBatch(ints)),
		collect(t, Map[int, int](one(), "tregtest.double")))
	check("tregtest.scale",
		throughKernel(t, "tregtest.scale", []byte("3"), sliceBatch(ints)),
		collect(t, MapArg[int, int, int](one(), "tregtest.scale", 3)))
	check("tregtest.odd",
		throughKernel(t, "tregtest.odd", nil, sliceBatch(ints)),
		collect(t, Filter(one(), "tregtest.odd")))
	check("tregtest.twice",
		throughKernel(t, "tregtest.twice", nil, sliceBatch(ints)),
		collect(t, FlatMap[int, int](one(), "tregtest.twice")))
	check("tregtest.len",
		throughKernel(t, "tregtest.len", nil, sliceBatch(words)),
		collect(t, MapValues[int, string, int](oneWords(), "tregtest.len")))
	// One partition in, one out: the combine sees what the reduce sees.
	reduced := collect(t, ReduceByKeyN(onePairs(), "tregtest.sum", 1))
	check("tregtest.sum", throughKernel(t, "tregtest.sum", nil, sliceBatch(keyed)), reduced)
	check("tregtest.sum.combine", throughKernel(t, "tregtest.sum.combine", nil, sliceBatch(keyed)), reduced)
	check("tregtest.sum (bound)", throughKernel(t, "tregtest.sum", nil, sliceBatch(keyed)),
		collect(t, ReduceByKeyBound(onePairs(), "tregtest.sum", 1)))
	check("tregtest.group",
		throughKernel(t, "tregtest.group", nil, sliceBatch(keyed)),
		collect(t, GroupByKeyN(onePairs(), "tregtest.group", 1)))
	check("tregtest.join",
		throughKernel(t, "tregtest.join", nil, sliceBatch(keyed), sliceBatch(words)),
		collect(t, JoinWith(onePairs(), oneWords(), "tregtest.join", engine.JoinRepartition, 1)))
}
