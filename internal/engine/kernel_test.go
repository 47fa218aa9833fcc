package engine

import (
	"fmt"
	"reflect"
	"testing"
)

// The kernel table's UDFs: the filter keeps odd rows and the flatMap
// expands only those, so a partition of even rows comes out of both empty.
func ktestDouble(x int) int { return 2 * x }
func ktestOdd(x int) bool   { return x%2 == 1 }
func ktestNeg(x int) int    { return -x }
func ktestSpread(x int) []int {
	if x%2 == 0 {
		return nil
	}
	return []int{x, 10 * x}
}

// TestKernelTable pins each narrow operator's kernel on three partitions —
// empty, non-empty with every row dropped, and non-empty — by its rows, its
// length and the boxed capacity simulated size accounting charges for it:
// a map's length, a filter's input length, a flatMap's power-of-two growth.
// The same kernel run by RemoteEvaluator.RunRemoteTask, as a worker runs
// it, must return the same batch.
func TestKernelTable(t *testing.T) {
	s := mustSession(DefaultConfig())
	defer s.Close()
	const zipParts, p = 3, 1
	zip := ZipWithUniqueID(Parallelize(s, make([]int, zipParts), zipParts)).n.compute

	ints := func(xs ...int) Batch { return batchOf(xs, len(xs)) }
	kvs := func(xs ...int) Batch {
		out := make([]Pair[int, int], len(xs))
		for i, x := range xs {
			out[i] = KV(x, x)
		}
		return batchOf(out, len(out))
	}
	zipped := func(xs ...int) []any {
		out := make([]any, len(xs))
		for k, x := range xs {
			out[k] = Pair[uint64, int]{Key: uint64(p + k*zipParts), Val: x}
		}
		return out
	}
	type part struct {
		in   Batch
		rows []any
		bcap int
	}
	for _, c := range []struct {
		op     string
		kernel PortableCompute
		parts  []part
	}{
		{"ktest.map", MapCompute(ktestDouble), []part{
			{ints(), nil, 0},
			{ints(2, 4, 6), []any{4, 8, 12}, 3},
			{ints(1, 2, 3, 4, 5), []any{2, 4, 6, 8, 10}, 5},
		}},
		{"ktest.filter", FilterCompute(ktestOdd), []part{
			{ints(), nil, 0},
			{ints(2, 4, 6), nil, 3},
			{ints(1, 2, 3, 4, 5), []any{1, 3, 5}, 5},
		}},
		{"ktest.flatMap", FlatMapCompute(ktestSpread), []part{
			{ints(), nil, 0},
			{ints(2, 4, 6), nil, 0},
			{ints(1, 2, 3, 4, 5), []any{1, 10, 3, 30, 5, 50}, blockCap(6)},
		}},
		{"ktest.mapValues", MapValuesCompute[int](ktestNeg), []part{
			{kvs(), nil, 0},
			{kvs(2, 4), []any{KV(2, -2), KV(4, -4)}, 2},
			{kvs(1, 2, 3), []any{KV(1, -1), KV(2, -2), KV(3, -3)}, 3},
		}},
		{"ktest.zip", zip, []part{
			{ints(), nil, 0},
			{ints(2, 4), zipped(2, 4), 2},
			{ints(1, 2, 3), zipped(1, 2, 3), 3},
		}},
	} {
		// Registered once for the process: -count reruns the test in it,
		// and the registry rejects a name twice.
		if _, ok := portableOps.Load(c.op); !ok {
			k := c.kernel
			RegisterPortableOp(c.op, func(string) (PortableCompute, error) { return k, nil })
		}
		var eval RemoteEvaluator
		for i, pt := range c.parts {
			check := func(via string, out Batch) {
				t.Helper()
				if rows := boxedElems(out); out.Len() != len(pt.rows) || out.BoxedCap() != pt.bcap || (len(rows) > 0 || len(pt.rows) > 0) && !reflect.DeepEqual(rows, pt.rows) {
					t.Errorf("%s partition %d %s: rows %v len %d cap %d, want %v len %d cap %d",
						c.op, i, via, rows, out.Len(), out.BoxedCap(), pt.rows, len(pt.rows), pt.bcap)
				}
			}
			check("in process", c.kernel(&Ctx{}, p, []Batch{pt.in}))
			task := &RemoteTask{Steps: []RemoteStep{{Op: c.op, Part: p, NumInputs: 1}}, Inputs: []RemoteInput{{Block: 1}}}
			out, err := eval.RunRemoteTask(task, func(id uint64) (Batch, error) {
				if id != 1 {
					return nil, fmt.Errorf("block %d", id)
				}
				return pt.in, nil
			})
			if err != nil {
				t.Fatalf("%s partition %d remote: %v", c.op, i, err)
			}
			check("remote", out)
		}
	}
}
