package core

import (
	"fmt"
	"sort"
	"testing"
	"testing/quick"

	"matryoshka/internal/engine"
)

// TestLiftedWhileCollatzSteps lifts a loop whose per-invocation iteration
// counts differ wildly (Collatz step counting), the exact challenge of
// Sec. 6.2: "the original loops might finish at different iterations".
func TestLiftedWhileCollatzSteps(t *testing.T) {
	s := testSession()
	starts := []int64{1, 2, 3, 6, 7, 27}
	want := map[int64]int64{}
	for _, n := range starts {
		want[n] = collatzSteps(n)
	}

	res, err := LiftFlat(engine.Parallelize(s, starts, 3), Options{},
		func(ctx *Ctx, elems InnerScalar[int64]) (InnerScalar[engine.Tuple2[int64, int64]], error) {
			// State per invocation: (start, current, steps) packed in a tuple.
			type state struct {
				Start, Cur, Steps int64
			}
			init := UnaryScalarOp(elems, func(n int64) state { return state{n, n, 0} })
			ops := ScalarState[state]()
			out, err := While(ctx, init, ops, func(c *Ctx, cur InnerScalar[state]) (InnerScalar[state], InnerScalar[bool], error) {
				next := UnaryScalarOp(cur, func(v state) state {
					if v.Cur == 1 {
						return v // do-while body runs once even for n=1
					}
					if v.Cur%2 == 0 {
						return state{v.Start, v.Cur / 2, v.Steps + 1}
					}
					return state{v.Start, 3*v.Cur + 1, v.Steps + 1}
				})
				cond := UnaryScalarOp(next, func(v state) bool { return v.Cur != 1 })
				return next, cond, nil
			})
			if err != nil {
				return InnerScalar[engine.Tuple2[int64, int64]]{}, err
			}
			return UnaryScalarOp(out, func(v state) engine.Tuple2[int64, int64] {
				return engine.Tuple2[int64, int64]{A: v.Start, B: v.Steps}
			}), nil
		})
	if err != nil {
		t.Fatal(err)
	}
	vals, err := res.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != len(starts) {
		t.Fatalf("got %d results, want %d", len(vals), len(starts))
	}
	for _, v := range vals {
		if want[v.A] != v.B {
			t.Errorf("collatz(%d) = %d steps, want %d", v.A, v.B, want[v.A])
		}
	}
}

func collatzSteps(n int64) int64 {
	var steps int64
	for n != 1 {
		if n%2 == 0 {
			n /= 2
		} else {
			n = 3*n + 1
		}
		steps++
	}
	return steps
}

// TestLiftedWhileMatchesSequentialLoops is the property-based counterpart:
// for random per-tag iteration budgets, the lifted loop must produce the
// same values as running each loop sequentially.
func TestLiftedWhileMatchesSequentialLoops(t *testing.T) {
	s := testSession()
	f := func(budgets []uint8) bool {
		if len(budgets) == 0 {
			return true
		}
		if len(budgets) > 12 {
			budgets = budgets[:12]
		}
		lims := make([]int64, len(budgets))
		for i, b := range budgets {
			lims[i] = int64(b%17) + 1
		}
		type state struct{ Lim, I int64 }
		res, err := LiftFlat(engine.Parallelize(s, lims, 3), Options{},
			func(ctx *Ctx, elems InnerScalar[int64]) (InnerScalar[state], error) {
				init := UnaryScalarOp(elems, func(l int64) state { return state{l, 0} })
				return While(ctx, init, ScalarState[state](), func(c *Ctx, cur InnerScalar[state]) (InnerScalar[state], InnerScalar[bool], error) {
					next := UnaryScalarOp(cur, func(v state) state { return state{v.Lim, v.I + 1} })
					cond := UnaryScalarOp(next, func(v state) bool { return v.I < v.Lim })
					return next, cond, nil
				})
			})
		if err != nil {
			return false
		}
		vals, err := res.Collect()
		if err != nil || len(vals) != len(lims) {
			return false
		}
		for _, v := range vals {
			if v.I != v.Lim { // do-while: i increments until i >= lim
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

// TestLiftedWhileWithBagState exercises loop state containing an InnerBag
// (the PageRank shape): each group's bag grows until the group's budget.
func TestLiftedWhileWithBagState(t *testing.T) {
	s := testSession()
	nb := buildNested(t, s, map[string][]int{"small": {0}, "big": {0, 0, 0}})
	// Loop: each iteration doubles the bag; groups stop when their bag
	// reaches >= 4 elements, so "small" runs 2 iterations, "big" 1.
	type loopState = State2[InnerBag[int], InnerScalar[int64]]
	ops := State2Ops(BagState[int](), ScalarState[int64]())
	init := loopState{A: nb.Inner, B: Pure(nb.Ctx(), int64(0))}
	out, err := While(nb.Ctx(), init, ops, func(c *Ctx, st loopState) (loopState, InnerScalar[bool], error) {
		grown := UnionBags(st.A, st.A)
		iters := UnaryScalarOp(st.B, func(i int64) int64 { return i + 1 })
		sizes := CountBag(grown)
		cond := UnaryScalarOp(sizes, func(n int64) bool { return n < 4 })
		return loopState{A: grown, B: iters}, cond, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sizes := scalarByOuter(t, nb, CountBag(out.A))
	if sizes["small"] != 4 || sizes["big"] != 6 {
		t.Fatalf("sizes = %v", sizes)
	}
	iters := scalarByOuter(t, nb, out.B)
	if iters["small"] != 2 || iters["big"] != 1 {
		t.Fatalf("iters = %v", iters)
	}
}

func TestLiftedIfBothBranches(t *testing.T) {
	s := testSession()
	nb := buildNested(t, s, map[string][]int{"a": {1}, "b": {1, 2}, "c": {1, 2, 3}})
	counts := CountBag(nb.Inner)
	cond := UnaryScalarOp(counts, func(n int64) bool { return n >= 2 })
	res, err := If(nb.Ctx(), cond, counts, ScalarState[int64](),
		func(c *Ctx, v InnerScalar[int64]) (InnerScalar[int64], error) {
			return UnaryScalarOp(v, func(n int64) int64 { return n * 100 }), nil
		},
		func(c *Ctx, v InnerScalar[int64]) (InnerScalar[int64], error) {
			return UnaryScalarOp(v, func(n int64) int64 { return -n }), nil
		})
	if err != nil {
		t.Fatal(err)
	}
	m := scalarByOuter(t, nb, res)
	if m["a"] != -1 || m["b"] != 200 || m["c"] != 300 {
		t.Fatalf("m = %v", m)
	}
}

func TestLiftedIfAllOneSide(t *testing.T) {
	s := testSession()
	nb := buildNested(t, s, map[string][]int{"a": {1}, "b": {2}})
	cond := Pure(nb.Ctx(), true)
	res, err := If(nb.Ctx(), cond, CountBag(nb.Inner), ScalarState[int64](),
		func(c *Ctx, v InnerScalar[int64]) (InnerScalar[int64], error) { return v, nil },
		func(c *Ctx, v InnerScalar[int64]) (InnerScalar[int64], error) {
			return UnaryScalarOp(v, func(int64) int64 { return -999 }), nil
		})
	if err != nil {
		t.Fatal(err)
	}
	m := scalarByOuter(t, nb, res)
	if m["a"] != 1 || m["b"] != 1 {
		t.Fatalf("m = %v", m)
	}
}

func TestWhileTerminationGuard(t *testing.T) {
	s := testSession()
	var pairs []engine.Pair[string, int]
	pairs = append(pairs, engine.KV("a", 1))
	nb, err := GroupByKeyIntoNestedBag(engine.Parallelize(s, pairs, 1), Options{MaxLoopIterations: 5})
	if err != nil {
		t.Fatal(err)
	}
	_, err = While(nb.Ctx(), CountBag(nb.Inner), ScalarState[int64](),
		func(c *Ctx, v InnerScalar[int64]) (InnerScalar[int64], InnerScalar[bool], error) {
			return v, Pure(c, true), nil // never finishes
		})
	if err == nil {
		t.Fatal("expected iteration-guard error")
	}
}

// --- Theorem 2 isomorphism properties: m(f(x)) == f'(m(x)) for lifted ops.
// m maps per-group bags to the tagged flat representation; we verify that
// applying the sequential op per group then flattening equals applying the
// lifted op to the flattened representation.

func TestTheorem2MapPreservation(t *testing.T) {
	f := func(groupsRaw [][]int16) bool {
		s := testSession()
		groups := toGroups(groupsRaw)
		if len(groups) == 0 {
			return true
		}
		nb := mustNested(s, groups)
		// f'(m(x)): lifted op on flat representation.
		lifted := MapBag(nb.Inner, func(v int) int { return v*3 + 1 })
		got := groupsOf(nb, lifted)
		// m(f(x)): sequential per group, then compare multisets.
		want := map[string][]int{}
		for k, vs := range groups {
			for _, v := range vs {
				want[k] = append(want[k], v*3+1)
			}
		}
		return sameGroups(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func TestTheorem2FilterPreservation(t *testing.T) {
	f := func(groupsRaw [][]int16) bool {
		s := testSession()
		groups := toGroups(groupsRaw)
		if len(groups) == 0 {
			return true
		}
		nb := mustNested(s, groups)
		lifted := FilterBag(nb.Inner, func(v int) bool { return v%2 == 0 })
		got := groupsOf(nb, lifted)
		want := map[string][]int{}
		for k, vs := range groups {
			want[k] = []int{}
			for _, v := range vs {
				if v%2 == 0 {
					want[k] = append(want[k], v)
				}
			}
		}
		return sameGroups(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func TestTheorem2CountPreservation(t *testing.T) {
	f := func(groupsRaw [][]int16) bool {
		s := testSession()
		groups := toGroups(groupsRaw)
		if len(groups) == 0 {
			return true
		}
		nb := mustNested(s, groups)
		counts, err := CountBag(nb.Inner).Collect()
		if err != nil {
			return false
		}
		outer, err := nb.Outer.Collect()
		if err != nil {
			return false
		}
		for tag, k := range outer {
			if counts[tag] != int64(len(groups[k])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func TestTheorem2ReduceByKeyPreservation(t *testing.T) {
	f := func(groupsRaw [][]int16) bool {
		s := testSession()
		groups := toGroups(groupsRaw)
		if len(groups) == 0 {
			return true
		}
		nb := mustNested(s, groups)
		keyed := MapBag(nb.Inner, func(v int) engine.Pair[int, int] { return engine.KV(v%3, v) })
		red := ReduceByKeyBag(keyed, func(a, b int) int { return a + b })
		flat, err := red.CollectGroups()
		if err != nil {
			return false
		}
		outer, err := nb.Outer.Collect()
		if err != nil {
			return false
		}
		for tag, k := range outer {
			want := map[int]int{}
			for _, v := range groups[k] {
				want[v%3] += v
			}
			gotM := map[int]int{}
			for _, kv := range flat[tag] {
				gotM[kv.Key] = kv.Val
			}
			if fmt.Sprint(gotM) != fmt.Sprint(want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// --- helpers ---

func toGroups(raw [][]int16) map[string][]int {
	groups := map[string][]int{}
	for i, g := range raw {
		if i >= 6 {
			break
		}
		k := fmt.Sprintf("g%d", i)
		groups[k] = []int{}
		for j, v := range g {
			if j >= 20 {
				break
			}
			groups[k] = append(groups[k], int(v))
		}
	}
	// Bags created by groupByKey never contain empty groups; drop them.
	for k, vs := range groups {
		if len(vs) == 0 {
			delete(groups, k)
		}
	}
	return groups
}

func mustNested(s *engine.Session, groups map[string][]int) NestedBag[string, int] {
	var pairs []engine.Pair[string, int]
	for k, vs := range groups {
		for _, v := range vs {
			pairs = append(pairs, engine.KV(k, v))
		}
	}
	nb, err := GroupByKeyIntoNestedBag(engine.Parallelize(s, pairs, 4), Options{})
	if err != nil {
		panic(err)
	}
	return nb
}

func groupsOf[S any](nb NestedBag[string, int], b InnerBag[S]) map[string][]S {
	flat, err := b.CollectGroups()
	if err != nil {
		panic(err)
	}
	outer, err := nb.Outer.Collect()
	if err != nil {
		panic(err)
	}
	out := map[string][]S{}
	for tag, k := range outer {
		out[k] = flat[tag]
		if out[k] == nil {
			out[k] = []S{}
		}
	}
	return out
}

func sameGroups(a, b map[string][]int) bool {
	if len(a) != len(b) {
		return false
	}
	for k, av := range a {
		bv, ok := b[k]
		if !ok || len(av) != len(bv) {
			return false
		}
		as, bs := append([]int{}, av...), append([]int{}, bv...)
		sort.Ints(as)
		sort.Ints(bs)
		for i := range as {
			if as[i] != bs[i] {
				return false
			}
		}
	}
	return true
}

// TestState3LoopAllComponents runs a loop whose state has three
// components: an InnerBag, and two InnerScalars with different roles,
// composed as nested State2s.
func TestState3LoopAllComponents(t *testing.T) {
	s := testSession()
	nb := buildNested(t, s, map[string][]int{"x": {1, 2}, "y": {1, 2, 3, 4}})
	type scalars = State2[InnerScalar[int64], InnerScalar[int64]]
	type st = State2[InnerBag[int], scalars]
	ops := State2Ops(BagState[int](), State2Ops(ScalarState[int64](), ScalarState[int64]()))
	init := st{A: nb.Inner, B: scalars{A: Pure(nb.Ctx(), int64(0)), B: CountBag(nb.Inner)}}
	out, err := While(nb.Ctx(), init, ops, func(c *Ctx, cur st) (st, InnerScalar[bool], error) {
		grown := UnionBags(cur.A, cur.A)
		iters := UnaryScalarOp(cur.B.A, func(i int64) int64 { return i + 1 })
		sizes := CountBag(grown)
		cond := UnaryScalarOp(sizes, func(n int64) bool { return n < 8 })
		return st{A: grown, B: scalars{A: iters, B: sizes}}, cond, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	iters := scalarByOuter(t, nb, out.B.A)
	sizes := scalarByOuter(t, nb, out.B.B)
	// x: 2 -> 4 -> 8 (2 iterations); y: 4 -> 8 (1 iteration).
	if iters["x"] != 2 || iters["y"] != 1 {
		t.Fatalf("iters = %v", iters)
	}
	if sizes["x"] != 8 || sizes["y"] != 8 {
		t.Fatalf("sizes = %v", sizes)
	}
}
