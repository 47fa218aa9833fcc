package core

import (
	"fmt"
	"sort"
	"testing"
	"testing/quick"

	"matryoshka/internal/engine"
)

func testSession() *engine.Session {
	cfg := engine.DefaultConfig()
	cfg.Cluster.Machines = 4
	cfg.Cluster.CoresPerMachine = 2
	cfg.DefaultParallelism = 6
	s, err := engine.NewSession(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

func TestTagPushPopDepth(t *testing.T) {
	r := engine.RootTag(7)
	if r.Depth() != 1 || r.Leaf() != 7 {
		t.Fatalf("root: %v", r)
	}
	c := r.Push(3)
	if c.Depth() != 2 || c.Leaf() != 3 {
		t.Fatalf("child: %v", c)
	}
	if c.Pop() != r {
		t.Fatalf("pop: %v != %v", c.Pop(), r)
	}
	if c.String() != "τ(7.3)" {
		t.Fatalf("string: %s", c)
	}
}

func TestTagCompositeUnique(t *testing.T) {
	// Property: distinct (outer, inner) pairs give distinct composite tags.
	f := func(o1, i1, o2, i2 uint16) bool {
		t1 := engine.RootTag(uint64(o1)).Push(uint64(i1))
		t2 := engine.RootTag(uint64(o2)).Push(uint64(i2))
		return (t1 == t2) == (o1 == o2 && i1 == i2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTagDepthLimitPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic past MaxNestingLevels")
		}
	}()
	engine.RootTag(1).Push(2).Push(3).Push(4)
}

// buildNested creates a NestedBag from explicit groups for tests.
func buildNested[K comparable, V any](t *testing.T, s *engine.Session, groups map[K][]V) NestedBag[K, V] {
	t.Helper()
	var pairs []engine.Pair[K, V]
	for k, vs := range groups {
		for _, v := range vs {
			pairs = append(pairs, engine.KV(k, v))
		}
	}
	nb, err := GroupByKeyIntoNestedBag(engine.Parallelize(s, pairs, 4), Options{})
	if err != nil {
		t.Fatalf("GroupByKeyIntoNestedBag: %v", err)
	}
	return nb
}

func TestGroupByKeyIntoNestedBagRoundTrip(t *testing.T) {
	s := testSession()
	groups := map[string][]int{"a": {1, 2, 3}, "b": {4}, "c": {5, 6}}
	nb := buildNested(t, s, groups)
	if nb.Ctx().Size != 3 {
		t.Fatalf("Size = %d, want 3", nb.Ctx().Size)
	}
	got, err := CollectNested(nb)
	if err != nil {
		t.Fatal(err)
	}
	for k, vs := range groups {
		sort.Ints(got[k])
		if fmt.Sprint(got[k]) != fmt.Sprint(vs) {
			t.Errorf("group %v: got %v, want %v", k, got[k], vs)
		}
	}
}

func TestUnaryScalarOp(t *testing.T) {
	s := testSession()
	nb := buildNested(t, s, map[string][]int{"a": {1, 2}, "b": {10}})
	counts := CountBag(nb.Inner)
	doubled := UnaryScalarOp(counts, func(n int64) int64 { return 2 * n })
	m := scalarByOuter(t, nb, doubled)
	if m["a"] != 4 || m["b"] != 2 {
		t.Fatalf("m = %v", m)
	}
}

// scalarByOuter resolves an InnerScalar's values to the group keys.
func scalarByOuter[K comparable, V, S any](t *testing.T, nb NestedBag[K, V], is InnerScalar[S]) map[K]S {
	t.Helper()
	outer, err := nb.Outer.Collect()
	if err != nil {
		t.Fatal(err)
	}
	vals, err := is.Collect()
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[K]S, len(outer))
	for tag, k := range outer {
		if v, ok := vals[tag]; ok {
			out[k] = v
		}
	}
	return out
}

func TestBinaryScalarOpBothStrategies(t *testing.T) {
	for _, strat := range []engine.JoinStrategy{engine.JoinRepartition, engine.JoinBroadcastLeft} {
		t.Run(strat.String(), func(t *testing.T) {
			s := testSession()
			var pairs []engine.Pair[int, int]
			for g := 0; g < 10; g++ {
				for i := 0; i <= g; i++ {
					pairs = append(pairs, engine.KV(g, i))
				}
			}
			nb, err := GroupByKeyIntoNestedBag(engine.Parallelize(s, pairs, 4), Options{ForceScalarJoin: ForceJoin(strat)})
			if err != nil {
				t.Fatal(err)
			}
			counts := CountBag(nb.Inner)
			sums := AggregateBag(nb.Inner, 0, func(a int64, v int) int64 { return a + int64(v) },
				func(x, y int64) int64 { return x + y })
			// avg*count relation: sum == count*(count-1)/2 per group g.
			rel := BinaryScalarOp(sums, counts, func(sum, cnt int64) bool {
				return sum == cnt*(cnt-1)/2
			})
			m := scalarByOuter(t, nb, rel)
			if len(m) != 10 {
				t.Fatalf("got %d groups", len(m))
			}
			for g, ok := range m {
				if !ok {
					t.Errorf("group %v: relation failed", g)
				}
			}
		})
	}
}

func TestPureReplicatesPerTag(t *testing.T) {
	s := testSession()
	nb := buildNested(t, s, map[string][]int{"a": {1}, "b": {2}, "c": {3}})
	c := Pure(nb.Ctx(), 42)
	vals, err := c.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 3 {
		t.Fatalf("len = %d", len(vals))
	}
	for _, v := range vals {
		if v != 42 {
			t.Fatalf("v = %d", v)
		}
	}
}

func TestCountBagCountsEmptyGroupsAsZero(t *testing.T) {
	s := testSession()
	nb := buildNested(t, s, map[string][]int{"a": {1, 2, 3}, "b": {4}})
	// Filter out everything in group b: its inner bag becomes empty, but
	// count must still produce 0 for it (Sec. 4.4).
	filtered := FilterBag(nb.Inner, func(v int) bool { return v < 4 })
	counts := scalarByOuter(t, nb, CountBag(filtered))
	if counts["a"] != 3 || counts["b"] != 0 {
		t.Fatalf("counts = %v", counts)
	}
}

func TestReduceBagSkipsEmptyGroups(t *testing.T) {
	s := testSession()
	nb := buildNested(t, s, map[string][]int{"a": {1, 2}, "b": {9}})
	filtered := FilterBag(nb.Inner, func(v int) bool { return v < 9 })
	sums, err := ReduceBag(filtered, func(a, b int) int { return a + b }).Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(sums) != 1 {
		t.Fatalf("reduce of empty group should yield nothing: %v", sums)
	}
}

func TestDistinctBagPerInvocation(t *testing.T) {
	s := testSession()
	nb := buildNested(t, s, map[string][]int{"a": {1, 1, 2}, "b": {1, 1}})
	counts := scalarByOuter(t, nb, CountBag(DistinctBag(nb.Inner)))
	if counts["a"] != 2 || counts["b"] != 1 {
		t.Fatalf("counts = %v", counts)
	}
}

func TestReduceByKeyBagKeepsTagsSeparate(t *testing.T) {
	type reduceByKey = func(InnerBag[engine.Pair[string, int]], func(int, int) int) InnerBag[engine.Pair[string, int]]
	for _, tc := range []struct {
		name   string
		reduce reduceByKey
	}{
		{"ReduceByKeyBag", ReduceByKeyBag[string, int]},
		{"ReduceByKeyBagBound", ReduceByKeyBagBound[string, int]},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := testSession()
			nb := buildNested(t, s, map[string][]string{
				"g1": {"x", "x", "y"},
				"g2": {"x"},
			})
			keyed := MapBag(nb.Inner, func(v string) engine.Pair[string, int] { return engine.KV(v, 1) })
			red := tc.reduce(keyed, func(a, b int) int { return a + b })
			groups, err := red.CollectGroups()
			if err != nil {
				t.Fatal(err)
			}
			outer, _ := nb.Outer.Collect()
			byName := map[string]map[string]int{}
			for tag, name := range outer {
				m := map[string]int{}
				for _, kv := range groups[tag] {
					m[kv.Key] = kv.Val
				}
				byName[name] = m
			}
			if byName["g1"]["x"] != 2 || byName["g1"]["y"] != 1 || byName["g2"]["x"] != 1 {
				t.Fatalf("byName = %v", byName)
			}
		})
	}
}

func TestJoinBagsWithinInvocationOnly(t *testing.T) {
	s := testSession()
	nb := buildNested(t, s, map[string][]int{"a": {1, 2}, "b": {1}})
	l := MapBag(nb.Inner, func(v int) engine.Pair[int, string] { return engine.KV(v, "L") })
	r := MapBag(nb.Inner, func(v int) engine.Pair[int, string] { return engine.KV(v, "R") })
	counts := scalarByOuter(t, nb, CountBag(JoinBags(l, r)))
	// Within a: {1,2}⋈{1,2} on identity keys = 2 matches; within b: 1.
	if counts["a"] != 2 || counts["b"] != 1 {
		t.Fatalf("counts = %v", counts)
	}
}

func TestFlattenBag(t *testing.T) {
	s := testSession()
	nb := buildNested(t, s, map[string][]int{"a": {1, 2}, "b": {3}})
	got, err := engine.Collect(FlattenBag(nb.Inner))
	if err != nil {
		t.Fatal(err)
	}
	sort.Ints(got)
	if fmt.Sprint(got) != "[1 2 3]" {
		t.Fatalf("got %v", got)
	}
}

func TestMapWithClosure(t *testing.T) {
	s := testSession()
	nb := buildNested(t, s, map[string][]int{"a": {1, 2}, "b": {10}})
	// Closure: each group's own count, added to each element.
	counts := CountBag(nb.Inner)
	shifted := MapWithClosure(nb.Inner, counts, func(v int, c int64) int { return v + int(c) })
	groups, err := shifted.CollectGroups()
	if err != nil {
		t.Fatal(err)
	}
	outer, _ := nb.Outer.Collect()
	for tag, name := range outer {
		vs := groups[tag]
		sort.Ints(vs)
		switch name {
		case "a":
			if fmt.Sprint(vs) != "[3 4]" {
				t.Errorf("a: %v", vs)
			}
		case "b":
			if fmt.Sprint(vs) != "[11]" {
				t.Errorf("b: %v", vs)
			}
		}
	}
}

func TestLiftScalarAndBagClosure(t *testing.T) {
	s := testSession()
	nb := buildNested(t, s, map[string][]int{"a": {1}, "b": {2}})
	lifted := LiftScalarClosure(nb.Ctx(), 100)
	vals, err := lifted.Collect()
	if err != nil || len(vals) != 2 {
		t.Fatalf("vals = %v err = %v", vals, err)
	}
	outside := engine.Parallelize(s, []int{7, 8}, 2)
	ib := LiftBagClosure(nb.Ctx(), outside)
	m := scalarByOuter(t, nb, CountBag(ib))
	if m["a"] != 2 || m["b"] != 2 {
		t.Fatalf("replicated counts = %v", m)
	}
}

func TestHalfLiftedMapWithClosureBothChoices(t *testing.T) {
	for _, choice := range []HalfLiftedChoice{BroadcastScalar, BroadcastPrimary} {
		t.Run(choice.String(), func(t *testing.T) {
			s := testSession()
			var pairs []engine.Pair[string, int]
			pairs = append(pairs, engine.KV("a", 10), engine.KV("b", 20))
			nb, err := GroupByKeyIntoNestedBag(engine.Parallelize(s, pairs, 2),
				Options{ForceHalfLifted: ForceHalf(choice)})
			if err != nil {
				t.Fatal(err)
			}
			// Closure = the group's sole value; primary = outside points.
			clos := ReduceBag(nb.Inner, func(a, b int) int { return a + b })
			primary := engine.Parallelize(s, []int{1, 2, 3}, 2)
			crossed := HalfLiftedMapWithClosure(clos, primary, func(p, c int) int { return p + c })
			groups, err := crossed.CollectGroups()
			if err != nil {
				t.Fatal(err)
			}
			outer, _ := nb.Outer.Collect()
			for tag, name := range outer {
				vs := groups[tag]
				sort.Ints(vs)
				want := "[11 12 13]"
				if name == "b" {
					want = "[21 22 23]"
				}
				if fmt.Sprint(vs) != want {
					t.Errorf("%s: got %v, want %v", name, vs, want)
				}
			}
		})
	}
}

func TestHalfLiftedOptimizerChoosesScalarWhenOnePartition(t *testing.T) {
	s := testSession()
	ctx := &Ctx{Sess: s, Size: 10, Parts: 1}
	if got := ctx.HalfLiftedStrategy(-1, -1); got != BroadcastScalar {
		t.Fatalf("got %v", got)
	}
	ctx.Parts = 4
	if got := ctx.HalfLiftedStrategy(1000, 10); got != BroadcastPrimary {
		t.Fatalf("sizes known, primary smaller: got %v", got)
	}
	if got := ctx.HalfLiftedStrategy(10, 1000); got != BroadcastScalar {
		t.Fatalf("sizes known, scalar smaller: got %v", got)
	}
}

func TestScalarJoinStrategyThreshold(t *testing.T) {
	s := testSession() // 8 slots
	small := &Ctx{Sess: s, Size: 3}
	big := &Ctx{Sess: s, Size: 1000}
	if small.ScalarJoinStrategy() != engine.JoinBroadcastLeft {
		t.Error("small InnerScalar should broadcast")
	}
	if big.ScalarJoinStrategy() != engine.JoinRepartition {
		t.Error("big InnerScalar should repartition")
	}
}

// TestOptimizerHonorsRecoveryFeedback: once adaptive recovery denylists a
// physical choice or raises partition counts, the optimizer never re-picks
// the denylisted choice and starts at the raised parallelism.
func TestOptimizerHonorsRecoveryFeedback(t *testing.T) {
	s := testSession()
	s.Feedback().Deny("join", "broadcast", "broadcast OOMed in an earlier job")
	small := &Ctx{Sess: s, Size: 3} // small enough to normally broadcast
	if got := small.ScalarJoinStrategy(); got != engine.JoinRepartition {
		t.Errorf("ScalarJoinStrategy after denylist = %v, want repartition", got)
	}
	if got := small.BagScalarJoinStrategy(); got != engine.JoinRepartition {
		t.Errorf("BagScalarJoinStrategy after denylist = %v, want repartition", got)
	}

	s2 := testSession()
	s2.Feedback().Deny("half-lifted", "broadcast-scalar", "scalar side OOMed")
	one := &Ctx{Sess: s2, Size: 10, Parts: 1} // normally broadcasts the scalar
	if got := one.HalfLiftedStrategy(-1, -1); got != BroadcastPrimary {
		t.Errorf("HalfLiftedStrategy after scalar denylist = %v, want primary", got)
	}
	s2.Feedback().Deny("half-lifted", "broadcast-primary", "primary side OOMed too")
	if got := one.HalfLiftedStrategy(-1, -1); got != BroadcastScalar {
		t.Errorf("HalfLiftedStrategy with both denied = %v, want Sec. 8.3 default", got)
	}

	s3 := testSession()
	s3.Feedback().BoostParts(4)
	c := &Ctx{Sess: s3}
	if p := c.partsFor(10); p != 4 {
		t.Errorf("partsFor(10) with 4x boost = %d, want 4", p)
	}
}

func TestPartsForScalesAndClamps(t *testing.T) {
	s := testSession()
	c := &Ctx{Sess: s}
	if p := c.partsFor(10); p != 1 {
		t.Errorf("partsFor(10) = %d", p)
	}
	if p := c.partsFor(100_000); p != s.DefaultParallelism() {
		t.Errorf("partsFor(1e5) = %d, want clamp to %d", p, s.DefaultParallelism())
	}
	c.Opt.TargetScalarsPerPartition = 10
	if p := c.partsFor(35); p != 4 {
		t.Errorf("partsFor(35, target 10) = %d, want 4", p)
	}
}

// TestGroupByKeyIntoNestedBagInner groups inside a lifted UDF: per outer
// group, sub-group the values by parity and count each subgroup — a
// three-level nested program written with inner grouping.
func TestGroupByKeyIntoNestedBagInner(t *testing.T) {
	s := testSession()
	nb := buildNested(t, s, map[string][]int{
		"g1": {1, 2, 3, 4, 5}, // odd: 3, even: 2
		"g2": {2, 4},          // even: 2
	})
	keyed := MapBag(nb.Inner, func(v int) engine.Pair[string, int] {
		if v%2 == 0 {
			return engine.KV("even", v)
		}
		return engine.KV("odd", v)
	})
	subKeys, subVals, err := GroupByKeyIntoNestedBagInner(keyed)
	if err != nil {
		t.Fatal(err)
	}
	if subKeys.Ctx().Size != 3 { // g1/odd, g1/even, g2/even
		t.Fatalf("subgroups = %d, want 3", subKeys.Ctx().Size)
	}
	counts := CountBag(subVals)
	// Resolve (outerGroup, parity) -> count.
	outer, err := nb.Outer.Collect()
	if err != nil {
		t.Fatal(err)
	}
	keys, err := subKeys.Collect()
	if err != nil {
		t.Fatal(err)
	}
	cnts, err := counts.Collect()
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]int64{}
	for tag, parity := range keys {
		g := outer[tag.Pop()]
		got[g+"/"+parity] = cnts[tag]
	}
	want := map[string]int64{"g1/odd": 3, "g1/even": 2, "g2/even": 2}
	for k, w := range want {
		if got[k] != w {
			t.Errorf("%s = %d, want %d (got %v)", k, got[k], w, got)
		}
	}
	if len(got) != len(want) {
		t.Errorf("got %v", got)
	}
}

func TestGroupByKeyIntoNestedBagEmptyInput(t *testing.T) {
	s := testSession()
	nb, err := GroupByKeyIntoNestedBag(engine.Empty[engine.Pair[string, int]](s), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if nb.Ctx().Size != 0 {
		t.Fatalf("Size = %d, want 0", nb.Ctx().Size)
	}
	got, err := CollectNested(nb)
	if err != nil || len(got) != 0 {
		t.Fatalf("got %v, err %v", got, err)
	}
	// Lifted ops over the empty nested bag stay well-defined.
	counts, err := CountBag(nb.Inner).Collect()
	if err != nil || len(counts) != 0 {
		t.Fatalf("counts = %v, err %v", counts, err)
	}
}

func TestWhileOverEmptyTagUniverse(t *testing.T) {
	s := testSession()
	nb, err := GroupByKeyIntoNestedBag(engine.Empty[engine.Pair[string, int]](s), Options{})
	if err != nil {
		t.Fatal(err)
	}
	out, err := While(nb.Ctx(), CountBag(nb.Inner), ScalarState[int64](),
		func(c *Ctx, v InnerScalar[int64]) (InnerScalar[int64], InnerScalar[bool], error) {
			return v, Pure(c, true), nil
		})
	if err != nil {
		t.Fatal(err)
	}
	vals, err := out.Collect()
	if err != nil || len(vals) != 0 {
		t.Fatalf("vals = %v, err %v", vals, err)
	}
}

func TestLiftFlatEmptyInput(t *testing.T) {
	s := testSession()
	res, err := LiftFlat(engine.Empty[int](s), Options{},
		func(ctx *Ctx, elems InnerScalar[int]) (InnerScalar[int], error) {
			if ctx.Size != 0 {
				t.Errorf("Size = %d", ctx.Size)
			}
			return UnaryScalarOp(elems, func(v int) int { return v * 2 }), nil
		})
	if err != nil {
		t.Fatal(err)
	}
	vals, err := res.Collect()
	if err != nil || len(vals) != 0 {
		t.Fatalf("vals = %v, err %v", vals, err)
	}
}

// TestOptionsPropagateThroughContexts verifies forced choices survive
// withTags derivation inside loops.
func TestOptionsPropagateThroughContexts(t *testing.T) {
	s := testSession()
	var pairs []engine.Pair[string, int]
	pairs = append(pairs, engine.KV("a", 1), engine.KV("b", 2))
	opt := Options{ForceScalarJoin: ForceJoin(engine.JoinRepartition), MaxLoopIterations: 7}
	nb, err := GroupByKeyIntoNestedBag(engine.Parallelize(s, pairs, 2), opt)
	if err != nil {
		t.Fatal(err)
	}
	_, err = While(nb.Ctx(), CountBag(nb.Inner), ScalarState[int64](),
		func(c *Ctx, v InnerScalar[int64]) (InnerScalar[int64], InnerScalar[bool], error) {
			if c.Opt.ForceScalarJoin == nil || *c.Opt.ForceScalarJoin != engine.JoinRepartition {
				t.Error("forced join lost inside loop context")
			}
			return v, Pure(c, true), nil // runs until the guard
		})
	if err == nil {
		t.Fatal("expected the MaxLoopIterations guard to fire")
	}
}

// TestMapWithClosureBothJoinStrategiesAgree forces each tag-join algorithm
// and compares results (the Fig. 8a ablation at the unit level).
func TestMapWithClosureBothJoinStrategiesAgree(t *testing.T) {
	results := map[string]map[string][]int{}
	for _, strat := range []engine.JoinStrategy{engine.JoinBroadcastLeft, engine.JoinRepartition} {
		s := testSession()
		var pairs []engine.Pair[string, int]
		for g := 0; g < 6; g++ {
			for v := 0; v <= g; v++ {
				pairs = append(pairs, engine.KV(fmt.Sprintf("g%d", g), v))
			}
		}
		nb, err := GroupByKeyIntoNestedBag(engine.Parallelize(s, pairs, 4),
			Options{ForceScalarJoin: ForceJoin(strat)})
		if err != nil {
			t.Fatal(err)
		}
		counts := CountBag(nb.Inner)
		shifted := MapWithClosure(nb.Inner, counts, func(v int, c int64) int { return v + int(c) })
		byName := groupsOf(nb, shifted)
		for _, vs := range byName {
			sort.Ints(vs)
		}
		results[strat.String()] = byName
	}
	a := fmt.Sprint(results[engine.JoinBroadcastLeft.String()])
	b := fmt.Sprint(results[engine.JoinRepartition.String()])
	if a != b {
		t.Fatalf("strategies disagree:\n%s\n%s", a, b)
	}
}

// TestTagStringForms covers the Tag pretty-printer.
func TestTagStringForms(t *testing.T) {
	if got := (engine.Tag{}).String(); got != "τ()" {
		t.Errorf("empty tag = %q", got)
	}
	if got := engine.RootTag(5).String(); got != "τ(5)" {
		t.Errorf("root = %q", got)
	}
	if got := engine.RootTag(5).Push(2).Push(9).String(); got != "τ(5.2.9)" {
		t.Errorf("deep = %q", got)
	}
}

// TestPopOnEmptyTagPanics pins the programmer-error contract.
func TestPopOnEmptyTagPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Pop on empty tag should panic")
		}
	}()
	_ = (engine.Tag{}).Pop()
}

// TestConstructorsAndAccessors covers the wrapper/accessor surface.
func TestConstructorsAndAccessors(t *testing.T) {
	s := testSession()
	nb := buildNested(t, s, map[string][]int{"a": {1, 2}}).Cache()
	ctx := nb.Ctx()
	if nb.Inner.Ctx() != ctx || nb.Outer.Ctx() != ctx {
		t.Fatal("components must share the LiftingContext")
	}
	if engine.RootTag(7).Push(2).Leaf() != 2 || (engine.Tag{}).Leaf() != 0 {
		t.Error("Leaf accessor wrong")
	}
}

// TestFlatMapBagExpandsPerInvocation covers the lifted flatMap.
func TestFlatMapBagExpandsPerInvocation(t *testing.T) {
	s := testSession()
	nb := buildNested(t, s, map[string][]int{"a": {1}, "b": {2, 3}})
	fm := FlatMapBag(nb.Inner, func(v int) []int { return []int{v, -v} })
	counts := scalarByOuter(t, nb, CountBag(fm))
	if counts["a"] != 2 || counts["b"] != 4 {
		t.Fatalf("counts = %v", counts)
	}
}

// TestUnliftScalarToOuter folds deeper-level results back up one level.
func TestUnliftScalarToOuter(t *testing.T) {
	s := testSession()
	nb := buildNested(t, s, map[string][]int{"a": {10, 20}, "b": {30}})
	sums, err := MapBagLifted(nb.Inner, func(ctx2 *Ctx, elems InnerScalar[int]) (InnerScalar[int], error) {
		return UnaryScalarOp(elems, func(v int) int { return v + 1 }), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	backUp := UnliftScalarToOuter(sums, nb.Ctx())
	totals := scalarByOuter(t, nb, AggregateBag(backUp, 0,
		func(a, v int) int { return a + v },
		func(x, y int) int { return x + y }))
	if totals["a"] != 32 || totals["b"] != 31 {
		t.Fatalf("totals = %v", totals)
	}
}
