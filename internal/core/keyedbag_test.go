package core

import (
	"testing"

	"matryoshka/internal/engine"
)

func TestJoinBagsPartitionedMatchesJoinBags(t *testing.T) {
	s := testSession()
	nb := buildNested(t, s, map[string][]int{"a": {1, 2, 2}, "b": {2, 3}})
	l := MapBag(nb.Inner, func(v int) engine.Pair[int, string] { return engine.KV(v, "L") })
	r := MapBag(nb.Inner, func(v int) engine.Pair[int, string] { return engine.KV(v, "R") })

	plain := scalarByOuter(t, nb, CountBag(JoinBags(l, r)))
	keyed := PartitionBagByKey(r)
	pre := scalarByOuter(t, nb, CountBag(JoinBagsPartitioned(l, keyed)))
	for k, want := range plain {
		if pre[k] != want {
			t.Errorf("group %v: partitioned join %d, plain join %d", k, pre[k], want)
		}
	}
	// a: {1,2,2}x{1,2,2} on value keys -> 1 + 2*2 = 5 matches.
	if plain["a"] != 5 || plain["b"] != 2 {
		t.Fatalf("plain = %v", plain)
	}
}

func TestJoinBagsPartitionedSkipsStaticShuffle(t *testing.T) {
	s := testSession()
	nb := buildNested(t, s, map[string][]int{"a": {1, 2}, "b": {3}})
	static := PartitionBagByKey(MapBag(nb.Inner, func(v int) engine.Pair[int, int] {
		return engine.KV(v, v*10)
	}))
	// Materialize the static side once.
	if _, err := engine.Count(static.repr); err != nil {
		t.Fatal(err)
	}
	probe := MapBag(nb.Inner, func(v int) engine.Pair[int, string] { return engine.KV(v, "p") })

	before := s.Stats()
	if _, err := engine.Count(JoinBagsPartitioned(probe, static).Repr()); err != nil {
		t.Fatal(err)
	}
	delta := s.Stats().Stages - before.Stages
	// Probe map side + join stage; the static side adds no stage.
	if delta != 2 {
		t.Errorf("stages = %d, want 2 (static side read in place)", delta)
	}
}

func TestJoinWithEnclosingKeyedMatchesUnkeyed(t *testing.T) {
	s := testSession()
	nb := buildNested(t, s, map[string][]int{"a": {1, 2}, "b": {1}})
	enclosing := MapBag(nb.Inner, func(v int) engine.Pair[int64, int64] {
		return engine.KV(int64(v), int64(v*100))
	})
	// One deeper invocation per element.
	got, err := MapBagLifted(nb.Inner, func(ctx2 *Ctx, elems InnerScalar[int]) (InnerScalar[int64], error) {
		deepKeyed := MapBag(BagOfScalar(elems), func(v int) engine.Pair[int64, struct{}] {
			return engine.KV(int64(v), struct{}{})
		})
		viaPlain := CountBag(JoinWithEnclosingBag(deepKeyed, enclosing))
		viaKeyed := CountBag(JoinWithEnclosingKeyed(deepKeyed, PartitionBagByKey(enclosing)))
		return BinaryScalarOp(viaPlain, viaKeyed, func(a, b int64) int64 {
			if a != b {
				return -1
			}
			return a
		}), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	vals, err := got.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 3 {
		t.Fatalf("vals = %v", vals)
	}
	for tag, v := range vals {
		if v < 0 {
			t.Errorf("tag %v: keyed and plain enclosing joins disagree", tag)
		}
	}
}
