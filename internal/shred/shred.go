// Package shred implements the shredded representation of nested bags:
// instead of materializing each group's inner bag on one machine (the
// paper's NestedBag lowering, where a Zipf head group can blow a single
// task's memory), a shredded bag keeps the top-level bag as flat
// (key, groupID, size) records and the inner-bag contents as a keyed
// dictionary bag of (groupID, value) pairs spread across ordinary
// partitions. The lifted operations of the nested-bag lowering
// (internal/core) need no shredded versions: its tagged inner bag is keyed
// by the same group identity, so it already is the dictionary. Only at
// the consumption boundary (CollectNested) is the dictionary
// un-shredded back into per-group slices, and even
// that un-shredding is a spill-friendly group-by plus a dictionary join
// rather than a single-task group build. The design follows "Scalable
// Querying of Nested Data" (shredded compilation: top-level bag +
// dictionaries) with the Sec. 8 feedback loop choosing per group-by
// whether shredding pays.
//
// Group identity contract: groupID is engine.HashKey of the top-level
// key, the same 64-bit identity the tag-based nested lowering already
// mints per group (engine.RootTag). Two distinct keys colliding on all 64
// bits would merge their groups — the identical exposure the existing
// tag minting accepts, so shredding introduces no new identity risk.
package shred

import "matryoshka/internal/engine"

// Record is one top-level row of a shredded bag: the group key, its
// 64-bit dictionary identity, and the observed inner-bag size (in
// simulated rows, at the weight of the dataset that was shredded).
//
// Size is the size observed when the bag was shredded: the grouping the
// optimizer reasons about.
type Record[K comparable] struct {
	Key   K
	Group uint64
	Size  int64
}

// Bag is a shredded nested bag: Top is the flat top-level bag (one
// Record per group, cached — it is both the optimizer's size oracle and
// the dictionary's key directory), Dict is the inner dictionary, a lazy
// flat bag of (groupID, value) pairs partitioned like any other dataset
// (a narrow map of the source, so per-group element order is the source
// partition order — the same order every other lowering observes).
type Bag[K comparable, V any] struct {
	Top  engine.Dataset[Record[K]]
	Dict engine.Dataset[engine.Pair[uint64, V]]
}

// Shred builds the shredded form of a keyed dataset. One bounded-size
// shuffle (a per-key count, first-seen key order — the same
// deterministic order a distinct over the keys would produce) yields
// Top; Dict is a narrow rekeying of the source and costs nothing until
// a downstream consumer evaluates it.
func Shred[K comparable, V any](d engine.Dataset[engine.Pair[K, V]]) Bag[K, V] {
	sizes := engine.ReduceByKeyBound(
		engine.Map(d, func(p engine.Pair[K, V]) engine.Pair[K, int64] {
			return engine.KV(p.Key, int64(1))
		}),
		func(a, b int64) int64 { return a + b }, 0)
	top := engine.Map(sizes, func(p engine.Pair[K, int64]) Record[K] {
		return Record[K]{Key: p.Key, Group: engine.HashKey(p.Key), Size: p.Val}
	}).Cache()
	dict := engine.Map(d, func(p engine.Pair[K, V]) engine.Pair[uint64, V] {
		return engine.KV(engine.HashKey(p.Key), p.Val)
	})
	return Bag[K, V]{Top: top, Dict: dict}
}

// Stats summarizes the observed group structure of a shredded bag — the
// numbers the shred optimizer rule feeds on.
type Stats struct {
	Groups int64 // distinct top-level keys
	Max    int64 // largest inner-bag size (simulated rows)
	Total  int64 // total inner rows (simulated)
}

// Observe evaluates Top (one narrow job over its cache) and folds it
// into exact integer Stats; deterministic regardless of partition
// order because count-sum and max are commutative.
func Observe[K comparable, V any](b Bag[K, V]) (Stats, error) {
	parts, err := engine.Collect(engine.MapPartitions(b.Top, func(in []Record[K]) []Stats {
		var st Stats
		for _, r := range in {
			st.Groups++
			st.Total += r.Size
			if r.Size > st.Max {
				st.Max = r.Size
			}
		}
		return []Stats{st}
	}))
	if err != nil {
		return Stats{}, err
	}
	var st Stats
	for _, p := range parts {
		st.Groups += p.Groups
		st.Total += p.Total
		if p.Max > st.Max {
			st.Max = p.Max
		}
	}
	return st, nil
}

// Unshred converts the shredded bag back to materialized per-group
// slices — the consumption-boundary lowering. The group build runs as a
// spill group-by (engine.GroupByKeySpill: a fraction of the resident
// footprint plus streaming I/O cost, so a head group no longer has to
// fit in one task's memory), then a dictionary join with Top restores
// the original keys. Per-group element order is source-partition-major
// input order — bit-identical to the materialized lowering's
// engine.GroupByKey and to the driver-side tag collection, which is
// what lets the A/B suites require DeepEqual across modes.
func Unshred[K comparable, V any](b Bag[K, V]) engine.Dataset[engine.Pair[K, []V]] {
	grouped := engine.GroupByKeySpill(b.Dict)
	keys := engine.Map(b.Top, func(r Record[K]) engine.Pair[uint64, K] {
		return engine.KV(r.Group, r.Key)
	})
	return engine.Map(engine.Join(keys, grouped), func(p engine.Pair[uint64, engine.Tuple2[K, []V]]) engine.Pair[K, []V] {
		return engine.KV(p.Val.A, p.Val.B)
	})
}

// UnshredCollect materializes the whole nested value on the driver:
// Unshred plus a CollectMap. This is what core.CollectNested calls when
// the shred rule picked the shredded lowering.
func UnshredCollect[K comparable, V any](b Bag[K, V]) (map[K][]V, error) {
	return engine.CollectMap(Unshred(b))
}
