package core

import "matryoshka/internal/engine"

// KeyedBag is an InnerBag that has been re-keyed by (tag, key), hash-
// partitioned and cached. Joining an InnerBag against a KeyedBag shuffles
// only the left side — the co-partitioning optimization that lets
// iterative lifted programs (PageRank's edges, BFS adjacency) pay the
// shuffle of their static data once instead of at every superstep.
type KeyedBag[K comparable, V any] struct {
	repr engine.Dataset[engine.Pair[tagKey[K], V]]
	ctx  *Ctx
}

// PartitionBagByKey builds a KeyedBag from an InnerBag of pairs: re-keys
// by the composite (tag, key), hash-partitions at the engine's default
// parallelism, and caches the result. It serves both as JoinBagsPartitioned's
// right side and as JoinWithEnclosingKeyed's enclosing side, whose keys are
// the enclosing level's own (tag, key) pairs.
func PartitionBagByKey[K comparable, V any](b InnerBag[engine.Pair[K, V]]) KeyedBag[K, V] {
	return KeyedBag[K, V]{repr: engine.PartitionByKey(byTagKey(b.repr), 0).Cache(), ctx: b.ctx}
}

// JoinBagsPartitioned is JoinBags with a pre-partitioned right side: the
// left InnerBag is shuffled to the right side's layout; the right side is
// read in place.
func JoinBagsPartitioned[K comparable, A, B any](l InnerBag[engine.Pair[K, A]], r KeyedBag[K, B]) InnerBag[engine.Pair[K, engine.Tuple2[A, B]]] {
	return joinByTagKey(l.ctx, byTagKey(l.repr), r.repr)
}

// JoinWithEnclosingKeyed is JoinWithEnclosingBag with the enclosing side
// pre-partitioned: only the deeper level's (usually small, per-superstep)
// bag is shuffled.
func JoinWithEnclosingKeyed[K comparable, V, W any](deep InnerBag[engine.Pair[K, V]], enclosing KeyedBag[K, W]) InnerBag[engine.Pair[K, engine.Tuple2[V, W]]] {
	return joinEnclosing(deep.ctx, byEnclosingKey(deep.repr), enclosing.repr)
}
