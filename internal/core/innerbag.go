package core

import "matryoshka/internal/engine"

// InnerBag represents a Bag variable inside a lifted UDF (Sec. 4.4). Where
// the original UDF held one bag per invocation, the lifted program holds a
// single flat Bag[(Tag, E)] containing the elements of *all* the inner
// bags, each tagged with its invocation.
type InnerBag[E any] struct {
	repr engine.Dataset[engine.Pair[engine.Tag, E]]
	ctx  *Ctx
}

// Repr exposes the flat bag representing the InnerBag.
func (b InnerBag[E]) Repr() engine.Dataset[engine.Pair[engine.Tag, E]] { return b.repr }

// Ctx returns the LiftingContext this bag belongs to.
func (b InnerBag[E]) Ctx() *Ctx { return b.ctx }

// Cache materializes the representation on first use.
func (b InnerBag[E]) Cache() InnerBag[E] {
	b.repr = b.repr.Cache()
	return b
}

// CollectGroups gathers all inner bags keyed by tag (output operation).
func (b InnerBag[E]) CollectGroups() (map[engine.Tag][]E, error) {
	elems, err := engine.Collect(b.repr)
	if err != nil {
		return nil, err
	}
	out := make(map[engine.Tag][]E)
	for _, p := range elems {
		out[p.Key] = append(out[p.Key], p.Val)
	}
	return out, nil
}

// --- Stateless lifted operations (Sec. 4.4): the UDF applies to the value
// component; tags are forwarded unchanged. ---

// MapBag lifts map.
func MapBag[A, B any](b InnerBag[A], f func(A) B) InnerBag[B] {
	repr := engine.Map(b.repr, func(p engine.Pair[engine.Tag, A]) engine.Pair[engine.Tag, B] {
		return engine.KV(p.Key, f(p.Val))
	})
	return InnerBag[B]{repr: repr, ctx: b.ctx}
}

// FilterBag lifts filter.
func FilterBag[E any](b InnerBag[E], pred func(E) bool) InnerBag[E] {
	repr := engine.Filter(b.repr, func(p engine.Pair[engine.Tag, E]) bool { return pred(p.Val) })
	return InnerBag[E]{repr: repr, ctx: b.ctx}
}

// FlatMapBag lifts flatMap.
func FlatMapBag[A, B any](b InnerBag[A], f func(A) []B) InnerBag[B] {
	repr := engine.FlatMap(b.repr, func(p engine.Pair[engine.Tag, A]) []engine.Pair[engine.Tag, B] {
		bs := f(p.Val)
		out := make([]engine.Pair[engine.Tag, B], len(bs))
		for i, v := range bs {
			out[i] = engine.KV(p.Key, v)
		}
		return out
	})
	return InnerBag[B]{repr: repr, ctx: b.ctx}
}

// --- Stateful lifted operations keep their state per tag (Sec. 4.4). ---

// reduceByTag reduces a tag-keyed bag. When the context's tag set is
// cardinality-bounded (weight 1, the usual case at the first nesting
// level), the result is marked unscaled so the simulator costs its rows as
// the per-group scalars they are; deeper tag sets that scale with the data
// (e.g. per-vertex BFS sources) keep their weight.
func reduceByTag[V any](ctx *Ctx, d engine.Dataset[engine.Pair[engine.Tag, V]], f func(V, V) V) engine.Dataset[engine.Pair[engine.Tag, V]] {
	if ctx.Tags.Weight() <= 1 {
		return engine.ReduceByKeyBound(d, f, ctx.Parts)
	}
	return engine.ReduceByKeyN(d, f, ctx.Parts)
}

// ReduceBag lifts reduce: a reduceByKey with the tag as the key, producing
// an InnerScalar. Inner bags that are empty produce no element, matching
// the semantics of reduce being undefined on empty bags; use AggregateBag
// or CountBag for operations with a defined empty-bag result.
func ReduceBag[E any](b InnerBag[E], f func(E, E) E) InnerScalar[E] {
	repr := reduceByTag(b.ctx, b.repr, f)
	return InnerScalar[E]{repr: repr, ctx: b.ctx}
}

// AggregateBag lifts a fold with zero value: like ReduceBag but inner bags
// with no elements yield zero. The zero rows come from the per-UDF tag bag
// (Sec. 4.4: "To handle operations that produce output for empty input
// bags ... we additionally need to store all the tags in a separate bag").
func AggregateBag[E, A any](b InnerBag[E], zero A, add func(A, E) A, merge func(A, A) A) InnerScalar[A] {
	partial := engine.Map(b.repr, func(p engine.Pair[engine.Tag, E]) engine.Pair[engine.Tag, A] {
		return engine.KV(p.Key, add(zero, p.Val))
	})
	zeros := engine.Map(b.ctx.Tags, func(t engine.Tag) engine.Pair[engine.Tag, A] {
		return engine.KV(t, zero)
	})
	repr := reduceByTag(b.ctx, engine.Union(partial, zeros), merge)
	return InnerScalar[A]{repr: repr, ctx: b.ctx}
}

// CountBag lifts count, producing 0 for empty inner bags.
func CountBag[E any](b InnerBag[E]) InnerScalar[int64] {
	return AggregateBag(b, 0, func(a int64, _ E) int64 { return a + 1 },
		func(x, y int64) int64 { return x + y })
}

// DistinctBag lifts distinct: deduplicating (Tag, E) pairs deduplicates
// within each inner bag — the lifted version is "simply identical to the
// original operation" (Sec. 4.4).
func DistinctBag[E comparable](b InnerBag[E]) InnerBag[E] {
	return InnerBag[E]{repr: engine.Distinct(b.repr), ctx: b.ctx}
}

// UnionBags lifts bag union.
func UnionBags[E any](a, b InnerBag[E]) InnerBag[E] {
	return InnerBag[E]{repr: engine.Union(a.repr, b.repr), ctx: a.ctx}
}

// tagKey is the composite key of Sec. 4.4: the original key plus the tag.
type tagKey[K comparable] struct {
	T engine.Tag
	K K
}

// byTagKey re-keys a lifted bag of pairs by the composite (tag, key), so a
// flat keyed operator keeps each invocation's keys apart — the first
// operator of Sec. 4.4's rewrite.
func byTagKey[K comparable, V any](d engine.Dataset[engine.Pair[engine.Tag, engine.Pair[K, V]]]) engine.Dataset[engine.Pair[tagKey[K], V]] {
	return engine.Map(d, func(p engine.Pair[engine.Tag, engine.Pair[K, V]]) engine.Pair[tagKey[K], V] {
		return engine.KV(tagKey[K]{p.Key, p.Val.Key}, p.Val.Val)
	})
}

// fromTagKey is byTagKey's inverse: it moves the tag back out of the key —
// the last operator of Sec. 4.4's rewrite.
func fromTagKey[K comparable, V any](d engine.Dataset[engine.Pair[tagKey[K], V]]) engine.Dataset[engine.Pair[engine.Tag, engine.Pair[K, V]]] {
	return engine.Map(d, func(p engine.Pair[tagKey[K], V]) engine.Pair[engine.Tag, engine.Pair[K, V]] {
		return engine.KV(p.Key.T, engine.KV(p.Key.K, p.Val))
	})
}

// ReduceByKeyBag lifts reduceByKey: re-key by (tag, key), reduce, re-key
// back — the exact three-operator rewrite given in Sec. 4.4.
func ReduceByKeyBag[K comparable, V any](b InnerBag[engine.Pair[K, V]], f func(V, V) V) InnerBag[engine.Pair[K, V]] {
	reduced := engine.ReduceByKey(byTagKey(b.repr), f)
	return InnerBag[engine.Pair[K, V]]{repr: fromTagKey(reduced), ctx: b.ctx}
}

// ReduceByKeyBagBound is ReduceByKeyBag for key sets whose cardinality is
// bounded per invocation (e.g. K-means cluster indices, at most k per
// run): the aggregate's row count does not scale with the data, so the
// simulator costs it unscaled, like InnerScalars.
func ReduceByKeyBagBound[K comparable, V any](b InnerBag[engine.Pair[K, V]], f func(V, V) V) InnerBag[engine.Pair[K, V]] {
	reduced := engine.ReduceByKeyBound(byTagKey(b.repr), f, 0)
	return InnerBag[engine.Pair[K, V]]{repr: fromTagKey(reduced), ctx: b.ctx}
}

// JoinBags lifts an equi-join between two inner bags of the same UDF,
// re-keying both sides by (tag, key) so matches stay within an invocation.
func JoinBags[K comparable, A, B any](l InnerBag[engine.Pair[K, A]], r InnerBag[engine.Pair[K, B]]) InnerBag[engine.Pair[K, engine.Tuple2[A, B]]] {
	lk := byTagKey(l.repr)
	rk := byTagKey(r.repr)
	return joinByTagKey(l.ctx, lk, rk)
}

// joinByTagKey joins two (tag, key)-keyed sides and moves the tag back
// out: the shared tail of JoinBags and JoinBagsPartitioned.
func joinByTagKey[K comparable, A, B any](ctx *Ctx, l engine.Dataset[engine.Pair[tagKey[K], A]], r engine.Dataset[engine.Pair[tagKey[K], B]]) InnerBag[engine.Pair[K, engine.Tuple2[A, B]]] {
	return InnerBag[engine.Pair[K, engine.Tuple2[A, B]]]{repr: fromTagKey(engine.Join(l, r)), ctx: ctx}
}

// FlattenBag implements the flatten of Sec. 4.6 (used to lift flatMap at
// the outer level): it simply removes the tags.
func FlattenBag[E any](b InnerBag[E]) engine.Dataset[E] {
	return engine.Values(b.repr)
}
