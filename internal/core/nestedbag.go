package core

import (
	"matryoshka/internal/engine"
	"matryoshka/internal/shred"
)

// NestedBag represents a nested bag outside any UDF (Sec. 4.5): the
// original Bag[(O, Bag[I])] is represented flat as an InnerScalar[O] (the
// per-group scalar components) plus an InnerBag[I] (all inner elements,
// tagged by group).
type NestedBag[O, I any] struct {
	Outer InnerScalar[O]
	Inner InnerBag[I]

	// materialize is the physical lowering of the consumption boundary
	// (CollectNested), chosen by the shred rule in
	// GroupByKeyIntoNestedBag: either a cluster-side group build
	// (materialized — each group in one task) or an un-shred of the
	// dictionary form (shredded — spill group-by + dictionary join).
	// GroupByKeyIntoNestedBag, the only constructor, always sets it.
	// Type-erased because NestedBag's O is unconstrained; it returns a
	// map[O][]I and CollectNested asserts it back. Lazy: bags that are
	// never collected never pay for it.
	materialize func() (any, error)
}

// Ctx returns the nested bag's LiftingContext (shared by Outer and Inner).
func (nb NestedBag[O, I]) Ctx() *Ctx { return nb.Inner.ctx }

// Cache materializes both component representations.
func (nb NestedBag[O, I]) Cache() NestedBag[O, I] {
	nb.Outer = nb.Outer.Cache()
	nb.Inner = nb.Inner.Cache()
	return nb
}

// CollectNested gathers the nested bag as outer-value -> inner elements,
// for outer types that are comparable. It runs the materialization
// lowering the shred rule chose; per-group element order is identical
// either way (source-partition-major input order), so the choice is
// invisible to the result.
func CollectNested[O comparable, I any](nb NestedBag[O, I]) (map[O][]I, error) {
	m, err := nb.materialize()
	if err != nil {
		return nil, err
	}
	return m.(map[O][]I), nil
}

// GroupByKeyIntoNestedBag is the parsing phase's replacement for a
// groupByKey whose result would be nested (Listing 2, line 3). The
// lowering mints one tag per distinct key (a 64-bit seeded hash of the
// key, so tagging the inner elements is a *narrow* map — no shuffle
// partitioned by the possibly skewed grouping key, which is what makes
// Matryoshka robust to skew, Sec. 9.5), builds the InnerScalar of keys,
// and counts the groups — which is how every InnerScalar size becomes
// known up front (Sec. 8.1).
// The tag/dictionary duality: a mined tag RootTag(hash(key)) and a
// shredded dictionary groupID hash(key) are the same 64-bit identity, so
// the shredded Top bag doubles as the source of the key tags, and the
// shred rule's choice only governs the consumption-boundary lowering —
// the lifted dataflow over InnerBag/InnerScalar is shared verbatim.
func GroupByKeyIntoNestedBag[K comparable, V any](d engine.Dataset[engine.Pair[K, V]], opt Options) (NestedBag[K, V], error) {
	sess := d.Session()
	// Shred first: one bounded shuffle yields the (key, groupID, size)
	// top-level records — the per-key sizes are the observed statistics
	// the shred rule feeds on, and the records enumerate each group
	// exactly once in the same deterministic first-seen order a distinct
	// over the keys would (group keys are cardinality-bounded: unscaled).
	sb := shred.Shred(d)
	st, err := shred.Observe(sb)
	if err != nil {
		return NestedBag[K, V]{}, err
	}
	keyTags := engine.Map(sb.Top, func(r shred.Record[K]) engine.Pair[engine.Tag, K] {
		return engine.KV(engine.RootTag(r.Group), r.Key)
	}).Cache()
	tags := engine.Keys(keyTags)
	ctx := NewContext(sess, tags, st.Groups, opt)
	choice := ctx.ShredStrategy(st.Groups, st.Max, st.Total, d.Weight())

	outer := InnerScalar[K]{repr: keyTags, ctx: ctx}
	inner := InnerBag[V]{
		repr: engine.Map(d, func(p engine.Pair[K, V]) engine.Pair[engine.Tag, V] {
			return engine.KV(engine.RootTag(engine.HashKey(p.Key)), p.Val)
		}),
		ctx: ctx,
	}
	nb := NestedBag[K, V]{Outer: outer, Inner: inner}
	if choice == ShredShredded {
		nb.materialize = func() (any, error) { return shred.UnshredCollect(sb) }
	} else {
		// The paper's lowering: each group's inner bag built in one task.
		// GroupByKey registers the spill lowering as its OOM fallback, so
		// a giant-group failure demotes to shredded at run time.
		nb.materialize = func() (any, error) { return engine.CollectMap(engine.GroupByKey(d)) }
	}
	return nb, nil
}

// LiftFlat is mapWithLiftedUDF on a *flat* bag (the hyperparameter
// optimization pattern of Sec. 2.3: a bag of parameter values whose map UDF
// contains parallel operations). Tags are minted with zipWithUniqueId
// (Sec. 4.3) and the UDF is called once with the InnerScalar of elements.
func LiftFlat[A, R any](d engine.Dataset[A], opt Options, udf func(ctx *Ctx, elems InnerScalar[A]) (R, error)) (R, error) {
	var zero R
	sess := d.Session()
	tagged := engine.Map(engine.ZipWithUniqueID(d), func(p engine.Pair[uint64, A]) engine.Pair[engine.Tag, A] {
		return engine.KV(engine.RootTag(p.Key), p.Val)
	}).Unscaled().Cache()
	size, err := engine.Count(tagged)
	if err != nil {
		return zero, err
	}
	tags := engine.Keys(tagged)
	ctx := NewContext(sess, tags, size, opt)
	return udf(ctx, InnerScalar[A]{repr: tagged, ctx: ctx})
}

// MapBagLifted lifts a map-with-parallel-UDF *inside an already lifted
// UDF*: each element of the InnerBag becomes one invocation of the deeper
// UDF, with a composite tag (outer tag pushed with a fresh id, Sec. 7).
// This is the mechanism behind three-level programs such as Average
// Distances.
func MapBagLifted[A, R any](b InnerBag[A], udf func(ctx *Ctx, elems InnerScalar[A]) (R, error)) (R, error) {
	var zero R
	tagged := engine.Map(engine.ZipWithUniqueID(b.repr), func(p engine.Pair[uint64, engine.Pair[engine.Tag, A]]) engine.Pair[engine.Tag, A] {
		return engine.KV(p.Val.Key.Push(p.Key), p.Val.Val)
	}).Cache()
	size, err := engine.Count(tagged)
	if err != nil {
		return zero, err
	}
	tags := engine.Keys(tagged)
	ctx := NewContext(b.ctx.Sess, tags, size, b.ctx.Opt)
	return udf(ctx, InnerScalar[A]{repr: tagged, ctx: ctx})
}

// GroupByKeyIntoNestedBagInner is groupByKeyIntoNestedBag *inside a lifted
// UDF*: grouping an InnerBag of pairs by key creates one deeper nesting
// level per (invocation, key) — composite tags per Sec. 7. It returns the
// deeper LiftingContext, the per-subgroup keys (an InnerScalar at the
// deeper level) and the subgroup elements (an InnerBag at the deeper
// level). This is case (2) of Theorem 1's proof for statements inside
// UDFs: a groupByKey whose output would be nested two levels deep.
func GroupByKeyIntoNestedBagInner[K comparable, V any](b InnerBag[engine.Pair[K, V]]) (InnerScalar[K], InnerBag[V], error) {
	sess := b.ctx.Sess
	// One deeper tag per (outer tag, key): push the key's hash.
	subTags := engine.Map(engine.Distinct(
		engine.Map(b.repr, func(p engine.Pair[engine.Tag, engine.Pair[K, V]]) engine.Pair[engine.Tag, K] {
			return engine.KV(p.Key, p.Val.Key)
		})),
		func(p engine.Pair[engine.Tag, K]) engine.Pair[engine.Tag, K] {
			return engine.KV(p.Key.Push(engine.HashKey(p.Val)), p.Val)
		}).Cache()
	size, err := engine.Count(subTags)
	if err != nil {
		return InnerScalar[K]{}, InnerBag[V]{}, err
	}
	ctx2 := NewContext(sess, engine.Keys(subTags), size, b.ctx.Opt)
	outer := InnerScalar[K]{repr: subTags, ctx: ctx2}
	inner := InnerBag[V]{
		repr: engine.Map(b.repr, func(p engine.Pair[engine.Tag, engine.Pair[K, V]]) engine.Pair[engine.Tag, V] {
			return engine.KV(p.Key.Push(engine.HashKey(p.Val.Key)), p.Val.Val)
		}),
		ctx: ctx2,
	}
	return outer, inner, nil
}

// BagOfScalar views an InnerScalar as an InnerBag whose inner bags are
// singletons (e.g. a BFS source vertex becoming the initial frontier bag).
func BagOfScalar[S any](s InnerScalar[S]) InnerBag[S] {
	return InnerBag[S]{repr: s.repr, ctx: s.ctx}
}

// JoinWithEnclosingBag joins an InnerBag of a *deeper* nesting level with
// an InnerBag of its enclosing level on a plain key: element (t.inner, k)
// of the deep bag matches element (t, k) of the enclosing bag. It is the
// multi-level generalization of the half-lifted join (Sec. 5.2 + Sec. 7's
// composite tags): e.g. every per-(component, source) BFS frontier joins
// the per-component edge bag of the level above.
func JoinWithEnclosingBag[K comparable, V, W any](deep InnerBag[engine.Pair[K, V]], enclosing InnerBag[engine.Pair[K, W]]) InnerBag[engine.Pair[K, engine.Tuple2[V, W]]] {
	dk := byEnclosingKey(deep.repr)
	ek := byTagKey(enclosing.repr)
	return joinEnclosing(deep.ctx, dk, ek)
}

// byEnclosingKey re-keys a deeper level's bag of pairs by the enclosing
// invocation's (tag, key), carrying the deep tag in the value.
func byEnclosingKey[K comparable, V any](d engine.Dataset[engine.Pair[engine.Tag, engine.Pair[K, V]]]) engine.Dataset[engine.Pair[tagKey[K], engine.Tuple2[engine.Tag, V]]] {
	return engine.Map(d, func(p engine.Pair[engine.Tag, engine.Pair[K, V]]) engine.Pair[tagKey[K], engine.Tuple2[engine.Tag, V]] {
		return engine.KV(tagKey[K]{p.Key.Pop(), p.Val.Key}, engine.Tuple2[engine.Tag, V]{A: p.Key, B: p.Val.Val})
	})
}

// joinEnclosing joins a byEnclosingKey side to an enclosing side keyed by
// (tag, key) and restores the deep tag: the shared tail of
// JoinWithEnclosingBag and JoinWithEnclosingKeyed.
func joinEnclosing[K comparable, V, W any](ctx *Ctx, deep engine.Dataset[engine.Pair[tagKey[K], engine.Tuple2[engine.Tag, V]]], enclosing engine.Dataset[engine.Pair[tagKey[K], W]]) InnerBag[engine.Pair[K, engine.Tuple2[V, W]]] {
	joined := engine.Join(deep, enclosing)
	repr := engine.Map(joined, func(p engine.Pair[tagKey[K], engine.Tuple2[engine.Tuple2[engine.Tag, V], W]]) engine.Pair[engine.Tag, engine.Pair[K, engine.Tuple2[V, W]]] {
		return engine.KV(p.Val.A.A, engine.KV(p.Key.K, engine.Tuple2[V, W]{A: p.Val.A.B, B: p.Val.B}))
	})
	return InnerBag[engine.Pair[K, engine.Tuple2[V, W]]]{repr: repr, ctx: ctx}
}

// UnliftScalarToOuter folds a deeper level's InnerScalar back into the
// enclosing level's InnerBag: values tagged (outer.inner) become elements
// of the outer invocation's bag. It is the inverse boundary crossing of
// MapBagLifted.
func UnliftScalarToOuter[S any](inner InnerScalar[S], outerCtx *Ctx) InnerBag[S] {
	repr := engine.Map(inner.repr, func(p engine.Pair[engine.Tag, S]) engine.Pair[engine.Tag, S] {
		return engine.KV(p.Key.Pop(), p.Val)
	})
	return InnerBag[S]{repr: repr, ctx: outerCtx}
}
