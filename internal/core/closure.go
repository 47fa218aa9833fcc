package core

import "matryoshka/internal/engine"

// This file handles closures — UDFs referring to variables defined outside
// (Sec. 5) — and the half-lifted operations of Sec. 5.2/8.3.

// MapWithClosure is the unlifted-UDF case (Sec. 5.1): a map over an
// InnerBag whose UDF refers to an InnerScalar from the enclosing lifted
// UDF. Each bag element must meet the closure value of its own invocation,
// so the implementation is a tag join between the two representations,
// with the algorithm chosen by the optimizer (Sec. 8.2).
func MapWithClosure[A, C, B any](b InnerBag[A], clos InnerScalar[C], f func(A, C) B) InnerBag[B] {
	ctx := b.ctx
	joined := engine.JoinWith(clos.repr, b.repr, ctx.BagScalarJoinStrategy(), 0)
	repr := engine.Map(joined, func(p engine.Pair[engine.Tag, engine.Tuple2[C, A]]) engine.Pair[engine.Tag, B] {
		return engine.KV(p.Key, f(p.Val.B, p.Val.A))
	})
	return InnerBag[B]{repr: repr, ctx: ctx}
}

// LiftScalarClosure is the lifted-UDF closure case (Sec. 5.2) for scalars:
// a driver-side value referenced inside a lifted UDF is replicated for
// every tag.
func LiftScalarClosure[S any](ctx *Ctx, v S) InnerScalar[S] { return Pure(ctx, v) }

// LiftBagClosure fully lifts an outside bag into an InnerBag by
// replicating it for every tag (Sec. 5.2). The paper warns this "can make
// it very large"; prefer the half-lifted operations below when the
// operation allows it.
func LiftBagClosure[E any](ctx *Ctx, d engine.Dataset[E]) InnerBag[E] {
	repr := engine.CrossWithBroadcast(ctx.Tags, d, func(t engine.Tag, e E) engine.Pair[engine.Tag, E] {
		return engine.KV(t, e)
	})
	return InnerBag[E]{repr: repr, ctx: ctx}
}

// HalfLiftedMapWithClosure is the half-lifted mapWithClosure of Sec. 8.3:
// the closure is an InnerScalar from inside the lifted UDF and the primary
// input is a bag from outside it (e.g. K-means' unchanging points bag met
// by each run's current means). Semantically a cross product — every
// (tag, closure value) meets every primary element — physically realized
// by broadcasting one side, chosen by the optimizer (or forced via
// Options.ForceHalfLifted for the Fig. 8 ablation).
func HalfLiftedMapWithClosure[C, A, B any](clos InnerScalar[C], primary engine.Dataset[A], f func(A, C) B) InnerBag[B] {
	ctx := clos.ctx
	choice := ctx.HalfLiftedStrategy(clos.repr.CachedBytes(), primary.CachedBytes())
	var repr engine.Dataset[engine.Pair[engine.Tag, B]]
	apply := func(tc engine.Pair[engine.Tag, C], a A) engine.Pair[engine.Tag, B] {
		return engine.KV(tc.Key, f(a, tc.Val))
	}
	if choice == BroadcastScalar {
		repr = engine.CrossWithBroadcast(clos.repr, primary, apply)
	} else {
		repr = engine.CrossBroadcastBig(clos.repr, primary, apply)
	}
	return InnerBag[B]{repr: repr, ctx: ctx}
}
