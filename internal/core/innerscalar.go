package core

import "matryoshka/internal/engine"

// InnerScalar represents a scalar variable inside a lifted UDF (Sec. 4.3).
// Where the original UDF held one value of type S per invocation, the
// lifted program holds a flat Bag[(Tag, S)] with one element per original
// invocation. The tag set is shared across all InnerScalars of a lifted
// UDF and its size is known up front (Sec. 8.1).
type InnerScalar[S any] struct {
	repr engine.Dataset[engine.Pair[engine.Tag, S]]
	ctx  *Ctx
}

// Repr exposes the flat bag representing the InnerScalar (the paper's
// `.repr`, Sec. 5.2).
func (s InnerScalar[S]) Repr() engine.Dataset[engine.Pair[engine.Tag, S]] { return s.repr }

// Ctx returns the LiftingContext this scalar belongs to.
func (s InnerScalar[S]) Ctx() *Ctx { return s.ctx }

// Cache materializes the representation on first use (loop state hygiene).
func (s InnerScalar[S]) Cache() InnerScalar[S] {
	s.repr = s.repr.Cache()
	return s
}

// Collect gathers the per-invocation values keyed by tag (an output
// operation in the sense of Theorem 2's proof).
func (s InnerScalar[S]) Collect() (map[engine.Tag]S, error) {
	return engine.CollectMap(s.repr)
}

// Pure lifts a constant: the original UDF's `val x = v` becomes an
// InnerScalar holding v for every invocation.
func Pure[S any](ctx *Ctx, v S) InnerScalar[S] {
	repr := engine.Map(ctx.Tags, func(t engine.Tag) engine.Pair[engine.Tag, S] {
		return engine.KV(t, v)
	})
	return InnerScalar[S]{repr: repr, ctx: ctx}
}

// UnaryScalarOp lifts b = f(a) (Sec. 4.3): a map over the representation,
// tags forwarded unchanged.
func UnaryScalarOp[A, B any](a InnerScalar[A], f func(A) B) InnerScalar[B] {
	repr := engine.Map(a.repr, func(p engine.Pair[engine.Tag, A]) engine.Pair[engine.Tag, B] {
		return engine.KV(p.Key, f(p.Val))
	})
	return InnerScalar[B]{repr: repr, ctx: a.ctx}
}

// BinaryScalarOp lifts c = f(a, b) (Sec. 4.3): an equi-join of the two
// representations on the tag, followed by a map. The join algorithm and
// output partition count come from the optimizer — both sides have exactly
// ctx.Size elements and the tag is a unique key (Sec. 8.2).
func BinaryScalarOp[A, B, C any](a InnerScalar[A], b InnerScalar[B], f func(A, B) C) InnerScalar[C] {
	ctx := a.ctx
	joined := engine.JoinWith(a.repr, b.repr, ctx.ScalarJoinStrategy(), ctx.Parts)
	repr := engine.Map(joined, func(p engine.Pair[engine.Tag, engine.Tuple2[A, B]]) engine.Pair[engine.Tag, C] {
		return engine.KV(p.Key, f(p.Val.A, p.Val.B))
	})
	return InnerScalar[C]{repr: repr, ctx: ctx}
}
