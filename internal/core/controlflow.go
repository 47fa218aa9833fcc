package core

import (
	"fmt"

	"matryoshka/internal/engine"
)

// This file lifts control flow statements (Sec. 6). The parsing phase
// turns while loops and if statements into higher-order function calls
// (Sec. 6.1); While and If below are the lifted implementations those
// calls resolve to in the lowering phase (Sec. 6.2, Listing 4).

// DefaultMaxIterations bounds lifted loops against non-terminating bodies.
const DefaultMaxIterations = 10_000

// StateOps describes how to manage a loop/branch state type S built from
// nesting primitives: produce an empty state, restrict a state to a tag
// subset (rebinding it to the subset's LiftingContext), merge two disjoint
// states, and cache a state's representations between supersteps.
// ScalarState, BagState and State2Ops provide the standard instances; they
// compose to arbitrary shapes.
type StateOps[S any] struct {
	Empty  func(ctx *Ctx) S
	Filter func(s S, keep engine.Dataset[engine.Tag], sub *Ctx) S
	Union  func(a, b S) S
	Cache  func(s S) S
}

// While is the lifted while loop (Listing 4). One iteration of the lifted
// loop runs one iteration of *all* original loops that have not finished:
//
//	P1: state entering the body is restricted to tags whose exit condition
//	    still holds (the tag join + filter of Listing 4 lines 5-6);
//	P2: finished parts are saved into the result as soon as they finish
//	    (lines 7-8);
//	P3: the lifted loop exits when no tags continue (line 9).
//
// body receives the LiftingContext of the still-running tags, so inner
// operations keep making correct physical decisions as the population
// shrinks. The returned condition is true where the original loop would
// run another iteration (do-while semantics: the body runs at least once).
// A body error aborts the loop and is returned as-is.
func While[S any](ctx *Ctx, init S, ops StateOps[S], body func(*Ctx, S) (S, InnerScalar[bool], error)) (S, error) {
	var zero S
	maxIter := ctx.Opt.MaxLoopIterations
	if maxIter <= 0 {
		maxIter = DefaultMaxIterations
	}
	cur := ops.Cache(init)
	curCtx := ctx
	result := ops.Empty(ctx)
	for iter := 0; ; iter++ {
		if iter >= maxIter {
			return zero, fmt.Errorf("core: lifted loop exceeded %d iterations", maxIter)
		}
		next, cond, err := body(curCtx, cur)
		if err != nil {
			return zero, err
		}
		next = ops.Cache(next)
		condRepr := cond.Repr().Cache()

		contTags := tagsWhere(condRepr, true)
		nCont, err := engine.Count(contTags) // the one action per superstep
		if err != nil {
			return zero, err
		}
		nDone := curCtx.Size - nCont

		if nDone > 0 {
			doneTags := tagsWhere(condRepr, false)
			doneCtx := curCtx.withTags(doneTags, nDone)
			finished := ops.Filter(next, doneTags, doneCtx)
			// The union's representation holds exactly the right tags;
			// the result keeps the original full-loop context.
			result = ops.Cache(ops.Union(result, finished))
		}
		if nCont == 0 {
			return result, nil
		}
		contCtx := curCtx.withTags(contTags, nCont)
		if nDone > 0 {
			cur = ops.Cache(ops.Filter(next, contTags, contCtx))
		} else {
			cur = next
		}
		curCtx = contCtx
	}
}

// If is the lifted if statement (Sec. 6.2): both branches execute, each
// receiving only the state of the tags whose condition selects it, and the
// branch results are unioned. A branch error aborts the statement and is
// returned as-is.
func If[S any](ctx *Ctx, cond InnerScalar[bool], state S, ops StateOps[S],
	thenF, elseF func(*Ctx, S) (S, error)) (S, error) {
	var zero S
	condRepr := cond.Repr().Cache()
	thenTags := tagsWhere(condRepr, true)
	nThen, err := engine.Count(thenTags)
	if err != nil {
		return zero, err
	}
	nElse := ctx.Size - nThen
	elseTags := tagsWhere(condRepr, false)

	thenCtx := ctx.withTags(thenTags, nThen)
	elseCtx := ctx.withTags(elseTags, nElse)
	thenRes, err := thenF(thenCtx, ops.Filter(state, thenTags, thenCtx))
	if err != nil {
		return zero, err
	}
	elseRes, err := elseF(elseCtx, ops.Filter(state, elseTags, elseCtx))
	if err != nil {
		return zero, err
	}
	return ops.Union(thenRes, elseRes), nil
}

// tagsWhere is the cached set of tags whose condition equals want (the
// filter on the loop condition in Listing 4, lines 5-6).
func tagsWhere(cond engine.Dataset[engine.Pair[engine.Tag, bool]], want bool) engine.Dataset[engine.Tag] {
	return engine.Map(engine.Filter(cond, func(p engine.Pair[engine.Tag, bool]) bool { return p.Val == want }),
		func(p engine.Pair[engine.Tag, bool]) engine.Tag { return p.Key }).Cache()
}

// filterByTags restricts a tagged representation to a tag subset via a tag
// join (the joinOnTags of Listing 4, line 5), using the subset context's
// join strategy.
func filterByTags[V any](repr engine.Dataset[engine.Pair[engine.Tag, V]], keep engine.Dataset[engine.Tag], sub *Ctx) engine.Dataset[engine.Pair[engine.Tag, V]] {
	keepPairs := engine.Map(keep, func(t engine.Tag) engine.Pair[engine.Tag, struct{}] {
		return engine.KV(t, struct{}{})
	})
	joined := engine.JoinWith(keepPairs, repr, sub.BagScalarJoinStrategy(), 0)
	return engine.Map(joined, func(p engine.Pair[engine.Tag, engine.Tuple2[struct{}, V]]) engine.Pair[engine.Tag, V] {
		return engine.KV(p.Key, p.Val.B)
	})
}

// ScalarState is the StateOps instance for a single InnerScalar.
func ScalarState[S any]() StateOps[InnerScalar[S]] {
	return StateOps[InnerScalar[S]]{
		Empty: func(ctx *Ctx) InnerScalar[S] {
			return InnerScalar[S]{repr: engine.Empty[engine.Pair[engine.Tag, S]](ctx.Sess), ctx: ctx}
		},
		Filter: func(s InnerScalar[S], keep engine.Dataset[engine.Tag], sub *Ctx) InnerScalar[S] {
			return InnerScalar[S]{repr: filterByTags(s.repr, keep, sub), ctx: sub}
		},
		Union: func(a, b InnerScalar[S]) InnerScalar[S] {
			return InnerScalar[S]{repr: engine.Union(a.repr, b.repr), ctx: a.ctx}
		},
		Cache: func(s InnerScalar[S]) InnerScalar[S] { return s.Cache() },
	}
}

// BagState is the StateOps instance for a single InnerBag.
func BagState[E any]() StateOps[InnerBag[E]] {
	return StateOps[InnerBag[E]]{
		Empty: func(ctx *Ctx) InnerBag[E] {
			return InnerBag[E]{repr: engine.Empty[engine.Pair[engine.Tag, E]](ctx.Sess), ctx: ctx}
		},
		Filter: func(b InnerBag[E], keep engine.Dataset[engine.Tag], sub *Ctx) InnerBag[E] {
			return InnerBag[E]{repr: filterByTags(b.repr, keep, sub), ctx: sub}
		},
		Union: func(a, b InnerBag[E]) InnerBag[E] {
			return InnerBag[E]{repr: engine.Union(a.repr, b.repr), ctx: a.ctx}
		},
		Cache: func(b InnerBag[E]) InnerBag[E] { return b.Cache() },
	}
}

// State2 combines two loop-state components (e.g. PageRank's rank InnerBag
// plus an iteration-counter InnerScalar).
type State2[A, B any] struct {
	A A
	B B
}

// State2Ops composes StateOps for a two-component state.
func State2Ops[A, B any](a StateOps[A], b StateOps[B]) StateOps[State2[A, B]] {
	return StateOps[State2[A, B]]{
		Empty: func(ctx *Ctx) State2[A, B] {
			return State2[A, B]{a.Empty(ctx), b.Empty(ctx)}
		},
		Filter: func(s State2[A, B], keep engine.Dataset[engine.Tag], sub *Ctx) State2[A, B] {
			return State2[A, B]{a.Filter(s.A, keep, sub), b.Filter(s.B, keep, sub)}
		},
		Union: func(x, y State2[A, B]) State2[A, B] {
			return State2[A, B]{a.Union(x.A, y.A), b.Union(x.B, y.B)}
		},
		Cache: func(s State2[A, B]) State2[A, B] {
			return State2[A, B]{a.Cache(s.A), b.Cache(s.B)}
		},
	}
}
