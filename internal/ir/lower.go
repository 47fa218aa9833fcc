package ir

import (
	"fmt"
	"maps"

	"matryoshka/internal/core"
	"matryoshka/internal/engine"
)

// value is a lowered runtime value: exactly one representation is set,
// according to the kind the parsing phase assigned.
type value struct {
	kind Kind
	sc   any
	bag  engine.Dataset[any]
	isc  core.InnerScalar[any]
	ibg  core.InnerBag[any]
	nbO  core.InnerScalar[any] // nested bag, outer components
	nbI  core.InnerBag[any]    // nested bag, inner elements
}

// Lower runs the lowering phase (Sec. 4.1.2): it executes the parsed
// program on the engine session, resolving every nesting-primitive
// operation to flat physical operators through internal/core, with the
// runtime optimizations of Sec. 8 applied along the way. Sources maps
// Source names to their driver-side data. The result is []any for a bag
// result or a single any for a scalar result.
func Lower(ps *Parsed, sess *engine.Session, sources map[string][]any, opt core.Options) (any, error) {
	lw := &lowerer{sess: sess, sources: sources, opt: opt, env: map[string]value{}}
	for _, l := range ps.Prog.Lets {
		v, err := lw.evalTop(l.E)
		if err != nil {
			return nil, fmt.Errorf("ir: let %s: %w", l.Name, err)
		}
		lw.env[l.Name] = v
	}
	res := lw.env[ps.Prog.Result]
	switch res.kind {
	case KBag:
		return engine.Collect(res.bag)
	case KScalar:
		return res.sc, nil
	default:
		return nil, fmt.Errorf("ir: cannot return a %v result", res.kind)
	}
}

type lowerer struct {
	sess    *engine.Session
	sources map[string][]any
	opt     core.Options
	env     map[string]value
}

// evalOperands evaluates e's operands, in order, with eval.
func evalOperands(e Expr, eval func(Expr) (value, error)) ([]value, error) {
	var vs []value
	for _, in := range operands(e) {
		v, err := eval(in)
		if err != nil {
			return nil, err
		}
		vs = append(vs, v)
	}
	return vs, nil
}

// evalTop lowers one top-level expression to engine operations. The
// parsing phase has checked every operand's kind.
func (lw *lowerer) evalTop(e Expr) (value, error) {
	in, err := evalOperands(e, lw.evalTop)
	if err != nil {
		return value{}, err
	}
	switch x := e.(type) {
	case Ref:
		return lw.env[x.Name], nil
	case Const:
		return value{kind: KScalar, sc: x.V}, nil
	case Source:
		data, ok := lw.sources[x.Name]
		if !ok {
			return value{}, fmt.Errorf("source %q not provided", x.Name)
		}
		return value{kind: KBag, bag: engine.Parallelize(lw.sess, data, 0)}, nil
	case GroupByKey:
		pairs := engine.Map(in[0].bag, func(e any) engine.Pair[any, any] { return e.(engine.Pair[any, any]) })
		nb, err := core.GroupByKeyIntoNestedBag(pairs, lw.opt)
		if err != nil {
			return value{}, err
		}
		return value{kind: KNested, nbO: nb.Outer, nbI: nb.Inner}, nil
	case Map:
		if x.F != nil {
			return value{kind: KBag, bag: engine.Map(in[0].bag, x.F)}, nil
		}
		return lw.lowerLiftedMap(in[0], x.UDF)
	case Filter:
		return value{kind: KBag, bag: engine.Filter(in[0].bag, x.Pred)}, nil
	case FlatMap:
		return value{kind: KBag, bag: engine.FlatMap(in[0].bag, x.F)}, nil
	case Distinct:
		return value{kind: KBag, bag: engine.Distinct(in[0].bag)}, nil
	case Union:
		return value{kind: KBag, bag: engine.Union(in[0].bag, in[1].bag)}, nil
	case ReduceByKey:
		pairs := engine.Map(in[0].bag, func(e any) engine.Pair[any, any] { return e.(engine.Pair[any, any]) })
		red := engine.ReduceByKey(pairs, x.F)
		return value{kind: KBag, bag: engine.Map(red, func(p engine.Pair[any, any]) any { return any(p) })}, nil
	case Count:
		n, err := engine.Count(in[0].bag)
		return value{kind: KScalar, sc: n}, err
	case Reduce:
		r, err := engine.Reduce(in[0].bag, x.F)
		return value{kind: KScalar, sc: r}, err
	case UnOp:
		return value{kind: KScalar, sc: x.F(in[0].sc)}, nil
	case BinOp:
		return value{kind: KScalar, sc: x.F(in[0].sc, in[1].sc)}, nil
	}
	return value{}, fmt.Errorf("unsupported top-level expression %T", e)
}

// lowerLiftedMap is mapWithLiftedUDF: the UDF runs exactly once, over the
// lifted representations of all invocations (Sec. 4.2). The input is a
// nested bag or a flat one, and the UDF returns an inner scalar or an
// inner bag; the parsing phase has rejected everything else.
func (lw *lowerer) lowerLiftedMap(in value, fn *Fn) (value, error) {
	runBody := func(ctx *core.Ctx, params ...value) (value, error) {
		env := map[string]value{}
		for i, p := range fn.Params {
			env[p] = params[i]
		}
		return lw.evalBody(ctx, fn.Body, env)
	}
	var res value
	var err error
	if in.kind == KNested {
		res, err = runBody(in.nbI.Ctx(), value{kind: KInnerScalar, isc: in.nbO}, value{kind: KInnerBag, ibg: in.nbI})
	} else {
		res, err = core.LiftFlat(in.bag, lw.opt, func(ctx *core.Ctx, elems core.InnerScalar[any]) (value, error) {
			return runBody(ctx, value{kind: KInnerScalar, isc: elems})
		})
	}
	if err != nil {
		return value{}, err
	}
	if res.kind == KInnerScalar {
		return value{kind: KBag, bag: engine.Values(res.isc.Repr())}, nil
	}
	return value{kind: KBag, bag: core.FlattenBag(res.ibg)}, nil
}

// evalBody executes the statements of a lifted UDF during lowering.
func (lw *lowerer) evalBody(ctx *core.Ctx, body []Stmt, env map[string]value) (value, error) {
	for _, st := range body {
		switch s := st.(type) {
		case LetS:
			v, err := lw.evalInner(ctx, s.E, env)
			if err != nil {
				return value{}, fmt.Errorf("let %s: %w", s.Name, err)
			}
			env[s.Name] = v
		case While:
			if err := lw.lowerWhile(ctx, s, env); err != nil {
				return value{}, fmt.Errorf("while: %w", err)
			}
		case If:
			if err := lw.lowerIf(ctx, s, env); err != nil {
				return value{}, fmt.Errorf("if: %w", err)
			}
		case Return:
			return lw.evalInner(ctx, s.E, env)
		}
	}
	return value{}, fmt.Errorf("UDF ended without return")
}

// evalInner lowers one expression inside a lifted UDF to core operations.
// The parsing phase has checked every operand's kind.
func (lw *lowerer) evalInner(ctx *core.Ctx, e Expr, env map[string]value) (value, error) {
	in, err := evalOperands(e, func(o Expr) (value, error) { return lw.evalInner(ctx, o, env) })
	if err != nil {
		return value{}, err
	}
	switch x := e.(type) {
	case Ref:
		if v, ok := env[x.Name]; ok {
			return v, nil
		}
		// Closure over the driver scope (Sec. 5.2).
		outer, ok := lw.env[x.Name]
		if !ok {
			return value{}, fmt.Errorf("unbound variable %s", x.Name)
		}
		if outer.kind == KScalar {
			return value{kind: KInnerScalar, isc: core.LiftScalarClosure(ctx, outer.sc)}, nil
		}
		return value{kind: KInnerBag, ibg: core.LiftBagClosure(ctx, outer.bag)}, nil
	case Const:
		return value{kind: KInnerScalar, isc: core.Pure(ctx, x.V)}, nil
	case Map:
		return value{kind: KInnerBag, ibg: core.MapBag(in[0].ibg, x.F)}, nil
	case Filter:
		return value{kind: KInnerBag, ibg: core.FilterBag(in[0].ibg, x.Pred)}, nil
	case FlatMap:
		return value{kind: KInnerBag, ibg: core.FlatMapBag(in[0].ibg, x.F)}, nil
	case Distinct:
		return value{kind: KInnerBag, ibg: core.DistinctBag(in[0].ibg)}, nil
	case Union:
		return value{kind: KInnerBag, ibg: core.UnionBags(in[0].ibg, in[1].ibg)}, nil
	case ReduceByKey:
		keyed := core.MapBag(in[0].ibg, func(e any) engine.Pair[any, any] { return e.(engine.Pair[any, any]) })
		red := core.ReduceByKeyBag(keyed, x.F)
		return value{kind: KInnerBag, ibg: core.MapBag(red, func(p engine.Pair[any, any]) any { return any(p) })}, nil
	case Count:
		cnt := core.CountBag(in[0].ibg)
		return value{kind: KInnerScalar, isc: core.UnaryScalarOp(cnt, func(n int64) any { return n })}, nil
	case Reduce:
		return value{kind: KInnerScalar, isc: core.ReduceBag(in[0].ibg, x.F)}, nil
	case UnOp:
		return value{kind: KInnerScalar, isc: core.UnaryScalarOp(in[0].isc, x.F)}, nil
	case BinOp:
		return value{kind: KInnerScalar, isc: core.BinaryScalarOp(in[0].isc, in[1].isc, x.F)}, nil
	}
	return value{}, fmt.Errorf("unsupported inner expression %T", e)
}

// dynState is the loop state of a lowered control-flow construct: the
// current values of the named loop variables.
type dynState struct {
	kinds []Kind
	vals  []value
}

// dynOps builds StateOps for a dynState shape from the per-kind instances.
func dynOps(kinds []Kind) core.StateOps[dynState] {
	so := core.ScalarState[any]()
	bo := core.BagState[any]()
	apply := func(s dynState, f func(i int, v value) value) dynState {
		out := dynState{kinds: s.kinds, vals: make([]value, len(s.vals))}
		for i, v := range s.vals {
			out.vals[i] = f(i, v)
		}
		return out
	}
	return core.StateOps[dynState]{
		Empty: func(ctx *core.Ctx) dynState {
			s := dynState{kinds: kinds, vals: make([]value, len(kinds))}
			for i, k := range kinds {
				if k == KInnerScalar {
					s.vals[i] = value{kind: k, isc: so.Empty(ctx)}
				} else {
					s.vals[i] = value{kind: k, ibg: bo.Empty(ctx)}
				}
			}
			return s
		},
		Filter: func(s dynState, keep engine.Dataset[engine.Tag], sub *core.Ctx) dynState {
			return apply(s, func(i int, v value) value {
				if v.kind == KInnerScalar {
					return value{kind: v.kind, isc: so.Filter(v.isc, keep, sub)}
				}
				return value{kind: v.kind, ibg: bo.Filter(v.ibg, keep, sub)}
			})
		},
		Union: func(a, b dynState) dynState {
			out := dynState{kinds: a.kinds, vals: make([]value, len(a.vals))}
			for i := range a.vals {
				if a.vals[i].kind == KInnerScalar {
					out.vals[i] = value{kind: a.vals[i].kind, isc: so.Union(a.vals[i].isc, b.vals[i].isc)}
				} else {
					out.vals[i] = value{kind: a.vals[i].kind, ibg: bo.Union(a.vals[i].ibg, b.vals[i].ibg)}
				}
			}
			return out
		},
		Cache: func(s dynState) dynState {
			return apply(s, func(i int, v value) value {
				if v.kind == KInnerScalar {
					return value{kind: v.kind, isc: so.Cache(v.isc)}
				}
				return value{kind: v.kind, ibg: bo.Cache(v.ibg)}
			})
		},
	}
}

// loopState gathers the named loop variables from the environment.
func loopState(vars []string, env map[string]value) dynState {
	s := dynState{kinds: make([]Kind, len(vars)), vals: make([]value, len(vars))}
	for i, name := range vars {
		s.vals[i] = env[name]
		s.kinds[i] = env[name].kind
	}
	return s
}

// runLets binds the loop variables to their current values in a copy of
// env and evaluates lets there: one iteration of a loop body, or one
// branch of an if.
func (lw *lowerer) runLets(c *core.Ctx, env map[string]value, vars []string, cur dynState, lets []LetS) (map[string]value, error) {
	inner := maps.Clone(env)
	bindVars(inner, vars, cur)
	for _, l := range lets {
		v, err := lw.evalInner(c, l.E, inner)
		if err != nil {
			return nil, fmt.Errorf("let %s: %w", l.Name, err)
		}
		inner[l.Name] = v
	}
	return inner, nil
}

// bindVars sets the named loop variables to the values of s.
func bindVars(env map[string]value, vars []string, s dynState) {
	for i, name := range vars {
		env[name] = s.vals[i]
	}
}

// lowerWhile lifts a while loop (Sec. 6.2 / Listing 4) via core.While.
// Lowering errors inside the loop body flow out through the body closure's
// error return.
func (lw *lowerer) lowerWhile(ctx *core.Ctx, s While, env map[string]value) error {
	init := loopState(s.Vars, env)
	out, err := core.While(ctx, init, dynOps(init.kinds), func(c *core.Ctx, cur dynState) (dynState, core.InnerScalar[bool], error) {
		inner, err := lw.runLets(c, env, s.Vars, cur, s.Body)
		if err != nil {
			return dynState{}, core.InnerScalar[bool]{}, fmt.Errorf("loop body: %w", err)
		}
		condV, err := lw.evalInner(c, s.Cond, inner)
		if err != nil {
			return dynState{}, core.InnerScalar[bool]{}, fmt.Errorf("loop condition: %w", err)
		}
		cond := core.UnaryScalarOp(condV.isc, func(v any) bool { return v.(bool) })
		return loopState(s.Vars, inner), cond, nil
	})
	if err != nil {
		return err
	}
	bindVars(env, s.Vars, out)
	return nil
}

// lowerIf lifts an if statement (Sec. 6.2) via core.If. Branch-lowering
// errors flow out through the branch closures' error returns.
func (lw *lowerer) lowerIf(ctx *core.Ctx, s If, env map[string]value) error {
	condV, err := lw.evalInner(ctx, s.Cond, env)
	if err != nil {
		return err
	}
	cond := core.UnaryScalarOp(condV.isc, func(v any) bool { return v.(bool) })
	init := loopState(s.Vars, env)
	branch := func(body []LetS) func(*core.Ctx, dynState) (dynState, error) {
		return func(c *core.Ctx, cur dynState) (dynState, error) {
			inner, err := lw.runLets(c, env, s.Vars, cur, body)
			if err != nil {
				return dynState{}, fmt.Errorf("branch: %w", err)
			}
			return loopState(s.Vars, inner), nil
		}
	}
	out, err := core.If(ctx, cond, init, dynOps(init.kinds), branch(s.Then), branch(s.Else))
	if err != nil {
		return err
	}
	bindVars(env, s.Vars, out)
	return nil
}
