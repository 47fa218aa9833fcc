package ir

import (
	"errors"
	"fmt"
	"maps"
	"reflect"
	"strings"

	"matryoshka/internal/core"
	"matryoshka/internal/engine"
	"matryoshka/internal/obs"
)

// The lowering phase runs twice over a program.
//
// The dry pass runs nothing. It gives every bag, inner bag and nested bag
// its element shape (shape.go) and carries a witness with it: one real
// element. A source's shape comes from a scan of all its elements, each of
// the same dynamic type (for an engine.Pair[any, any], the same key and
// value types); its witness is its first element. Every later node's shape
// is the dynamic type its UDF returns on its input's witness, and that
// result is its witness: filter, distinct and union keep their input's
// (a union's two inputs must agree), and reduceByKey also checks that its
// function keeps the value type on the witness's value. Scalars carry
// witnesses too, so a lifted UDF's results have one: a count's is 1, the
// other scalar operations apply their function to their operands'. A loop
// body runs once, on its variables' witnesses, and must give each bag
// variable back its shape; the branches of an if must agree.
//
// The second pass builds and runs the plan on the shapes the dry pass found,
// computing the same witnesses again (it never looks at the data for them:
// every iteration of a loop starts from the witnesses it started from in the
// dry pass). If the dry pass meets an empty or mixed source, a UDF result
// outside the universe, a UDF that panics on a witness, or a loop variable
// or if branch that changes shape, the whole program lowers boxed instead —
// every bag Dataset[any], the untyped lowering — and the reason is recorded
// as one obs.Decision of rule "ir-shape". A typed program records none.
//
// A row whose UDF result has another dynamic type than its node's shape
// fails its job. Lower returns the job's error, which wraps a rowError
// naming the node and both types (errors.As finds it).

// value is a lowered runtime value; kind says which fields are set: sc for
// a scalar, bag for a flat bag, isc for an inner scalar, ibg for an inner
// bag, and nb for a nested bag. sh is the shape of a bag's elements or an
// inner scalar's values (a nested bag's inner shape), and w the value's
// witness: a bag's element, a scalar's value; a nested bag's is the pair it
// was grouped from.
type value struct {
	kind Kind
	sh   shape
	w    any
	sc   any
	bag  any // engine.Dataset[T] for shape T
	isc  any // core.InnerScalar[T]
	ibg  any // core.InnerBag[T]
	nb   nested
}

// unshapedError is why a program lowers boxed.
type unshapedError struct{ reason string }

func (e *unshapedError) Error() string { return "ir: no shape: " + e.reason }

func unshaped(format string, args ...any) error {
	return &unshapedError{fmt.Sprintf(format, args...)}
}

// Lower runs the lowering phase (Sec. 4.1.2): it executes the parsed
// program on the engine session, resolving every nesting-primitive
// operation to flat physical operators through internal/core, with the
// runtime optimizations of Sec. 8 applied along the way. Sources maps
// Source names to their driver-side data. The result is []any for a bag
// result (a pair row as an engine.Pair[any, any]) or a single any for a
// scalar result.
func Lower(ps *Parsed, sess *engine.Session, sources map[string][]any, opt core.Options) (any, error) {
	boxed := false
	if _, err := newLowerer(sess, sources, opt, true, false).run(ps); err != nil {
		var u *unshapedError
		if !errors.As(err, &u) {
			return nil, err
		}
		sess.Obs().Decide(obs.Decision{Rule: "ir-shape", Choice: "boxed", Why: u.reason})
		boxed = true
	}
	return newLowerer(sess, sources, opt, false, boxed).run(ps)
}

type lowerer struct {
	sess    *engine.Session
	sources map[string][]any
	opt     core.Options
	env     map[string]value
	// dry: find the shapes and run nothing; boxed: lower every bag as any.
	dry, boxed bool
	// at names the binding being lowered, for a node's name.
	at string
}

func newLowerer(sess *engine.Session, sources map[string][]any, opt core.Options, dry, boxed bool) *lowerer {
	return &lowerer{sess: sess, sources: sources, opt: opt, env: map[string]value{}, dry: dry, boxed: boxed}
}

// run lowers every top-level binding and returns the program's result.
func (lw *lowerer) run(ps *Parsed) (any, error) {
	for _, l := range ps.Prog.Lets {
		lw.at = "let " + l.Name
		v, err := lw.evalTop(l.E)
		if err != nil {
			return nil, fmt.Errorf("ir: let %s: %w", l.Name, err)
		}
		lw.env[l.Name] = v
	}
	res := lw.env[ps.Prog.Result]
	switch {
	case res.kind == KBag && lw.dry:
		return nil, nil
	case res.kind == KBag:
		return res.sh.collect(res.bag)
	case res.kind == KScalar:
		return res.sc, nil
	default:
		return nil, fmt.Errorf("ir: cannot return a %v result", res.kind)
	}
}

// site names e, an operator of the binding being lowered.
func (lw *lowerer) site(e Expr) site {
	name := reflect.TypeOf(e).Name()
	return site{node: strings.ToLower(name[:1]) + name[1:] + " in " + lw.at}
}

// call runs a UDF on witnesses; a panic is a reason to lower boxed.
func call(at site, f func() any) (w any, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = unshaped("%s panicked on its witness: %v", at.node, r)
		}
	}()
	return f(), nil
}

// row runs a UDF on witnesses and returns the shape of its result.
func row(at site, f func() any) (shape, any, error) {
	w, err := call(at, f)
	if err != nil {
		return nil, nil, err
	}
	s, ok := shapeOf(w)
	if !ok {
		return nil, nil, unshaped("%s returns %s rows, outside the shape universe", at.node, rowType(w))
	}
	return s, w, nil
}

// infer returns the shape and witness of e's result from its operands':
// the part of lowering e that is the same at both nesting levels. A scalar
// result has no shape. The boxed pass evaluates no witness.
func (lw *lowerer) infer(e Expr, in []value) (shape, any, error) {
	if lw.boxed {
		return boxedShape, nil, nil
	}
	at := lw.site(e)
	switch x := e.(type) {
	case Map:
		return row(at, func() any { return x.F(in[0].w) })
	case FlatMap:
		rows, err := call(at, func() any { return x.F(in[0].w) })
		if err != nil {
			return nil, nil, err
		}
		ws := rows.([]any)
		if len(ws) == 0 {
			return nil, nil, unshaped("%s returns no rows on its witness", at.node)
		}
		s, w, err := row(at, func() any { return ws[0] })
		for _, r := range ws[1:] {
			if t, _ := shapeOf(r); err == nil && t != s {
				err = unshaped("%s returns %s and %s rows on its witness", at.node, rowType(ws[0]), rowType(r))
			}
		}
		return s, w, err
	case Filter, Distinct:
		return in[0].sh, in[0].w, nil
	case Union:
		if in[0].sh != in[1].sh {
			return nil, nil, unshaped("%s of %v and %v rows", at.node, in[0].sh, in[1].sh)
		}
		return in[0].sh, in[0].w, nil
	case GroupByKey, ReduceByKey:
		kd := in[0].sh.keyed()
		if kd == nil {
			return nil, nil, unshaped("%s over %v rows, not pairs", at.node, in[0].sh)
		}
		if r, ok := x.(ReduceByKey); ok {
			v := in[0].w.(engine.Pair[any, any]).Val
			if err := keeps(at, kd.val(), func() any { return r.F(v, v) }); err != nil {
				return nil, nil, err
			}
		}
		return in[0].sh, in[0].w, nil
	case Count:
		return nil, int64(1), nil
	case Reduce:
		w, err := call(at, func() any { return x.F(in[0].w, in[0].w) })
		if err == nil {
			err = keeps(at, in[0].sh, func() any { return w })
		}
		return nil, w, err
	case UnOp:
		w, err := call(at, func() any { return x.F(in[0].w) })
		return nil, w, err
	case BinOp:
		w, err := call(at, func() any { return x.F(in[0].w, in[1].w) })
		return nil, w, err
	}
	return nil, nil, fmt.Errorf("unsupported expression %T", e)
}

// keeps checks that a merge function's result on witnesses has shape s.
func keeps(at site, s shape, f func() any) error {
	t, w, err := row(at, f)
	if err == nil && t != s {
		err = unshaped("%s turns %v values into %s", at.node, s, rowType(w))
	}
	return err
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
		return value{kind: KScalar, sc: x.V, w: x.V}, nil
	case Source:
		return lw.source(x.Name)
	case Map:
		if x.UDF != nil {
			return lw.lowerLiftedMap(in[0], x.UDF)
		}
	}
	sh, w, err := lw.infer(e, in)
	if err != nil {
		return value{}, err
	}
	v := value{kind: KBag, sh: sh, w: w}
	switch e.(type) {
	case GroupByKey:
		v.kind, v.sh = KNested, in[0].sh.keyed().val()
	case Count, Reduce, UnOp, BinOp:
		v = value{kind: KScalar, w: w}
	}
	if lw.dry {
		return v, nil
	}
	at := lw.site(e)
	switch x := e.(type) {
	case GroupByKey:
		v.nb, err = in[0].sh.keyed().groupByKey(in[0].bag, lw.opt)
	case Map:
		v.bag = in[0].sh.mapTo(sh).top(in[0].bag, x.F, at)
	case Filter:
		v.bag = sh.filter(in[0].bag, x.Pred)
	case FlatMap:
		v.bag = in[0].sh.mapTo(sh).flatTop(in[0].bag, x.F, at)
	case Distinct:
		v.bag = sh.distinct(in[0].bag)
	case Union:
		v.bag = sh.union(in[0].bag, in[1].bag)
	case ReduceByKey:
		v.bag = sh.keyed().reduceByKey(in[0].bag, x.F, at)
	case Count:
		v.sc, err = in[0].sh.count(in[0].bag)
	case Reduce:
		v.sc, err = in[0].sh.reduce(in[0].bag, x.F, at)
	case UnOp:
		v.sc = x.F(in[0].sc)
	case BinOp:
		v.sc = x.F(in[0].sc, in[1].sc)
	}
	return v, err
}

// source lowers a Source: its shape comes from a scan of all its elements
// in the dry pass; the other passes trust that scan.
func (lw *lowerer) source(name string) (value, error) {
	data, ok := lw.sources[name]
	if !ok {
		return value{}, fmt.Errorf("source %q not provided", name)
	}
	v := value{kind: KBag, sh: boxedShape}
	switch {
	case lw.dry:
		s, err := sourceShape(name, data)
		if err != nil {
			return value{}, err
		}
		v.sh, v.w = s, data[0]
		return v, nil
	case !lw.boxed:
		v.sh, _ = shapeOf(data[0])
		v.w = data[0]
	}
	v.bag = v.sh.source(lw.sess, data)
	return v, nil
}

// lowerLiftedMap is mapWithLiftedUDF: the UDF runs exactly once, over the
// lifted representations of all invocations (Sec. 4.2). The input is a
// nested bag or a flat one, and the UDF returns an inner scalar or an
// inner bag; the parsing phase has rejected everything else.
func (lw *lowerer) lowerLiftedMap(in value, fn *Fn) (value, error) {
	at := lw.at
	runBody := func(ctx *core.Ctx, params ...value) (value, error) {
		env := map[string]value{}
		for i, p := range fn.Params {
			env[p] = params[i]
		}
		res, err := lw.evalBody(ctx, fn.Body, env)
		lw.at = at
		return res, err
	}
	var res value
	var err error
	switch {
	case in.kind == KNested:
		p, _ := in.w.(engine.Pair[any, any])
		key := value{kind: KInnerScalar, sh: boxedShape, isc: in.nb.outer, w: p.Key}
		if !lw.boxed {
			key.sh, _ = shapeOf(p.Key)
		}
		res, err = runBody(in.nb.ctx, key, value{kind: KInnerBag, sh: in.sh, ibg: in.nb.inner, w: p.Val})
	case lw.dry:
		res, err = runBody(nil, value{kind: KInnerScalar, sh: in.sh.scalar(), w: in.w})
	default:
		res, err = in.sh.liftFlat(in.bag, lw.opt, func(ctx *core.Ctx, elems any, sh shape) (value, error) {
			return runBody(ctx, value{kind: KInnerScalar, sh: sh, isc: elems, w: in.w})
		})
	}
	if err != nil {
		return value{}, err
	}
	out := value{kind: KBag, sh: res.sh, w: res.w}
	switch {
	case res.kind == KInnerScalar && res.sh == boxedShape:
		// The per-invocation results become the rows of a flat bag, in
		// the shape of the result's witness.
		udf := site{node: "the UDF of " + at}
		if !lw.boxed {
			if out.sh, _, err = row(udf, func() any { return res.w }); err != nil {
				return value{}, err
			}
		}
		if !lw.dry {
			out.bag = out.sh.fromScalars(res.isc.(core.InnerScalar[any]), udf)
		}
	case lw.dry:
	case res.kind == KInnerScalar:
		out.bag = res.sh.values(res.isc)
	default:
		out.bag = res.sh.flatten(res.ibg)
	}
	return out, nil
}

// evalBody executes the statements of a lifted UDF during lowering.
func (lw *lowerer) evalBody(ctx *core.Ctx, body []Stmt, env map[string]value) (value, error) {
	for _, st := range body {
		switch s := st.(type) {
		case LetS:
			lw.at = "let " + s.Name
			v, err := lw.evalInner(ctx, s.E, env)
			if err != nil {
				return value{}, fmt.Errorf("let %s: %w", s.Name, err)
			}
			env[s.Name] = v
		case While:
			lw.at = "the loop over " + strings.Join(s.Vars, ", ")
			if err := lw.lowerWhile(ctx, s, env); err != nil {
				return value{}, fmt.Errorf("while: %w", err)
			}
		case If:
			lw.at = "the if over " + strings.Join(s.Vars, ", ")
			if err := lw.lowerIf(ctx, s, env); err != nil {
				return value{}, fmt.Errorf("if: %w", err)
			}
		case Return:
			lw.at = "the return"
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
			v := value{kind: KInnerScalar, sh: boxedShape, w: outer.w}
			if !lw.dry {
				v.isc = core.LiftScalarClosure(ctx, outer.sc)
			}
			return v, nil
		}
		v := value{kind: KInnerBag, sh: outer.sh, w: outer.w}
		if !lw.dry {
			v.ibg = outer.sh.liftBag(ctx, outer.bag)
		}
		return v, nil
	case Const:
		v := value{kind: KInnerScalar, sh: boxedShape, w: x.V}
		if !lw.dry {
			v.isc = core.Pure(ctx, x.V)
		}
		return v, nil
	}
	sh, w, err := lw.infer(e, in)
	if err != nil {
		return value{}, err
	}
	v := value{kind: KInnerBag, sh: sh, w: w}
	switch e.(type) {
	case Count, Reduce, UnOp, BinOp:
		v = value{kind: KInnerScalar, sh: boxedShape, w: w}
	}
	if lw.dry {
		return v, nil
	}
	at := lw.site(e)
	switch x := e.(type) {
	case Map:
		v.ibg = in[0].sh.mapTo(sh).inner(in[0].ibg, x.F, at)
	case Filter:
		v.ibg = sh.filterInner(in[0].ibg, x.Pred)
	case FlatMap:
		v.ibg = in[0].sh.mapTo(sh).flatInner(in[0].ibg, x.F, at)
	case Distinct:
		v.ibg = sh.distinctInner(in[0].ibg)
	case Union:
		v.ibg = sh.unionInner(in[0].ibg, in[1].ibg)
	case ReduceByKey:
		v.ibg = sh.keyed().reduceByKeyInner(in[0].ibg, x.F, at)
	case Count:
		v.isc = core.UnaryScalarOp(in[0].sh.countInner(in[0].ibg), func(n int64) any { return n })
	case Reduce:
		v.isc = in[0].sh.reduceInner(in[0].ibg, x.F, at)
	case UnOp:
		v.isc = in[0].sh.unOp(in[0].isc, x.F)
	case BinOp:
		v.isc = in[0].sh.binOp(in[1].sh)(in[0].isc, in[1].isc, x.F)
	default:
		return value{}, fmt.Errorf("unsupported inner expression %T", e)
	}
	return v, nil
}

// dynState is the loop state of a lowered control-flow construct: the
// current values of the named loop variables.
type dynState []value

// handle returns where the inner value's representation is held and its
// shape's loop-state instance.
func (v *value) handle() (*any, core.StateOps[any]) {
	if v.kind == KInnerScalar {
		return &v.isc, v.sh.scalarState()
	}
	return &v.ibg, v.sh.state()
}

// dynOps builds StateOps for the loop state shaped like tmpl: each
// variable by its kind and shape.
func dynOps(tmpl dynState) core.StateOps[dynState] {
	apply := func(s dynState, f func(h *any, ops core.StateOps[any], i int)) dynState {
		out := make(dynState, len(s))
		for i, v := range s {
			h, ops := v.handle()
			f(h, ops, i)
			out[i] = v
		}
		return out
	}
	return core.StateOps[dynState]{
		Empty: func(ctx *core.Ctx) dynState {
			return apply(tmpl, func(h *any, ops core.StateOps[any], _ int) { *h = ops.Empty(ctx) })
		},
		Filter: func(s dynState, keep engine.Dataset[engine.Tag], sub *core.Ctx) dynState {
			return apply(s, func(h *any, ops core.StateOps[any], _ int) { *h = ops.Filter(*h, keep, sub) })
		},
		Union: func(a, b dynState) dynState {
			return apply(a, func(h *any, ops core.StateOps[any], i int) {
				o, _ := b[i].handle()
				*h = ops.Union(*h, *o)
			})
		},
		Cache: func(s dynState) dynState {
			return apply(s, func(h *any, ops core.StateOps[any], _ int) { *h = ops.Cache(*h) })
		},
	}
}

// loopState gathers the named loop variables from the environment.
func loopState(vars []string, env map[string]value) dynState {
	s := make(dynState, len(vars))
	for i, name := range vars {
		s[i] = env[name]
	}
	return s
}

// witnessed returns s with the witnesses of w: an iteration starts from
// the witnesses the dry pass's one iteration started from, and a loop's
// result carries an iteration's.
func witnessed(s, w dynState) dynState {
	out := make(dynState, len(s))
	for i, v := range s {
		v.w = w[i].w
		out[i] = v
	}
	return out
}

// sameShapes checks that two states give each variable one shape.
func sameShapes(what string, vars []string, a, b dynState) error {
	for i, name := range vars {
		if a[i].sh != b[i].sh {
			return unshaped("%s: %s is %v rows and %v rows", what, name, a[i].sh, b[i].sh)
		}
	}
	return nil
}

// runLets binds the loop variables to their current values in a copy of
// env and evaluates lets there: one iteration of a loop body, or one
// branch of an if.
func (lw *lowerer) runLets(c *core.Ctx, env map[string]value, vars []string, cur dynState, lets []LetS) (map[string]value, error) {
	inner := maps.Clone(env)
	bindVars(inner, vars, cur)
	at := lw.at
	for _, l := range lets {
		lw.at = "let " + l.Name + " in " + at
		v, err := lw.evalInner(c, l.E, inner)
		if err != nil {
			return nil, fmt.Errorf("let %s: %w", l.Name, err)
		}
		inner[l.Name] = v
	}
	lw.at = at
	return inner, nil
}

// bindVars sets the named loop variables to the values of s.
func bindVars(env map[string]value, vars []string, s dynState) {
	for i, name := range vars {
		env[name] = s[i]
	}
}

// lowerWhile lifts a while loop (Sec. 6.2 / Listing 4) via core.While.
// Lowering errors inside the loop body flow out through the body closure's
// error return. The dry pass runs the body once.
func (lw *lowerer) lowerWhile(ctx *core.Ctx, s While, env map[string]value) error {
	init := loopState(s.Vars, env)
	iterate := func(c *core.Ctx, cur dynState) (dynState, value, error) {
		inner, err := lw.runLets(c, env, s.Vars, witnessed(cur, init), s.Body)
		if err != nil {
			return nil, value{}, fmt.Errorf("loop body: %w", err)
		}
		condV, err := lw.evalInner(c, s.Cond, inner)
		if err != nil {
			return nil, value{}, fmt.Errorf("loop condition: %w", err)
		}
		return loopState(s.Vars, inner), condV, nil
	}
	if lw.dry {
		next, _, err := iterate(nil, init)
		if err == nil {
			err = sameShapes("loop variable", s.Vars, init, next)
		}
		if err == nil {
			bindVars(env, s.Vars, next)
		}
		return err
	}
	var last dynState
	out, err := core.While(ctx, init, dynOps(init), func(c *core.Ctx, cur dynState) (dynState, core.InnerScalar[bool], error) {
		next, condV, err := iterate(c, cur)
		if err != nil {
			return nil, core.InnerScalar[bool]{}, err
		}
		last = next
		return next, truth(condV), nil
	})
	if err != nil {
		return err
	}
	bindVars(env, s.Vars, witnessed(out, last))
	return nil
}

// lowerIf lifts an if statement (Sec. 6.2) via core.If. Branch-lowering
// errors flow out through the branch closures' error returns. The dry pass
// runs both branches on the variables' witnesses.
func (lw *lowerer) lowerIf(ctx *core.Ctx, s If, env map[string]value) error {
	condV, err := lw.evalInner(ctx, s.Cond, env)
	if err != nil {
		return err
	}
	init := loopState(s.Vars, env)
	var then dynState
	branch := func(body []LetS, isThen bool) func(*core.Ctx, dynState) (dynState, error) {
		return func(c *core.Ctx, cur dynState) (dynState, error) {
			inner, err := lw.runLets(c, env, s.Vars, witnessed(cur, init), body)
			if err != nil {
				return nil, fmt.Errorf("branch: %w", err)
			}
			out := loopState(s.Vars, inner)
			if isThen {
				then = out
			}
			return out, nil
		}
	}
	thenF, elseF := branch(s.Then, true), branch(s.Else, false)
	if lw.dry {
		if _, err := thenF(nil, init); err != nil {
			return err
		}
		els, err := elseF(nil, init)
		if err == nil {
			err = sameShapes("if branches", s.Vars, then, els)
		}
		if err == nil {
			bindVars(env, s.Vars, then)
		}
		return err
	}
	out, err := core.If(ctx, truth(condV), init, dynOps(init), thenF, elseF)
	if err != nil {
		return err
	}
	bindVars(env, s.Vars, witnessed(out, then))
	return nil
}

// truth is a condition's inner scalar as bools. A condition is a result of
// a scalar operation, so it is an InnerScalar[any].
func truth(c value) core.InnerScalar[bool] {
	return core.UnaryScalarOp(c.isc.(core.InnerScalar[any]), func(v any) bool { return v.(bool) })
}
