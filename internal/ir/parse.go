package ir

import (
	"fmt"
	"maps"
	"slices"
)

// Kind is the nesting kind the parsing phase assigns to every variable and
// expression — the information that decides which nesting primitive
// represents it after rewriting (Sec. 4.1.1).
type Kind int

const (
	// KScalar is a driver-side scalar outside any lifted UDF.
	KScalar Kind = iota
	// KBag is a flat bag (a plain engine dataset).
	KBag
	// KNested is a nested bag outside a UDF -> NestedBag primitive.
	KNested
	// KInnerScalar is a scalar inside a lifted UDF -> InnerScalar.
	KInnerScalar
	// KInnerBag is a bag inside a lifted UDF -> InnerBag.
	KInnerBag
)

func (k Kind) String() string {
	switch k {
	case KScalar:
		return "Scalar"
	case KBag:
		return "Bag"
	case KNested:
		return "NestedBag"
	case KInnerScalar:
		return "InnerScalar"
	case KInnerBag:
		return "InnerBag"
	}
	return "?"
}

// FnInfo is the parsing phase's annotation of one UDF.
type FnInfo struct {
	// Lifted reports whether the UDF contains bag operations and must be
	// lifted (its map becomes mapWithLiftedUDF, Sec. 4.2).
	Lifted bool
	// ParamKinds are the kinds of the parameters inside the (possibly
	// lifted) UDF.
	ParamKinds []Kind
	// VarKinds are the kinds of the let-bound variables in the body.
	VarKinds map[string]Kind
	// Closures lists free variables the body references from the
	// enclosing scope, with their outer kinds (Sec. 5: these must be
	// made explicit so the lowering phase can lift them).
	Closures map[string]Kind
	// ReturnKind is the kind of the UDF's result inside the UDF.
	ReturnKind Kind
}

// Parsed is the output of the parsing phase: the original program plus the
// primitive-level annotations — a logical plan in the paper's sense, with
// concrete operator implementations still open (Sec. 3).
type Parsed struct {
	Prog *Program
	// TopKinds maps each top-level variable to its kind.
	TopKinds map[string]Kind
	// Fns maps each *Fn in the program to its annotations.
	Fns map[*Fn]*FnInfo
	// ResultKind is the kind of the program result.
	ResultKind Kind
}

// Parse runs the parsing phase (Sec. 4.1.1) over a nested program: it
// infers nesting kinds, decides which UDFs to lift, records closures, and
// validates the structural restrictions of Sec. 7 (bags may not appear in
// aggregation UDFs or inside other data structures; nesting at most two
// levels through this front end — deeper programs use internal/core
// directly).
func Parse(p *Program) (*Parsed, error) {
	p = desugar(p) // the preparation step of Sec. 4.6
	ps := &Parsed{
		Prog:     p,
		TopKinds: map[string]Kind{},
		Fns:      map[*Fn]*FnInfo{},
	}
	for _, l := range p.Lets {
		k, err := ps.infer(l.E, ps.TopKinds, nil)
		if err != nil {
			return nil, fmt.Errorf("ir: let %s: %w", l.Name, err)
		}
		if _, dup := ps.TopKinds[l.Name]; dup {
			return nil, fmt.Errorf("ir: duplicate binding %s", l.Name)
		}
		ps.TopKinds[l.Name] = k
	}
	rk, ok := ps.TopKinds[p.Result]
	if !ok {
		return nil, fmt.Errorf("ir: result %s is not bound", p.Result)
	}
	ps.ResultKind = rk
	return ps, nil
}

// infer assigns a kind to an expression at either nesting level. At top
// level (info == nil) env is ps.TopKinds, bags are Bag and scalars Scalar.
// Inside a lifted UDF (info is its annotation) bags are InnerBag and
// scalars InnerScalar, and a free variable is recorded as a closure over
// the driver scope (Sec. 5). Only references, constants, sources,
// groupByKey and UDF maps differ by level; every other operation takes
// operands of one kind and yields one kind at both.
func (ps *Parsed) infer(e Expr, env map[string]Kind, info *FnInfo) (Kind, error) {
	bag, scalar := KBag, KScalar
	if info != nil {
		bag, scalar = KInnerBag, KInnerScalar
	}
	var kinds []Kind
	for _, in := range operands(e) {
		k, err := ps.infer(in, env, info)
		if err != nil {
			return 0, err
		}
		kinds = append(kinds, k)
	}
	want, result := bag, bag
	switch x := e.(type) {
	case Ref:
		if k, ok := env[x.Name]; ok {
			return k, nil
		}
		if k, ok := ps.TopKinds[x.Name]; ok && info != nil {
			info.Closures[x.Name] = k
			switch k {
			case KScalar:
				return KInnerScalar, nil // lifted by replication (Sec. 5.2)
			case KBag:
				return KInnerBag, nil // lifted bag closure (Sec. 5.2)
			}
			return 0, fmt.Errorf("closure over %v is not supported", k)
		}
		return 0, fmt.Errorf("unbound variable %s", x.Name)
	case Const:
		return scalar, nil // inside a UDF, constants replicate per invocation
	case Source:
		if info != nil {
			return 0, fmt.Errorf("sources must be bound at top level")
		}
		return KBag, nil
	case GroupByKey:
		if info != nil {
			return 0, fmt.Errorf("groupByKey inside a lifted UDF needs a third nesting level; use internal/core directly")
		}
		// The nested output becomes a NestedBag primitive (Sec. 4.5).
		result = KNested
	case Map:
		if (x.F == nil) == (x.UDF == nil) {
			return 0, fmt.Errorf("map needs exactly one of F or UDF")
		}
		if x.UDF != nil {
			if info != nil {
				return 0, fmt.Errorf("nested lifted UDFs are not supported by the IR front end (use internal/core for >2 levels)")
			}
			return ps.parseUDFMap(kinds[0], x.UDF)
		}
	case Filter, FlatMap, Distinct, ReduceByKey, Union:
	case Count, Reduce:
		result = scalar
	case UnOp, BinOp:
		want, result = scalar, scalar
	default:
		return 0, fmt.Errorf("unsupported expression %T", e)
	}
	for _, k := range kinds {
		if k != want {
			return 0, fmt.Errorf("%T over %v, want %v", e, k, want)
		}
	}
	return result, nil
}

// parseUDFMap analyses a map whose UDF is a program: it decides whether
// the UDF must be lifted and annotates its body.
func (ps *Parsed) parseUDFMap(in Kind, fn *Fn) (Kind, error) {
	info := &FnInfo{
		VarKinds: map[string]Kind{},
		Closures: map[string]Kind{},
	}
	switch in {
	case KNested:
		if len(fn.Params) != 2 {
			return 0, fmt.Errorf("map over a nested bag takes (outer, group) parameters, got %d", len(fn.Params))
		}
		// Inside the lifted UDF the outer component is an InnerScalar
		// and the group an InnerBag (Listing 2 line 5).
		info.Lifted = true
		info.ParamKinds = []Kind{KInnerScalar, KInnerBag}
	case KBag:
		if len(fn.Params) != 1 {
			return 0, fmt.Errorf("map over a flat bag takes 1 parameter, got %d", len(fn.Params))
		}
		// Lifted iff the body contains bag operations (hyperparameter
		// pattern, Sec. 2.3): the element becomes an InnerScalar.
		info.Lifted = bodyHasBagOps(fn.Body, ps.TopKinds)
		if info.Lifted {
			info.ParamKinds = []Kind{KInnerScalar}
		} else {
			return 0, fmt.Errorf("map UDF without bag operations: use an opaque F instead")
		}
	default:
		return 0, fmt.Errorf("map over %v", in)
	}

	env := map[string]Kind{}
	for i, p := range fn.Params {
		env[p] = info.ParamKinds[i]
	}
	retKind, err := ps.parseBody(fn.Body, env, info)
	if err != nil {
		return 0, err
	}
	info.ReturnKind = retKind
	ps.Fns[fn] = info

	// The lifted UDF's InnerScalar result reads back as a flat bag of
	// per-invocation values at the top level.
	switch retKind {
	case KInnerScalar, KInnerBag:
		return KBag, nil
	default:
		return 0, fmt.Errorf("lifted UDF must return an inner value, got %v", retKind)
	}
}

// parseBody annotates the statements of a lifted UDF.
func (ps *Parsed) parseBody(body []Stmt, env map[string]Kind, info *FnInfo) (Kind, error) {
	var retKind Kind
	haveReturn := false
	for _, st := range body {
		switch s := st.(type) {
		case LetS:
			k, err := ps.infer(s.E, env, info)
			if err != nil {
				return 0, fmt.Errorf("let %s: %w", s.Name, err)
			}
			env[s.Name] = k
			info.VarKinds[s.Name] = k
		case While:
			if err := ps.parseLoop(s.Vars, s.Body, s.Cond, env, info); err != nil {
				return 0, fmt.Errorf("while: %w", err)
			}
		case If:
			if err := ps.parseLoop(s.Vars, slices.Concat(s.Then, s.Else), s.Cond, env, info); err != nil {
				return 0, fmt.Errorf("if: %w", err)
			}
		case Return:
			k, err := ps.infer(s.E, env, info)
			if err != nil {
				return 0, fmt.Errorf("return: %w", err)
			}
			retKind, haveReturn = k, true
		default:
			return 0, fmt.Errorf("unsupported statement %T", st)
		}
	}
	if !haveReturn {
		return 0, fmt.Errorf("UDF has no return")
	}
	return retKind, nil
}

// parseLoop validates a control-flow construct: loop variables must exist,
// the body may only rebind them (and temporaries), and the condition must
// be an inner boolean scalar.
func (ps *Parsed) parseLoop(vars []string, body []LetS, cond Expr, env map[string]Kind, info *FnInfo) error {
	for _, v := range vars {
		if _, ok := env[v]; !ok {
			return fmt.Errorf("loop variable %s is not bound before the loop", v)
		}
	}
	// Loop body sees the current loop variables; temporaries are scoped
	// to the body.
	inner := maps.Clone(env)
	for _, s := range body {
		k, err := ps.infer(s.E, inner, info)
		if err != nil {
			return fmt.Errorf("let %s: %w", s.Name, err)
		}
		inner[s.Name] = k
		info.VarKinds[s.Name] = k
	}
	for _, v := range vars {
		if env[v] != inner[v] {
			return fmt.Errorf("loop variable %s changes kind from %v to %v", v, env[v], inner[v])
		}
	}
	ck, err := ps.infer(cond, inner, info)
	if err != nil {
		return fmt.Errorf("condition: %w", err)
	}
	if ck != KInnerScalar {
		return fmt.Errorf("condition must be an inner scalar, got %v", ck)
	}
	return nil
}

// bodyHasBagOps reports whether a UDF body contains bag operations —
// the criterion for lifting (Sec. 4.2). References to outer bags count.
func bodyHasBagOps(body []Stmt, top map[string]Kind) bool {
	var exprHas func(e Expr) bool
	exprHas = func(e Expr) bool {
		switch x := e.(type) {
		case Map, Filter, FlatMap, Distinct, ReduceByKey, Union, Count, Reduce, GroupByKey:
			return true
		case Ref:
			return top[x.Name] == KBag || top[x.Name] == KNested
		}
		return slices.ContainsFunc(operands(e), exprHas)
	}
	for _, st := range body {
		var es []Expr
		switch s := st.(type) {
		case LetS:
			es = []Expr{s.E}
		case Return:
			es = []Expr{s.E}
		case While:
			es = append(letExprs(s.Body), s.Cond)
		case If:
			es = append(letExprs(slices.Concat(s.Then, s.Else)), s.Cond)
		}
		if slices.ContainsFunc(es, exprHas) {
			return true
		}
	}
	return false
}

// letExprs lists the right-hand sides of a block of lets.
func letExprs(ls []LetS) []Expr {
	es := make([]Expr, len(ls))
	for i, l := range ls {
		es[i] = l.E
	}
	return es
}
