// Package ir is Matryoshka's nested-program front end: the analogue of the
// Emma embedding of Fig. 2. Go has no macros, so the user's nested-parallel
// program (the paper's Listing 1) is represented explicitly as an abstract
// syntax tree; the *parsing phase* (Parse, parse.go) rewrites it into an
// explicitly nested-parallel program over the nesting primitives (Listing
// 2): it infers the nesting kind of every variable, decides which UDFs must
// be lifted, extracts closures, and leaves control flow as higher-order
// constructs. The *lowering phase* (Lower, lower.go) then executes the
// rewritten program, resolving each primitive operation to flat engine
// operators through internal/core.
//
// Leaf functions (element-level arithmetic, predicates, key extractors)
// are ordinary Go funcs over `any` values — the paper's macros likewise
// treat scalar UDF bodies as opaque. Keyed data uses engine.Pair[any, any].
//
// The lowering runs each bag on a typed instantiation of its operators,
// picked from a closed table of element shapes (shape.go): int64, float64,
// and engine.Pair of an int64 key and one of them. Lower finds every bag's
// shape before it runs anything: a source's from a scan of all its
// elements, and every later bag's from the dynamic type its UDF returns on
// one real element carried from the source (lower.go). A UDF still sees its rows
// boxed, a pair as an engine.Pair[any, any], and a bag result comes back
// in that form. A program with an empty or mixed source, a UDF result
// outside the table, or a loop variable that changes shape lowers boxed,
// every bag a Dataset[any], and says why in an "ir-shape" decision.
//
// The contract this rests on is one type per node: a UDF returns rows of
// one dynamic type (for a pair, one key type and one value type) on every
// row, the type it returned on the row the lowering tried it on. A row of
// another type fails the job, and Lower returns an error naming the node
// and both types.
package ir

// Program is a top-level driver program: a sequence of let bindings and
// the name of the variable holding the result.
type Program struct {
	Lets   []Let
	Result string
}

// Let binds the value of an expression to a name.
type Let struct {
	Name string
	E    Expr
}

// Expr is a program expression. The concrete types below cover the
// standard bag operations of Sec. 4, scalar operations, and references.
type Expr interface{ isExpr() }

// Ref references a let-bound variable or UDF parameter.
type Ref struct{ Name string }

// Const is a literal driver-side scalar.
type Const struct{ V any }

// Source names an input bag bound at lowering time (readFile in the
// paper's listings).
type Source struct{ Name string }

// Map applies a UDF to every element. Exactly one of F (an opaque
// element-level function) or UDF (a nested program, possibly containing
// bag operations — the case the parsing phase lifts) must be set.
type Map struct {
	In  Expr
	F   func(any) any
	UDF *Fn
}

// Filter keeps elements satisfying Pred.
type Filter struct {
	In   Expr
	Pred func(any) bool
}

// FlatMap applies F and concatenates the results.
type FlatMap struct {
	In Expr
	F  func(any) []any
}

// GroupByKey groups a bag of engine.Pair[any, any] by key. Its result is a
// *nested* bag — the operation current dataflow engines cannot express
// (Sec. 2.1) and the parsing phase turns into groupByKeyIntoNestedBag.
type GroupByKey struct{ In Expr }

// ReduceByKey merges the values of each key with F.
type ReduceByKey struct {
	In Expr
	F  func(any, any) any
}

// Distinct removes duplicate elements.
type Distinct struct{ In Expr }

// Count yields the number of elements (a scalar).
type Count struct{ In Expr }

// Reduce folds all elements with F (a scalar; undefined on empty bags).
type Reduce struct {
	In Expr
	F  func(any, any) any
}

// Union concatenates two bags.
type Union struct{ A, B Expr }

// UnOp applies an opaque unary scalar function.
type UnOp struct {
	A Expr
	F func(any) any
}

// BinOp applies an opaque binary scalar function.
type BinOp struct {
	A, B Expr
	F    func(any, any) any
}

func (Ref) isExpr()         {}
func (Const) isExpr()       {}
func (Source) isExpr()      {}
func (Map) isExpr()         {}
func (Filter) isExpr()      {}
func (FlatMap) isExpr()     {}
func (GroupByKey) isExpr()  {}
func (ReduceByKey) isExpr() {}
func (Distinct) isExpr()    {}
func (Count) isExpr()       {}
func (Reduce) isExpr()      {}
func (Union) isExpr()       {}
func (UnOp) isExpr()        {}
func (BinOp) isExpr()       {}

// operands lists an expression's sub-expressions in evaluation order: In,
// or A then B. It is the one place that states which children an
// expression has; kind inference, lowering and rendering all walk it.
// (desugar.go rebuilds each expression type with its own fields.)
func operands(e Expr) []Expr {
	switch x := e.(type) {
	case Map:
		return []Expr{x.In}
	case Filter:
		return []Expr{x.In}
	case FlatMap:
		return []Expr{x.In}
	case GroupByKey:
		return []Expr{x.In}
	case ReduceByKey:
		return []Expr{x.In}
	case Distinct:
		return []Expr{x.In}
	case Count:
		return []Expr{x.In}
	case Reduce:
		return []Expr{x.In}
	case Union:
		return []Expr{x.A, x.B}
	case UnOp:
		return []Expr{x.A}
	case BinOp:
		return []Expr{x.A, x.B}
	}
	return nil
}

// Fn is a UDF with named parameters and a statement body. A map over a
// nested bag receives two parameters (the outer component and the inner
// bag, cf. Listing 1 line 5); a map over a flat bag receives one.
type Fn struct {
	Params []string
	Body   []Stmt
}

// Stmt is a UDF body statement.
type Stmt interface{ isStmt() }

// LetS binds an expression inside a UDF.
type LetS struct {
	Name string
	E    Expr
}

// While is an imperative do-while loop inside a UDF (Sec. 6): Vars are the
// loop variables (already bound), Body recomputes them each iteration, and
// Cond (over the recomputed variables) decides whether to continue. The
// parsing phase keeps it as a higher-order construct; the lowering phase
// lifts it (Listing 4).
type While struct {
	Vars []string
	Body []LetS
	Cond Expr
}

// If is a conditional inside a UDF: both branches bind the same Vars, and
// the condition selects per invocation which binding takes effect.
type If struct {
	Vars []string
	Cond Expr
	Then []LetS
	Else []LetS
}

// Return ends the UDF with a value.
type Return struct{ E Expr }

func (LetS) isStmt()   {}
func (While) isStmt()  {}
func (If) isStmt()     {}
func (Return) isStmt() {}
