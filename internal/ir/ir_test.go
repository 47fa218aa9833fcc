package ir

import (
	"math"
	"sort"
	"strings"
	"testing"

	"matryoshka/internal/core"
	"matryoshka/internal/engine"
)

func testSession() *engine.Session {
	cfg := engine.DefaultConfig()
	cfg.Cluster.Machines = 4
	cfg.Cluster.CoresPerMachine = 2
	cfg.DefaultParallelism = 6
	s, err := engine.NewSession(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// bounceRateProgram is the paper's Listing 1, written in the IR: group the
// visits by day, and inside the map UDF compute counts per IP, the number
// of bounces, the number of distinct visitors, and their ratio.
func bounceRateProgram() *Program {
	udf := &Fn{
		Params: []string{"day", "group"},
		Body: []Stmt{
			// val countsPerIP = group.map((_, 1)).reduceByKey(_+_)
			LetS{"countsPerIP", ReduceByKey{
				In: Map{In: Ref{"group"}, F: func(ip any) any { return engine.KV[any, any](ip, int64(1)) }},
				F:  func(a, b any) any { return a.(int64) + b.(int64) },
			}},
			// val numBounces = countsPerIP.filter(_._2 == 1).count()
			LetS{"numBounces", Count{In: Filter{
				In:   Ref{"countsPerIP"},
				Pred: func(e any) bool { return e.(engine.Pair[any, any]).Val.(int64) == 1 },
			}}},
			// val numTotalVisitors = group.distinct().count()
			LetS{"numTotal", Count{In: Distinct{In: Ref{"group"}}}},
			// val bounceRate = numBounces / numTotalVisitors
			LetS{"rate", BinOp{A: Ref{"numBounces"}, B: Ref{"numTotal"},
				F: func(a, b any) any { return float64(a.(int64)) / float64(b.(int64)) }}},
			// return (day, bounceRate)
			Return{E: BinOp{A: Ref{"day"}, B: Ref{"rate"},
				F: func(d, r any) any { return engine.KV[any, any](d, r) }}},
		},
	}
	return &Program{
		Lets: []Let{
			{"visits", Source{"visits"}},
			{"visitsPerDay", GroupByKey{In: Ref{"visits"}}},
			{"rates", Map{In: Ref{"visitsPerDay"}, UDF: udf}},
		},
		Result: "rates",
	}
}

func visitsData() ([]any, map[int64]float64) {
	type visit struct {
		day, ip int64
	}
	raw := []visit{
		{1, 10}, {1, 10}, {1, 11}, {1, 12}, // day 1: ips 10(x2),11,12 -> 2/3 bounce
		{2, 20}, {2, 20}, {2, 20}, // day 2: ip 20 only -> 0 bounce
		{3, 30}, {3, 31}, // day 3: both bounce -> 1.0
	}
	data := make([]any, len(raw))
	for i, v := range raw {
		data[i] = engine.KV[any, any](v.day, v.ip)
	}
	want := map[int64]float64{1: 2.0 / 3, 2: 0, 3: 1}
	return data, want
}

func TestParsePhaseAnnotatesBounceRate(t *testing.T) {
	p := bounceRateProgram()
	ps, err := Parse(p)
	if err != nil {
		t.Fatal(err)
	}
	if ps.TopKinds["visits"] != KBag {
		t.Errorf("visits kind = %v", ps.TopKinds["visits"])
	}
	if ps.TopKinds["visitsPerDay"] != KNested {
		t.Errorf("visitsPerDay kind = %v, want NestedBag (Listing 2 line 2)", ps.TopKinds["visitsPerDay"])
	}
	if ps.TopKinds["rates"] != KBag {
		t.Errorf("rates kind = %v", ps.TopKinds["rates"])
	}
	udf := p.Lets[2].E.(Map).UDF
	info := ps.Fns[udf]
	if info == nil || !info.Lifted {
		t.Fatal("the bounce-rate UDF must be lifted (it contains bag operations)")
	}
	// Listing 2 line 5: (day: InnerScalar, group: InnerBag).
	if info.ParamKinds[0] != KInnerScalar || info.ParamKinds[1] != KInnerBag {
		t.Errorf("param kinds = %v", info.ParamKinds)
	}
	if info.VarKinds["countsPerIP"] != KInnerBag {
		t.Errorf("countsPerIP kind = %v, want InnerBag", info.VarKinds["countsPerIP"])
	}
	if info.VarKinds["numBounces"] != KInnerScalar || info.VarKinds["numTotal"] != KInnerScalar {
		t.Errorf("count kinds = %v / %v, want InnerScalar (Listing 2 lines 7-8)",
			info.VarKinds["numBounces"], info.VarKinds["numTotal"])
	}
	if info.ReturnKind != KInnerScalar {
		t.Errorf("return kind = %v", info.ReturnKind)
	}
	if len(info.Closures) != 0 {
		t.Errorf("unexpected closures: %v", info.Closures)
	}
}

func TestLowerBounceRateEndToEnd(t *testing.T) {
	p := bounceRateProgram()
	ps, err := Parse(p)
	if err != nil {
		t.Fatal(err)
	}
	data, want := visitsData()
	sess := testSession()
	res, err := Lower(ps, sess, map[string][]any{"visits": data}, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rows := res.([]any)
	if len(rows) != 3 {
		t.Fatalf("got %d rows: %v", len(rows), rows)
	}
	for _, r := range rows {
		kv := r.(engine.Pair[any, any])
		day := kv.Key.(int64)
		rate := kv.Val.(float64)
		if math.Abs(rate-want[day]) > 1e-12 {
			t.Errorf("day %d: rate %v, want %v", day, rate, want[day])
		}
	}
	// The whole nested program must lower to a constant handful of jobs.
	if jobs := sess.Stats().Jobs; jobs > 6 {
		t.Errorf("lowered program launched %d jobs, want a small constant", jobs)
	}
}

// TestLowerLoopProgram runs a nested program with a while loop inside the
// lifted UDF: per group, repeatedly halve the sum until it drops below a
// threshold, counting iterations (different groups iterate differently).
func TestLowerLoopProgram(t *testing.T) {
	udf := &Fn{
		Params: []string{"key", "group"},
		Body: []Stmt{
			LetS{"sum", Reduce{In: Ref{"group"},
				F: func(a, b any) any { return a.(int64) + b.(int64) }}},
			LetS{"iters", Const{int64(0)}},
			While{
				Vars: []string{"sum", "iters"},
				Body: []LetS{
					{"sum", UnOp{A: Ref{"sum"}, F: func(v any) any { return v.(int64) / 2 }}},
					{"iters", UnOp{A: Ref{"iters"}, F: func(v any) any { return v.(int64) + 1 }}},
				},
				Cond: UnOp{A: Ref{"sum"}, F: func(v any) any { return v.(int64) >= 10 }},
			},
			Return{E: BinOp{A: Ref{"key"}, B: Ref{"iters"},
				F: func(k, it any) any { return engine.KV[any, any](k, it) }}},
		},
	}
	p := &Program{
		Lets: []Let{
			{"data", Source{"data"}},
			{"groups", GroupByKey{In: Ref{"data"}}},
			{"res", Map{In: Ref{"groups"}, UDF: udf}},
		},
		Result: "res",
	}
	ps, err := Parse(p)
	if err != nil {
		t.Fatal(err)
	}
	info := ps.Fns[udf]
	if !info.Lifted || info.VarKinds["iters"] != KInnerScalar {
		t.Fatalf("loop program annotations wrong: %+v", info)
	}

	// Groups: a=100 (halve 4x: 50,25,12,6), b=10 (1x: 5), c=4 (1x do-while).
	var data []any
	for _, kv := range []struct {
		k string
		v int64
	}{{"a", 60}, {"a", 40}, {"b", 10}, {"c", 4}} {
		data = append(data, engine.KV[any, any](kv.k, kv.v))
	}
	sess := testSession()
	res, err := Lower(ps, sess, map[string][]any{"data": data}, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]int64{}
	for _, r := range res.([]any) {
		kv := r.(engine.Pair[any, any])
		got[kv.Key.(string)] = kv.Val.(int64)
	}
	want := map[string]int64{"a": 4, "b": 1, "c": 1}
	for k, w := range want {
		if got[k] != w {
			t.Errorf("group %s: iters = %d, want %d", k, got[k], w)
		}
	}
}

// TestLowerIfProgram exercises a lifted if statement: groups with even
// sums double, odd sums negate.
func TestLowerIfProgram(t *testing.T) {
	udf := &Fn{
		Params: []string{"key", "group"},
		Body: []Stmt{
			LetS{"sum", Reduce{In: Ref{"group"}, F: func(a, b any) any { return a.(int64) + b.(int64) }}},
			If{
				Vars: []string{"sum"},
				Cond: UnOp{A: Ref{"sum"}, F: func(v any) any { return v.(int64)%2 == 0 }},
				Then: []LetS{{"sum", UnOp{A: Ref{"sum"}, F: func(v any) any { return v.(int64) * 2 }}}},
				Else: []LetS{{"sum", UnOp{A: Ref{"sum"}, F: func(v any) any { return -v.(int64) }}}},
			},
			Return{E: BinOp{A: Ref{"key"}, B: Ref{"sum"},
				F: func(k, s any) any { return engine.KV[any, any](k, s) }}},
		},
	}
	p := &Program{
		Lets: []Let{
			{"data", Source{"data"}},
			{"groups", GroupByKey{In: Ref{"data"}}},
			{"res", Map{In: Ref{"groups"}, UDF: udf}},
		},
		Result: "res",
	}
	ps, err := Parse(p)
	if err != nil {
		t.Fatal(err)
	}
	var data []any
	for _, kv := range []struct {
		k string
		v int64
	}{{"even", 4}, {"even", 6}, {"odd", 3}} {
		data = append(data, engine.KV[any, any](kv.k, kv.v))
	}
	res, err := Lower(ps, testSession(), map[string][]any{"data": data}, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]int64{}
	for _, r := range res.([]any) {
		kv := r.(engine.Pair[any, any])
		got[kv.Key.(string)] = kv.Val.(int64)
	}
	if got["even"] != 20 || got["odd"] != -3 {
		t.Errorf("got %v, want even=20 odd=-3", got)
	}
}

// TestLowerScalarClosure checks the closure case of Sec. 5: the UDF
// references a driver-side scalar, which the parsing phase records and the
// lowering phase replicates per invocation.
func TestLowerScalarClosure(t *testing.T) {
	udf := &Fn{
		Params: []string{"key", "group"},
		Body: []Stmt{
			LetS{"n", Count{In: Ref{"group"}}},
			LetS{"scaled", BinOp{A: Ref{"n"}, B: Ref{"factor"},
				F: func(n, f any) any { return n.(int64) * f.(int64) }}},
			Return{E: BinOp{A: Ref{"key"}, B: Ref{"scaled"},
				F: func(k, s any) any { return engine.KV[any, any](k, s) }}},
		},
	}
	p := &Program{
		Lets: []Let{
			{"factor", Const{int64(100)}},
			{"data", Source{"data"}},
			{"groups", GroupByKey{In: Ref{"data"}}},
			{"res", Map{In: Ref{"groups"}, UDF: udf}},
		},
		Result: "res",
	}
	ps, err := Parse(p)
	if err != nil {
		t.Fatal(err)
	}
	if ps.Fns[udf].Closures["factor"] != KScalar {
		t.Fatalf("closures = %v, want factor:Scalar", ps.Fns[udf].Closures)
	}
	var data []any
	for _, kv := range []struct {
		k string
		v int64
	}{{"a", 1}, {"a", 2}, {"b", 9}} {
		data = append(data, engine.KV[any, any](kv.k, kv.v))
	}
	res, err := Lower(ps, testSession(), map[string][]any{"data": data}, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]int64{}
	for _, r := range res.([]any) {
		kv := r.(engine.Pair[any, any])
		got[kv.Key.(string)] = kv.Val.(int64)
	}
	if got["a"] != 200 || got["b"] != 100 {
		t.Errorf("got %v", got)
	}
}

// TestLowerHyperparamShape checks the flat-bag lifted map (Sec. 2.3): a
// bag of parameters whose UDF references the shared data bag as a closure.
func TestLowerHyperparamShape(t *testing.T) {
	udf := &Fn{
		Params: []string{"param"},
		Body: []Stmt{
			// Count data elements below the parameter.
			LetS{"below", Count{In: Filter{In: Ref{"data"},
				Pred: func(e any) bool { return true }}}},
			Return{E: BinOp{A: Ref{"param"}, B: Ref{"below"},
				F: func(p, n any) any { return engine.KV[any, any](p, n) }}},
		},
	}
	p := &Program{
		Lets: []Let{
			{"data", Source{"data"}},
			{"params", Source{"params"}},
			{"res", Map{In: Ref{"params"}, UDF: udf}},
		},
		Result: "res",
	}
	ps, err := Parse(p)
	if err != nil {
		t.Fatal(err)
	}
	info := ps.Fns[udf]
	if !info.Lifted {
		t.Fatal("hyperparameter UDF must be lifted (it references an outer bag)")
	}
	if info.Closures["data"] != KBag {
		t.Fatalf("closures = %v", info.Closures)
	}
	data := []any{int64(1), int64(2), int64(3)}
	params := []any{int64(10), int64(20)}
	res, err := Lower(ps, testSession(), map[string][]any{"data": data, "params": params}, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rows := res.([]any)
	if len(rows) != 2 {
		t.Fatalf("rows = %v", rows)
	}
	for _, r := range rows {
		kv := r.(engine.Pair[any, any])
		if kv.Val.(int64) != 3 {
			t.Errorf("param %v counted %v, want 3", kv.Key, kv.Val)
		}
	}
}

// --- parsing-phase error cases ---

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name string
		prog *Program
	}{
		{"unbound result", &Program{Result: "nope"}},
		{"duplicate binding", &Program{
			Lets:   []Let{{"x", Const{1}}, {"x", Const{2}}},
			Result: "x",
		}},
		{"groupByKey of scalar", &Program{
			Lets:   []Let{{"x", Const{1}}, {"g", GroupByKey{In: Ref{"x"}}}},
			Result: "g",
		}},
		{"map both F and UDF", &Program{
			Lets: []Let{
				{"d", Source{"d"}},
				{"m", Map{In: Ref{"d"}, F: func(a any) any { return a }, UDF: &Fn{}}},
			},
			Result: "m",
		}},
		{"plain-map UDF without bag ops", &Program{
			Lets: []Let{
				{"d", Source{"d"}},
				{"m", Map{In: Ref{"d"}, UDF: &Fn{Params: []string{"x"},
					Body: []Stmt{Return{E: Ref{"x"}}}}}},
			},
			Result: "m",
		}},
		{"nested map wrong arity", &Program{
			Lets: []Let{
				{"d", Source{"d"}},
				{"g", GroupByKey{In: Ref{"d"}}},
				{"m", Map{In: Ref{"g"}, UDF: &Fn{Params: []string{"only"},
					Body: []Stmt{Return{E: Ref{"only"}}}}}},
			},
			Result: "m",
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := Parse(c.prog); err == nil {
				t.Error("expected a parse error")
			}
		})
	}
}

func TestLowerMissingSource(t *testing.T) {
	p := &Program{Lets: []Let{{"d", Source{"d"}}}, Result: "d"}
	ps, err := Parse(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Lower(ps, testSession(), nil, core.Options{}); err == nil {
		t.Error("expected missing-source error")
	}
}

// TestFlatOpsLowering covers the non-lifted top-level operators.
func TestFlatOpsLowering(t *testing.T) {
	p := &Program{
		Lets: []Let{
			{"d", Source{"d"}},
			{"doubled", Map{In: Ref{"d"}, F: func(v any) any { return v.(int) * 2 }}},
			{"kept", Filter{In: Ref{"doubled"}, Pred: func(v any) bool { return v.(int) > 2 }}},
			{"expanded", FlatMap{In: Ref{"kept"}, F: func(v any) []any { return []any{v, v} }}},
			{"uniq", Distinct{In: Ref{"expanded"}}},
			{"n", Count{In: Ref{"uniq"}}},
		},
		Result: "n",
	}
	ps, err := Parse(p)
	if err != nil {
		t.Fatal(err)
	}
	if ps.ResultKind != KScalar {
		t.Fatalf("result kind = %v", ps.ResultKind)
	}
	res, err := Lower(ps, testSession(), map[string][]any{"d": {1, 2, 3}}, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// doubled: 2,4,6; kept: 4,6; expanded: 4,4,6,6; uniq: 4,6 -> 2.
	if res.(int64) != 2 {
		t.Errorf("res = %v, want 2", res)
	}
}

// sortAny is a test helper keeping results deterministic.
func sortAny(vs []any, less func(a, b any) bool) {
	sort.Slice(vs, func(i, j int) bool { return less(vs[i], vs[j]) })
}

// TestRenderListing2 checks that the parsing phase's rendering of the
// bounce-rate program matches the structure of the paper's Listing 2: the
// groupByKeyIntoNestedBag, the mapWithLiftedUDF with InnerScalar/InnerBag
// parameters, and binaryScalarOp for the division.
func TestRenderListing2(t *testing.T) {
	ps, err := Parse(bounceRateProgram())
	if err != nil {
		t.Fatal(err)
	}
	out := ps.Render()
	for _, want := range []string{
		"visitsPerDay: NestedBag = visits.groupByKeyIntoNestedBag()",
		"mapWithLiftedUDF { (day: InnerScalar, group: InnerBag) =>",
		"val countsPerIP: InnerBag = group.map(f).reduceByKey(f)",
		"val numBounces: InnerScalar",
		"binaryScalarOp(numBounces, numTotal)(f)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered plan missing %q:\n%s", want, out)
		}
	}
}

// TestRenderClosureAnnotation checks closures appear in the rendering.
func TestRenderClosureAnnotation(t *testing.T) {
	udf := &Fn{
		Params: []string{"key", "group"},
		Body: []Stmt{
			LetS{"n", Count{In: Ref{"group"}}},
			LetS{"s", BinOp{A: Ref{"n"}, B: Ref{"factor"},
				F: func(a, b any) any { return a.(int64) * b.(int64) }}},
			Return{E: Ref{"s"}},
		},
	}
	p := &Program{
		Lets: []Let{
			{"factor", Const{int64(3)}},
			{"d", Source{"d"}},
			{"g", GroupByKey{In: Ref{"d"}}},
			{"r", Map{In: Ref{"g"}, UDF: udf}},
		},
		Result: "r",
	}
	ps, err := Parse(p)
	if err != nil {
		t.Fatal(err)
	}
	out := ps.Render()
	if !strings.Contains(out, "closures: factor: Scalar") {
		t.Errorf("closure annotation missing:\n%s", out)
	}
	if !strings.Contains(out, "factor/*closure:Scalar*/") {
		t.Errorf("inline closure marker missing:\n%s", out)
	}
}

// TestLowerNestedEmptySource lowers the bounce-rate program over an empty
// source: zero groups, zero rows, no errors.
func TestLowerNestedEmptySource(t *testing.T) {
	ps, err := Parse(bounceRateProgram())
	if err != nil {
		t.Fatal(err)
	}
	res, err := Lower(ps, testSession(), map[string][]any{"visits": {}}, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rows := res.([]any); len(rows) != 0 {
		t.Fatalf("rows = %v", rows)
	}
}

// TestLowerSingleGroup exercises the degenerate one-group case.
func TestLowerSingleGroup(t *testing.T) {
	ps, err := Parse(bounceRateProgram())
	if err != nil {
		t.Fatal(err)
	}
	data := []any{
		engine.KV[any, any](int64(9), int64(1)),
		engine.KV[any, any](int64(9), int64(1)),
		engine.KV[any, any](int64(9), int64(2)),
	}
	res, err := Lower(ps, testSession(), map[string][]any{"visits": data}, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rows := res.([]any)
	if len(rows) != 1 {
		t.Fatalf("rows = %v", rows)
	}
	kv := rows[0].(engine.Pair[any, any])
	if kv.Val.(float64) != 0.5 {
		t.Fatalf("rate = %v, want 0.5", kv.Val)
	}
}

// TestLowerErrorPaths covers lowering-time failures surfaced to callers.
func TestLowerErrorPaths(t *testing.T) {
	// A nested result cannot be returned from a program.
	p := &Program{
		Lets: []Let{
			{"d", Source{"d"}},
			{"g", GroupByKey{In: Ref{"d"}}},
		},
		Result: "g",
	}
	ps, err := Parse(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Lower(ps, testSession(), map[string][]any{"d": {}}, core.Options{}); err == nil {
		t.Error("returning a NestedBag should fail at lowering")
	}
}

func TestParseRejectsControlFlowErrors(t *testing.T) {
	// Loop over an unbound variable.
	udf := &Fn{
		Params: []string{"key", "group"},
		Body: []Stmt{
			While{Vars: []string{"nope"}, Body: nil, Cond: Const{true}},
			Return{E: Count{In: Ref{"group"}}},
		},
	}
	p := &Program{
		Lets: []Let{
			{"d", Source{"d"}},
			{"g", GroupByKey{In: Ref{"d"}}},
			{"r", Map{In: Ref{"g"}, UDF: udf}},
		},
		Result: "r",
	}
	if _, err := Parse(p); err == nil {
		t.Error("loop over unbound variable must be a parse error")
	}

	// Loop condition of bag kind.
	udf2 := &Fn{
		Params: []string{"key", "group"},
		Body: []Stmt{
			LetS{"b", Filter{In: Ref{"group"}, Pred: func(any) bool { return true }}},
			While{Vars: []string{"b"}, Body: []LetS{{"b", Ref{"b"}}}, Cond: Ref{"b"}},
			Return{E: Count{In: Ref{"b"}}},
		},
	}
	p2 := &Program{
		Lets: []Let{
			{"d", Source{"d"}},
			{"g", GroupByKey{In: Ref{"d"}}},
			{"r", Map{In: Ref{"g"}, UDF: udf2}},
		},
		Result: "r",
	}
	if _, err := Parse(p2); err == nil {
		t.Error("bag-kinded loop condition must be a parse error")
	}

	// Kind change across loop iterations.
	udf3 := &Fn{
		Params: []string{"key", "group"},
		Body: []Stmt{
			LetS{"x", Count{In: Ref{"group"}}},
			While{Vars: []string{"x"},
				Body: []LetS{{"x", Distinct{In: Ref{"group"}}}},
				Cond: UnOp{A: Ref{"x"}, F: func(v any) any { return false }}},
			Return{E: Ref{"x"}},
		},
	}
	p3 := &Program{
		Lets: []Let{
			{"d", Source{"d"}},
			{"g", GroupByKey{In: Ref{"d"}}},
			{"r", Map{In: Ref{"g"}, UDF: udf3}},
		},
		Result: "r",
	}
	if _, err := Parse(p3); err == nil {
		t.Error("kind-changing loop variable must be a parse error")
	}
}

func TestParseRejectsDeeperNestingInIR(t *testing.T) {
	inner := &Fn{Params: []string{"x"}, Body: []Stmt{Return{E: Ref{"x"}}}}
	udf := &Fn{
		Params: []string{"key", "group"},
		Body: []Stmt{
			Return{E: Count{In: Map{In: Ref{"group"}, UDF: inner}}},
		},
	}
	p := &Program{
		Lets: []Let{
			{"d", Source{"d"}},
			{"g", GroupByKey{In: Ref{"d"}}},
			{"r", Map{In: Ref{"g"}, UDF: udf}},
		},
		Result: "r",
	}
	if _, err := Parse(p); err == nil {
		t.Error("nested lifted UDFs inside the IR front end must be rejected with guidance")
	}
}

// TestMoreFlatOps covers the remaining top-level operators.
func TestMoreFlatOps(t *testing.T) {
	p := &Program{
		Lets: []Let{
			{"a", Source{"a"}},
			{"b", Source{"b"}},
			{"u", Union{A: Ref{"a"}, B: Ref{"b"}}},
			{"pairs", Map{In: Ref{"u"}, F: func(v any) any {
				return engine.KV[any, any](v.(int)%2, v)
			}}},
			{"red", ReduceByKey{In: Ref{"pairs"}, F: func(x, y any) any {
				return x.(int) + y.(int)
			}}},
			{"total", Reduce{In: Map{In: Ref{"red"}, F: func(e any) any {
				return e.(engine.Pair[any, any]).Val
			}}, F: func(x, y any) any { return x.(int) + y.(int) }}},
			{"scaled", UnOp{A: Ref{"total"}, F: func(v any) any { return v.(int) * 10 }}},
			{"offset", Const{5}},
			{"final", BinOp{A: Ref{"scaled"}, B: Ref{"offset"},
				F: func(a, b any) any { return a.(int) + b.(int) }}},
		},
		Result: "final",
	}
	ps, err := Parse(p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Lower(ps, testSession(), map[string][]any{
		"a": {1, 2, 3},
		"b": {4, 5},
	}, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// sum(1..5) = 15; *10 = 150; +5 = 155.
	if res.(int) != 155 {
		t.Fatalf("res = %v, want 155", res)
	}
}

// TestKindStrings pins the Kind printer used in diagnostics.
func TestKindStrings(t *testing.T) {
	for k, want := range map[Kind]string{
		KScalar: "Scalar", KBag: "Bag", KNested: "NestedBag",
		KInnerScalar: "InnerScalar", KInnerBag: "InnerBag",
	} {
		if k.String() != want {
			t.Errorf("%d = %q", k, k.String())
		}
	}
	if Kind(99).String() != "?" {
		t.Error("unknown kind should print ?")
	}
}

// TestParseRejectsUnboundRefInLoopBody: a loop body that reads a name
// bound nowhere is a parse error.
func TestParseRejectsUnboundRefInLoopBody(t *testing.T) {
	udf := &Fn{
		Params: []string{"key", "group"},
		Body: []Stmt{
			LetS{"x", Count{In: Ref{"group"}}},
			While{
				Vars: []string{"x"},
				Body: []LetS{{"x", UnOp{A: Ref{"missing"},
					F: func(v any) any { return v }}}},
				Cond: UnOp{A: Ref{"x"}, F: func(v any) any { return false }},
			},
			Return{E: Ref{"x"}},
		},
	}
	p := &Program{
		Lets: []Let{
			{"d", Source{"d"}},
			{"g", GroupByKey{In: Ref{"d"}}},
			{"r", Map{In: Ref{"g"}, UDF: udf}},
		},
		Result: "r",
	}
	if _, err := Parse(p); err == nil {
		t.Fatal("unbound loop-body ref should fail parsing")
	}
}

// TestParseRejectsInnerMapWithoutFunction: a map inside a lifted UDF needs
// exactly one of F or UDF, as at top level.
func TestParseRejectsInnerMapWithoutFunction(t *testing.T) {
	udf := &Fn{
		Params: []string{"key", "group"},
		Body:   []Stmt{Return{E: Count{In: Map{In: Ref{"group"}}}}},
	}
	p := &Program{
		Lets: []Let{
			{"d", Source{"d"}},
			{"g", GroupByKey{In: Ref{"d"}}},
			{"r", Map{In: Ref{"g"}, UDF: udf}},
		},
		Result: "r",
	}
	if _, err := Parse(p); err == nil || !strings.Contains(err.Error(), "exactly one of F or UDF") {
		t.Errorf("Parse error = %v, want one naming the missing function", err)
	}
}
