package ir

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"matryoshka/internal/core"
	"matryoshka/internal/engine"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenProgram is one program of TestLoweredProgramsGolden with its input.
type goldenProgram struct {
	name    string
	prog    *Program
	sources map[string][]any
}

// kvInputs builds a source of engine.Pair[any, any] from alternating keys
// and values.
func kvInputs(kvs ...any) []any {
	var data []any
	for i := 0; i < len(kvs); i += 2 {
		data = append(data, engine.KV[any, any](kvs[i], kvs[i+1]))
	}
	return data
}

// groupedProgram maps a lifted UDF over the groups of source "data".
func groupedProgram(udf *Fn, extra ...Let) *Program {
	lets := append(extra,
		Let{"data", Source{"data"}},
		Let{"groups", GroupByKey{In: Ref{"data"}}},
		Let{"res", Map{In: Ref{"groups"}, UDF: udf}})
	return &Program{Lets: lets, Result: "res"}
}

func sumF(a, b any) any { return a.(int64) + b.(int64) }

func keyed(k, v any) any { return engine.KV[any, any](k, v) }

// goldenPrograms are the bounce-rate program, a loop, an if and a closure
// program, a lifted map over a flat bag, every top-level operation with a
// scalar result, and random programs of seeds 0–39 with their generated
// inputs.
func goldenPrograms() []goldenProgram {
	visits, _ := visitsData()
	progs := []goldenProgram{
		{"bounce-rate", bounceRateProgram(), map[string][]any{"visits": visits}},
		{"loop", groupedProgram(&Fn{
			Params: []string{"key", "group"},
			Body: []Stmt{
				LetS{"sum", Reduce{In: Ref{"group"}, F: sumF}},
				LetS{"iters", Const{int64(0)}},
				While{
					Vars: []string{"sum", "iters"},
					Body: []LetS{
						{"sum", UnOp{A: Ref{"sum"}, F: func(v any) any { return v.(int64) / 2 }}},
						{"iters", UnOp{A: Ref{"iters"}, F: func(v any) any { return v.(int64) + 1 }}},
					},
					Cond: UnOp{A: Ref{"sum"}, F: func(v any) any { return v.(int64) >= 10 }},
				},
				Return{E: BinOp{A: Ref{"key"}, B: Ref{"iters"}, F: keyed}},
			},
		}), map[string][]any{"data": kvInputs("a", int64(60), "a", int64(40), "b", int64(10), "c", int64(4))}},
		{"if", groupedProgram(&Fn{
			Params: []string{"key", "group"},
			Body: []Stmt{
				LetS{"sum", Reduce{In: Ref{"group"}, F: sumF}},
				If{
					Vars: []string{"sum"},
					Cond: UnOp{A: Ref{"sum"}, F: func(v any) any { return v.(int64)%2 == 0 }},
					Then: []LetS{{"sum", UnOp{A: Ref{"sum"}, F: func(v any) any { return v.(int64) * 2 }}}},
					Else: []LetS{{"sum", UnOp{A: Ref{"sum"}, F: func(v any) any { return -v.(int64) }}}},
				},
				Return{E: BinOp{A: Ref{"key"}, B: Ref{"sum"}, F: keyed}},
			},
		}), map[string][]any{"data": kvInputs("even", int64(4), "even", int64(6), "odd", int64(3))}},
		{"closure", groupedProgram(&Fn{
			Params: []string{"key", "group"},
			Body: []Stmt{
				LetS{"n", Count{In: Ref{"group"}}},
				LetS{"scaled", BinOp{A: Ref{"n"}, B: Ref{"factor"},
					F: func(n, f any) any { return n.(int64) * f.(int64) }}},
				Return{E: BinOp{A: Ref{"key"}, B: Ref{"scaled"}, F: keyed}},
			},
		}, Let{"factor", Const{int64(100)}}), map[string][]any{"data": kvInputs("a", int64(1), "a", int64(2), "b", int64(9))}},
		{"hyperparam", &Program{
			Lets: []Let{
				{"data", Source{"data"}},
				{"params", Source{"params"}},
				{"res", Map{In: Ref{"params"}, UDF: &Fn{
					Params: []string{"param"},
					Body: []Stmt{
						LetS{"below", Count{In: Filter{In: Ref{"data"}, Pred: func(e any) bool { return e.(int64) < 3 }}}},
						Return{E: BinOp{A: Ref{"param"}, B: Ref{"below"}, F: keyed}},
					},
				}}},
			},
			Result: "res",
		}, map[string][]any{"data": {int64(1), int64(2), int64(3)}, "params": {int64(10), int64(20)}}},
		{"flat-ops", &Program{
			Lets: []Let{
				{"a", Source{"a"}},
				{"b", Source{"b"}},
				{"u", Union{A: Ref{"a"}, B: Ref{"b"}}},
				{"pairs", Map{In: Ref{"u"}, F: func(v any) any { return engine.KV[any, any](v.(int64)%2, v) }}},
				{"red", ReduceByKey{In: Ref{"pairs"}, F: sumF}},
				{"vals", FlatMap{In: Ref{"red"}, F: func(e any) []any {
					v := e.(engine.Pair[any, any]).Val
					return []any{v, v}
				}}},
				{"kept", Filter{In: Distinct{In: Ref{"vals"}}, Pred: func(v any) bool { return v.(int64) > 0 }}},
				{"total", Reduce{In: Ref{"kept"}, F: sumF}},
				{"n", Count{In: Ref{"kept"}}},
				{"scaled", UnOp{A: Ref{"total"}, F: func(v any) any { return v.(int64) * 10 }}},
				{"final", BinOp{A: Ref{"scaled"}, B: BinOp{A: Ref{"n"}, B: Const{int64(5)}, F: sumF}, F: sumF}},
			},
			Result: "final",
		}, map[string][]any{"a": {int64(1), int64(2), int64(3)}, "b": {int64(4), int64(5)}}},
	}
	for seed := int64(0); seed < 40; seed++ {
		prog, _, _ := generate(seed)
		rng := rand.New(rand.NewSource(seed + 1000))
		var data []any
		for i := 0; i < 60; i++ {
			data = append(data, int64(rng.Intn(40)))
		}
		progs = append(progs, goldenProgram{fmt.Sprintf("random-%d", seed), prog, map[string][]any{"data": data}})
	}
	return progs
}

// TestLoweredProgramsGolden pins, for every golden program, the parsing
// phase's rendering, the lowered result (a bag sorted), the simulated clock and
// the job, stage and task counts in testdata/lowered.golden. A refactor of
// the parsing or lowering phase must leave all of them unchanged; rewrite
// the file (-args -update) only for a deliberate change.
func TestLoweredProgramsGolden(t *testing.T) {
	var b strings.Builder
	for _, g := range goldenPrograms() {
		ps, err := Parse(g.prog)
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		sess := testSession()
		res, err := Lower(ps, sess, g.sources, core.Options{})
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		out := fmt.Sprintf("%v", res)
		if bag, ok := res.([]any); ok {
			var rows []string
			for _, r := range bag {
				rows = append(rows, fmt.Sprintf("%v", r))
			}
			sort.Strings(rows)
			out = "[" + strings.Join(rows, " ") + "]"
		}
		st := sess.Stats()
		fmt.Fprintf(&b, "== %s\n%sresult: %s\nclock=%v jobs=%d stages=%d tasks=%d\n\n",
			g.name, ps.Render(), out, sess.Clock(), st.Jobs, st.Stages, st.Tasks)
		sess.Close()
	}
	path := filepath.Join("testdata", "lowered.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("lowered programs differ from %s (rerun with -args -update only for a deliberate change):\n%s", path, got)
	}
}
