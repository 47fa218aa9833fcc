package ir

import (
	"errors"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"matryoshka/internal/core"
	"matryoshka/internal/engine"
	"matryoshka/internal/obs"
)

// lowerObserved lowers prog over sources on a test session that records
// decisions, and returns the result and the ir-shape decisions.
func lowerObserved(t *testing.T, prog *Program, sources map[string][]any) (any, []obs.Decision, error) {
	t.Helper()
	ps, err := Parse(prog)
	if err != nil {
		t.Fatal(err)
	}
	cfg := engine.DefaultConfig()
	cfg.Cluster.Machines, cfg.Cluster.CoresPerMachine, cfg.DefaultParallelism = 4, 2, 6
	cfg.Obs = obs.NewRecorder()
	sess, err := engine.NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	res, err := Lower(ps, sess, sources, core.Options{})
	var shapes []obs.Decision
	for _, d := range cfg.Obs.Decisions() {
		if d.Rule == "ir-shape" {
			shapes = append(shapes, d)
		}
	}
	return res, shapes, err
}

// countPerKey is a grouped program: each key with the size of its group.
func countPerKey() *Program {
	return groupedProgram(&Fn{
		Params: []string{"key", "group"},
		Body:   []Stmt{Return{E: BinOp{A: Ref{"key"}, B: Count{In: Ref{"group"}}, F: keyed}}},
	})
}

// TestMixedSourceLowersBoxed: a source whose keys mix int64 and string has
// no shape, so the program lowers boxed, says why in one ir-shape
// decision, and still counts every group.
func TestMixedSourceLowersBoxed(t *testing.T) {
	data := kvInputs(int64(1), int64(7), "one", int64(7), int64(1), int64(8), "one", int64(8), int64(2), int64(9), "one", int64(9))
	res, shapes, err := lowerObserved(t, countPerKey(), map[string][]any{"data": data})
	if err != nil {
		t.Fatal(err)
	}
	if len(shapes) != 1 || shapes[0].Choice != "boxed" || !strings.Contains(shapes[0].Why, `source "data" mixes Pair[int64,int64] and Pair[string,int64] rows`) {
		t.Errorf("ir-shape decisions %+v, want one boxed decision naming the mixed source", shapes)
	}
	got := map[any]int64{}
	for _, r := range res.([]any) {
		kv := r.(engine.Pair[any, any])
		got[kv.Key] = kv.Val.(int64)
	}
	if want := map[any]int64{int64(1): 2, "one": 3, int64(2): 1}; !reflect.DeepEqual(got, want) {
		t.Errorf("counts %v, want %v", got, want)
	}
}

// TestTypedProgramsRecordNoDecision: the bounce-rate program over int64
// pairs lowers typed and records no ir-shape decision, and a program whose
// UDF returns a type outside the universe lowers boxed and says which.
func TestTypedProgramsRecordNoDecision(t *testing.T) {
	visits, want := visitsData()
	res, shapes, err := lowerObserved(t, bounceRateProgram(), map[string][]any{"visits": visits})
	if err != nil {
		t.Fatal(err)
	}
	if len(shapes) != 0 {
		t.Errorf("typed program recorded %+v", shapes)
	}
	for _, r := range res.([]any) {
		if kv := r.(engine.Pair[any, any]); kv.Val.(float64) != want[kv.Key.(int64)] {
			t.Errorf("day %v: rate %v, want %v", kv.Key, kv.Val, want[kv.Key.(int64)])
		}
	}

	slices := &Program{
		Lets: []Let{
			{"d", Source{"d"}},
			{"s", Map{In: Ref{"d"}, F: func(v any) any { return []int64{v.(int64)} }}},
			{"n", Count{In: Ref{"s"}}},
		},
		Result: "n",
	}
	res, shapes, err = lowerObserved(t, slices, map[string][]any{"d": {int64(1), int64(2)}})
	if err != nil {
		t.Fatal(err)
	}
	if res.(int64) != 2 || len(shapes) != 1 || !strings.Contains(shapes[0].Why, "map in let s returns []int64 rows, outside the shape universe") {
		t.Errorf("count %v, ir-shape decisions %+v; want 2 and one naming the map", res, shapes)
	}
}

// TestRowOfAnotherTypeFailsLower: a UDF that returns an int64 on its
// witness, the source's first element, and a string on a later row breaks
// the one-type-per-node contract. The job fails, and Lower returns the
// error naming the node and both types, in a flat and in a lifted map.
func TestRowOfAnotherTypeFailsLower(t *testing.T) {
	turncoat := func(v any) any {
		if v.(int64) == 1 {
			return v
		}
		return fmt.Sprint(v)
	}
	flat := &Program{
		Lets: []Let{
			{"d", Source{"d"}},
			{"m", Map{In: Ref{"d"}, F: turncoat}},
			{"n", Count{In: Ref{"m"}}},
		},
		Result: "n",
	}
	lifted := groupedProgram(&Fn{
		Params: []string{"key", "group"},
		Body: []Stmt{
			LetS{"m", Map{In: Ref{"group"}, F: turncoat}},
			Return{E: BinOp{A: Ref{"key"}, B: Count{In: Ref{"m"}}, F: keyed}},
		},
	})
	for _, c := range []struct {
		name string
		prog *Program
		data []any
	}{
		{"flat", flat, []any{int64(1), int64(2), int64(3)}},
		{"lifted", lifted, kvInputs(int64(0), int64(1), int64(0), int64(2), int64(5), int64(3))},
	} {
		_, shapes, err := lowerObserved(t, c.prog, map[string][]any{"data": c.data, "d": c.data})
		var re *rowError
		if !errors.As(err, &re) {
			t.Fatalf("%s: Lower error %v, want a row error", c.name, err)
		}
		if msg := err.Error(); !strings.Contains(msg, "map in let m returned a string row; its shape is int64") {
			t.Errorf("%s: error %q does not name the node and both types", c.name, msg)
		}
		if len(shapes) != 0 {
			t.Errorf("%s: lowered boxed: %+v", c.name, shapes)
		}
	}
}

// TestLoopVariableChangingShapeLowersBoxed: a loop whose body turns a bag
// of int64 into a bag of float64 lowers boxed, and still gives each group
// its answer.
func TestLoopVariableChangingShapeLowersBoxed(t *testing.T) {
	prog := groupedProgram(&Fn{
		Params: []string{"key", "group"},
		Body: []Stmt{
			LetS{"b", Ref{"group"}},
			LetS{"i", Const{int64(0)}},
			While{
				Vars: []string{"b", "i"},
				Body: []LetS{
					{"b", Map{In: Ref{"b"}, F: func(v any) any {
						if i, ok := v.(int64); ok {
							return float64(i)
						}
						return v
					}}},
					{"i", UnOp{A: Ref{"i"}, F: func(v any) any { return v.(int64) + 1 }}},
				},
				Cond: UnOp{A: Ref{"i"}, F: func(v any) any { return v.(int64) < 2 }},
			},
			Return{E: BinOp{A: Ref{"key"}, B: Count{In: Ref{"b"}}, F: keyed}},
		},
	})
	res, shapes, err := lowerObserved(t, prog, map[string][]any{"data": kvInputs(int64(5), int64(1), int64(5), int64(2), int64(6), int64(3))})
	if err != nil {
		t.Fatal(err)
	}
	if len(shapes) != 1 || !strings.Contains(shapes[0].Why, "loop variable: b is int64 rows and float64 rows") {
		t.Errorf("ir-shape decisions %+v, want one naming the loop variable", shapes)
	}
	var rows []string
	for _, r := range res.([]any) {
		rows = append(rows, fmt.Sprint(r))
	}
	sort.Strings(rows)
	if got := strings.Join(rows, " "); got != "{5 2} {6 1}" {
		t.Errorf("rows %s, want {5 2} {6 1}", got)
	}
}
