package main

import (
	"regexp"
	"strings"
	"testing"
)

func TestParseBenchText(t *testing.T) {
	text := `goos: linux
goarch: amd64
pkg: matryoshka/internal/engine
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkShuffleRoute/uniform/serial-4         	     374	   3081601 ns/op	 3840128 B/op	     241 allocs/op
BenchmarkStageExec/fused                       	      20	   2546158 ns/op	 3564153 B/op	     933 allocs/op
PASS
ok  	matryoshka/internal/engine	12.3s
`
	rep, err := parse(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Goos != "linux" || rep.Pkg != "matryoshka/internal/engine" {
		t.Errorf("header parsed wrong: %+v", rep)
	}
	if len(rep.Results) != 2 {
		t.Fatalf("parsed %d results, want 2", len(rep.Results))
	}
	if r := rep.Results[0]; r.Name != "BenchmarkShuffleRoute/uniform/serial" || r.Procs != 4 ||
		r.NsPerOp != 3081601 || r.AllocsPerOp != 241 {
		t.Errorf("first result parsed wrong: %+v", r)
	}
	if r := rep.Results[1]; r.Name != "BenchmarkStageExec/fused" || r.Procs != 1 {
		t.Errorf("procs-less name parsed wrong: %+v", r)
	}
}

// TestCheck walks the gate's verdicts: what fails it, what must not, and
// that the summary names what tripped.
func TestCheck(t *testing.T) {
	res := func(name string, ns float64, allocs int64) Result {
		return Result{Name: name, NsPerOp: ns, AllocsPerOp: allocs}
	}
	gated := regexp.MustCompile("ShuffleBoundary")
	base := Report{Results: []Result{
		res("BenchmarkShuffleBoundary/typed", 1000, 48),
		res("BenchmarkOther", 1000, 10),
	}}
	const slow, grew, within = "regressed in ns/op beyond 2.0x", "grew in allocs/op", "within 2.0x"
	for _, c := range []struct {
		name     string
		base     Report
		cur      []Result
		re       *regexp.Regexp
		ok       bool
		want     []string // substrings of the report
		wantNone []string
	}{
		{name: "neither: noise within factor, allocs equal", base: base, re: gated, ok: true,
			cur:  []Result{res("BenchmarkShuffleBoundary/typed", 1900, 48), res("BenchmarkOther", 1000, 10)},
			want: []string{within}, wantNone: []string{"REGRESSED", slow, grew}},
		{name: "ns/op over factor", base: base, re: gated, ok: false,
			cur:  []Result{res("BenchmarkShuffleBoundary/typed", 1000, 48), res("BenchmarkOther", 2500, 10)},
			want: []string{"REGRESSED BenchmarkOther", "1 benchmarks " + slow}, wantNone: []string{grew, within}},
		{name: "allocs grew by one on a gated benchmark, ns/op fine", base: base, re: gated, ok: false,
			cur:  []Result{res("BenchmarkShuffleBoundary/typed", 1000, 49), res("BenchmarkOther", 1000, 10)},
			want: []string{"allocs/op (grew)", "1 gated benchmarks " + grew}, wantNone: []string{slow, within}},
		{name: "both", base: base, re: gated, ok: false,
			cur:  []Result{res("BenchmarkShuffleBoundary/typed", 1000, 49), res("BenchmarkOther", 2500, 10)},
			want: []string{slow, grew}, wantNone: []string{within}},
		{name: "allocs are ignored off the gate and may shrink on it", base: base, re: gated, ok: true,
			cur:  []Result{res("BenchmarkShuffleBoundary/typed", 1000, 12), res("BenchmarkOther", 1000, 500)},
			want: []string{within}},
		{name: "no allocs gate given", base: base, ok: true,
			cur:  []Result{res("BenchmarkShuffleBoundary/typed", 1000, 4800), res("BenchmarkOther", 1000, 10)},
			want: []string{within}, wantNone: []string{"allocs/op"}},
		{name: "new and gone rows are reported, never failed", base: base, re: gated, ok: true,
			cur:  []Result{res("BenchmarkOther", 1000, 10), res("BenchmarkNew", 99999999, 1)},
			want: []string{"new      BenchmarkNew", "gone     BenchmarkShuffleBoundary/typed", within}},
		{name: "zero baseline never divides by zero", ok: true,
			base: Report{Results: []Result{res("A", 0, 0)}},
			cur:  []Result{res("A", 12345, 0)},
			want: []string{within}},
	} {
		t.Run(c.name, func(t *testing.T) {
			out, ok := check(c.base, Report{Results: c.cur}, 2, c.re)
			if ok != c.ok {
				t.Errorf("ok = %v, want %v:\n%s", ok, c.ok, out)
			}
			for _, w := range c.want {
				if !strings.Contains(out, w) {
					t.Errorf("report missing %q:\n%s", w, out)
				}
			}
			for _, w := range c.wantNone {
				if strings.Contains(out, w) {
					t.Errorf("report must not say %q:\n%s", w, out)
				}
			}
		})
	}
}
