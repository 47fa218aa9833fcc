// Command benchjson converts `go test -bench` text output on stdin into a
// JSON document on stdout, so benchmark results can be committed and
// diffed across revisions (see BENCH_engine.json and `make bench`).
//
// With -check it becomes a regression gate instead: the current run (still
// text on stdin) is compared against a committed baseline JSON, and any
// benchmark whose ns/op grew by more than -factor fails the command (see
// `make bench-check` and the CI bench-smoke job). Benchmarks matching
// -gate-allocs additionally gate allocs/op: allocation counts are
// deterministic (unlike ns/op on a shared CI box), so the stage-boundary
// benchmarks use this to pin the typed data path's allocation win down.
//
//	go test -bench . ./internal/engine | benchjson > BENCH_engine.json
//	go test -bench . ./internal/engine | benchjson -check BENCH_engine.json -factor 2 -gate-allocs ShuffleBoundary
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"strconv"
	"strings"
)

// Result is one benchmark line, e.g.
// BenchmarkShuffleRoute/uniform/serial-4  100  1234 ns/op  56 B/op  7 allocs/op
type Result struct {
	Name        string  `json:"name"`
	Procs       int     `json:"procs"` // GOMAXPROCS suffix of the name
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64   `json:"allocs_per_op,omitempty"`
}

// Report is the full document: environment header lines plus results.
type Report struct {
	Goos    string   `json:"goos,omitempty"`
	Goarch  string   `json:"goarch,omitempty"`
	Pkg     string   `json:"pkg,omitempty"`
	CPU     string   `json:"cpu,omitempty"`
	Results []Result `json:"results"`
}

func main() {
	var (
		checkPath  = flag.String("check", "", "baseline JSON to compare stdin against; regressions fail the command")
		factor     = flag.Float64("factor", 2, "with -check: fail when current ns/op exceeds baseline by more than this factor")
		gateAllocs = flag.String("gate-allocs", "", "with -check: regexp of benchmark names whose allocs/op must not exceed baseline")
	)
	flag.Parse()
	if *factor <= 0 {
		fmt.Fprintln(os.Stderr, "benchjson: -factor must be positive")
		os.Exit(2)
	}
	var allocsRe *regexp.Regexp
	if *gateAllocs != "" {
		var err error
		if allocsRe, err = regexp.Compile(*gateAllocs); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson: -gate-allocs:", err)
			os.Exit(2)
		}
	}

	rep, err := parse(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson: read:", err)
		os.Exit(1)
	}

	if *checkPath != "" {
		raw, err := os.ReadFile(*checkPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		var base Report
		if err := json.Unmarshal(raw, &base); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %s: %v\n", *checkPath, err)
			os.Exit(1)
		}
		summary, ok := check(base, rep, *factor, allocsRe)
		fmt.Print(summary)
		if !ok {
			os.Exit(1)
		}
		return
	}

	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson: write:", err)
		os.Exit(1)
	}
}

// parse reads `go test -bench` text output into a Report.
func parse(r io.Reader) (Report, error) {
	var rep Report
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			rep.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			rep.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "pkg:"):
			rep.Pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		case strings.HasPrefix(line, "cpu:"):
			rep.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "Benchmark"):
			if r, ok := parseBench(line); ok {
				rep.Results = append(rep.Results, r)
			}
		}
	}
	return rep, sc.Err()
}

// check compares the current run against a baseline by benchmark name.
// Benchmarks missing from the baseline (newly added) or from the current
// run (renamed/removed) are reported but never fail the gate: the gate
// exists to catch regressions on retained benchmarks, and a shared-CI box
// is noisy, so only a > factor ns/op growth is treated as one. Benchmarks
// matching allocsRe also fail when allocs/op grows past the baseline —
// allocation counts are deterministic, so any growth is a real change.
func check(base, cur Report, factor float64, allocsRe *regexp.Regexp) (string, bool) {
	baseline := make(map[string]Result, len(base.Results))
	for _, r := range base.Results {
		baseline[r.Name] = r
	}
	var b strings.Builder
	var slow, grew int // what tripped the gate
	for _, r := range cur.Results {
		bl, found := baseline[r.Name]
		if !found {
			fmt.Fprintf(&b, "  new      %-56s %12.0f ns/op (no baseline)\n", r.Name, r.NsPerOp)
			continue
		}
		ratio := 0.0
		if bl.NsPerOp > 0 {
			ratio = r.NsPerOp / bl.NsPerOp
		}
		verdict := "ok"
		if ratio > factor {
			verdict = "REGRESSED"
			slow++
		}
		allocs := ""
		if allocsRe != nil && allocsRe.MatchString(r.Name) && bl.AllocsPerOp > 0 {
			allocs = fmt.Sprintf("  %d vs %d allocs/op", r.AllocsPerOp, bl.AllocsPerOp)
			if r.AllocsPerOp > bl.AllocsPerOp {
				verdict = "REGRESSED"
				grew++
				allocs += " (grew)"
			}
		}
		fmt.Fprintf(&b, "  %-8s %-56s %12.0f ns/op vs %12.0f baseline (%.2fx)%s\n",
			verdict, r.Name, r.NsPerOp, bl.NsPerOp, ratio, allocs)
		delete(baseline, r.Name)
	}
	for name := range baseline {
		fmt.Fprintf(&b, "  gone     %s (in baseline, not in this run)\n", name)
	}
	if slow > 0 {
		fmt.Fprintf(&b, "benchjson: %d benchmarks regressed in ns/op beyond %.1fx of baseline\n", slow, factor)
	}
	if grew > 0 {
		fmt.Fprintf(&b, "benchjson: %d gated benchmarks grew in allocs/op over baseline\n", grew)
	}
	if slow+grew == 0 {
		fmt.Fprintf(&b, "benchjson: %d benchmarks within %.1fx of baseline\n", len(cur.Results), factor)
	}
	return b.String(), slow+grew == 0
}

func parseBench(line string) (Result, bool) {
	f := strings.Fields(line)
	if len(f) < 4 || f[3] != "ns/op" {
		return Result{}, false
	}
	var r Result
	r.Name = f[0]
	r.Procs = 1 // `go test` omits the -N name suffix when GOMAXPROCS is 1
	if i := strings.LastIndex(r.Name, "-"); i > 0 {
		if p, err := strconv.Atoi(r.Name[i+1:]); err == nil {
			r.Procs = p
			r.Name = r.Name[:i]
		}
	}
	var err error
	if r.Iterations, err = strconv.ParseInt(f[1], 10, 64); err != nil {
		return Result{}, false
	}
	if r.NsPerOp, err = strconv.ParseFloat(f[2], 64); err != nil {
		return Result{}, false
	}
	for i := 4; i+1 < len(f); i += 2 {
		v, err := strconv.ParseInt(f[i], 10, 64)
		if err != nil {
			continue
		}
		switch f[i+1] {
		case "B/op":
			r.BytesPerOp = v
		case "allocs/op":
			r.AllocsPerOp = v
		}
	}
	return r, true
}
