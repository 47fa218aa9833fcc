package bench

import (
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"matryoshka/internal/obs"
	"matryoshka/internal/tasks"
)

var update = flag.Bool("update", false, "rewrite golden files")

// normalize replaces measured quantities (simulated seconds, byte sizes)
// with a placeholder. Everything structural — stage layout, task counts,
// memo-hit counts, decision justifications — is deterministic and kept.
var measuredTok = regexp.MustCompile(`\d+(\.\d+)?(s|GB|MB|KB|B)\b`)

func normalize(s string) string { return measuredTok.ReplaceAllString(s, "_") }

func explainScale() Scale { return Scale{RecordsPerGB: 300} }

// TestExplainRunGolden pins every task's EXPLAIN ANALYZE report, measured
// quantities normalized away, in testdata/explain_<task>.golden. The
// recovery scenario runs at 2000 records/GB: at explainScale its source
// stage alone overflows a machine, which no re-lowering can repair.
func TestExplainRunGolden(t *testing.T) {
	for _, task := range ExplainTasks() {
		t.Run(task, func(t *testing.T) {
			sc := explainScale()
			if task == "recovery" {
				sc.RecordsPerGB = 2000
			}
			out, err := ExplainRun(task, sc)
			if err != nil {
				t.Fatal(err)
			}
			got := normalize(out)

			path := filepath.Join("testdata", "explain_"+strings.TrimSuffix(task, "-rate")+".golden")
			if *update {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to regenerate)", err)
			}
			if got != string(want) {
				t.Errorf("EXPLAIN ANALYZE drifted (run with -update if intended)\ngot:\n%s\nwant:\n%s", got, want)
			}
		})
	}
}

func TestExplainRunReportShape(t *testing.T) {
	out, err := ExplainRun("bounce-rate", explainScale())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"EXPLAIN ANALYZE:",
		"Stage 1 root=",       // planned stages
		"tasks=",              // measured stage lines
		"shuffle=",            // shuffle-bytes counter
		"memo-hits=",          // fan-in memoization counter
		"pinned cluster-wide", // broadcast events
		"Optimizer decisions (Sec. 8):",
		"[partitions]",
		"[scalar-join]",
		"Sec. 8.1:",
		"Sec. 8.2:",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

// TestExplainRunShredShape: `matbench -explain shred` renders the shred
// rule's decision — the optimizer reading observed group sizes and
// picking the shredded lowering for the high-skew demo workload — in
// the report's decision log.
func TestExplainRunShredShape(t *testing.T) {
	out, err := ExplainRun("shred", explainScale())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"EXPLAIN ANALYZE:",
		"[shred] shredded",
		"largest of",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("shred report missing %q:\n%s", want, out)
		}
	}
}

func TestExplainRunUnknownTask(t *testing.T) {
	if _, err := ExplainRun("no-such-task", explainScale()); err == nil {
		t.Fatal("want error for unknown task")
	}
}

// TestExplainRecorderBoundaryShapes: the recorded stage boundaries of
// the bounce-rate plan carry typed element shapes — the group-size reduce
// that shredding derives key tags from and the per-tag reduce on Pair
// batches — and none fell back to boxed batches.
func TestExplainRecorderBoundaryShapes(t *testing.T) {
	rec, err := explainRecorder("bounce-rate", explainScale())
	if err != nil {
		t.Fatal(err)
	}
	shapes := map[string]bool{}
	for _, j := range rec.Jobs() {
		for _, s := range j.Stages {
			if s.BoundaryBytes > 0 {
				shapes[s.BatchShape] = true
			}
		}
	}
	for _, want := range []string{"Pair[int64,int64]", "Pair[Tag,int64]"} {
		if !shapes[want] {
			t.Errorf("no boundary of shape %s; shapes: %v", want, shapes)
		}
	}
	if shapes["any"] {
		t.Errorf("bounce-rate boundaries should all be typed, got a boxed fallback: %v", shapes)
	}
}

// TestSec8DecisionCoverage runs every task with the event spine attached
// and checks that each Sec. 8 rule fires at least once with a recorded
// justification across the suite.
func TestSec8DecisionCoverage(t *testing.T) {
	rec := obs.NewRecorder()
	prev := tasks.Obs
	tasks.Obs = rec
	defer func() { tasks.Obs = prev }()

	sc := explainScale()
	cc := sc.PaperCluster()
	for _, run := range []tasks.Outcome{
		bounceSpec(sc, 8, 2, false).Run(tasks.Matryoshka, cc),
		pageRankSpec(sc, 8, 2, false).Run(tasks.Matryoshka, cc),
		kmeansSpec(sc, 8).Run(tasks.Matryoshka, cc),
		avgDistSpec(8).Run(tasks.Matryoshka, cc),
	} {
		if run.Err != nil {
			t.Fatalf("%s/%s: %v", run.Task, run.Strategy, run.Err)
		}
	}

	rules := rec.SortedRules()
	for _, want := range []string{"bag-scalar-join", "half-lifted", "partitions", "scalar-join", "shred"} {
		if !slices.Contains(rules, want) {
			t.Errorf("rule %q never fired; recorded rules: %v", want, rules)
		}
	}
	for _, d := range rec.Decisions() {
		if d.Why == "" {
			t.Errorf("decision %q/%q recorded without justification", d.Rule, d.Choice)
		}
	}
}
