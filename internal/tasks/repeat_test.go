package tasks

import (
	"fmt"
	"os"
	"os/exec"
	"strings"
	"testing"

	"matryoshka/internal/cluster"
)

// outcomeLines runs every Spec under every strategy it has and renders each
// Outcome as one line that is equal exactly when the outcomes are: Seconds
// as a hex float (all 64 bits), the counters, and the Value through %v —
// fmt prints maps in key order and floats in their shortest form that
// reads back to the same bits.
func outcomeLines() []string {
	cc := testCluster()
	all := []Strategy{Matryoshka, InnerParallel, OuterParallel}
	var outs []Outcome
	for _, strat := range append(all, DIQL) {
		outs = append(outs, BounceRateSpec{Visits: 6_000, Days: 9, Skewed: true, Seed: 42}.Run(strat, cc))
	}
	for _, strat := range all {
		outs = append(outs,
			KMeansSpec{TotalPoints: 2_000, K: 3, Configs: 4, Eps: 1e-6, MaxIters: 10, Seed: 3}.Run(strat, cc),
			PageRankSpec{Groups: 5, TotalEdges: 1_500, TotalVertices: 300, Eps: 1e-9, MaxIters: 20, Seed: 11}.Run(strat, cc),
			AvgDistSpec{Components: 3, VerticesPerComp: 8, ExtraEdgesPerComp: 4, Seed: 17}.Run(strat, cc))
	}
	faults := cluster.FaultPlan{MTBF: 40, Seed: 5}
	outs = append(outs,
		ShredSpec{Visits: 6_000, Days: 9, Skew: 1.3, Seed: 42}.Run(cc),
		MemPressureSpec{BuildRecords: 2_000, ProbeKeys: 16, GroupRecords: 3_000, Groups: 64, IngestParts: 8, GroupParts: 2}.Run(cc),
		ChaosSpec{Records: 1_500, Keys: 32, Parts: 3, Rounds: 2}.Run(cc),
		ChaosSpec{Records: 1_500, Keys: 32, Parts: 3, Rounds: 2, Faults: faults}.Run(cc))
	lines := make([]string, len(outs))
	for i, o := range outs {
		lines[i] = fmt.Sprintf("%s/%s#%d seconds=%x jobs=%d stages=%d tasks=%d oom=%t value=%v",
			o.Task, o.Strategy, i, o.Seconds, o.Jobs, o.Stages, o.Tasks, o.OOM, o.Value)
	}
	return lines
}

const (
	// outcomesChildEnv marks the re-exec'd child of
	// TestOutcomesRepeatAcrossProcesses: it prints its lines and is done.
	outcomesChildEnv = "MATRYOSHKA_TASKS_OUTCOMES_CHILD"
	outcomeLinePfx   = "OUTCOME "
)

// TestOutcomesRepeatAcrossProcesses is ROADMAP item 1's gate: every task
// under every strategy returns the same Outcome, bit for bit, twice in this
// process and once in another. Go randomizes map iteration per range and
// its own hashes per process, so a task that launches jobs, builds a
// dataset or folds floats in map order — or an engine that places a key by
// a process-seeded hash — fails here.
func TestOutcomesRepeatAcrossProcesses(t *testing.T) {
	first := outcomeLines()
	if os.Getenv(outcomesChildEnv) != "" {
		for _, l := range first {
			fmt.Println(outcomeLinePfx + l)
		}
		return
	}
	for _, l := range first {
		if strings.Contains(l, "seconds=0x0p") {
			t.Errorf("run did not execute: %s", l)
		}
	}
	diff := func(who string, got []string) {
		t.Helper()
		if len(got) != len(first) {
			t.Fatalf("%s: %d outcomes, want %d", who, len(got), len(first))
		}
		for i := range first {
			if got[i] != first[i] {
				t.Errorf("%s differs:\n first: %s\n again: %s", who, first[i], got[i])
			}
		}
	}
	diff("second run in this process", outcomeLines())

	cmd := exec.Command(os.Args[0], "-test.run=^TestOutcomesRepeatAcrossProcesses$", "-test.count=1")
	cmd.Env = append(os.Environ(), outcomesChildEnv+"=1")
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("child process: %v\n%s", err, out)
	}
	var child []string
	for _, l := range strings.Split(string(out), "\n") {
		if l, ok := strings.CutPrefix(l, outcomeLinePfx); ok {
			child = append(child, l)
		}
	}
	diff("run in a child process", child)
}
