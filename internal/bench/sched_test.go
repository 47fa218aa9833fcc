package bench

import (
	"strings"
	"testing"

	"matryoshka/internal/sched"
)

// TestSecSchedShape asserts the experiment's headline claim at every
// swept tenant count: fair share + speculation beats FIFO on
// interactive p99 by a wide margin at equal-or-better makespan.
func TestSecSchedShape(t *testing.T) {
	rows := SecSched(DefaultScale())
	get := func(series string, x float64) float64 {
		t.Helper()
		for _, r := range rows {
			if r.Series == series && r.X == x {
				if r.Err != "" {
					t.Fatalf("%s at x=%v failed: %s", series, x, r.Err)
				}
				return r.Seconds
			}
		}
		t.Fatalf("no row for %s at x=%v", series, x)
		return 0
	}
	for _, x := range []float64{1, 3, 6} {
		fifoP99, specP99 := get("fifo/p99", x), get("fair+spec/p99", x)
		if specP99 >= fifoP99 {
			t.Errorf("x=%v: fair+spec p99 %.2f not below fifo p99 %.2f", x, specP99, fifoP99)
		}
		if specP99 > fifoP99/2 {
			t.Errorf("x=%v: fair+spec p99 %.2f is not a decisive improvement over fifo %.2f", x, specP99, fifoP99)
		}
		fifoMk, specMk := get("fifo/makespan", x), get("fair+spec/makespan", x)
		if specMk > fifoMk+1e-9 {
			t.Errorf("x=%v: fair+spec makespan %.2f worse than fifo %.2f", x, specMk, fifoMk)
		}
		// Speculation, not fairness alone, is what wins back the makespan
		// under 25% stragglers.
		if fairMk := get("fair/makespan", x); specMk >= fairMk {
			t.Errorf("x=%v: speculation did not improve fair-share makespan (%.2f vs %.2f)", x, specMk, fairMk)
		}
	}
}

// TestSecSchedRowsMatchGolden pins both scheduling sweeps row for row
// (testdata/sched_rows.golden, exact floats): the scheduler is a pure
// function of its inputs and the straggler seed, so any drift is a
// behaviour change.
func TestSecSchedRowsMatchGolden(t *testing.T) {
	checkGolden(t, "sched_rows.golden", "sec-sched", rowLines(SecSched(DefaultScale())))
	checkGolden(t, "sched_rows.golden", "sec-sched-straggle", rowLines(SecSchedStraggle(DefaultScale())))
}

// TestSecSchedStraggleSpeculationClipsTail: at a 15% straggler rate the
// speculative series must beat plain fair share on makespan (backup
// copies finish the stretched tasks early).
func TestSecSchedStraggleSpeculationClipsTail(t *testing.T) {
	rows := SecSchedStraggle(DefaultScale())
	var fairMk, specMk float64
	for _, r := range rows {
		if r.X != 15 {
			continue
		}
		switch r.Series {
		case "fair/makespan":
			fairMk = r.Seconds
		case "fair+spec/makespan":
			specMk = r.Seconds
		}
	}
	if fairMk == 0 || specMk == 0 {
		t.Fatal("missing makespan rows at 15% straggle")
	}
	if specMk >= fairMk {
		t.Errorf("speculation makespan %.2f not below fair %.2f at 15%% stragglers", specMk, fairMk)
	}
}

// TestSchedSummary pins the matbench -tenants quick path byte for byte
// (testdata/sched_summary.golden) for the two runs the docs quote:
// `-tenants 3 -policy fair -speculate` and `-tenants 2 -policy fifo`,
// both at the default 25% straggler rate.
func TestSchedSummary(t *testing.T) {
	for _, c := range []struct {
		section     string
		interactive int
		policy      sched.Policy
		speculate   bool
	}{
		{"tenants=3 policy=fair speculate", 3, sched.PolicyFair, true},
		{"tenants=2 policy=fifo", 2, sched.PolicyFIFO, false},
	} {
		out, err := SchedSummary(DefaultScale(), c.interactive, 0.25, c.policy, c.speculate)
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, "sched_summary.golden", c.section, strings.Split(strings.TrimRight(out, "\n"), "\n"))
	}
}
