package bench

import (
	"reflect"
	"strings"
	"testing"
)

// chaosTestScale keeps the chaos sweeps laptop-fast; virtual durations
// are roughly scale-invariant (record weight shrinks as counts grow), so
// the crash-rate story survives the shrink.
func chaosTestScale() Scale { return Scale{RecordsPerGB: 2000} }

// TestChaosSpecMatchesReference: the diamond workload computes the right
// answer fault-free, and — the point of lineage recovery — the *same*
// right answer while machines crash under it.
func TestChaosSpecMatchesReference(t *testing.T) {
	sc := chaosTestScale()
	for _, rate := range []float64{0, 4} {
		sp := chaosSpec(sc, rate)
		out := sp.Run(sc.Cluster(4, 4, 8))
		if out.Err != nil {
			t.Fatalf("rate %v: run failed: %v", rate, out.Err)
		}
		if want := sp.Reference(); !reflect.DeepEqual(out.Value, want) {
			t.Errorf("rate %v: value = %+v, want %+v", rate, out.Value, want)
		}
	}
}

// TestSec9ChaosShape checks the experiment tells the paper-shaped story:
// both series agree fault-free, the recover series completes at every
// crash rate (paying recomputation time), and any abort-series failure
// is the typed lost-fetch, not something else.
func TestSec9ChaosShape(t *testing.T) {
	sc := chaosTestScale()
	rows := Sec9Chaos(sc)
	if len(rows) != 10 {
		t.Fatalf("got %d rows, want 10 (abort+recover at 5 rates)", len(rows))
	}
	// Exact rows too (testdata/sec9_rows.golden, see recovery_test.go): what
	// a crash finds already fetched decides what is recomputed and charged.
	checkGolden(t, "sec9_rows.golden", "sec9-chaos", rowLines(rows))
	cell := map[string]Row{}
	for _, r := range rows {
		if r.Exp != "sec9-chaos" {
			t.Fatalf("row experiment = %q", r.Exp)
		}
		cell[r.Series+"@"+trimFloat(r.X)] = r
	}
	base := cell["recover@0"]
	if base.Err != "" || base.OOM {
		t.Fatalf("fault-free recover row failed: %+v", base)
	}
	if ab := cell["abort@0"]; ab.Err != "" || ab.Seconds != base.Seconds {
		t.Errorf("fault-free abort row should match recover exactly: %+v vs %+v", ab, base)
	}
	aborted := 0
	for _, rate := range []string{"1", "2", "4", "8"} {
		rec := cell["recover@"+rate]
		if rec.Err != "" || rec.OOM {
			t.Errorf("recover series died at rate %s: %+v", rate, rec)
		}
		if rec.Seconds < base.Seconds {
			t.Errorf("recover at rate %s finished faster (%.1fs) than fault-free (%.1fs)", rate, rec.Seconds, base.Seconds)
		}
		if ab := cell["abort@"+rate]; ab.Err != "" {
			aborted++
			if !strings.Contains(ab.Err, "fetch failed") {
				t.Errorf("abort at rate %s died of %q, want a lost shuffle fetch", rate, ab.Err)
			}
		}
	}
	if aborted == 0 {
		t.Error("no abort-series run lost a fetch; the sweep shows no abort-vs-recover gap")
	}
}

// TestSec9ChaosBitIdentical: the acceptance bar for deterministic chaos —
// the whole sweep, including which runs fail and how long recovery
// takes, is bit-identical across invocations at a fixed seed.
func TestSec9ChaosBitIdentical(t *testing.T) {
	sc := chaosTestScale()
	sc.Seed = 7
	base := Sec9Chaos(sc)
	if got := Sec9Chaos(sc); !reflect.DeepEqual(base, got) {
		t.Fatalf("fixed-seed sweep diverged:\nbase: %+v\ngot:  %+v", base, got)
	}
}

// TestExplainChaosShowsLineageRecovery: the -explain chaos report renders
// the full causal chain — machines crashing, the lost fetch, and the
// lineage recomputation that repaired it.
func TestExplainChaosShowsLineageRecovery(t *testing.T) {
	rep, err := ExplainRun("chaos", chaosTestScale())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"fetch-failed(m", "recomputed parents {", "→ ok", "Fault events:", "crash"} {
		if !strings.Contains(rep, want) {
			t.Errorf("explain chaos report missing %q:\n%s", want, rep)
		}
	}
}
