package bench

import (
	"reflect"
	"strings"
	"testing"

	"matryoshka/internal/tasks"
)

// TestSec9RecoveryExperiment pins the shape of the abort-vs-recover sweep:
// inside the pressure window the abort series OOMs where the recover
// series completes; with ample memory the two are identical; below the
// window both die in ingest. The whole sweep is deterministic.
func TestSec9RecoveryExperiment(t *testing.T) {
	sc := Scale{RecordsPerGB: 2000}
	rows := Sec9Recovery(sc)
	byKey := func(rows []Row) map[string]Row {
		m := make(map[string]Row, len(rows))
		for _, r := range rows {
			m[r.Series+"@"+trimFloat(r.X)] = r
		}
		return m
	}
	m := byKey(rows)
	// The sweep's exact rows, and sec9-chaos's, are pinned in
	// testdata/sec9_rows.golden as the engine produced them while every
	// routed shuffle block was held to the end of its job. Releasing blocks
	// with their last reader and routing them again for a relaunched stage
	// is host-side only: no fetch, retry or recomputation may move.
	checkGolden(t, "sec9_rows.golden", "sec9-recovery", rowLines(rows))

	for _, x := range []string{"1", "2", "4"} {
		if !m["abort@"+x].OOM {
			t.Errorf("abort@%sGB should OOM: %+v", x, m["abort@"+x])
		}
	}
	for _, x := range []string{"2", "4", "8"} {
		r := m["recover@"+x]
		if r.OOM || r.Err != "" || r.Seconds <= 0 {
			t.Errorf("recover@%sGB should complete: %+v", x, r)
		}
	}
	// Plenty of memory: recovery never fires, both series agree exactly.
	if a, r := m["abort@8"], m["recover@8"]; a.OOM || a.Seconds != r.Seconds {
		t.Errorf("at 8 GB the series should coincide: %+v vs %+v", a, r)
	}
	// Below the window the ingest tasks themselves overflow a machine;
	// no re-lowering can split a source, so recovery is honestly bounded.
	if a, r := m["abort@0.5"], m["recover@0.5"]; !a.OOM || !r.OOM {
		t.Errorf("at 0.5 GB both series should OOM: %+v vs %+v", a, r)
	}
	// The recovered run pays for its failed attempts: it must not be
	// faster than the same workload with memory to spare.
	if m["recover@2"].Seconds <= 0 || m["recover@8"].Seconds <= 0 {
		t.Fatalf("missing rows: %+v", m)
	}

	if again := byKey(Sec9Recovery(sc)); !reflect.DeepEqual(m, again) {
		t.Errorf("sweep not deterministic:\n%+v\n%+v", m, again)
	}
}

// TestMemPressureValueMatchesReference: the demo workload's recovered run
// produces exactly the sequential reference value.
func TestMemPressureValueMatchesReference(t *testing.T) {
	sc := Scale{RecordsPerGB: 2000}
	spec := memPressureSpec(sc)
	out := spec.Run(sc.Cluster(2, 2, 2))
	if out.Err != nil {
		t.Fatalf("run: %v", out.Err)
	}
	got, ok := out.Value.(tasks.MemPressureValue)
	if !ok || got != spec.Reference() {
		t.Errorf("value = %+v, want %+v", out.Value, spec.Reference())
	}
}

// TestExplainShowsRecovery: `matbench -explain recovery` renders the
// adaptive re-lowerings in the EXPLAIN ANALYZE report.
func TestExplainShowsRecovery(t *testing.T) {
	rep, err := ExplainRun("recovery", Scale{RecordsPerGB: 2000})
	if err != nil {
		t.Fatalf("ExplainRun: %v", err)
	}
	for _, want := range []string{
		"Recovery stage",
		"broadcast OOM",
		"→ re-lowered(join=repartition) → ok",
		"task OOM",
		"re-lowered(parts ",
		"retried-after-OOM",
	} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q:\n%s", want, rep)
		}
	}
}

// TestExplainFaultRateShowsRetries: `matbench -explain bounce-rate
// -faultrate 0.02` surfaces injected task retries in the stage lines, and
// the whole report — virtual clock included — is deterministic.
func TestExplainFaultRateShowsRetries(t *testing.T) {
	sc := Scale{RecordsPerGB: 2000, FaultRate: 0.02}
	rep1, err := ExplainRun("bounce-rate", sc)
	if err != nil {
		t.Fatalf("ExplainRun: %v", err)
	}
	if !strings.Contains(rep1, "retries=") {
		t.Errorf("report shows no retries:\n%s", rep1)
	}
	rep2, err := ExplainRun("bounce-rate", sc)
	if err != nil {
		t.Fatalf("ExplainRun again: %v", err)
	}
	if rep1 != rep2 {
		t.Error("fault-injected EXPLAIN ANALYZE not deterministic across runs")
	}
}
