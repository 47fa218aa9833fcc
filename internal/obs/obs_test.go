package obs

import (
	"errors"
	"strings"
	"testing"
)

// record feeds a deterministic three-job run: one job with every counter
// populated, then two identical jobs (an iterative superstep shape).
func record() *Recorder {
	r := NewRecorder()
	r.StartJob("#5 count", "Stage 1 root=#5 count parts=4 chain=count<-map\n")
	r.StageRan(Stage{
		Stage: 1, Label: "count", Chain: "count<-map", Parts: 4,
		ShuffleBytes: 2048, MemoHits: 3, Seconds: 1.5, BusySeconds: 4,
		Retries: 1, MaxTaskSec: 0.5, MaxTaskMem: 1024,
	})
	r.BroadcastPinned(Broadcast{Label: "map", Bytes: 4096, Seconds: 0.25})
	r.EndJob(1.75, nil)
	for i := 0; i < 2; i++ {
		r.StartJob("#7 reduce", "Stage 1 root=#7 reduce parts=2\n")
		r.StageRan(Stage{Stage: 1, Label: "reduce", Chain: "reduce", Parts: 2,
			Seconds: 0.9, BusySeconds: 1, MaxTaskSec: 0.45})
		r.EndJob(1, nil)
	}
	r.Decide(Decision{Rule: "scalar-join", Choice: "broadcast-left", Why: "8 tags < parallelism 16"})
	r.Decide(Decision{Rule: "scalar-join", Choice: "broadcast-left", Why: "8 tags < parallelism 16"})
	r.Decide(Decision{Rule: "half-lifted", Choice: "bypass", Forced: true, Why: "Options override"})
	return r
}

func TestReportGolden(t *testing.T) {
	got := record().Report()
	want := strings.Join([]string{
		"EXPLAIN ANALYZE: 3 jobs, 3 stages, clock 3.75s, busy 6.00s",
		"",
		"Job 1: #5 count  1.75s",
		"  Stage 1 root=#5 count parts=4 chain=count<-map",
		"  Stage 1 count            1.50s tasks=4 shuffle=2.0KB memo-hits=3 retries=1 maxtask=0.50s chain=count<-map",
		"  Broadcast map            0.25s 4.0KB pinned cluster-wide",
		"",
		"Job 2..3 (x2): #7 reduce  2.00s total",
		"  Stage 1 root=#7 reduce parts=2",
		"  Stage 1 reduce           0.90s tasks=2 maxtask=0.45s",
		"",
		"Optimizer decisions (Sec. 8):",
		"  [scalar-join] broadcast-left — 8 tags < parallelism 16  (x2)",
		"  [half-lifted] bypass (forced) — Options override",
	}, "\n") + "\n"
	if got != want {
		t.Errorf("Report():\n%s\nwant:\n%s", got, want)
	}
}

func TestFailedJobsDoNotCollapse(t *testing.T) {
	r := NewRecorder()
	for i := 0; i < 2; i++ {
		r.StartJob("#9 collect", "Stage 1 root=#9 collect parts=1\n")
		r.EndJob(0.5, errors.New("simulated OOM"))
	}
	rep := r.Report()
	if strings.Contains(rep, "(x2)") {
		t.Error("failed jobs were collapsed; each failure should stay visible")
	}
	if strings.Count(rep, "ERROR: simulated OOM") != 2 {
		t.Errorf("want 2 ERROR lines, report:\n%s", rep)
	}
}

func TestSortedRules(t *testing.T) {
	r := record()
	got := r.SortedRules()
	want := []string{"half-lifted", "scalar-join"}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("SortedRules() = %v, want %v", got, want)
	}
}

func TestNilRecorderIsNoOp(t *testing.T) {
	var r *Recorder
	if r.Enabled() {
		t.Error("nil recorder reports Enabled")
	}
	// None of these may panic.
	r.StartJob("x", "y")
	r.StageRan(Stage{})
	r.BroadcastPinned(Broadcast{})
	r.Decide(Decision{})
	r.EndJob(0, nil)
	if r.Report() != "" || r.Jobs() != nil || r.Decisions() != nil {
		t.Error("nil recorder produced output")
	}
	if rules := r.SortedRules(); len(rules) != 0 {
		t.Errorf("nil recorder rules = %v", rules)
	}
}

func TestEventsOutsideJobAreDropped(t *testing.T) {
	r := NewRecorder()
	r.StageRan(Stage{Label: "orphan"}) // no open job
	r.EndJob(1, nil)                   // no open job
	r.StartJob("#1 count", "plan\n")
	r.EndJob(0.5, nil)
	jobs := r.Jobs()
	if len(jobs) != 1 || len(jobs[0].Stages) != 0 {
		t.Errorf("jobs = %+v", jobs)
	}
}

// TestRecoveryRendering: recovery events appear in Report, with the outcome taken from how the job ended, and a recovered job is
// never collapsed into an iterative run.
func TestRecoveryRendering(t *testing.T) {
	r := NewRecorder()
	r.StartJob("#9 collect", "Stage 1 root=#9 collect parts=4\n")
	r.StageRecovered(Recovery{
		Stage: 1, Label: "broadcastJoin",
		What:   "broadcast OOM (9000 bytes over a 4096-byte budget)",
		Action: "re-lowered(join=repartition)",
	})
	r.StageRecovered(Recovery{
		Stage: 2, Label: "groupByKey",
		What:   "task OOM (wave 2, machine 1: 9000 bytes over a 4096-byte budget)",
		Action: "re-lowered(parts 200→800)", Seconds: 1.25,
	})
	r.EndJob(3, nil)
	// An identical-looking job without recoveries: must not collapse.
	r.StartJob("#9 collect", "Stage 1 root=#9 collect parts=4\n")
	r.EndJob(3, nil)

	rep := r.Report()
	okLine := "  Recovery stage 1 broadcastJoin: broadcast OOM (9000 bytes over a 4096-byte budget) → re-lowered(join=repartition) → ok (failed attempt cost 0.00s)\n"
	if !strings.Contains(rep, okLine) {
		t.Errorf("report missing recovery line:\n%s", rep)
	}
	if !strings.Contains(rep, "re-lowered(parts 200→800) → ok (failed attempt cost 1.25s)") {
		t.Errorf("report missing parts recovery:\n%s", rep)
	}
	if strings.Contains(rep, "(x2)") {
		t.Errorf("recovered job collapsed with a clean one:\n%s", rep)
	}

	// A failed job renders the same recovery with outcome "failed".
	r2 := NewRecorder()
	r2.StartJob("#9 collect", "plan\n")
	r2.StageRecovered(Recovery{Stage: 1, Label: "groupByKey", What: "task OOM", Action: "re-lowered(parts 4→32)"})
	r2.EndJob(1, errors.New("still OOM"))
	if !strings.Contains(r2.Report(), "task OOM → re-lowered(parts 4→32) → failed") {
		t.Errorf("failed outcome not rendered:\n%s", r2.Report())
	}
}
