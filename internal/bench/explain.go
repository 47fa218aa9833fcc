package bench

import (
	"fmt"

	"matryoshka/internal/cluster"
	"matryoshka/internal/obs"
	"matryoshka/internal/tasks"
)

// ExplainTasks lists the task names ExplainRun accepts.
func ExplainTasks() []string {
	return []string{"bounce-rate", "pagerank", "k-means", "avg-distances", "recovery", "chaos", "shred"}
}

// ExplainRun runs one task's Matryoshka strategy at this scale with the
// event spine attached and renders what happened: the EXPLAIN ANALYZE
// report (per-job physical plans, per-stage measured costs, and the
// Sec. 8 optimizer decision log). It is the engine behind matbench's
// -explain flag.
//
// The run is deliberately small (a few groups at the configured scale):
// the point is the plan and the decisions, not the figure-scale numbers.
func ExplainRun(task string, sc Scale) (string, error) {
	rec, err := explainRecorder(task, sc)
	if err != nil {
		return "", err
	}
	return rec.Report(), nil
}

// explainRecorder runs one task with the event spine attached and returns
// the populated recorder.
func explainRecorder(task string, sc Scale) (*obs.Recorder, error) {
	rec := obs.NewRecorder()
	prev := tasks.Obs
	tasks.Obs = rec
	defer func() { tasks.Obs = prev }()

	cc := sc.PaperCluster()
	var out tasks.Outcome
	switch task {
	case "bounce-rate":
		out = bounceSpec(sc, 8, 2, false).Run(tasks.Matryoshka, cc)
	case "pagerank":
		out = pageRankSpec(sc, 8, 2, false).Run(tasks.Matryoshka, cc)
	case "k-means":
		out = kmeansSpec(sc, 8).Run(tasks.Matryoshka, cc)
	case "avg-distances":
		out = avgDistSpec(8).Run(tasks.Matryoshka, cc)
	case "recovery":
		// The Sec. 9 memory-pressure scenario on deliberately tight
		// machines: the report shows the adaptive recovery loop demoting
		// the oversized broadcast join and re-raising the group stage's
		// partition count (stage N: OOM → re-lowered(...) → ok).
		out = memPressureSpec(sc).Run(sc.Cluster(2, 2, 2))
	case "chaos":
		// The fault-tolerance scenario under an aggressive crash hazard:
		// the report's fault-event stream shows machines crashing and
		// rejoining, and the recovery lines show lost shuffle fetches
		// being repaired by lineage recomputation
		// (fetch-failed(mN) → recomputed parents {...} → ok).
		sp := chaosSpec(sc, 4)
		if sc.MTBF > 0 {
			sp.Faults = cluster.FaultPlan{MTBF: sc.MTBF, Seed: sc.seed()}
		}
		out = sp.Run(sc.Cluster(4, 4, 8))
	case "shred":
		// The skewed nested-materialization scenario on the sec-shred
		// demo cluster: the decision log's rule=shred line shows the
		// optimizer reading the observed group sizes and picking the
		// shredded flat/dictionary lowering for the un-shred boundary.
		skew := sc.Skew
		if skew <= 1 {
			skew = 2.0
		}
		out = shredSpec(sc, skew).Run(sc.Cluster(2, 2, 1))
	default:
		return nil, fmt.Errorf("bench: unknown task %q (have %v)", task, ExplainTasks())
	}
	if out.Err != nil {
		return nil, out.Err
	}
	return rec, nil
}
