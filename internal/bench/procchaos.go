package bench

import (
	"fmt"
	"reflect"
	"strings"
	"time"

	"matryoshka/internal/cluster"
	"matryoshka/internal/obs"
	"matryoshka/internal/procpool"
	"matryoshka/internal/tasks"
)

// procChaosRounds is the soak length: back-to-back jobs on one session,
// each a lineage diamond, all under continuous seeded crash injection.
// The acceptance bar is >= 20 jobs; keep it there.
const procChaosRounds = 20

// ProcChaos is the `matbench -backend proc -procchaos` mode: a soak that
// runs the chaos diamond workload on a live process pool while a seeded
// fault plan SIGKILLs the assigned worker every KillEveryTasks
// dispatches. Two phases on the same seed:
//
//   - respawn ON: the pool heals (exponential-backoff respawn under a
//     budget), lineage recovery recomputes the shuffle outputs that died
//     with each worker, and the final value must be bit-identical to the
//     sequential reference — with at least one respawn and at least one
//     lineage recomputation actually observed, or the soak fails.
//   - respawn OFF: same seed, same kill cadence, a negative
//     RespawnBudget. The fleet shrinks to zero, quorum is lost, and the
//     run must abort with a typed error instead of hanging or
//     fabricating a value.
//
// Both phases render their EXPLAIN ANALYZE report so the crash, respawn
// and Recovery lines are visible evidence, not just counters.
func ProcChaos(sc Scale, workers int) (string, error) {
	if workers == 0 {
		// Unlike ProcAB the soak wants a survivor: a kill should leave a
		// live worker to requeue onto, so the default fleet is two even
		// on a single-core box.
		workers = 2
	}
	sp := tasks.ChaosSpec{Records: sc.Records(0.2), Keys: 64, Parts: 4, Rounds: procChaosRounds}
	want := sp.Reference()
	plan := procpool.FaultPlan{Seed: sc.seed(), KillEveryTasks: 23}

	oldBackend, oldObs := tasks.Backend, tasks.Obs
	defer func() { tasks.Backend, tasks.Obs = oldBackend, oldObs }()

	var b strings.Builder
	fmt.Fprintf(&b, "proc chaos soak: %d jobs, worker killed every %d task dispatches (seed %d)\n\n",
		sp.Rounds, plan.KillEveryTasks, plan.Seed)

	// Phase 1: respawn on — the pool must heal and the value must match.
	rec := obs.NewRecorder()
	pool, err := procpool.Start(procpool.Config{
		Workers:        workers,
		TaskDeadline:   10 * time.Second,
		RespawnBackoff: 20 * time.Millisecond,
		Faults:         plan,
		Events:         rec,
	})
	if err != nil {
		return "", err
	}
	defer pool.Close()
	tasks.Backend, tasks.Obs = pool, rec

	start := time.Now()
	out := sp.Run(cluster.Config{})
	wall := time.Since(start)
	if out.Err != nil {
		return "", fmt.Errorf("procchaos: respawn-on soak failed: %w", out.Err)
	}
	if !reflect.DeepEqual(out.Value, want) {
		return "", fmt.Errorf("procchaos: respawn-on value %+v != reference %+v", out.Value, want)
	}
	st := pool.Stats()
	if pool.Respawns() == 0 {
		return "", fmt.Errorf("procchaos: soak completed without a single respawn; raise the kill cadence")
	}
	if st.FetchFailures == 0 {
		return "", fmt.Errorf("procchaos: soak completed without a lineage recomputation; the kills never cost an output")
	}
	report := rec.Report()
	if !strings.Contains(report, "Recovery") {
		return "", fmt.Errorf("procchaos: EXPLAIN ANALYZE shows no Recovery line despite %d fetch failures", st.FetchFailures)
	}
	fmt.Fprintf(&b, "respawn ON:  %d jobs bit-identical to reference in %s\n", sp.Rounds, wall.Round(time.Millisecond))
	fmt.Fprintf(&b, "             %d crashes, %d respawns, %d quarantines, %d lost-output fetch failures, %d/%d workers live at exit\n\n",
		st.MachineCrashes, pool.Respawns(), pool.Quarantines(), st.FetchFailures, pool.LiveWorkers(), pool.Workers())
	b.WriteString(report)
	b.WriteString("\n")

	// Phase 2: respawn off — same seed, same cadence; dead workers stay
	// dead, the fleet drains below quorum, and the run must abort.
	rec2 := obs.NewRecorder()
	pool2, err := procpool.Start(procpool.Config{
		Workers:       workers,
		TaskDeadline:  10 * time.Second,
		RespawnBudget: -1,
		QuorumWait:    200 * time.Millisecond,
		Faults:        plan,
		Events:        rec2,
	})
	if err != nil {
		return "", err
	}
	defer pool2.Close()
	tasks.Backend, tasks.Obs = pool2, rec2

	start = time.Now()
	out2 := sp.Run(cluster.Config{})
	wall2 := time.Since(start)
	if out2.Err == nil {
		return "", fmt.Errorf("procchaos: respawn-off run survived the same kill schedule; the control proves nothing")
	}
	st2 := pool2.Stats()
	fmt.Fprintf(&b, "respawn OFF: aborted after %s with %d/%d workers live: %v\n",
		wall2.Round(time.Millisecond), pool2.LiveWorkers(), pool2.Workers(), out2.Err)
	fmt.Fprintf(&b, "             %d crashes, %d respawns\n\n", st2.MachineCrashes, pool2.Respawns())
	b.WriteString(rec2.Report())
	return b.String(), nil
}
