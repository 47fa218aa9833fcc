package bench

import (
	"fmt"
	"reflect"
	"strings"
	"time"

	"matryoshka/internal/procpool"
	"matryoshka/internal/tasks"
)

// ProcAB is the `matbench -backend proc` mode: run representative
// workloads twice — once on a per-run private simulator, once on a live
// process pool — assert the values are DeepEqual, and render the
// comparison. It is an executable proof that the portable task runtime
// computes exactly what the driver would have: same registered kernels,
// same blocks, same order.
//
// The k-means rows are the Fig. 1 workload (the inner-parallel plan ships
// its assign/reduce stages to workers; the outer-parallel plan's MapCtx
// UDF has no portable form and exercises the driver-local fallback). The
// inner plan's cached points stay on the pool for the session, so the
// "2nd session" row runs it again on the same pool: the first session's
// Close must have released them, and the second puts them afresh. The
// chaos row is the lineage-recovery diamond, run here without a fault
// plan — fault injection is the simulator's; real crashes are covered by
// the procpool test suite's kill hook.
func ProcAB(sc Scale, workers int) (string, error) {
	pool, err := procpool.Start(procpool.Config{Workers: workers})
	if err != nil {
		return "", err
	}
	defer pool.Close()
	oldBackend := tasks.Backend
	defer func() { tasks.Backend = oldBackend }()

	cc := sc.PaperCluster()
	var b strings.Builder
	fmt.Fprintf(&b, "proc A/B (%d workers): simulator vs process pool, values must be bit-identical\n", pool.LiveWorkers())
	fmt.Fprintf(&b, "%-16s %12s %12s %8s %8s  %s\n", "workload", "sim wall", "proc wall", "rstages", "rtasks", "values")

	run := func(name string, wantRemote bool, f func() tasks.Outcome) error {
		tasks.Backend = nil
		simStart := time.Now()
		simOut := f()
		simWall := time.Since(simStart)
		if simOut.Err != nil {
			return fmt.Errorf("proc-ab %s: sim run: %w", name, simOut.Err)
		}
		tasks.Backend = pool
		stagesBefore, tasksBefore := pool.RemoteStages(), pool.RemoteTasks()
		procStart := time.Now()
		procOut := f()
		procWall := time.Since(procStart)
		if procOut.Err != nil {
			return fmt.Errorf("proc-ab %s: proc run: %w", name, procOut.Err)
		}
		if !reflect.DeepEqual(simOut.Value, procOut.Value) {
			return fmt.Errorf("proc-ab %s: sim and proc values differ", name)
		}
		rStages, rTasks := pool.RemoteStages()-stagesBefore, pool.RemoteTasks()-tasksBefore
		if wantRemote && rTasks == 0 {
			return fmt.Errorf("proc-ab %s: no tasks ran in worker processes", name)
		}
		fmt.Fprintf(&b, "%-16s %12s %12s %8d %8d  identical\n",
			name, simWall.Round(time.Millisecond), procWall.Round(time.Millisecond), rStages, rTasks)
		return nil
	}

	ksp := kmeansSpec(sc, 8)
	for _, name := range []string{"k-means/inner", "2nd session"} {
		if err := run(name, true, func() tasks.Outcome { return ksp.Run(tasks.InnerParallel, cc) }); err != nil {
			return "", err
		}
	}
	if err := run("k-means/outer", false, func() tasks.Outcome { return ksp.Run(tasks.OuterParallel, cc) }); err != nil {
		return "", err
	}
	csp := chaosSpec(sc, 0)
	if err := run("chaos", true, func() tasks.Outcome { return csp.Run(cc) }); err != nil {
		return "", err
	}

	fmt.Fprintf(&b, "pool: %d bytes shipped, %d/%d workers live\n",
		pool.BytesShipped(), pool.LiveWorkers(), pool.Workers())
	return b.String(), nil
}
