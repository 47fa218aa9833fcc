// Package tasks implements the paper's four evaluation workloads
// (Sec. 9.1) — Bounce Rate, per-group PageRank, K-means hyperparameter
// search, and Average Distances — each under every execution strategy the
// paper compares:
//
//   - Matryoshka: the nested-parallel program flattened through
//     internal/core (constant job count, parallel at every level);
//   - inner-parallel: a driver loop over the inner computations, each
//     running as flat dataflow jobs (full inner parallelism, per-job
//     launch overhead multiplied by the number of inner computations);
//   - outer-parallel: one flat job that groups the data and runs the
//     inner computation sequentially inside a UDF (parallelism capped by
//     the number of groups, whole groups resident in single tasks);
//   - DIQL (Bounce Rate only): a compile-time flattener that degenerates
//     to the outer-parallel plan and rejects inner control flow (Sec. 9.4).
//
// Every Run executes for real and returns a checkable Value, so the test
// suite asserts that all strategies agree with the sequential reference.
package tasks

import (
	"errors"
	"fmt"

	"matryoshka/internal/cluster"
	"matryoshka/internal/datagen"
	"matryoshka/internal/engine"
	"matryoshka/internal/obs"
)

// zipfExponent maps a spec's (Skewed, Skew) knobs to the datagen skew
// exponent: 0 when unskewed, the explicit exponent when one is set
// (matbench -skew), datagen.DefaultZipfS otherwise.
func zipfExponent(skewed bool, skew float64) float64 {
	if !skewed {
		return 0
	}
	if skew > 1 {
		return skew
	}
	return datagen.DefaultZipfS
}

// Strategy names an execution strategy.
type Strategy string

// The strategies compared in the paper's evaluation.
const (
	Matryoshka    Strategy = "matryoshka"
	InnerParallel Strategy = "inner-parallel"
	OuterParallel Strategy = "outer-parallel"
	DIQL          Strategy = "diql"
)

// ErrControlFlowUnsupported is returned by the DIQL baseline for tasks
// with control flow at inner nesting levels, which DIQL cannot flatten
// (Sec. 9.1, Baselines).
var ErrControlFlowUnsupported = errors.New("tasks: DIQL does not support control flow at inner nesting levels")

// Outcome is one (task, strategy) run on the simulated cluster.
type Outcome struct {
	Task     string
	Strategy Strategy
	Seconds  float64 // simulated makespan
	Jobs     int
	Stages   int
	Tasks    int
	OOM      bool
	Err      error
	Value    any // strategy-independent result for correctness checks
}

func (o Outcome) String() string {
	if o.OOM {
		return fmt.Sprintf("%s/%s: OOM after %.1fs (%d jobs)", o.Task, o.Strategy, o.Seconds, o.Jobs)
	}
	if o.Err != nil {
		return fmt.Sprintf("%s/%s: error: %v", o.Task, o.Strategy, o.Err)
	}
	return fmt.Sprintf("%s/%s: %.1fs (%d jobs, %d stages, %d tasks)", o.Task, o.Strategy, o.Seconds, o.Jobs, o.Stages, o.Tasks)
}

// newSession builds an engine session on a fresh simulated cluster. An
// invalid cluster configuration is reported as an error, which runs turn
// into a failed Outcome via finish. The workaround baselines use it
// directly: they must die exactly where the systems they model die.
func newSession(cc cluster.Config) (*engine.Session, error) {
	return engine.NewSession(engine.Config{Cluster: cc, Obs: Obs, Backend: Backend})
}

// newMatryoshkaSession is newSession with the engine's adaptive recovery
// loop enabled (unless Recovery is flipped off): the runtime half of the
// paper's lowering phase, available only to the Matryoshka strategy.
func newMatryoshkaSession(cc cluster.Config) (*engine.Session, error) {
	return engine.NewSession(engine.Config{Cluster: cc, Obs: Obs, Backend: Backend, Recover: Recovery})
}

// recordWeight is the session's simulation scale (real records per
// simulated element); UDFs multiply their sequential operation counts and
// working-set sizes by it before charging the task context.
func recordWeight(sess *engine.Session) float64 {
	w := sess.Config().Cluster.RecordWeight
	if w < 1 {
		w = 1
	}
	return w
}

// failed is the Outcome of a run that could not start (no session).
func failed(task string, strat Strategy, err error) Outcome {
	return Outcome{Task: task, Strategy: strat, Err: err}
}

// finish assembles an Outcome from a finished (or failed) run and closes
// its session.
func finish(task string, strat Strategy, sess *engine.Session, value any, err error) Outcome {
	defer sess.Close()
	st := sess.Stats()
	return Outcome{
		Task:     task,
		Strategy: strat,
		Seconds:  sess.Clock(),
		Jobs:     st.Jobs,
		Stages:   st.Stages,
		Tasks:    st.Tasks,
		OOM:      errors.Is(err, cluster.ErrOutOfMemory),
		Err:      err,
		Value:    value,
	}
}

// Obs, when non-nil, receives the job/stage/broadcast events and optimizer
// decisions of every session created by tasks — the hook matbench's
// -explain flag uses to render EXPLAIN ANALYZE for a run.
var Obs *obs.Recorder

// Backend, when non-nil, replaces the per-run private simulator on every
// session created by tasks — matbench's `-backend proc` sets it to a
// procpool.Pool so stages with registered portable operators execute in
// real worker processes. When nil (the default), each run builds its own
// cluster.Simulator as always.
var Backend engine.Backend

// Recovery enables adaptive OOM/failure recovery on Matryoshka sessions
// (engine.Config.Recover): failed physical choices are re-lowered and jobs
// resume from their stage frontier. On by default; the memory-pressure
// experiments flip it off to show the abort-vs-recover gap. Workaround
// baselines never recover regardless.
var Recovery = true
