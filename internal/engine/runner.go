package engine

import (
	"fmt"

	"matryoshka/internal/cluster"
)

// This file is the stage-graph runner: the resumable half of job
// execution. The job's state between stage launches is its frontier — the
// set of stage roots already materialized, each held as a checkpoint with
// the cost provenance of the attempt that produced it. Launching a stage
// yields a structured stageResult instead of an error bubbling up a
// recursion, so a failure (OOM, exhausted retries) carries everything the
// adaptive recovery loop (recover.go) needs to re-lower the offending
// subplan and resume from the frontier.

// checkpoint is one completed entry of the job's stage frontier: the
// materialized partitions of a stage root plus the provenance of how they
// were produced.
type checkpoint struct {
	data []Batch
	// rep is the simulator's account of the successful attempt (zero for
	// adopted entries).
	rep cluster.StageReport
	// adopted marks entries served from a pinned node cache rather than
	// launched in this job.
	adopted bool
}

// stageResult is the structured outcome of launching one stage: the
// simulator's report on success, a typed failure otherwise.
type stageResult struct {
	rep  cluster.StageReport
	fail *stageFailure
}

// stageFailure describes one failed stage or broadcast launch in terms the
// recovery loop can act on.
type stageFailure struct {
	root *node  // stage root whose materialization failed
	st   *stage // the planned stage
	// owner is, for broadcast failures, the consuming operator whose
	// lowering chose the broadcast — the site recovery demotes.
	owner *node
	// oom is the cluster's memory failure detail, nil for transient
	// failures.
	oom *cluster.OOMError
	// fetch is the machine-crash fetch failure detail, with lost the
	// boundary parent whose outputs were destroyed (chaos.go); recovery
	// rewinds the frontier along lineage instead of re-lowering.
	fetch *cluster.FetchFailedError
	lost  *node
	// transient marks injected-failure retry exhaustion: rerunning the
	// same stage may succeed, no re-lowering needed.
	transient bool
	// seconds is the virtual time charged to the failed attempt (it stays
	// charged across recovery, as on a real cluster).
	seconds float64
	// err is the wrapped error reported when the job does not (or cannot)
	// recover.
	err error
}

// run drives the job to completion: plan, run stages, and — when the
// session enables recovery — re-lower and replan on failure, resuming from
// the frontier. The first plan is recorded by the event spine; replans are
// recorded with the recovery event that caused them.
func (j *job) run(target *node) ([]Batch, error) {
	j.ep = j.s.buildExecPlan(target, nil)
	if j.s.obs.Enabled() {
		j.s.obs.StartJob(fmt.Sprintf("#%d %s", target.id, target.label), j.ep.String())
	}
	for {
		fail := j.runStages(target)
		if fail == nil {
			return j.front[target].data, nil
		}
		newTarget, ok := j.recover(fail, target)
		if !ok {
			return nil, fail.err
		}
		target = newTarget
		j.ep = j.s.buildExecPlan(target, func(n *node) bool {
			_, done := j.front[n]
			return done
		})
	}
}

// runStages walks the demanded stage graph depth-first in the planner's
// boundary order — the same traversal the one-shot executor used, so
// non-failing runs charge the simulator identically — materializing every
// stage root that is not yet on the frontier. It returns the first
// failure, leaving the frontier at exactly the stages completed before it.
func (j *job) runStages(target *node) *stageFailure {
	var visit func(n *node) *stageFailure
	visit = func(n *node) *stageFailure {
		if _, ok := j.front[n]; ok {
			return nil
		}
		if n.cached {
			n.cacheMu.Lock()
			data := n.cacheData
			n.cacheMu.Unlock()
			if data != nil {
				j.front[n] = &checkpoint{data: data, adopted: true}
				return nil
			}
		}

		// The plan lists this stage's boundary deps; materialize their
		// parents first.
		st := j.ep.stageOf[n]
		for _, e := range st.boundary {
			if f := visit(e.parent); f != nil {
				return f
			}
		}
		// Route shuffle blocks and pin broadcasts for the boundary deps.
		// Each is a cluster-side fetch of the parent's outputs first: if a
		// machine crash destroyed them, the stage fails with a fetch
		// failure and recovery rewinds the lost parents along lineage.
		for _, e := range st.boundary {
			if f := j.checkFetch(e.dep, n, st); f != nil {
				return f
			}
			switch e.kind {
			case depShuffle:
				j.buildBlocks(e.dep)
			case depBroadcast:
				if f := j.pinBroadcast(e.dep, n, st, e.owner); f != nil {
					return f
				}
			}
		}
		if f := j.launchStage(n, st).fail; f != nil {
			return f
		}
		// The stage's tasks were the last readers of these shuffle blocks.
		for _, d := range j.ep.lastRead[st] {
			j.releaseBlocks(j.blocks[d])
		}
		return nil
	}
	return visit(target)
}
