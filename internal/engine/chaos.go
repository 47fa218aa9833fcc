package engine

// Lineage-based fault tolerance (the Spark contract the paper's substrate
// relies on, Sec. 9): when a machine crash destroys a completed stage's
// shuffle outputs, the consuming stage's fetch fails and the job rewinds
// its frontier along lineage — the lost parent stages are marked un-done
// and recomputed, everything still resident is kept, and the run resumes
// with the virtual clock preserved (failed attempts and recomputation both
// stay charged). Recomputation is bounded per stage; when a stage keeps
// losing its outputs the job backs off exponentially and retries from
// scratch, and when that budget is spent too it aborts with a full
// failure report.

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"matryoshka/internal/cluster"
)

const (
	// maxStageRecomputes caps lineage recomputations of one stage root
	// after fetch failures (Spark's spark.stage.maxConsecutiveAttempts).
	maxStageRecomputes = 8
	// maxFetchJobRetries caps from-scratch job retries after a stage
	// exhausts its recompute budget.
	maxFetchJobRetries = 3
	// fetchBackoffBase is the virtual-seconds backoff before the first
	// job retry; it doubles per retry.
	fetchBackoffBase = 5.0
)

// Residency is the optional machine-failure facet of a Backend: it tracks
// which machines hold which stage outputs, so fetches can fail when a
// machine crashes. The private cluster.Simulator and the process pool
// implement it; the engine no-ops on a backend without it.
type Residency interface {
	// RegisterOutput records a completed stage's shuffle output (one
	// partition per entry) on the currently live machines.
	RegisterOutput(parts int) cluster.OutputID
	// CheckFetch reports a *cluster.FetchFailedError if any partition of
	// the output was destroyed by a machine crash.
	CheckFetch(id cluster.OutputID) error
	// DropOutput forgets an output (its stage was rewound or recomputed).
	DropOutput(id cluster.OutputID)
	// Advance charges driver-side virtual seconds (retry backoff).
	Advance(dt float64)
}

var _ Residency = (*cluster.Simulator)(nil)

// checkFetch simulates the cluster-side read of boundary dep d by stage
// root n: if the parent's registered shuffle output lost partitions to a
// machine crash, the stage fails with a fetch failure instead of
// launching. Deps whose data this job already routed (blocks) or pinned
// (broadcast flatten) were fetched before the crash and stay usable — the
// entry in blocks records the fetch and outlives the released blocks, which
// a relaunch routes again from the driver's frontier, not from the cluster;
// adopted cache entries never registered an output and fetch cleanly.
func (j *job) checkFetch(d *dep, n *node, st *stage) *stageFailure {
	if j.s.resid == nil {
		return nil
	}
	switch d.kind {
	case depShuffle:
		if _, routed := j.blocks[d]; routed {
			return nil
		}
	case depBroadcast:
		if _, pinned := j.bcast[d]; pinned {
			return nil
		}
	}
	id, ok := j.outputs[d.parent]
	if !ok {
		return nil
	}
	err := j.s.resid.CheckFetch(id)
	if err == nil {
		return nil
	}
	f := &stageFailure{
		root: n,
		st:   st,
		lost: d.parent,
		err: fmt.Errorf("engine: stage %q could not fetch %q: %w",
			n.label, d.parent.label, err),
	}
	if ff, ok := err.(*cluster.FetchFailedError); ok {
		f.fetch = ff
	}
	return f
}

// registerOutput records a freshly materialized stage root's shuffle
// output with the backend's residency tracker, replacing any stale handle
// from a previous attempt.
func (j *job) registerOutput(n *node) {
	if j.s.resid == nil {
		return
	}
	if old, ok := j.outputs[n]; ok {
		j.s.resid.DropOutput(old)
	}
	j.outputs[n] = j.s.resid.RegisterOutput(n.parts)
}

// rewindLost is the fetch-failure recovery: un-do every frontier stage
// whose registered outputs a crash destroyed (the crash took a whole
// machine, so sibling stages' outputs are typically gone too) and let the
// runner recompute exactly those stages from lineage. Returns the obs
// action string and whether the job should resume; on false the caller
// aborts with f.err, which this method upgrades to a full failure report.
func (j *job) rewindLost(f *stageFailure) (string, bool) {
	// Probe every registered output so one rewind covers the whole crash.
	var lost []*node
	if j.s.resid != nil {
		for n, id := range j.outputs {
			if j.s.resid.CheckFetch(id) != nil {
				lost = append(lost, n)
			}
		}
	}
	if len(lost) == 0 {
		if f.lost == nil {
			// A fleet-level failure (worker quorum lost) names no parent
			// and left no probe-able lost outputs: there is nothing to
			// rewind selectively, so escalate straight to the bounded
			// from-scratch job retry.
			return j.retryJob(f)
		}
		lost = []*node{f.lost}
	}
	sort.Slice(lost, func(a, b int) bool { return lost[a].id < lost[b].id })

	overCap := false
	for _, n := range lost {
		j.recomputed[n]++
		if j.recomputed[n] > maxStageRecomputes {
			overCap = true
		}
	}
	if overCap {
		return j.retryJob(f)
	}

	ids := make([]string, 0, len(lost))
	for _, n := range lost {
		j.rewindNode(n)
		if st := j.ep.stageOf[n]; st != nil {
			ids = append(ids, fmt.Sprintf("%d", st.id))
		} else {
			ids = append(ids, n.label)
		}
	}
	return fmt.Sprintf("recomputed parents {%s}", strings.Join(ids, ",")), true
}

// rewindNode marks one stage root un-done: its frontier checkpoint,
// registered output, and the shuffle blocks this job routed from it are
// dropped, so the replanned suffix recomputes it. Node caches are kept —
// they model driver-side persisted replicas — and pinned broadcasts stay
// pinned: the simulator re-pushes broadcast blocks to rejoining machines
// and charges for it.
func (j *job) rewindNode(n *node) {
	delete(j.front, n)
	if id, ok := j.outputs[n]; ok {
		j.s.resid.DropOutput(id)
		delete(j.outputs, n)
	}
	for d := range j.blocks {
		if d.parent == n {
			j.dropBlocks(d)
		}
	}
}

// retryJob is the escalation past per-stage recompute limits: charge an
// exponentially growing backoff, rewind every launched stage (adopted
// cache entries are driver-resident and stay), and restart the job's
// stage graph from scratch. After maxFetchJobRetries the job aborts and
// f.err becomes the full failure report.
func (j *job) retryJob(f *stageFailure) (string, bool) {
	if j.jobRetries >= maxFetchJobRetries {
		f.err = j.failureReport(f)
		return "", false
	}
	j.jobRetries++
	backoff := fetchBackoffBase * math.Pow(2, float64(j.jobRetries-1))
	if j.s.resid != nil {
		j.s.resid.Advance(backoff)
	}
	for n, cp := range j.front {
		if !cp.adopted {
			delete(j.front, n)
		}
	}
	for n, id := range j.outputs {
		if j.s.resid != nil {
			j.s.resid.DropOutput(id)
		}
		delete(j.outputs, n)
	}
	for d := range j.blocks {
		j.dropBlocks(d)
	}
	return fmt.Sprintf("job retry %d/%d (backoff %.0fs)", j.jobRetries, maxFetchJobRetries, backoff), true
}

// failureReport composes the abort error for a job that machine failures
// defeated: which stages were recomputed how often, how many retries were
// spent, and what the cluster went through.
func (j *job) failureReport(f *stageFailure) error {
	type rc struct {
		label string
		n     int
	}
	var rcs []rc
	for n, c := range j.recomputed {
		rcs = append(rcs, rc{n.label, c})
	}
	sort.Slice(rcs, func(a, b int) bool { return rcs[a].label < rcs[b].label })
	detail := make([]string, 0, len(rcs))
	for _, r := range rcs {
		detail = append(detail, fmt.Sprintf("%s×%d", r.label, r.n))
	}
	st := j.s.exec.Stats()
	return fmt.Errorf("engine: job aborted by machine failures after %d job retries "+
		"(stage recomputes: %s; cluster: %d crashes, %d rejoins, %d failed fetches): %w",
		j.jobRetries, strings.Join(detail, ", "), st.MachineCrashes, st.MachineRejoins, st.FetchFailures, f.err)
}
