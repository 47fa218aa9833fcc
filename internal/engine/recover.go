package engine

import (
	"fmt"

	"matryoshka/internal/cluster"
	"matryoshka/internal/obs"
)

// Adaptive recovery (the runtime half of the paper's Sec. 8 lowering
// phase): when a stage or broadcast fails, re-lower just the offending
// subplan — raise the shuffle partition count for task OOMs, demote a
// broadcast to its registered repartition/mirrored fallback for broadcast
// OOMs — denylist the failed choice in the session's optimizer feedback,
// and let the runner resume from the stage frontier. Bounded by the caps
// below so a workload that genuinely cannot fit still fails.
const (
	// maxJobRecoveries caps re-lowerings (plan changes) per job.
	maxJobRecoveries = 8
	// maxStageAttempts caps launches of one stage root. Transient
	// (injected-failure) reruns redraw the failure dice each attempt, so
	// with the default single task retry a wide stage fails most attempts
	// at high failure rates; the cap is a backstop against a rate so high
	// the workload genuinely cannot finish, not a realistic retry budget.
	maxStageAttempts = 64
	// maxPartsRaise caps the cumulative partition-raise factor per stage
	// root (and the session-wide optimizer boost).
	maxPartsRaise = 256
)

// refallback is an operator's registered alternative physical lowering,
// installed by the constructor that makes the primary choice (e.g.
// broadcastJoin registers the repartition join). The replacement must have
// identical output type, element semantics and partition count.
type refallback struct {
	rule, choice, alt string // Sec. 8 decision-log vocabulary
	// introRule/introChoice name the physical choice the alternative
	// itself introduces (empty when nothing denylistable): recovery
	// refuses a fallback that would reintroduce a denylisted choice,
	// which bounds demote ping-pong between mirrored lowerings.
	introRule, introChoice string
	build                  func() *node
}

// recover decides how to continue after a stage failure. It returns the
// (possibly re-lowered) job target and whether the runner should resume;
// (nil, false) means the job aborts with the failure's error. Each applied
// recovery is recorded on the event spine and — for re-lowerings — in the
// Sec. 8 decision log with a retried-after-OOM cause.
func (j *job) recover(f *stageFailure, target *node) (*node, bool) {
	if !j.s.cfg.Recover {
		return nil, false
	}
	rec := obs.Recovery{Label: f.root.label, Seconds: f.seconds}
	if f.st != nil {
		rec.Stage = f.st.id
	}
	ok := false
	relowered := false
	switch {
	case f.transient:
		// A rerun changes nothing about the plan, so it is capped only per
		// stage root, not against the job's re-lowering budget.
		rec.What = "task retries exhausted"
		if j.attempts[f.root] < maxStageAttempts {
			rec.Action = "rerun"
			ok = true
		}
	case f.fetch != nil:
		// A machine crash destroyed a completed parent's shuffle outputs:
		// rewind the frontier along lineage and recompute the lost stages
		// (chaos.go). Not a plan change, so it does not spend the
		// re-lowering budget; it is bounded by its own recompute caps.
		// f.lost is nil for the fleet-level failure (worker quorum lost),
		// which names no machine or parent: rewindLost recomputes what its
		// probe finds lost, or else retries the whole job.
		rec.What = "worker quorum lost"
		if f.lost != nil {
			rec.What = fmt.Sprintf("fetch-failed(m%d): lost %d/%d partitions of %q",
				f.fetch.Machine, len(f.fetch.Parts), f.fetch.Total, f.lost.label)
		}
		rec.Action, ok = j.rewindLost(f)
	case f.oom == nil || j.relowered >= maxJobRecoveries:
		// Not a memory failure, or the job already spent its re-lowering
		// budget: abort.
	case f.oom.What == "broadcast":
		rec.What = fmt.Sprintf("broadcast OOM (%d bytes over a %d-byte budget)", f.oom.Bytes, f.oom.Limit)
		target, rec.Action, ok = j.demoteBroadcast(f.owner, f.oom, target)
		relowered = ok
	default:
		rec.What = fmt.Sprintf("task OOM (wave %d, machine %d: %d bytes over a %d-byte budget)",
			f.oom.Wave, f.oom.Machine, f.oom.Bytes, f.oom.Limit)
		// A wave starved mostly by pinned broadcasts is better fixed by
		// demoting the broadcast than by splitting its own tasks.
		if f.oom.Resident > f.oom.Limit {
			target, rec.Action, ok = j.demoteBroadcastIn(f, target)
		}
		if !ok {
			rec.Action, ok = j.raiseParts(f)
		}
		if !ok {
			target, rec.Action, ok = j.demoteBroadcastIn(f, target)
		}
		if !ok {
			// Last resort: re-lower the failed stage root itself to its
			// registered fallback. This is how a giant-group OOM demotes a
			// materialized group build to the shredded spill lowering —
			// raising partitions cannot split one group, so raiseParts has
			// already refused by the time this fires. demoteBroadcast is
			// the generic fallback demotion despite its name: it works on
			// any node with a registered refallback.
			target, rec.Action, ok = j.demoteBroadcast(f.root, f.oom, target)
		}
		relowered = ok
	}
	if !ok {
		return nil, false
	}
	if relowered {
		j.relowered++
	}
	j.s.obs.StageRecovered(rec)
	return target, true
}

// demoteBroadcast replaces the broadcast-consuming operator `owner` with
// its registered fallback lowering, denylisting the failed choice so the
// optimizer never re-picks it in this session.
func (j *job) demoteBroadcast(owner *node, oom *cluster.OOMError, target *node) (*node, string, bool) {
	if owner == nil || owner.fallback == nil {
		return target, "", false
	}
	fb := owner.fallback
	if fb.introRule != "" {
		if _, denied := j.s.feedback.Denied(fb.introRule, fb.introChoice); denied {
			return target, "", false // would reintroduce a denylisted choice
		}
	}
	why := fmt.Sprintf("%s=%s OOMed at run time (%d bytes over a %d-byte budget)",
		fb.rule, fb.choice, oom.Bytes, oom.Limit)
	j.s.feedback.Deny(fb.rule, fb.choice, why)
	j.s.obs.Decide(obs.Decision{Rule: fb.rule, Choice: fb.alt, Forced: true,
		Why: "retried-after-OOM: " + why})
	repl := fb.build()
	repl.cached = owner.cached
	// Drop state attached to the abandoned operator: its pinned
	// broadcasts stop pressuring later waves, its routed blocks and memo
	// entries are garbage.
	for i := range owner.deps {
		j.unpin(&owner.deps[i])
	}
	j.purgeNode(owner)
	rewire(owner, repl)
	if owner == target {
		target = repl
	}
	return target, fmt.Sprintf("re-lowered(%s=%s)", fb.rule, fb.alt), true
}

// demoteBroadcastIn demotes the first demotable broadcast consumed by the
// failed stage — the task-OOM variant, where the broadcast pinned fine but
// starves the stage's waves.
func (j *job) demoteBroadcastIn(f *stageFailure, target *node) (*node, string, bool) {
	if f.st == nil {
		return target, "", false
	}
	for _, e := range f.st.boundary {
		if e.kind != depBroadcast {
			continue
		}
		if t2, action, ok := j.demoteBroadcast(e.owner, f.oom, target); ok {
			return t2, action, true
		}
	}
	return target, "", false
}

// raiseParts re-lowers a task OOM by raising the partition count of the
// failed stage's narrow component: the same data in more, smaller
// partitions fits the per-machine wave budget (Sec. 8.1's partition rule,
// applied reactively). It refuses when the component's layout is
// load-bearing (fixed-partition operators, unions, sources,
// already-materialized members) — a single giant group stays an
// OOM, exactly as the paper observes.
func (j *job) raiseParts(f *stageFailure) (string, bool) {
	oom := f.oom
	if oom == nil || oom.Limit <= 0 {
		return "", false
	}
	members, ok := j.narrowComponent(f.root)
	if !ok {
		return "", false
	}
	factor := oomRaiseFactor(oom)
	already := j.raised[f.root]
	if already == 0 {
		already = 1
	}
	if already*factor > maxPartsRaise {
		return "", false
	}
	j.raised[f.root] = already * factor
	old := f.root.parts
	newParts := old * factor
	for _, m := range members {
		m.parts = newParts
		for i := range m.deps {
			m.deps[i].childParts = newParts
		}
		if m.pkey != nil {
			// Fresh copy: nodes outside the component sharing the old
			// partInfo pointer keep their (still true) old layout claim.
			m.pkey = &partInfo{keyType: m.pkey.keyType, parts: newParts}
		}
		j.purgeNode(m)
	}
	j.s.feedback.BoostParts(factor)
	j.s.obs.Decide(obs.Decision{
		Rule:   "partitions",
		Choice: fmt.Sprintf("%d", newParts),
		Forced: true,
		Why: fmt.Sprintf("retried-after-OOM: %q overflowed a machine at %d parts (%d bytes over a %d-byte budget)",
			f.root.label, old, oom.Bytes, oom.Limit),
	})
	return fmt.Sprintf("re-lowered(parts %d→%d)", old, newParts), true
}

// narrowComponent collects the closure of narrow edges around root — the
// set of nodes that must change partition count together for the DAG to
// stay consistent — or reports that raising partitions is not applicable.
// A Union is never in a component: it has more partitions than either of
// its inputs, and every member must have root's.
func (j *job) narrowComponent(root *node) ([]*node, bool) {
	comp := map[*node]bool{root: true}
	queue := []*node{root}
	var members []*node
	for len(queue) > 0 {
		m := queue[0]
		queue = queue[1:]
		members = append(members, m)
		if m.fixedParts || m.parts != root.parts || len(m.deps) == 0 {
			return nil, false
		}
		if _, onFrontier := j.front[m]; onFrontier {
			return nil, false // already materialized at the old layout
		}
		m.cacheMu.Lock()
		hasCache := m.cacheData != nil
		children := append([]*node(nil), m.children...)
		m.cacheMu.Unlock()
		if hasCache {
			return nil, false
		}
		for i := range m.deps {
			d := &m.deps[i]
			if d.kind != depNarrow {
				continue
			}
			if !comp[d.parent] {
				comp[d.parent] = true
				queue = append(queue, d.parent)
			}
		}
		for _, c := range children {
			for i := range c.deps {
				d := &c.deps[i]
				if d.parent != m || d.kind != depNarrow {
					continue
				}
				if !comp[c] {
					comp[c] = true
					queue = append(queue, c)
				}
			}
		}
	}
	return members, true
}

// oomRaiseFactor picks the power-of-two partition multiplier that brings
// the overflowing machine's wave pressure under budget with 2x headroom.
func oomRaiseFactor(oom *cluster.OOMError) int {
	f := 2
	need := 2 * float64(oom.Bytes) / float64(oom.Limit)
	for float64(f) < need && f < maxPartsRaise {
		f *= 2
	}
	return f
}

// rewire splices repl into the DAG in place of old: every consumer dep
// pointing at old is repointed at repl in place, so dataset handles held
// by user code and later jobs see the re-lowered operator.
func rewire(old, repl *node) {
	old.cacheMu.Lock()
	children := old.children
	old.children = nil
	old.cacheMu.Unlock()
	for _, c := range children {
		for i := range c.deps {
			if c.deps[i].parent == old {
				c.deps[i].parent = repl
			}
		}
	}
	repl.cacheMu.Lock()
	repl.children = append(repl.children, children...)
	repl.cacheMu.Unlock()
}

// purgeNode drops the job-level state derived from n under its old
// lowering: routed shuffle blocks, fan-in memo entries and once values.
// Pinned broadcasts are NOT dropped here — broadcast content is partition
// independent; demotion unpins explicitly via unpin.
func (j *job) purgeNode(n *node) {
	j.onceVals.Delete(n.id)
	j.memo.Range(func(k, _ any) bool {
		if k.(memoKey).n == n {
			j.memo.Delete(k)
		}
		return true
	})
	for i := range n.deps {
		j.dropBlocks(&n.deps[i])
	}
}

// unpin releases the broadcast pinned for dep d, if any.
func (j *job) unpin(d *dep) {
	if b, ok := j.bcastBytes[d]; ok {
		j.s.exec.Unpin(b)
		delete(j.bcastBytes, d)
	}
	delete(j.bcast, d)
}
