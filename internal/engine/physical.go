package engine

import (
	"matryoshka/internal/engine/plan"
)

// execPlan binds a physical plan to the engine's internal node graph: the
// planner works on its own Node/Dep representation, and the executor maps
// planned stages and memo sites back to *node/*dep via these tables.
type execPlan struct {
	plan   *plan.Plan
	pnodes map[*node]*plan.Node
	enodes map[*plan.Node]*node
	// memo is plan.Memo translated to engine nodes for the evaluator's
	// hot path.
	memo map[*node]bool
	// fused maps each node whose constructor-built chain (node.fuse) is
	// legal under this plan to that chain: every intermediate op is
	// invisible to the plan, so the evaluator may collapse the chain into
	// one typed loop (fuse.go).
	fused map[*node]*fuseInfo
}

func kindOf(k depKind) plan.DepKind {
	switch k {
	case depShuffle:
		return plan.Shuffle
	case depBroadcast:
		return plan.Broadcast
	}
	return plan.Narrow
}

// buildExecPlan converts the DAG reachable from target into the planner's
// representation, runs the planner, and returns the bound plan. It is the
// distinct planning step of every job: the executor below only consumes
// its output.
func (s *Session) buildExecPlan(target *node) *execPlan {
	return s.buildExecPlanFrom(target, nil, 0)
}

// buildExecPlanFrom is buildExecPlan for a recovery replan: nodes for
// which done reports true are already materialized on the job's stage
// frontier, so the planner treats them as leaves and plans only the
// unfinished suffix of the DAG. replan is the job's recovery generation
// (0 for the first plan).
func (s *Session) buildExecPlanFrom(target *node, done func(*node) bool, replan int) *execPlan {
	ep := &execPlan{
		pnodes: map[*node]*plan.Node{},
		enodes: map[*plan.Node]*node{},
	}
	var conv func(n *node) *plan.Node
	conv = func(n *node) *plan.Node {
		if pn, ok := ep.pnodes[n]; ok {
			return pn
		}
		pn := &plan.Node{ID: n.id, Label: n.label, Parts: n.parts, Weight: n.weight, Cached: n.cached}
		ep.pnodes[n] = pn
		ep.enodes[pn] = n
		if done != nil && done(n) {
			pn.Done = true
			return pn // frontier leaf: the planner never looks below it
		}
		for i := range n.deps {
			d := &n.deps[i]
			pn.Deps = append(pn.Deps, &plan.Dep{
				Owner:     pn,
				Index:     i,
				Parent:    conv(d.parent),
				Kind:      kindOf(d.kind),
				NarrowMap: d.narrowMap,
			})
		}
		return pn
	}
	root := conv(target)
	ep.plan = plan.Build(root, plan.Options{Replan: replan})
	ep.memo = make(map[*node]bool, len(ep.plan.Memo))
	for pn := range ep.plan.Memo {
		ep.memo[ep.enodes[pn]] = true
	}
	if !s.noFuse {
		ep.compileFusion()
	}
	return ep
}

// compileFusion decides, per planned node, whether its constructor-built
// fused chain may run under this plan. The chain collapses its
// intermediate ops into one loop, so each of them must be invisible to
// the plan: not a stage root (its partitions would never materialize),
// not a fan-in memo site (multi-consumer intermediates must still be
// computed exactly once), and not on the recovery frontier (its
// checkpointed data would be ignored). Recovery replans rebuild the
// execPlan, so fusion decisions always reflect the current plan — a node
// that becomes a memo site or frontier leaf after re-lowering simply
// stops fusing.
func (ep *execPlan) compileFusion() {
	ep.fused = make(map[*node]*fuseInfo)
	for n, pn := range ep.pnodes {
		fi := n.fuse
		if fi == nil || len(fi.via) < 2 || pn.Done {
			continue
		}
		// The chain must still mirror the live DAG: recovery's rewire
		// splices a replacement parent into consumer deps, and a
		// construction-time pipeline built over the abandoned lowering
		// would silently evaluate it — a node the current plan never
		// routes shuffle blocks or pins broadcasts for. Every fusible
		// operator chains through its first dep, so the links and head
		// must agree with deps[0] edges end to end.
		legal := true
		prev := fi.head
		for _, m := range fi.via {
			if len(m.deps) == 0 || m.deps[0].parent != prev {
				legal = false
				break
			}
			prev = m
		}
		if legal {
			for _, m := range fi.via[:len(fi.via)-1] {
				pm := ep.pnodes[m]
				if pm == nil || pm.Done || ep.plan.IsRoot(pm) || ep.plan.Memo[pm] {
					legal = false
					break
				}
			}
		}
		if legal {
			ep.fused[n] = fi
		}
	}
}

// stageOf returns the planned stage rooted at n.
func (ep *execPlan) stageOf(n *node) *plan.Stage { return ep.plan.StageOf(ep.pnodes[n]) }

// edep resolves a planned boundary edge back to the engine's dependency
// record.
func (ep *execPlan) edep(d *plan.Dep) *dep {
	owner := ep.enodes[d.Owner]
	return &owner.deps[d.Index]
}

// enode resolves a planned node back to the engine node.
func (ep *execPlan) enode(n *plan.Node) *node { return ep.enodes[n] }
