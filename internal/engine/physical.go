package engine

import (
	"slices"

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
	// fused maps the top of each fused chain of this plan to the chain: the
	// ops below the top are invisible to the plan, so the evaluator runs
	// the whole chain as one typed loop (fuse.go).
	fused map[*node]*fuseInfo
	// lastRead lists, under the last stage of the plan that reads them, the
	// shuffle deps whose routed blocks die with their readers (every one
	// but the aliased): when that stage succeeds the job releases them.
	lastRead map[*plan.Stage][]*dep
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
	// Stages are in launch order, so a dep's last reader is the first stage
	// that has it on its boundary walking backwards.
	ep.lastRead = map[*plan.Stage][]*dep{}
	seen := map[*dep]bool{}
	for _, st := range slices.Backward(ep.plan.Stages) {
		for _, pd := range st.Boundary {
			if d := ep.edep(pd); pd.Kind == plan.Shuffle && !d.aliased && !seen[d] {
				seen[d] = true
				ep.lastRead[st] = append(ep.lastRead[st], d)
			}
		}
	}
	return ep
}

// compileFusion finds this plan's fused chains (fuse.go); runners compose
// their instances from the operators' links. A chain runs top to bottom
// through each link's streamed dep while that dep reads partition p for
// partition p (no narrowMap) and the parent is itself a link the plan cannot
// see: not a stage root (its partitions must materialize: shuffle and
// broadcast parents, cached nodes, the recovery frontier), not a fan-in memo
// site (a multi-consumer intermediate must still be computed exactly once).
// Such a parent has one consumer in the plan, so it lies inside exactly one
// chain; every other link tops a chain of its own. A node the plan can see
// therefore cuts a chain into two that both fuse — it tops the lower one
// and, evaluated through evalPart like any head (memo, frontier and cache
// apply), feeds the upper one — and a chain longer than maxFuseOps splits
// the same way. The walk reads the live deps: recovery's rewire splices
// replacement parents into them and every replan recompiles, so no chain can
// run through a lowering the current plan abandoned.
func (ep *execPlan) compileFusion() {
	ep.fused = make(map[*node]*fuseInfo)
	// fusible: n is a link streaming its parent's partition p into its own
	// partition p, as a chain's loop over head partition p does.
	fusible := func(n *node) bool {
		return n.link != nil && n.deps[n.link.stream].narrowMap == nil
	}
	// below returns the link n's chain continues into, nil if it ends at n.
	below := func(n *node) *node {
		m := n.deps[n.link.stream].parent
		if !fusible(m) || m.link.sink == nil {
			return nil
		}
		if pm := ep.pnodes[m]; pm.Done || ep.plan.IsRoot(pm) || ep.plan.Memo[pm] {
			return nil
		}
		return m
	}
	interior := map[*node]bool{}
	for n, pn := range ep.pnodes {
		if fusible(n) && !pn.Done {
			if m := below(n); m != nil {
				interior[m] = true
			}
		}
	}
	for n, pn := range ep.pnodes {
		if !fusible(n) || pn.Done || interior[n] {
			continue
		}
		for top := n; top != nil; {
			via := []*node{top}
			next := below(top)
			for ; next != nil && len(via) < maxFuseOps; next = below(next) {
				via = append(via, next)
			}
			slices.Reverse(via)
			if len(via) >= 2 {
				ep.fused[top] = &fuseInfo{
					head: via[0].deps[via[0].link.stream].parent,
					via:  via,
					slot: len(ep.fused),
				}
			}
			top = next // the cap cut the chain here: next heads it and tops the rest
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
