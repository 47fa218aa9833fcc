package engine

import (
	"cmp"
	"fmt"
	"maps"
	"slices"
	"strings"
)

// execPlan is the physical plan of one job, built over the job's own DAG in
// a planning step distinct from execution: which nodes are stage roots, how
// stages read each other, which narrow fan-in nodes are memoized and which
// narrow chains run fused. The executor makes no planning decision of its
// own, and EXPLAIN renders exactly what it consumes.
type execPlan struct {
	// stages in launch order: every stage appears after the stages it reads
	// through its boundary.
	stages []*stage
	// stageOf maps every stage root to its stage. Roots are materialized in
	// full: the target, every shuffle or broadcast parent, every cached
	// parent and every node on the recovery frontier.
	stageOf map[*node]*stage
	// planned holds every node the planner reached, true for the frontier
	// leaves it never looked below.
	planned map[*node]bool
	// memo marks the narrow, non-root nodes with partition fan-in > 1, whose
	// partitions the evaluator computes once per job and replays to every
	// consumer (memoEntry).
	memo map[*node]bool
	// fused maps the top of each fused chain of this plan to the chain: the
	// ops below the top are invisible to the plan, so the evaluator runs
	// the whole chain as one typed loop (fuse.go).
	fused map[*node]*fuseInfo
	// lastRead lists, under the last stage of the plan that reads them, the
	// shuffle deps whose routed blocks die with their readers (every one
	// but the aliased): when that stage succeeds the job releases them.
	lastRead map[*stage][]*dep
}

// stage is one unit of execution: its root is materialized in full, and the
// narrow ancestors inside the stage are pipelined into the root's tasks.
type stage struct {
	id   int
	root *node
	// boundary lists the edges that leave the stage — every shuffle or
	// broadcast dep, and every narrow dep whose parent is itself a stage
	// root — in dependency order, depth first.
	boundary []edge
	// chain is the primary pipelined operator chain, root first, following
	// each node's first dependency while it stays narrow and inside the
	// stage. It is what error messages and EXPLAIN print.
	chain []*node
}

// edge is a boundary dep together with the node consuming through it: the
// runner routes or pins the dep, and recovery demotes a failed broadcast at
// its owner.
type edge struct {
	*dep
	owner *node
}

// buildExecPlan plans the job that materializes target. done reports the
// nodes already materialized on the job's stage frontier (nil for a job's
// first plan): each is a leaf stage the planner never looks below, so a
// recovery plans only the unfinished suffix of the DAG.
//
// Everything but a stage root is pipelined into the tasks of its consuming
// stage. Memo sites are the narrow, non-root nodes with partition fan-in >
// 1: a parent partition consumed by several child nodes (diamond DAGs) or
// by two partitions of one Union of a dataset with itself would otherwise
// be recomputed once per consumer. The fan-in count is a static
// over-approximation of demand — memoizing a partition that is consumed
// once is harmless, because the executor replays exact costs.
func (s *Session) buildExecPlan(target *node, done func(*node) bool) *execPlan {
	ep := &execPlan{
		stageOf: map[*node]*stage{target: {root: target}},
		planned: map[*node]bool{},
		memo:    map[*node]bool{},
	}
	// Pass 1: the nodes reachable from target, and which of them are roots.
	var walk func(n *node)
	walk = func(n *node) {
		if _, seen := ep.planned[n]; seen {
			return
		}
		leaf := done != nil && done(n)
		ep.planned[n] = leaf
		if leaf {
			return
		}
		for i := range n.deps {
			d := &n.deps[i]
			walk(d.parent)
			if ep.stageOf[d.parent] == nil && (d.kind != depNarrow || d.parent.cached || ep.planned[d.parent]) {
				ep.stageOf[d.parent] = &stage{root: d.parent}
			}
		}
	}
	walk(target)

	// Pass 2: memo sites, counting per narrow non-root parent how many
	// consumer partitions list each of its partitions.
	refs := map[*node][]int32{}
	for n, leaf := range ep.planned {
		if leaf {
			continue // nothing below the frontier is demanded
		}
		for i := range n.deps {
			d := &n.deps[i]
			if d.kind != depNarrow || ep.stageOf[d.parent] != nil {
				continue // roots are materialized, never recomputed
			}
			rs := refs[d.parent]
			if rs == nil {
				rs = make([]int32, d.parent.parts)
				refs[d.parent] = rs
			}
			for c := 0; c < n.parts; c++ {
				if pp, ok := d.parentPart(c); ok {
					rs[pp]++
				}
			}
		}
	}
	for n, rs := range refs {
		if slices.ContainsFunc(rs, func(c int32) bool { return c > 1 }) {
			ep.memo[n] = true
		}
	}

	// Pass 3: one stage per root, numbered in post-order over boundary
	// edges from the target's stage, which is a topological order.
	var emit func(st *stage)
	emit = func(st *stage) {
		if st.chain != nil {
			return
		}
		st.boundary, st.chain = ep.boundary(st.root), ep.chain(st.root)
		for _, e := range st.boundary {
			emit(ep.stageOf[e.parent])
		}
		st.id = len(ep.stages) + 1
		ep.stages = append(ep.stages, st)
	}
	emit(ep.stageOf[target])

	if !s.noFuse {
		ep.compileFusion()
	}
	// Stages are in launch order, so a dep's last reader is the first stage
	// that has it on its boundary walking backwards.
	ep.lastRead = map[*stage][]*dep{}
	read := map[*dep]bool{}
	for _, st := range slices.Backward(ep.stages) {
		for _, e := range st.boundary {
			if e.kind == depShuffle && !e.aliased && !read[e.dep] {
				read[e.dep] = true
				ep.lastRead[st] = append(ep.lastRead[st], e.dep)
			}
		}
	}
	return ep
}

// boundary returns the edges at the rim of root's stage, depth first in
// dependency order. A frontier leaf has none: it is served from its
// checkpoint.
func (ep *execPlan) boundary(root *node) []edge {
	if ep.planned[root] {
		return nil
	}
	var out []edge
	seen := map[*node]bool{root: true}
	var walk func(n *node)
	walk = func(n *node) {
		for i := range n.deps {
			d := &n.deps[i]
			if d.kind != depNarrow || ep.stageOf[d.parent] != nil {
				out = append(out, edge{d, n})
			} else if !seen[d.parent] {
				seen[d.parent] = true
				walk(d.parent)
			}
		}
	}
	walk(root)
	return out
}

// chain follows the primary (first-dependency) narrow path from root while
// it stays inside the stage.
func (ep *execPlan) chain(root *node) []*node {
	chain := []*node{root}
	if ep.planned[root] {
		return chain
	}
	for cur := root; len(cur.deps) > 0 && cur.deps[0].kind == depNarrow && ep.stageOf[cur.deps[0].parent] == nil; {
		cur = cur.deps[0].parent
		chain = append(chain, cur)
	}
	return chain
}

// chainString renders the stage's pipelined chain as
// "root<-op<-op<-[input]", where the bracketed tail is the stage's first
// upstream input (if any).
func (st *stage) chainString() string {
	var b strings.Builder
	b.WriteString(st.root.label)
	for _, n := range st.chain[1:] {
		b.WriteString("<-")
		b.WriteString(n.label)
	}
	if last := st.chain[len(st.chain)-1]; len(last.deps) > 0 {
		fmt.Fprintf(&b, "<-[%s]", last.deps[0].parent.label)
	}
	return b.String()
}

// String renders the plan stage by stage, upstream first:
//
//	Stage 1 root=#3 parallelize parts=8
//	Stage 2 root=#7 reduceByKey parts=8 chain=reduceByKey<-[parallelize]
//	  <-shuffle Stage 1 (#3 parallelize)
//
// Memo sites are listed at the end. The output is deterministic for a
// fixed DAG construction order (node IDs are allocated sequentially).
func (ep *execPlan) String() string {
	var b strings.Builder
	for _, st := range ep.stages {
		r := st.root
		fmt.Fprintf(&b, "Stage %d root=#%d %s parts=%d", st.id, r.id, r.label, r.parts)
		if r.weight > 1 {
			fmt.Fprintf(&b, " weight=%.0f", r.weight)
		}
		if r.cached {
			b.WriteString(" cached")
		}
		if len(st.chain) > 1 || len(st.chain[len(st.chain)-1].deps) > 0 {
			fmt.Fprintf(&b, " chain=%s", st.chainString())
		}
		b.WriteString("\n")
		for _, e := range st.boundary {
			fmt.Fprintf(&b, "  <-%s Stage %d (#%d %s)\n", e.kind, ep.stageOf[e.parent].id, e.parent.id, e.parent.label)
		}
	}
	if len(ep.memo) > 0 {
		b.WriteString("Memo sites:")
		for _, n := range slices.SortedFunc(maps.Keys(ep.memo), func(a, b *node) int { return cmp.Compare(a.id, b.id) }) {
			fmt.Fprintf(&b, " #%d %s", n.id, n.label)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// compileFusion finds this plan's fused chains (fuse.go); runners compose
// their instances from the operators' links. A chain runs top to bottom
// through each link's streamed dep — a narrow dep without offset, so it reads
// partition p for partition p — while the parent is itself a link the plan
// cannot see: not a stage root (its partitions must materialize: shuffle and
// broadcast parents, cached nodes, the recovery frontier), not a fan-in memo
// site (a multi-consumer intermediate must still be computed exactly once).
// Such a parent has one consumer in the plan, so it lies inside exactly one
// chain; every other link tops a chain of its own. A node the plan can see
// therefore cuts a chain into two that both fuse — it tops the lower one
// and, evaluated through evalPart like any head (memo, frontier and cache
// apply), feeds the upper one — and a chain longer than maxFuseOps splits
// the same way. The walk reads the live deps: recovery's rewire splices
// replacement parents into them and every recovery replans, so no chain can
// run through a lowering the current plan abandoned.
func (ep *execPlan) compileFusion() {
	ep.fused = make(map[*node]*fuseInfo)
	// below returns the link n's chain continues into, nil if it ends at n
	// (a frontier leaf is a stage root).
	below := func(n *node) *node {
		m := n.deps[n.link.stream].parent
		if m.link == nil || m.link.sink == nil || ep.stageOf[m] != nil || ep.memo[m] {
			return nil
		}
		return m
	}
	interior := map[*node]bool{}
	for n, leaf := range ep.planned {
		if n.link != nil && !leaf {
			if m := below(n); m != nil {
				interior[m] = true
			}
		}
	}
	for n, leaf := range ep.planned {
		if n.link == nil || leaf || interior[n] {
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
