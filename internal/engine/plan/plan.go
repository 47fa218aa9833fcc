// Package plan builds the physical execution plan of one engine job.
//
// The engine's executor used to make every physical decision implicitly
// while running — which nodes form stage boundaries, which narrow chains
// pipeline into one task, which fan-in partitions deserve memoization.
// This package extracts that planning into a distinct step that produces a
// first-class, printable data structure: the executor (both the parallel
// path and the retained serial reference) is a pure consumer of the Plan,
// and tests, EXPLAIN output, and future optimization rules all inspect the
// same artifact instead of re-deriving it.
//
// The planner sees the operator DAG through its own Node/Dep types, built
// by the engine from its internal graph. It needs only structure: dep
// kinds, narrow partition maps, partition counts, and cache marks. It
// never touches data.
package plan

import (
	"fmt"
	"strings"
)

// DepKind distinguishes how a node consumes its parent.
type DepKind int

const (
	// Narrow: child partition p reads specific parent partitions
	// (default: the same index p); pipelined within a stage.
	Narrow DepKind = iota
	// Shuffle: child partition p reads the elements of every parent
	// partition routed to p — a stage boundary.
	Shuffle
	// Broadcast: every child partition reads the parent in full — a
	// stage boundary with cluster-wide residency.
	Broadcast
)

func (k DepKind) String() string {
	switch k {
	case Narrow:
		return "narrow"
	case Shuffle:
		return "shuffle"
	case Broadcast:
		return "broadcast"
	}
	return "unknown"
}

// Dep is one edge of the operator DAG as the planner sees it. Owner and
// Index identify the edge in the engine's graph, so the executor can map a
// planned boundary back to its own dependency record.
type Dep struct {
	Owner  *Node // consuming node
	Index  int   // position in Owner's dependency list
	Parent *Node
	Kind   DepKind
	// NarrowMap lists the parent partitions child partition p reads
	// (narrow deps only; nil means identity). It must be pure — the
	// planner calls it to compute partition fan-in.
	NarrowMap func(child int) []int
}

// Node is the planner's view of one operator DAG vertex.
type Node struct {
	ID     int64
	Label  string
	Parts  int
	Weight float64 // real records per element (rendering only)
	Cached bool
	// Done marks a node already materialized on the job's stage frontier
	// when the plan is a recovery replan: it becomes a leaf stage with no
	// boundary, and the planner never looks below it — the rebuilt plan
	// covers only the unfinished suffix of the DAG.
	Done bool
	Deps []*Dep
}

// Options configure planning.
type Options struct {
	// Replan, when > 0, records that this plan is the Nth rebuild of the
	// job after an adaptive recovery. Rendering notes it, and Done marks
	// become meaningful.
	Replan int
}

// Stage is one unit of execution: its root node is materialized in full,
// and the narrow ancestors inside the stage are pipelined into the root's
// tasks. Boundary lists the edges that leave the stage — every shuffle or
// broadcast dep, and every narrow dep whose parent is itself a stage root
// — in the executor's traversal order.
type Stage struct {
	ID       int
	Root     *Node
	Boundary []*Dep
	// Chain is the primary pipelined operator chain, root first,
	// following each node's first dependency while it stays narrow and
	// inside the stage. It is what error messages and EXPLAIN print.
	Chain []*Node
}

// ChainString renders the stage's pipelined chain as
// "root<-op<-op<-[input]", where the bracketed tail is the stage's first
// upstream input (if any).
func (st *Stage) ChainString() string {
	var b strings.Builder
	b.WriteString(st.Root.Label)
	for _, n := range st.Chain[1:] {
		b.WriteString("<-")
		b.WriteString(n.Label)
	}
	last := st.Chain[len(st.Chain)-1]
	if len(last.Deps) > 0 {
		fmt.Fprintf(&b, "<-[%s]", last.Deps[0].Parent.Label)
	}
	return b.String()
}

// Plan is the physical plan of one job: which nodes are stage roots, how
// stages read each other, and which narrow fan-in nodes are memoized.
type Plan struct {
	Target *Node
	// Stages in topological order: every stage appears after the stages
	// it reads through its boundary.
	Stages []*Stage
	// Memo marks narrow, non-root nodes with partition fan-in > 1 whose
	// partitions the executor computes once per job, replaying the
	// recorded task costs to every consumer.
	Memo map[*Node]bool
	// Replan is the recovery generation this plan was built for (0 for a
	// job's first plan); see Options.Replan.
	Replan int

	roots   map[*Node]bool
	stageOf map[*Node]*Stage
}

// IsRoot reports whether n is a stage root (materialized in full).
func (p *Plan) IsRoot(n *Node) bool { return p.roots[n] }

// StageOf returns the stage rooted at n, or nil if n is not a root.
func (p *Plan) StageOf(n *Node) *Stage { return p.stageOf[n] }

// Build plans the job that materializes target.
//
// Roots are the nodes that must be materialized in full: the target, every
// shuffle or broadcast parent, and every cached parent (so its partitions
// can be stored). Everything else is pipelined into the tasks of its
// consuming stage. Memo sites are the narrow, non-root nodes with
// partition fan-in > 1: a parent partition listed by several consuming
// child partitions (Concat/Coalesce-style narrow maps) or consumed by
// several child nodes (diamond DAGs) would otherwise be recomputed once
// per consumer. The fan-in count is a static over-approximation of demand
// — memoizing a partition that is consumed once is harmless, because the
// executor replays exact costs.
func Build(target *Node, opt Options) *Plan {
	p := &Plan{
		Target:  target,
		Memo:    map[*Node]bool{},
		Replan:  opt.Replan,
		roots:   map[*Node]bool{target: true},
		stageOf: map[*Node]*Stage{},
	}
	// Pass 1: mark stage roots reachable from target. Done nodes (the
	// recovery frontier) are leaves: their parents stay unplanned.
	seen := map[*Node]bool{}
	var walk func(n *Node)
	walk = func(n *Node) {
		if seen[n] {
			return
		}
		seen[n] = true
		if n.Done {
			return
		}
		for _, d := range n.Deps {
			if d.Kind != Narrow || d.Parent.Cached || d.Parent.Done {
				p.roots[d.Parent] = true
			}
			walk(d.Parent)
		}
	}
	walk(target)

	// Pass 2: memo sites (partition fan-in > 1 among narrow non-roots).
	p.planMemo(seen)

	// Pass 3: one stage per root, emitted in topological order by a
	// post-order walk over boundary edges from the target's stage.
	var stage func(root *Node) *Stage
	stage = func(root *Node) *Stage {
		if st := p.stageOf[root]; st != nil {
			return st
		}
		st := &Stage{Root: root, Boundary: p.boundary(root), Chain: p.chain(root)}
		p.stageOf[root] = st
		for _, d := range st.Boundary {
			stage(d.Parent)
		}
		st.ID = len(p.Stages) + 1
		p.Stages = append(p.Stages, st)
		return st
	}
	stage(target)
	return p
}

// planMemo counts, per narrow non-root parent, how many consumer
// partitions list each of its partitions.
func (p *Plan) planMemo(seen map[*Node]bool) {
	refs := map[*Node][]int32{}
	for n := range seen {
		if n.Done {
			continue // frontier leaf: nothing below it is demanded
		}
		for _, d := range n.Deps {
			if d.Kind != Narrow || p.roots[d.Parent] {
				continue // roots are materialized, never recomputed
			}
			rs := refs[d.Parent]
			if rs == nil {
				rs = make([]int32, d.Parent.Parts)
				refs[d.Parent] = rs
			}
			if d.NarrowMap == nil {
				for i := 0; i < n.Parts && i < len(rs); i++ {
					rs[i]++
				}
			} else {
				for i := 0; i < n.Parts; i++ {
					for _, pp := range d.NarrowMap(i) {
						if pp >= 0 && pp < len(rs) {
							rs[pp]++
						}
					}
				}
			}
		}
	}
	for n, rs := range refs {
		for _, c := range rs {
			if c > 1 {
				p.Memo[n] = true
				break
			}
		}
	}
}

// boundary returns the edges at the rim of root's stage, in the
// executor's traversal order (dependency order, depth first).
func (p *Plan) boundary(root *Node) []*Dep {
	if root.Done {
		return nil // frontier leaf: served from the checkpoint, no inputs
	}
	var out []*Dep
	seen := map[*Node]bool{root: true}
	var walk func(n *Node)
	walk = func(n *Node) {
		for _, d := range n.Deps {
			if d.Kind != Narrow || p.roots[d.Parent] {
				out = append(out, d)
				continue
			}
			if !seen[d.Parent] {
				seen[d.Parent] = true
				walk(d.Parent)
			}
		}
	}
	walk(root)
	return out
}

// chain follows the primary (first-dependency) narrow path from root while
// it stays inside the stage.
func (p *Plan) chain(root *Node) []*Node {
	chain := []*Node{root}
	if root.Done {
		return chain
	}
	cur := root
	for len(cur.Deps) > 0 && cur.Deps[0].Kind == Narrow && !p.roots[cur.Deps[0].Parent] {
		cur = cur.Deps[0].Parent
		chain = append(chain, cur)
	}
	return chain
}

// String renders the plan stage by stage, upstream first:
//
//	Stage 1 root=#3 parallelize parts=8
//	Stage 2 root=#7 reduceByKey parts=8 chain=reduceByKey<-[parallelize]
//	  <-shuffle Stage 1 (#3 parallelize)
//
// Memo sites are listed at the end. The output is deterministic for a
// fixed DAG construction order (node IDs are allocated sequentially).
func (p *Plan) String() string {
	var b strings.Builder
	if p.Replan > 0 {
		fmt.Fprintf(&b, "Replan %d (resumed from stage frontier)\n", p.Replan)
	}
	for _, st := range p.Stages {
		fmt.Fprintf(&b, "Stage %d root=#%d %s parts=%d", st.ID, st.Root.ID, st.Root.Label, st.Root.Parts)
		if st.Root.Weight > 1 {
			fmt.Fprintf(&b, " weight=%.0f", st.Root.Weight)
		}
		if st.Root.Cached {
			b.WriteString(" cached")
		}
		if st.Root.Done {
			b.WriteString(" done")
		}
		if len(st.Chain) > 1 || len(st.Chain[len(st.Chain)-1].Deps) > 0 {
			fmt.Fprintf(&b, " chain=%s", st.ChainString())
		}
		b.WriteString("\n")
		for _, d := range st.Boundary {
			up := p.stageOf[d.Parent]
			fmt.Fprintf(&b, "  <-%s Stage %d (#%d %s)\n", d.Kind, up.ID, d.Parent.ID, d.Parent.Label)
		}
	}
	if len(p.Memo) > 0 {
		var memos []*Node
		for n := range p.Memo {
			memos = append(memos, n)
		}
		sortNodes(memos)
		b.WriteString("Memo sites:")
		for _, n := range memos {
			fmt.Fprintf(&b, " #%d %s", n.ID, n.Label)
		}
		b.WriteString("\n")
	}
	return b.String()
}

func sortNodes(ns []*Node) {
	for i := 1; i < len(ns); i++ {
		for j := i; j > 0 && ns[j].ID < ns[j-1].ID; j-- {
			ns[j], ns[j-1] = ns[j-1], ns[j]
		}
	}
}
