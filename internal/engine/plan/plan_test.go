package plan

import (
	"strings"
	"testing"
)

// mk builds a node and wires deps in order. NarrowMap nil means identity.
func mk(id int64, label string, parts int, deps ...*Dep) *Node {
	n := &Node{ID: id, Label: label, Parts: parts}
	for i, d := range deps {
		d.Owner = n
		d.Index = i
		n.Deps = append(n.Deps, d)
	}
	return n
}

func TestBuildSingleStagePipelinesNarrowChain(t *testing.T) {
	src := mk(1, "parallelize", 4)
	m := mk(2, "map", 4, &Dep{Parent: src, Kind: Narrow})
	f := mk(3, "filter", 4, &Dep{Parent: m, Kind: Narrow})
	p := Build(f, Options{})

	if len(p.Stages) != 1 {
		t.Fatalf("stages = %d, want 1", len(p.Stages))
	}
	st := p.Stages[0]
	if st.Root != f || len(st.Boundary) != 0 {
		t.Fatalf("stage root=%v boundary=%d", st.Root.Label, len(st.Boundary))
	}
	if got := st.ChainString(); got != "filter<-map<-parallelize" {
		t.Fatalf("chain = %q", got)
	}
	if len(p.Memo) != 0 {
		t.Fatalf("memo sites = %v, want none in a linear chain", p.Memo)
	}
}

func TestBuildShuffleSplitsStagesInTopoOrder(t *testing.T) {
	src := mk(1, "parallelize", 4)
	m := mk(2, "mapPartitions", 4, &Dep{Parent: src, Kind: Narrow})
	red := mk(3, "reduceByKey", 8, &Dep{Parent: m, Kind: Shuffle})
	out := mk(4, "map", 8, &Dep{Parent: red, Kind: Narrow})
	p := Build(out, Options{})

	if len(p.Stages) != 2 {
		t.Fatalf("stages = %d, want 2", len(p.Stages))
	}
	// Upstream stage must come first (the executor materializes in order).
	if p.Stages[0].Root != m || p.Stages[1].Root != out {
		t.Fatalf("stage order: %s, %s", p.Stages[0].Root.Label, p.Stages[1].Root.Label)
	}
	if p.Stages[0].ID != 1 || p.Stages[1].ID != 2 {
		t.Fatalf("stage ids: %d, %d", p.Stages[0].ID, p.Stages[1].ID)
	}
	if !p.IsRoot(m) || p.IsRoot(red) || p.IsRoot(src) {
		t.Fatalf("roots: src=%v m=%v red=%v", p.IsRoot(src), p.IsRoot(m), p.IsRoot(red))
	}
	st := p.StageOf(out)
	if len(st.Boundary) != 1 || st.Boundary[0].Kind != Shuffle || st.Boundary[0].Parent != m {
		t.Fatalf("boundary = %+v", st.Boundary)
	}
	// The shuffle edge must resolve back to the engine's dep record.
	if st.Boundary[0].Owner != red || st.Boundary[0].Index != 0 {
		t.Fatalf("edge identity: owner=%s index=%d", st.Boundary[0].Owner.Label, st.Boundary[0].Index)
	}
}

func TestBuildCachedParentBecomesRoot(t *testing.T) {
	src := mk(1, "parallelize", 4)
	cached := mk(2, "map", 4, &Dep{Parent: src, Kind: Narrow})
	cached.Cached = true
	out := mk(3, "filter", 4, &Dep{Parent: cached, Kind: Narrow})
	p := Build(out, Options{})

	if len(p.Stages) != 2 {
		t.Fatalf("stages = %d, want 2 (cached parent materialized)", len(p.Stages))
	}
	if !p.IsRoot(cached) {
		t.Fatal("cached parent should be a stage root")
	}
	st := p.StageOf(out)
	if len(st.Boundary) != 1 || st.Boundary[0].Kind != Narrow || st.Boundary[0].Parent != cached {
		t.Fatalf("boundary = %+v", st.Boundary)
	}
}

func TestPlanMemoDiamondFanIn(t *testing.T) {
	// Diamond: two narrow consumers of the same non-root node.
	src := mk(1, "parallelize", 4)
	a := mk(2, "map", 4, &Dep{Parent: src, Kind: Narrow})
	b := mk(3, "filter", 4, &Dep{Parent: src, Kind: Narrow})
	aParts := a.Parts
	u := mk(4, "union", 8,
		&Dep{Parent: a, Kind: Narrow, NarrowMap: func(p int) []int {
			if p < aParts {
				return []int{p}
			}
			return nil
		}},
		&Dep{Parent: b, Kind: Narrow, NarrowMap: func(p int) []int {
			if p >= aParts {
				return []int{p - aParts}
			}
			return nil
		}})
	p := Build(u, Options{})

	if !p.Memo[src] {
		t.Error("diamond base should be a memo site (fan-in 2)")
	}
	if p.Memo[a] || p.Memo[b] {
		t.Errorf("single-consumer nodes memoized: a=%v b=%v", p.Memo[a], p.Memo[b])
	}
}

func TestPlanMemoConcatFanInIsSingleUse(t *testing.T) {
	// Concat/Coalesce: one child partition reads every parent partition —
	// each parent partition still has exactly one consumer, so no memo.
	src := mk(1, "parallelize", 6)
	c := mk(2, "concat", 1, &Dep{Parent: src, Kind: Narrow, NarrowMap: func(int) []int {
		return []int{0, 1, 2, 3, 4, 5}
	}})
	p := Build(c, Options{})
	if len(p.Memo) != 0 {
		t.Fatalf("memo sites = %d, want 0 (each partition read once)", len(p.Memo))
	}
	if len(p.Stages) != 1 {
		t.Fatalf("stages = %d, want 1 (fan-in is still narrow)", len(p.Stages))
	}
}

func TestStringRendersStagesBoundariesAndMemo(t *testing.T) {
	src := mk(1, "parallelize", 4)
	m := mk(2, "map", 4, &Dep{Parent: src, Kind: Narrow})
	small := mk(3, "parallelize", 1)
	j := mk(4, "broadcastJoin", 4,
		&Dep{Parent: small, Kind: Broadcast},
		&Dep{Parent: m, Kind: Shuffle})
	p := Build(j, Options{})

	got := p.String()
	want := strings.Join([]string{
		"Stage 1 root=#3 parallelize parts=1",
		"Stage 2 root=#2 map parts=4 chain=map<-parallelize",
		"Stage 3 root=#4 broadcastJoin parts=4 chain=broadcastJoin<-[parallelize]",
		"  <-broadcast Stage 1 (#3 parallelize)",
		"  <-shuffle Stage 2 (#2 map)",
	}, "\n") + "\n"
	if got != want {
		t.Errorf("String():\n%s\nwant:\n%s", got, want)
	}
}

// TestReplanPrunesBelowDoneFrontier: on a recovery replan, a Done node is
// a leaf stage served from the checkpoint — no boundary, no planning below
// it — and the rendering carries the replan provenance.
func TestReplanPrunesBelowDoneFrontier(t *testing.T) {
	src := mk(1, "parallelize", 4)
	m := mk(2, "mapPartitions", 4, &Dep{Parent: src, Kind: Narrow})
	red := mk(3, "reduceByKey", 8, &Dep{Parent: m, Kind: Shuffle})
	out := mk(4, "map", 8, &Dep{Parent: red, Kind: Narrow})
	m.Done = true
	p := Build(out, Options{Replan: 2})

	if p.Replan != 2 {
		t.Fatalf("Replan = %d", p.Replan)
	}
	if len(p.Stages) != 2 {
		t.Fatalf("stages = %d, want 2 (frontier leaf + suffix)", len(p.Stages))
	}
	leaf := p.StageOf(m)
	if leaf == nil || len(leaf.Boundary) != 0 || len(leaf.Chain) != 1 {
		t.Fatalf("frontier leaf stage = %+v", leaf)
	}
	if p.IsRoot(src) || p.StageOf(src) != nil {
		t.Error("planner looked below the Done frontier")
	}
	s := p.String()
	if !strings.HasPrefix(s, "Replan 2 (resumed from stage frontier)\n") {
		t.Errorf("missing replan header:\n%s", s)
	}
	if !strings.Contains(s, "parts=4 done") {
		t.Errorf("done mark not rendered:\n%s", s)
	}
}

// TestDoneNarrowParentBecomesRoot: a Done parent consumed narrowly is a
// stage boundary (read from the frontier), not pipelined into its child.
func TestDoneNarrowParentBecomesRoot(t *testing.T) {
	src := mk(1, "parallelize", 4)
	m := mk(2, "map", 4, &Dep{Parent: src, Kind: Narrow})
	f := mk(3, "filter", 4, &Dep{Parent: m, Kind: Narrow})
	m.Done = true
	p := Build(f, Options{Replan: 1})

	if !p.IsRoot(m) {
		t.Fatal("Done narrow parent must be a stage root")
	}
	st := p.StageOf(f)
	if len(st.Boundary) != 1 || st.Boundary[0].Parent != m || st.Boundary[0].Kind != Narrow {
		t.Fatalf("boundary = %+v", st.Boundary)
	}
	if len(st.Chain) != 1 {
		t.Fatalf("chain = %d nodes, want the root alone", len(st.Chain))
	}
}

// TestFirstPlanRendersWithoutReplanArtifacts: plans built before any
// recovery look exactly as they always did.
func TestFirstPlanRendersWithoutReplanArtifacts(t *testing.T) {
	src := mk(1, "parallelize", 4)
	m := mk(2, "map", 4, &Dep{Parent: src, Kind: Narrow})
	s := Build(m, Options{}).String()
	if strings.Contains(s, "Replan") || strings.Contains(s, "done") {
		t.Errorf("first plan carries replan artifacts:\n%s", s)
	}
}
