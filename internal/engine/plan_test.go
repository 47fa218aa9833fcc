package engine

import (
	"slices"
	"strings"
	"testing"
)

// Planner tests over the real constructors: which nodes are stage roots,
// stage order, boundaries, chains, memo sites and the frontier a recovery
// plans from. ExplainPhysical's goldens (physical_test.go) pin the rendering
// of whole plans.

// doneAt is a frontier predicate holding exactly the given nodes.
func doneAt(ns ...*node) func(*node) bool {
	return func(n *node) bool { return slices.Contains(ns, n) }
}

func TestBuildSingleStagePipelinesNarrowChain(t *testing.T) {
	s := testSession()
	f := Filter(Map(Parallelize(s, ints(8), 4), func(x int) int { return x + 1 }), func(x int) bool { return x > 2 })
	ep := s.buildExecPlan(f.n, nil)

	if len(ep.stages) != 1 {
		t.Fatalf("stages = %d, want 1", len(ep.stages))
	}
	st := ep.stages[0]
	if st.root != f.n || len(st.boundary) != 0 {
		t.Fatalf("stage root=%s boundary=%d", st.root.label, len(st.boundary))
	}
	if got := st.chainString(); got != "filter<-map<-parallelize" {
		t.Fatalf("chain = %q", got)
	}
	if len(ep.memo) != 0 {
		t.Fatalf("memo sites = %v, want none in a linear chain", ep.memo)
	}
}

func TestBuildShuffleSplitsStagesInTopoOrder(t *testing.T) {
	s := testSession()
	src := Parallelize(s, makePairs(16), 4)
	red := ReduceByKey(src, sumInt64)
	comb := red.n.deps[0].parent // the map-side combine
	out := Map(red, func(kv Pair[int, int64]) int64 { return kv.Val })
	ep := s.buildExecPlan(out.n, nil)

	if len(ep.stages) != 2 {
		t.Fatalf("stages = %d, want 2", len(ep.stages))
	}
	// Upstream stage first: the runner materializes in this order.
	if ep.stages[0].root != comb || ep.stages[1].root != out.n {
		t.Fatalf("stage order: %s, %s", ep.stages[0].root.label, ep.stages[1].root.label)
	}
	if ep.stages[0].id != 1 || ep.stages[1].id != 2 {
		t.Fatalf("stage ids: %d, %d", ep.stages[0].id, ep.stages[1].id)
	}
	if ep.stageOf[comb] == nil || ep.stageOf[red.n] != nil || ep.stageOf[src.n] != nil {
		t.Fatalf("roots: src=%v combine=%v reduce=%v", ep.stageOf[src.n] != nil, ep.stageOf[comb] != nil, ep.stageOf[red.n] != nil)
	}
	b := ep.stageOf[out.n].boundary
	if len(b) != 1 || b[0].kind != depShuffle || b[0].parent != comb {
		t.Fatalf("boundary = %+v", b)
	}
	// The boundary entry is the consumer's own dep: the runner routes it and
	// keys the job's blocks by it.
	if b[0].owner != red.n || b[0].dep != &red.n.deps[0] {
		t.Fatalf("edge identity: owner=%s, dep is the reduce's own: %v", b[0].owner.label, b[0].dep == &red.n.deps[0])
	}
}

func TestBuildCachedParentBecomesRoot(t *testing.T) {
	s := testSession()
	cached := Map(Parallelize(s, ints(8), 4), func(x int) int { return x * 2 }).Cache()
	out := Filter(cached, func(x int) bool { return x%3 != 0 })
	ep := s.buildExecPlan(out.n, nil)

	if len(ep.stages) != 2 {
		t.Fatalf("stages = %d, want 2 (cached parent materialized)", len(ep.stages))
	}
	if ep.stageOf[cached.n] == nil {
		t.Fatal("cached parent should be a stage root")
	}
	b := ep.stageOf[out.n].boundary
	if len(b) != 1 || b[0].kind != depNarrow || b[0].parent != cached.n {
		t.Fatalf("boundary = %+v", b)
	}
}

func TestPlanMemoDiamondFanIn(t *testing.T) {
	// Diamond: two narrow consumers of the same non-root node.
	s := testSession()
	base := Parallelize(s, ints(8), 4)
	a := Map(base, func(x int) int { return x * 2 })
	b := Filter(base, func(x int) bool { return x%2 == 0 })
	ep := s.buildExecPlan(Union(a, b).n, nil)

	if !ep.memo[base.n] {
		t.Error("diamond base should be a memo site (fan-in 2)")
	}
	if ep.memo[a.n] || ep.memo[b.n] {
		t.Errorf("single-consumer nodes memoized: a=%v b=%v", ep.memo[a.n], ep.memo[b.n])
	}
}

func TestPlanMemoUnionWithItself(t *testing.T) {
	// Union partitions p and p+4 both read partition p of its one input;
	// a union of two inputs reads each partition once.
	s := testSession()
	m := Map(Parallelize(s, ints(8), 4), func(x int) int { return x + 1 })
	f := Filter(Parallelize(s, ints(8), 4), func(x int) bool { return x > 2 })
	ep := s.buildExecPlan(Union(Union(m, m), f).n, nil)
	if !ep.memo[m.n] || ep.memo[f.n] || len(ep.memo) != 1 {
		t.Fatalf("memo sites = %v, want the self-unioned map alone", ep.memo)
	}
	if len(ep.stages) != 1 {
		t.Fatalf("stages = %d, want 1 (a union is narrow)", len(ep.stages))
	}
}

// TestStringRendersStagesBoundariesAndMemo: one stage reading a broadcast and
// a shuffle, in dependency order, and a memo site under another.
func TestStringRendersStagesBoundariesAndMemo(t *testing.T) {
	s := testSession()
	small := Parallelize(s, []Pair[int, string]{{1, "a"}}, 1)
	big := ReduceByKey(Parallelize(s, makePairs(16), 4), sumInt64)
	joined := JoinWith(small, big, JoinBroadcastLeft, 0)
	base := Parallelize(s, ints(8), 4)
	both := Union(Map(base, func(x int) int { return x + 1 }), Filter(base, func(x int) bool { return x > 3 }))
	ep := s.buildExecPlan(joined.n, nil)

	want := strings.Join([]string{
		"Stage 1 root=#1 parallelize parts=1",
		"Stage 2 root=#3 mapPartitions parts=4 chain=mapPartitions<-parallelize",
		"Stage 3 root=#5 broadcastJoin parts=8 chain=broadcastJoin<-[parallelize]",
		"  <-broadcast Stage 1 (#1 parallelize)",
		"  <-shuffle Stage 2 (#3 mapPartitions)",
	}, "\n") + "\n"
	if got := ep.String(); got != want {
		t.Errorf("String():\n%s\nwant:\n%s", got, want)
	}
	want = "Stage 1 root=#9 union parts=8 chain=union<-map<-parallelize\nMemo sites: #6 parallelize\n"
	if got := s.buildExecPlan(both.n, nil).String(); got != want {
		t.Errorf("String():\n%s\nwant:\n%s", got, want)
	}
}

// TestPlanPrunesBelowDoneFrontier: a node on the recovery frontier is a leaf
// stage served from its checkpoint — no boundary, no planning below it.
func TestPlanPrunesBelowDoneFrontier(t *testing.T) {
	s := testSession()
	src := Parallelize(s, makePairs(16), 4)
	red := ReduceByKey(src, sumInt64)
	comb := red.n.deps[0].parent
	out := Map(red, func(kv Pair[int, int64]) int64 { return kv.Val })
	ep := s.buildExecPlan(out.n, doneAt(comb))

	if len(ep.stages) != 2 {
		t.Fatalf("stages = %d, want 2 (frontier leaf + suffix)", len(ep.stages))
	}
	leaf := ep.stageOf[comb]
	if leaf == nil || len(leaf.boundary) != 0 || len(leaf.chain) != 1 {
		t.Fatalf("frontier leaf stage = %+v", leaf)
	}
	if _, looked := ep.planned[src.n]; looked || ep.stageOf[src.n] != nil {
		t.Error("planner looked below the done frontier")
	}
}

// TestDoneNarrowParentBecomesRoot: a done parent consumed narrowly is a
// stage boundary (read from the frontier), not pipelined into its child.
func TestDoneNarrowParentBecomesRoot(t *testing.T) {
	s := testSession()
	m := Map(Parallelize(s, ints(8), 4), func(x int) int { return x + 1 })
	f := Filter(m, func(x int) bool { return x%2 == 0 })
	ep := s.buildExecPlan(f.n, doneAt(m.n))

	if ep.stageOf[m.n] == nil {
		t.Fatal("done narrow parent must be a stage root")
	}
	st := ep.stageOf[f.n]
	if len(st.boundary) != 1 || st.boundary[0].parent != m.n || st.boundary[0].kind != depNarrow {
		t.Fatalf("boundary = %+v", st.boundary)
	}
	if len(st.chain) != 1 {
		t.Fatalf("chain = %d nodes, want the root alone", len(st.chain))
	}
}
