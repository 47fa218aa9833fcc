package engine

// Fused execution of narrow operator chains (ROADMAP item 2, after Flare):
// consecutive map/filter/flatMap/mapValues/mapPartitions/zip nodes — and
// the half-lifted cross products, whose second input is a pinned broadcast —
// collapse into one typed loop body executed per input batch, so
// intermediate rows flow through composed closures as unboxed values
// instead of being materialized into a fresh batch seam after every
// operator.
//
// Chains are a thing the plan builds. A fusible operator's constructor only
// stores a link on its node: the operator's step, composable on a typed
// upstream pipeline, and the materializer for when it ends a chain. When a
// job is planned — and again on every recovery replan — compileFusion
// (physical.go) walks the live DAG, finds the maximal runs of links whose
// intermediates are invisible to the plan (not a stage root, not a fan-in
// memo site, not on the recovery frontier) and composes exactly those, so
// fusion never changes which partitions are materialized, memoized, or
// checkpointed. There is one walk and no stored chain it has to agree with:
// a node the plan can see cuts a chain into two that both fuse, and a chain
// over a lowering recovery abandoned cannot exist. The in-package suites
// (fuse_test.go, TestRandomDAGFusedMatchesPerOperator) run the same DAGs
// fused and per-operator and assert identical partitions, virtual clocks,
// and cluster stats.
//
// Bit-identity imposes two disciplines on the fused loop:
//
//   - Cost replay. The unfused evaluator charges, per link, the rows each
//     operator consumes times the producer's record weight, bottom-up. The
//     fused loop counts per-link emits in a fuseCounts array and replays
//     exactly those charges in exactly that order after the loop (UDFs of
//     fusible operators never touch the task Ctx — mapCtx deliberately
//     breaks chains — so the replayed sequence of float additions is
//     identical to the unfused one). A cross link's broadcast side needs no
//     replay: reading a broadcast charges nothing in either evaluator, its
//     cost was charged when the runner pinned it.
//
//   - Capacity fidelity. sizeest.OfBatch charges the boxed-equivalent
//     capacity, and partitions of up to sampleN elements are handed to it
//     whole, so the fused output batch must report the capacity the unfused
//     operator's boxed allocation would have had: map-like and cross tops
//     cap==len, a filter top its input count, a flatMap top the
//     power-of-two growth of one-at-a-time appends. The host slice itself
//     grows however it likes — real capacity is invisible to accounting —
//     which is why the record blocks the boxed implementation pooled are
//     gone.
//
// A MapPartitions link has to buffer: its UDF takes the partition as a slice
// and may mutate it. The engine's own aggregates (ReduceByKey's combine,
// Distinct's local dedup) need no such seam, so they end their chain with a
// fold link instead (linkFold, fold.go): upstream rows stream one by one
// into a folder's add, and the folder's exact-size result is the output
// batch. What the folder folds into is pooled host scratch that never
// escapes — finish copies out — so nothing reachable from a batch, the
// frontier, a cache, a memo entry or a checkpoint is ever reused; fold.go
// states the reset rule that keeps reuse O(rows folded). With the cross a
// link, a lifted closure over an outer bag (points → cross with the
// broadcast scalars → re-key → combine) runs with no batch between the
// cached points and the combine's output.

import (
	"fmt"
	"strings"
	"sync"
)

// maxFuseOps caps chain length so per-link emit counts fit a fixed array;
// longer chains split into segments at the cap, each fused on its own.
const maxFuseOps = 15

// fuseCounts records, per chain link, how many rows the link's operator
// emitted during one fused partition run. Entry i counts the output of
// via[i]; the top operator's own emits are never counted (its consumer
// charges for them, or launchStage does at the stage root).
type fuseCounts [maxFuseOps]int64

var fuseCountsPool = sync.Pool{New: func() any { return new(fuseCounts) }}

// fuseTop describes the materialization shape of the chain's top operator,
// i.e. which allocation pattern the unfused compute would have produced.
type fuseTop int

const (
	fuseTopExact   fuseTop = iota // out has cap == len (map, mapValues, mapPartitions, zip, cross)
	fuseTopFilter                 // out pre-sized to the filter's input count
	fuseTopFlatMap                // out grown by one-at-a-time appends from nil
)

// fuseExec runs one head partition through a composed chain and
// materializes the top operator's output.
type fuseExec = func(tc *Ctx, fc *fuseCounts, p int, in Batch) Batch

// fuseInfo is one fused chain of a plan (compileFusion, physical.go).
type fuseInfo struct {
	head *node   // evaluated normally; its partition batch feeds the chain
	via  []*node // chain operators bottom-up; the last entry tops the chain
	exec fuseExec
}

// pipe is a typed push pipeline under construction: run pushes every row
// the chain so far produces from head partition in into emit.
type pipe[T any] struct {
	run func(tc *Ctx, fc *fuseCounts, p int, in Batch, emit func(T))
	// rows, when non-nil, is the exact number of rows run will emit: known
	// while every link so far is 1:1 or a cross product (whose factor is
	// the length of its pinned broadcast side), so a materializer or a
	// MapPartitions buffer above can be sized once.
	rows func(tc *Ctx, in Batch) int
}

// link is what a fusible operator contributes to a chain. The constructor
// stores it on the node; nothing is composed until a plan has found the
// chain legal (compileFusion). Both functions take up, the type-erased
// pipe of the operator's input type composed so far, whose emits they
// count into fc[idx]; up is nil at the bottom of a chain, where the
// operator loops over the head partition itself.
type link struct {
	// stream is the dep the operator streams through the chain; a link's
	// only other dep is a broadcast the runner pinned before the stage.
	stream int
	// over composes the operator's step on up and returns the pipe of its
	// output type. nil for a link that can only end a chain (linkFold).
	over func(up any, idx int) any
	// top is over followed by the materializer matching the allocation
	// shape of the operator's unfused kernel.
	top func(up any, idx int) fuseExec
}

// upstream is the typed pipe a link composes its step on.
func upstream[A any](up any, idx int) pipe[A] {
	if up == nil {
		return pipe[A]{run: headLoop[A], rows: func(_ *Ctx, in Batch) int { return in.Len() }}
	}
	u := up.(pipe[A])
	run := u.run
	u.run = func(tc *Ctx, fc *fuseCounts, p int, in Batch, emit func(A)) {
		run(tc, fc, p, in, func(a A) { fc[idx]++; emit(a) })
	}
	return u
}

// headLoop feeds a chain from its head partition. Typed head batches feed
// the pipeline monomorphically; any other shape unboxes element-wise, as
// the boxed loop did.
func headLoop[A any](_ *Ctx, _ *fuseCounts, _ int, in Batch, emit func(A)) {
	if v, ok := in.(*Vec[A]); ok {
		for _, a := range v.xs {
			emit(a)
		}
		return
	}
	n := in.Len()
	for i := 0; i < n; i++ {
		emit(in.At(i).(A))
	}
}

// newLink stores on n the link of an operator turning rows of A into rows
// of B: step composes the operator on its upstream pipe, and shape is the
// allocation pattern of its unfused kernel.
func newLink[A, B any](n *node, shape fuseTop, step func(up pipe[A]) pipe[B]) {
	n.link = &link{
		over: func(up any, idx int) any { return step(upstream[A](up, idx)) },
		top: func(up any, idx int) fuseExec {
			return materialize(step(upstream[A](up, idx)), shape, idx)
		},
	}
}

// materialize ends a chain: the rows pl emits land in a typed output batch
// that reports the capacity the top operator's unfused kernel would have.
func materialize[T any](pl pipe[T], shape fuseTop, idx int) fuseExec {
	return func(tc *Ctx, fc *fuseCounts, p int, in Batch) Batch {
		if pl.rows != nil {
			// Output size is known up front (shape is fuseTopExact: only
			// 1:1 links and crosses keep rows), so rows go straight into
			// the exact-size result.
			out := make([]T, pl.rows(tc, in))
			i := 0
			pl.run(tc, fc, p, in, func(t T) { out[i] = t; i++ })
			return batchOf(out, len(out))
		}
		// Otherwise the host slice grows freely (real capacity is
		// invisible to accounting) and the batch reports the
		// boxed-equivalent capacity afterwards.
		var out []T
		pl.run(tc, fc, p, in, func(t T) { out = append(out, t) })
		bcap := len(out)
		switch shape {
		case fuseTopFilter:
			// The unfused filter pre-sizes to its input, which is the
			// emit count of the link below the top.
			bcap = int(fc[idx])
		case fuseTopFlatMap:
			bcap = blockCap(len(out))
		}
		return batchOf(out, bcap)
	}
}

// linkMap makes n a 1:1 chain link (Map, MapValues; never MapCtx: its UDF
// charges the task Ctx mid-loop, and replaying those charges in the
// unfused order is impossible, so mapCtx always breaks chains).
func linkMap[A, B any](n *node, f func(A) B) {
	newLink(n, fuseTopExact, func(up pipe[A]) pipe[B] {
		return pipe[B]{rows: up.rows, run: func(tc *Ctx, fc *fuseCounts, p int, in Batch, emit func(B)) {
			up.run(tc, fc, p, in, func(a A) { emit(f(a)) })
		}}
	})
}

// linkFilter makes n a filtering chain link.
func linkFilter[A any](n *node, pred func(A) bool) {
	newLink(n, fuseTopFilter, func(up pipe[A]) pipe[A] {
		return pipe[A]{run: func(tc *Ctx, fc *fuseCounts, p int, in Batch, emit func(A)) {
			up.run(tc, fc, p, in, func(a A) {
				if pred(a) {
					emit(a)
				}
			})
		}}
	})
}

// linkFlatMap makes n an expanding chain link.
func linkFlatMap[A, B any](n *node, f func(A) []B) {
	newLink(n, fuseTopFlatMap, func(up pipe[A]) pipe[B] {
		return pipe[B]{run: func(tc *Ctx, fc *fuseCounts, p int, in Batch, emit func(B)) {
			up.run(tc, fc, p, in, func(a A) {
				for _, b := range f(a) {
					emit(b)
				}
			})
		}}
	})
}

// linkMapPartitions makes n a whole-partition chain link: upstream rows
// are buffered typed (host-side scratch, invisible to accounting), the UDF
// runs once, and its results stream on.
func linkMapPartitions[A, B any](n *node, f func([]A) []B) {
	newLink(n, fuseTopExact, func(up pipe[A]) pipe[B] {
		return pipe[B]{run: func(tc *Ctx, fc *fuseCounts, p int, in Batch, emit func(B)) {
			// The buffer is sized once where the row count is known.
			// Otherwise the head partition's length bounds nothing (a
			// filter keeping one day in 48 would over-allocate 48×; a
			// flatMap can exceed it) and the buffer grows by append.
			var buf []A
			if up.rows != nil {
				buf = make([]A, 0, up.rows(tc, in))
			}
			up.run(tc, fc, p, in, func(a A) { buf = append(buf, a) })
			for _, b := range f(buf) {
				emit(b)
			}
		}}
	})
}

// linkFold makes n a streaming aggregation link (fold.go): upstream rows
// go straight into a folder's add, so unlike linkMapPartitions there is no
// buffer in front of the aggregate, and the folder's exact-size result is
// the stage's output batch. The link only ever tops a chain (over stays
// nil): its consumer is the shuffle dep of the ReduceByKey/Distinct that
// built it.
func linkFold[A any](n *node, tables *sync.Pool) {
	n.link = &link{top: func(up any, idx int) fuseExec {
		u := upstream[A](up, idx)
		return func(tc *Ctx, fc *fuseCounts, p int, in Batch) Batch {
			out := foldPartition(tables, func(add func(A)) { u.run(tc, fc, p, in, add) })
			return batchOf(out, len(out))
		}
	}}
}

// linkZip makes n ZipWithUniqueID's id-minting link. The stride is the
// construction-time partition count, as in the unfused compute.
func linkZip[A any](n *node, parts int) {
	newLink(n, fuseTopExact, func(up pipe[A]) pipe[Pair[uint64, A]] {
		return pipe[Pair[uint64, A]]{rows: up.rows, run: func(tc *Ctx, fc *fuseCounts, p int, in Batch, emit func(Pair[uint64, A])) {
			k := 0
			up.run(tc, fc, p, in, func(a A) {
				emit(Pair[uint64, A]{Key: uint64(p) + uint64(k)*uint64(parts), Val: a})
				k++
			})
		}}
	})
}

// linkCross makes n a half-lifted cross product link: dep 1 streams, and
// every streamed row meets the rows of dep 0, the broadcast side, in
// order — streamed row major, the unfused kernel's order. The broadcast
// batch is the one the runner pinned for the stage (job.bcast); reading it
// charges nothing, in a chain as in the per-operator evaluator, because a
// broadcast's cost is charged when it is pinned.
func linkCross[S, R, C any](n *node, g func(S, R) C) {
	bcast := func(tc *Ctx) Batch { return tc.job.bcast[&n.deps[0]] }
	newLink(n, fuseTopExact, func(up pipe[S]) pipe[C] {
		pl := pipe[C]{run: func(tc *Ctx, fc *fuseCounts, p int, in Batch, emit func(C)) {
			rs := elems[R](bcast(tc))
			up.run(tc, fc, p, in, func(x S) {
				for _, r := range rs {
					emit(g(x, r))
				}
			})
		}}
		if up.rows != nil {
			pl.rows = func(tc *Ctx, in Batch) int { return up.rows(tc, in) * bcast(tc).Len() }
		}
		return pl
	})
	n.link.stream = 1
}

// evalFused runs partition p of a compiled fused chain: one pass over the
// head's partition batch through the composed typed pipeline, then a
// replay of exactly the per-link input charges the unfused evaluator would
// have accumulated, in its order (head first, then each link bottom-up).
func (j *job) evalFused(tc *Ctx, fi *fuseInfo, p int) Batch {
	in := j.evalPart(tc, fi.head, p)
	fc := fuseCountsPool.Get().(*fuseCounts)
	*fc = fuseCounts{}
	out := fi.exec(tc, fc, p, in)
	tc.work += float64(in.Len()) * fi.head.weight
	for i := 0; i+1 < len(fi.via); i++ {
		tc.work += float64(fc[i]) * fi.via[i].weight
	}
	fuseCountsPool.Put(fc)
	return out
}

// fusedDesc renders the active fused chains inside the stage rooted at
// root for EXPLAIN ANALYZE, e.g. "fused(map∘filter∘flatMap) ×3 ops".
// Traversal is over the stage interior only: it stops at stage roots and
// recovery-frontier leaves, and each fused chain is reported once.
func (ep *execPlan) fusedDesc(root *node) string {
	if len(ep.fused) == 0 {
		return ""
	}
	var parts []string
	seen := map[*node]bool{}
	var walk func(n *node)
	walk = func(n *node) {
		if seen[n] {
			return
		}
		seen[n] = true
		if fi := ep.fused[n]; fi != nil {
			var b strings.Builder
			b.WriteString("fused(")
			for i, m := range fi.via {
				if i > 0 {
					b.WriteString("∘")
				}
				b.WriteString(m.label)
			}
			fmt.Fprintf(&b, ") ×%d ops", len(fi.via))
			parts = append(parts, b.String())
			// Continue below the chain, but not across a stage boundary:
			// a head that is itself a stage root reports in its own stage.
			if hpn := ep.pnodes[fi.head]; hpn != nil && !hpn.Done && !ep.plan.IsRoot(hpn) {
				walk(fi.head)
			}
			return
		}
		pn := ep.pnodes[n]
		if pn == nil || pn.Done {
			return
		}
		for i := range n.deps {
			d := &n.deps[i]
			if d.kind == depNarrow && !ep.plan.IsRoot(ep.pnodes[d.parent]) {
				walk(d.parent)
			}
		}
	}
	walk(root)
	return strings.Join(parts, " ")
}
