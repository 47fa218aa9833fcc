package engine

// Fused execution of narrow operator chains (ROADMAP item 2, after Flare):
// consecutive map/filter/flatMap/mapValues/mapPartitions/zip nodes collapse
// into one typed loop body executed per input batch, so intermediate rows
// flow through composed closures as unboxed values instead of being
// materialized into a fresh batch seam after every operator.
//
// The chain is built at construction time: each fusible operator checks
// whether its parent node carries a typed push-pipeline whose emit type
// matches the operator's input type, and if so extends it by wrapping. The
// composed pipeline is stored type-erased on the node; the final emit of
// the whole chain lands in a typed output batch. Whether a stored chain may
// actually run is a per-plan decision (physical.go): every intermediate op
// must be invisible to the plan — not a stage root, not a fan-in memo site,
// not on the recovery frontier — so fusion never changes which partitions
// are materialized, memoized, or checkpointed. The in-package suites
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
//     identical to the unfused one).
//
//   - Capacity fidelity. sizeest.OfBatch charges the boxed-equivalent
//     capacity, and partitions of up to sampleN elements are handed to it
//     whole, so the fused output batch must report the capacity the unfused
//     operator's boxed allocation would have had: map-like tops cap==len, a
//     filter top its input count, a flatMap top the power-of-two growth of
//     one-at-a-time appends. The host slice itself grows however it likes —
//     real capacity is invisible to accounting — which is why the record
//     blocks the boxed implementation pooled are gone.
//
// A MapPartitions link has to buffer: its UDF takes the partition as a slice
// and may mutate it. The engine's own aggregates (ReduceByKey's combine,
// Distinct's local dedup) need no such seam, so they end their chain with a
// fold link instead (fuseFold, fold.go): upstream rows stream one by one
// into a folder's add, and the folder's exact-size result is the output
// batch. What the folder folds into is pooled host scratch that never
// escapes — finish copies out — so nothing reachable from a batch, the
// frontier, a cache, a memo entry or a checkpoint is ever reused; fold.go
// states the reset rule that keeps reuse O(rows folded).

import (
	"fmt"
	"slices"
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
	fuseTopExact   fuseTop = iota // out has cap == len (map, mapValues, mapPartitions, zip)
	fuseTopFilter                 // out pre-sized to the filter's input count
	fuseTopFlatMap                // out grown by one-at-a-time appends from nil
)

// fuseInfo is the constructor-built maximal fusible chain ending at its
// owner node. run is the type-erased typed pipeline
// (func(*Ctx, *fuseCounts, int, Batch, func(T))), nil for a chain no
// operator may extend (fuseFold); exec wraps it with the materializer
// matching the owner's unfused allocation shape.
type fuseInfo struct {
	head *node   // evaluated normally; its partition batch feeds the chain
	via  []*node // chain operators bottom-up; the last entry is the owner
	run  any
	exec func(tc *Ctx, fc *fuseCounts, p int, in Batch) Batch
	// allMap marks chains of only 1:1 operators: output size is known up
	// front, so rows go straight into the exact-size result.
	allMap bool
}

// chainBase is the typed pipeline an operator constructor extends: the
// parent's stored chain when its emit type matches (wrapped to count the
// parent's emits), or a fresh unboxing loop over the parent's partition.
type chainBase[A any] struct {
	run    func(tc *Ctx, fc *fuseCounts, p int, in Batch, emit func(A))
	via    []*node
	head   *node
	allMap bool
}

func chainTo[A any](parent *node) chainBase[A] {
	if fi := parent.fuse; fi != nil && len(fi.via) < maxFuseOps {
		if run, ok := fi.run.(func(*Ctx, *fuseCounts, int, Batch, func(A))); ok {
			idx := len(fi.via) - 1
			return chainBase[A]{
				run: func(tc *Ctx, fc *fuseCounts, p int, in Batch, emit func(A)) {
					run(tc, fc, p, in, func(a A) { fc[idx]++; emit(a) })
				},
				via:    fi.via,
				head:   fi.head,
				allMap: fi.allMap,
			}
		}
	}
	return chainBase[A]{
		run: func(tc *Ctx, fc *fuseCounts, p int, in Batch, emit func(A)) {
			// Typed head batches feed the pipeline monomorphically; any
			// other shape unboxes element-wise, as the boxed loop did.
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
		},
		head:   parent,
		allMap: true,
	}
}

// newFuseInfo finishes a chain for owner: appends it to via and builds the
// materializer for its top shape.
func newFuseInfo[T any](owner *node, base []*node, head *node,
	run func(*Ctx, *fuseCounts, int, Batch, func(T)), top fuseTop, allMap bool) *fuseInfo {
	via := make([]*node, 0, len(base)+1)
	via = append(append(via, base...), owner)
	k := len(via)
	var exec func(tc *Ctx, fc *fuseCounts, p int, in Batch) Batch
	if allMap {
		exec = func(tc *Ctx, fc *fuseCounts, p int, in Batch) Batch {
			out := make([]T, in.Len())
			i := 0
			run(tc, fc, p, in, func(t T) { out[i] = t; i++ })
			return batchOf(out, len(out))
		}
	} else {
		exec = func(tc *Ctx, fc *fuseCounts, p int, in Batch) Batch {
			// Output size is unknown up front; the host slice grows freely
			// (real capacity is invisible to accounting) and the batch
			// reports the boxed-equivalent capacity afterwards.
			var out []T
			run(tc, fc, p, in, func(t T) { out = append(out, t) })
			bcap := len(out)
			switch top {
			case fuseTopFilter:
				// The unfused filter pre-sizes to its input, which is the
				// emit count of the link below the top.
				bcap = int(fc[k-2])
			case fuseTopFlatMap:
				bcap = blockCap(len(out))
			}
			return batchOf(out, bcap)
		}
	}
	return &fuseInfo{head: head, via: via, run: run, exec: exec, allMap: allMap}
}

// fuseMap attaches a 1:1 chain link to n (Map, MapCtx-free variants only:
// mapCtx UDFs charge the task Ctx mid-loop, and replaying those charges in
// the unfused order is impossible, so mapCtx always breaks chains).
func fuseMap[A, B any](n, parent *node, f func(A) B) {
	base := chainTo[A](parent)
	run := func(tc *Ctx, fc *fuseCounts, p int, in Batch, emit func(B)) {
		base.run(tc, fc, p, in, func(a A) { emit(f(a)) })
	}
	n.fuse = newFuseInfo(n, base.via, base.head, run, fuseTopExact, base.allMap)
}

// fuseFilter attaches a filtering chain link to n.
func fuseFilter[A any](n, parent *node, pred func(A) bool) {
	base := chainTo[A](parent)
	run := func(tc *Ctx, fc *fuseCounts, p int, in Batch, emit func(A)) {
		base.run(tc, fc, p, in, func(a A) {
			if pred(a) {
				emit(a)
			}
		})
	}
	n.fuse = newFuseInfo(n, base.via, base.head, run, fuseTopFilter, false)
}

// fuseFlatMap attaches an expanding chain link to n.
func fuseFlatMap[A, B any](n, parent *node, f func(A) []B) {
	base := chainTo[A](parent)
	run := func(tc *Ctx, fc *fuseCounts, p int, in Batch, emit func(B)) {
		base.run(tc, fc, p, in, func(a A) {
			for _, b := range f(a) {
				emit(b)
			}
		})
	}
	n.fuse = newFuseInfo(n, base.via, base.head, run, fuseTopFlatMap, false)
}

// fuseMapPartitions attaches a whole-partition chain link to n: upstream
// rows are buffered typed (host-side scratch, invisible to accounting),
// the UDF runs once, and its results stream on.
func fuseMapPartitions[A, B any](n, parent *node, f func([]A) []B) {
	base := chainTo[A](parent)
	run := func(tc *Ctx, fc *fuseCounts, p int, in Batch, emit func(B)) {
		// Host-side scratch (capacity invisible to accounting). Below an
		// all-map chain the head partition's length is the exact row
		// count, so the buffer is sized once. Otherwise that length bounds
		// nothing (a filter keeping one day in 48 would over-allocate
		// 48×; a flatMap can exceed it) and the buffer grows by append.
		var buf []A
		if base.allMap {
			buf = make([]A, 0, in.Len())
		}
		base.run(tc, fc, p, in, func(a A) { buf = append(buf, a) })
		for _, b := range f(buf) {
			emit(b)
		}
	}
	n.fuse = newFuseInfo(n, base.via, base.head, run, fuseTopExact, false)
}

// fuseFold attaches a streaming aggregation link to n (fold.go): upstream
// rows go straight into a folder's add, so unlike fuseMapPartitions there
// is no buffer in front of the aggregate, and the folder's exact-size
// result is the stage's output batch. The link always tops its chain (run
// stays nil, so no operator extends it): its only consumer is the shuffle
// dep of the ReduceByKey/Distinct that built it.
func fuseFold[A any](n, parent *node, tables *sync.Pool) {
	base := chainTo[A](parent)
	n.fuse = &fuseInfo{head: base.head, via: append(slices.Clip(base.via), n),
		exec: func(tc *Ctx, fc *fuseCounts, p int, in Batch) Batch {
			out := foldPartition(tables, func(add func(A)) { base.run(tc, fc, p, in, add) })
			return batchOf(out, len(out))
		}}
}

// fuseZip attaches ZipWithUniqueID's id-minting link to n. The stride is
// the construction-time partition count, as in the unfused compute.
func fuseZip[A any](n, parent *node, parts int) {
	base := chainTo[A](parent)
	run := func(tc *Ctx, fc *fuseCounts, p int, in Batch, emit func(Pair[uint64, A])) {
		k := 0
		base.run(tc, fc, p, in, func(a A) {
			emit(Pair[uint64, A]{Key: uint64(p) + uint64(k)*uint64(parts), Val: a})
			k++
		})
	}
	n.fuse = newFuseInfo(n, base.via, base.head, run, fuseTopExact, base.allMap)
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
