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
// stores a link on its node: the operator's step as a sink over the push of
// the operator above it, and the materializer for when it ends a chain. For
// map, filter, flatMap, mapValues and zip the link is also the operator's
// only kernel: linkKernel runs it alone, as a chain of one, both as the
// node's compute and as the exported kernel a worker runs. When
// a job is planned — and again on every recovery replan — compileFusion
// (plan.go) walks the live DAG, finds the maximal runs of links whose
// intermediates are invisible to the plan (not a stage root, not a fan-in
// memo site, not on the recovery frontier) and fuses exactly those, so
// fusion never changes which partitions are materialized, memoized, or
// checkpointed. There is one walk and no stored chain it has to agree with:
// a node the plan can see cuts a chain into two that both fuse, and a chain
// over a lowering recovery abandoned cannot exist. The in-package suites
// (fuse_test.go, TestRandomDAGFusedMatchesPerOperator) run the same DAGs
// fused and per-operator — every link alone, as a chain of one — and
// assert identical partitions, virtual clocks, and cluster stats.
//
// A chain runs as sinks: each link turns the push of the link above it into
// its own push, so the rows of a head partition go down one loop into the
// bottom link and arrive, one call per link, at the top's materializer. A
// runner builds its instance of a chain (newChain) the first time it meets
// the chain in a stage launch and reuses it for every partition it runs
// there: nothing a chain needs is allocated per partition, so what a
// partition allocates is its output, and an empty head partition allocates
// nothing.
//
// Bit-identity imposes two disciplines on the fused loop:
//
//   - Cost replay. The unfused evaluator charges, per link, the rows each
//     operator consumes times the producer's record weight, bottom-up. Each
//     link counts its emits into its chain's counts and evalFused replays
//     exactly those charges in exactly that order after the loop (UDFs of
//     fusible operators never touch the task Ctx — mapCtx deliberately
//     breaks chains — so the replayed sequence of float additions is
//     identical to the unfused one). A cross link's broadcast side needs no
//     replay: reading a broadcast charges nothing in either evaluator, its
//     cost was charged when the runner pinned it.
//
//   - Capacity fidelity. sizeest.OfBatch charges the boxed-equivalent
//     capacity, and partitions of up to sampleN elements are handed to it
//     whole, so the output batch must report the capacity the operator's
//     boxed allocation would have had: map-like and cross tops cap==len, a
//     filter top its input count, a flatMap top the power-of-two growth of
//     one-at-a-time appends; in a chain of one, a filter reports its head
//     partition's length. The host slice itself grows however it likes —
//     real capacity is invisible to accounting — except that where the
//     output's row count is fixed by the head's (1:1 links and crosses
//     only), it is allocated once at that size, and a filter over the head
//     itself is pre-sized to its input.
//
// A MapPartitions link has to buffer: its UDF takes the partition as a slice
// and may mutate it; it passes its rows on when the partition ends (the
// chain's flush). The engine's own aggregates (ReduceByKey's combine,
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

// fuseTop describes the materialization shape of the chain's top operator,
// i.e. which allocation pattern the unfused compute would have produced.
type fuseTop int

const (
	fuseTopExact   fuseTop = iota // out has cap == len (map, mapValues, mapPartitions, zip, cross)
	fuseTopFilter                 // out pre-sized to the filter's input count
	fuseTopFlatMap                // out grown by one-at-a-time appends from nil
)

// fuseInfo is one fused chain of a plan (compileFusion, plan.go).
type fuseInfo struct {
	head *node   // evaluated normally; its partition batch feeds the chain
	via  []*node // chain operators bottom-up; the last entry tops the chain
	slot int     // the chain's index in its plan, for runners' instances (Ctx.chains)
}

// link is what a fusible operator contributes to a chain. The constructor
// stores it on the node; nothing is composed until a plan has found the
// chain legal (compileFusion) and a runner needs it (newChain), or a kernel
// runs it alone (linkKernel), with no job: j is then nil, so only a link
// that does not read the job can be a kernel. A link's functions are
// generic over its input row type A and output row type B, which the chain
// sees type-erased.
type link struct {
	// stream is the dep the operator streams through the chain; a link's
	// only other dep is a broadcast the runner pinned before the stage.
	stream int
	// factor, when set, is the fixed number of rows the operator emits per
	// row it takes in a stage of job j: 1 for a map, a cross product's
	// pinned broadcast length. nil where the count depends on the rows.
	factor func(j *job) int
	// sink returns the operator's push, a func(A), which counts the rows it
	// emits into c.counts[idx] and pushes them into down, the func(B) of the
	// link above. nil for a link that can only top a chain (linkFold).
	sink func(j *job, c *chain, idx int, down any) any
	// top is sink over the materializer matching the allocation shape of
	// the operator's unfused kernel: it sets c.done.
	top func(j *job, c *chain, idx int) any
	// feed returns the loop pushing a head partition's rows into push, a
	// func(A).
	feed func(push any) func(in Batch)
}

// chain is one runner's instance of a fused chain for one stage launch.
type chain struct {
	p     int // the partition being run (zip mints its ids from it)
	inLen int // rows in the head partition being run
	// counts[i] is how many rows via[i] emitted in the partition being
	// run. The top's own count is never replayed: its consumer charges for
	// its rows, or launchStage does at the stage root.
	counts [maxFuseOps]int64
	// scale[i] is the fixed number of rows entering via[i] per head row
	// (scale[len(via)]: leaving the top), -1 above a link whose output
	// depends on the rows. Exact-size buffers are sized from it.
	scale [maxFuseOps + 1]int
	feed  func(in Batch) // pushes a head partition's rows into the bottom link
	flush []func()       // ends of whole-partition links, top first
	done  func() Batch   // the top's output for the partition; empties the chain
}

// newChain composes a runner's instance of fi for a stage of job j: the
// top's materializer first, then every link below wrapped around the push
// of the one above.
func newChain(j *job, fi *fuseInfo) *chain {
	c := &chain{}
	k := len(fi.via)
	c.scale[0] = 1
	for i, m := range fi.via {
		c.scale[i+1] = -1
		if c.scale[i] >= 0 && m.link.factor != nil {
			c.scale[i+1] = c.scale[i] * m.link.factor(j)
		}
	}
	push := fi.via[k-1].link.top(j, c, k-1)
	for i := k - 2; i >= 0; i-- {
		push = fi.via[i].link.sink(j, c, i, push)
	}
	c.feed = fi.via[0].link.feed(push)
	return c
}

// run pushes head partition p through the chain and returns the top's
// output batch; c.counts then holds the partition's per-link emits.
func (c *chain) run(p int, in Batch) Batch {
	c.p, c.inLen, c.counts = p, in.Len(), [maxFuseOps]int64{}
	c.feed(in)
	for i := len(c.flush) - 1; i >= 0; i-- {
		c.flush[i]()
	}
	return c.done()
}

// feedRows returns the loop feeding a chain from its head partition, one
// typed row at a time.
func feedRows[A any](push any) func(in Batch) {
	emit := push.(func(A))
	return func(in Batch) {
		for _, a := range elems[A](in) {
			emit(a)
		}
	}
}

// newLink returns the link of an operator turning rows of A into rows of B:
// step returns the operator's push given emit, the push of the rows it
// produces, counting them into c.counts[idx]; shape is the allocation
// pattern of its output and factor as on link.
func newLink[A, B any](shape fuseTop, factor func(*job) int, step func(j *job, c *chain, idx int, emit func(B)) func(A)) *link {
	empty := batchOf[B](nil, 0)
	return &link{
		factor: factor,
		sink: func(j *job, c *chain, idx int, down any) any {
			return step(j, c, idx, down.(func(B)))
		},
		top: func(j *job, c *chain, idx int) any {
			return step(j, c, idx, materialize[B](c, shape, idx, empty))
		},
		feed: feedRows[A],
	}
}

// linkKernel is the kernel of an operator whose link is l: l alone, run as a
// chain of one over the dep it streams. A call takes an instance of the
// chain from a pool and puts it back when the partition is done, so a warm
// kernel allocates only its output; an instance a panicking UDF abandoned is
// dropped. The function is not generic and stays out of its generic
// callers' bodies, so its loop is compiled once, not once per row type.
//
//go:noinline
func linkKernel(l *link) PortableCompute {
	// The chain's one link sits on a node of its own: newChain reads
	// nothing of a node but its link.
	one := &fuseInfo{via: []*node{{link: l}}}
	chains := &sync.Pool{New: func() any { return newChain(nil, one) }}
	return func(tc *Ctx, p int, in []Batch) Batch {
		c := chains.Get().(*chain)
		out := c.run(p, in[l.stream])
		chains.Put(c) // not deferred: see foldBatch
		return out
	}
}

// oneToOne is the factor of a link emitting a row per row it takes.
func oneToOne(*job) int { return 1 }

// materialize ends a chain topped by via[idx]: it returns the push the top
// operator's rows go into, and sets c.done to hand them out as a typed batch
// that reports the capacity the operator's boxed allocation would have had —
// or as empty, shared, when there are none.
func materialize[T any](c *chain, shape fuseTop, idx int, empty Batch) func(T) {
	var out []T
	// per is how many rows the output is allocated for per head row, where
	// that is fixed before the loop: 1:1 links and crosses below and at the
	// top, or a filter over the head itself, which pre-sizes to its input.
	// 0 lets the output grow by append.
	per := max(c.scale[idx+1], 0)
	if shape == fuseTopFilter && idx == 0 {
		per = 1
	}
	c.done = func() Batch {
		xs := out
		out = nil
		bcap := len(xs)
		switch shape {
		case fuseTopFilter:
			// A filter charges for the input it pre-sized to: the head
			// partition, or the emit count of the link below it.
			bcap = c.inLen
			if idx > 0 {
				bcap = int(c.counts[idx-1])
			}
		case fuseTopFlatMap:
			bcap = blockCap(len(xs))
		}
		if bcap == 0 {
			return empty
		}
		return batchOf(xs, bcap)
	}
	return func(t T) {
		if out == nil && per > 0 {
			out = make([]T, 0, c.inLen*per)
		}
		out = append(out, t)
	}
}

// linkMap is a 1:1 link (Map, MapValues; never MapCtx: its UDF charges the
// task Ctx mid-loop, and replaying those charges in the unfused order is
// impossible, so mapCtx always breaks chains).
func linkMap[A, B any](f func(A) B) *link {
	return newLink(fuseTopExact, oneToOne, func(_ *job, c *chain, idx int, emit func(B)) func(A) {
		emits := &c.counts[idx]
		return func(a A) {
			*emits++
			emit(f(a))
		}
	})
}

// linkMapValues is MapValues' link: linkMap over the value of a pair. It
// stays out of its callers' bodies, so MapValues and MapValuesCompute share
// one copy of the pair adapter per shape.
//
//go:noinline
func linkMapValues[K comparable, V, W any](f func(V) W) *link {
	return linkMap(func(kv Pair[K, V]) Pair[K, W] {
		return Pair[K, W]{Key: kv.Key, Val: f(kv.Val)}
	})
}

// linkFilter is a filtering link.
func linkFilter[A any](pred func(A) bool) *link {
	return newLink(fuseTopFilter, nil, func(_ *job, c *chain, idx int, emit func(A)) func(A) {
		emits := &c.counts[idx]
		return func(a A) {
			if pred(a) {
				*emits++
				emit(a)
			}
		}
	})
}

// linkFlatMap is an expanding link.
func linkFlatMap[A, B any](f func(A) []B) *link {
	return newLink(fuseTopFlatMap, nil, func(_ *job, c *chain, idx int, emit func(B)) func(A) {
		emits := &c.counts[idx]
		return func(a A) {
			for _, b := range f(a) {
				*emits++
				emit(b)
			}
		}
	})
}

// linkMapPartitions is a whole-partition link: upstream rows are buffered
// typed (host-side scratch, invisible to accounting), and when the
// partition ends the UDF runs once and its results stream on. It is not
// MapPartitions' kernel: alone, it would copy the UDF's result into an
// output batch that MapPartitionsCompute hands on as it is.
func linkMapPartitions[A, B any](f func([]A) []B) *link {
	return newLink(fuseTopExact, nil, func(_ *job, c *chain, idx int, emit func(B)) func(A) {
		emits := &c.counts[idx]
		var buf []A
		c.flush = append(c.flush, func() {
			rows := buf
			buf = nil
			for _, b := range f(rows) {
				*emits++
				emit(b)
			}
		})
		return func(a A) {
			if buf == nil {
				// The buffer is sized once where the row count is known.
				// Otherwise the head partition's length bounds nothing (a
				// filter keeping one day in 48 would over-allocate 48×; a
				// flatMap can exceed it) and the buffer grows by append.
				if rows := c.scale[idx]; rows > 0 {
					buf = make([]A, 0, c.inLen*rows)
				}
			}
			buf = append(buf, a)
		}
	})
}

// linkFold is a streaming aggregation link (fold.go): upstream rows go
// straight into a folder's add, so unlike linkMapPartitions there is no
// buffer in front of the aggregate, and the folder's exact-size result is
// the stage's output batch. The link only ever tops a chain (sink stays
// nil): its consumer is the shuffle dep of the ReduceByKey/Distinct that
// built it. A partition takes a folder from tables at its first row and
// puts it back at its end; a folder a panicking UDF abandoned goes with the
// chain the runner drops.
func linkFold[A any](tables *sync.Pool) *link {
	empty := batchOf[A](nil, 0)
	return &link{top: func(_ *job, c *chain, _ int) any {
		var t folder[A]
		c.done = func() Batch {
			if t == nil {
				return empty
			}
			out := t.finish()
			tables.Put(t)
			t = nil
			return batchOf(out, len(out))
		}
		return func(a A) {
			if t == nil {
				t = tables.Get().(folder[A])
			}
			t.add(a)
		}
	}}
}

// linkZip is ZipWithUniqueID's id-minting link. The stride, parts, is the
// partition count at construction; a row's index in its partition is the
// count of rows the link emitted before it.
func linkZip[A any](parts int) *link {
	return newLink(fuseTopExact, oneToOne, func(_ *job, c *chain, idx int, emit func(Pair[uint64, A])) func(A) {
		emits := &c.counts[idx]
		return func(a A) {
			k := *emits
			*emits++
			emit(Pair[uint64, A]{Key: uint64(c.p) + uint64(k)*uint64(parts), Val: a})
		}
	})
}

// linkCross is the link of n, a half-lifted cross product: dep 1 streams,
// and every streamed row meets the rows of dep 0, the broadcast side, in
// order — streamed row major, the unfused kernel's order. The broadcast
// batch is the one the runner pinned for the stage (job.bcast), read once
// per chain instance; reading it charges nothing, in a chain as in the
// per-operator evaluator, because a broadcast's cost is charged when it is
// pinned. It reads the job, so it is not the cross's kernel: that one gets
// the broadcast as its input.
func linkCross[S, R, C any](n *node, g func(S, R) C) *link {
	bcast := func(j *job) Batch { return j.bcast[&n.deps[0]] }
	l := newLink(fuseTopExact, func(j *job) int { return bcast(j).Len() }, func(j *job, c *chain, idx int, emit func(C)) func(S) {
		emits := &c.counts[idx]
		rs := elems[R](bcast(j))
		return func(x S) {
			for _, r := range rs {
				emit(g(x, r))
			}
			*emits += int64(len(rs))
		}
	})
	l.stream = 1
	return l
}

// evalFused runs partition p of a compiled fused chain on the runner's
// instance of it: one pass over the head's partition batch through the
// composed sinks, then a replay of exactly the per-link input charges the
// unfused evaluator would have accumulated, in its order (head first, then
// each link bottom-up).
func (j *job) evalFused(tc *Ctx, fi *fuseInfo, p int) Batch {
	in := j.evalPart(tc, fi.head, p)
	if tc.chains == nil {
		tc.chains = make([]*chain, len(j.ep.fused))
	}
	c := tc.chains[fi.slot]
	if c == nil {
		c = newChain(j, fi)
		tc.chains[fi.slot] = c
	}
	out := c.run(p, in)
	tc.work += float64(in.Len()) * fi.head.weight
	for i := 0; i+1 < len(fi.via); i++ {
		tc.work += float64(c.counts[i]) * fi.via[i].weight
	}
	return out
}

// fusedDesc renders the active fused chains inside the stage rooted at
// root for EXPLAIN ANALYZE, e.g. "fused(map∘filter∘flatMap) ×3 ops".
// Traversal is over the stage interior only: it stops at stage roots (the
// recovery frontier among them), and each fused chain is reported once.
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
			if ep.stageOf[fi.head] == nil {
				walk(fi.head)
			}
			return
		}
		for i := range n.deps {
			d := &n.deps[i]
			if d.kind == depNarrow && ep.stageOf[d.parent] == nil {
				walk(d.parent)
			}
		}
	}
	walk(root)
	return strings.Join(parts, " ")
}
