package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"matryoshka/internal/cluster"
	"matryoshka/internal/obs"
)

// job executes one action against a physical plan built in a distinct
// planning step (plan.go). Stage roots (action target, shuffle/broadcast
// map sides, cached nodes) are materialized fully; everything else is
// pipelined into the tasks of its consuming stage. The executor makes no
// planning decision of its own — stage boundaries, operator chains, memo
// sites and which narrow chains run fused all come from the plan.
//
// Execution is resumable: completed stage roots live on the job's frontier
// (see runner.go), and when a stage fails and Config.Recover is on, the
// recovery loop (recover.go) re-lowers the offending subplan, rebuilds the
// plan for the unfinished suffix, and re-enters the runner — the frontier,
// pinned caches, shuffle blocks and the virtual clock already charged are
// all preserved.
type job struct {
	s  *Session
	ep *execPlan // the bound physical plan (rebuilt on recovery replans)
	// front is the job's stage frontier: the checkpoint of every stage
	// root materialized so far, with the cost provenance of the attempt
	// that produced it.
	front map[*node]*checkpoint
	// blocks memoizes shuffle routing per dep: blocks[d].blocks[childPart].
	// It is a cache of route(front[d.parent]) with a lifetime: once the
	// last stage of the plan that reads d has succeeded the blocks are
	// released (releaseBlocks) and a relaunch routes them again. The entry
	// itself stays — its presence is the fact "fetched before any later
	// crash" that checkFetch reads — until the parent is rewound or the
	// consumer re-lowered (dropBlocks).
	blocks map[*dep]*routed
	// bcast memoizes flattened broadcast inputs per dep.
	bcast map[*dep]Batch
	// bcastBytes records the residency charged per pinned broadcast dep,
	// so recovery can unpin a broadcast it re-lowers away.
	bcastBytes map[*dep]int64

	// attempts counts launches per stage root (recovery bounds reruns);
	// raised tracks the cumulative partition-raise factor per stage root;
	// relowered counts the plan changes recovery applied, which
	// maxJobRecoveries caps.
	attempts  map[*node]int
	raised    map[*node]int
	relowered int

	// Machine-failure state (chaos.go): the residency handle of each
	// launched stage root's shuffle output, how often each root was
	// recomputed after a fetch failure, and the from-scratch job retries
	// spent escalating past the per-stage recompute cap.
	outputs    map[*node]cluster.OutputID
	recomputed map[*node]int
	jobRetries int

	// memo caches computed partitions of the plan's fan-in>1 narrow
	// nodes (diamond DAGs, a Union of a dataset with itself, nodes read
	// from several stages): evalPart computes each exactly once instead of
	// once per consumer.
	memo sync.Map // memoKey -> *memoEntry
	// memoHits counts fan-in partitions served from the memo (an
	// event-spine counter; snapshot per stage).
	memoHits atomic.Int64

	// onceVals shards per-job Once entries by id, so concurrent builds of
	// unrelated structures (e.g. two broadcast joins' hash tables) never
	// serialize on a job-wide mutex; only callers of the same id wait for
	// its single build.
	onceVals sync.Map // int64 -> *onceEntry
}

type memoKey struct {
	n *node
	p int
}

// memoEntry caches one computed partition of a fan-in>1 narrow node plus
// the task-cost deltas incurred computing it. Every consumer — including
// the task that ran the computation — replays the deltas into its own Ctx,
// so simulated-cluster accounting is identical to recomputing the
// partition per consumer: the charges are sums of per-row terms, and each
// consumer receives exactly the same sum it would have accumulated inline.
type memoEntry struct {
	once         sync.Once
	data         Batch
	work         float64
	shuffleBytes float64
	mem          int64
}

type onceEntry struct {
	once sync.Once
	val  any
}

// errJobPanicked is the error a job ends with when a panic escapes its
// runner — not a task's, which fails the job with an error, but the
// driver's own (a partitioner over a key type it cannot hash, say).
var errJobPanicked = errors.New("engine: the job's driver code panicked")

// runJob plans and launches a job whose result is the materialized target
// node: a planning step builds the physical plan, the event spine records
// it, and the stage-graph runner (runner.go) consumes it — recovering and
// replanning on failure when the session allows it. The job ends here on
// every exit, a panic that escapes the runner included: its blocks and
// broadcasts are released and the recorder closes it with its error.
func (s *Session) runJob(target *node) (out []Batch, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j := s.newJob()
	clockBefore := s.exec.Clock()
	s.exec.StartJob()
	err = errJobPanicked
	defer func() {
		j.end()
		s.exec.ReleaseBroadcasts()
		s.obs.EndJob(s.exec.Clock()-clockBefore, err)
	}()
	return j.run(target)
}

// panicError is the error of code that panicked with r while running what
// (a task, a fold): it wraps r when r is an error. The driver's and the
// worker's tasks both word their panics through it.
func panicError(what string, r any) error {
	if err, ok := r.(error); ok {
		return fmt.Errorf("engine: %s panicked: %w", what, err)
	}
	return fmt.Errorf("engine: %s panicked: %v", what, r)
}

// newJob returns the empty state of a job about to run on s.
func (s *Session) newJob() *job {
	return &job{
		s:          s,
		front:      map[*node]*checkpoint{},
		blocks:     map[*dep]*routed{},
		bcast:      map[*dep]Batch{},
		bcastBytes: map[*dep]int64{},
		attempts:   map[*node]int{},
		raised:     map[*node]int{},
		outputs:    map[*node]cluster.OutputID{},
		recomputed: map[*node]int{},
	}
}

// end releases the shuffle blocks the job still holds — those of a stage
// that never ran or never succeeded — and lets the free list forget what
// the job had no use for.
func (j *job) end() {
	for _, r := range j.blocks {
		j.releaseBlocks(r)
	}
	j.s.arenas.endJob()
}

// launchStage runs the tasks of stage st (rooted at n) for real on the
// host, submits their measured costs to the simulated cluster, and returns
// the structured outcome: the simulator's StageReport on success, a typed
// stageFailure otherwise. On success the result is checkpointed on the
// job's frontier (and in the node cache for cached roots).
func (j *job) launchStage(n *node, st *stage) stageResult {
	j.attempts[n]++
	// A process-pool backend runs portable stages in worker processes;
	// stages it cannot take (unregistered closures, infrastructure failure)
	// fall through to the driver-local path below.
	if j.s.remote != nil {
		if res, ok := j.launchStageRemote(n, st); ok {
			return res
		}
	}
	// results cannot be pooled (it outlives the stage on the frontier and
	// possibly in the node cache) but the cost buffer is per-stage scratch
	// reused across the session.
	results := make([]Batch, n.parts)
	costs := j.s.stageCosts(n.parts)
	observing := j.s.obs.Enabled()
	var shufScratch []float64
	var boundScratch []int64
	var shapeScratch []string
	if observing {
		shufScratch = make([]float64, n.parts)
		boundScratch = make([]int64, n.parts)
		shapeScratch = make([]string, n.parts)
	}
	memoHitsBefore := j.memoHits.Load()
	var failOnce sync.Once
	var failed error
	// One Ctx per runner, reused for every task it takes: the task's costs
	// are reset per task, its input stack and fused chains are not.
	tcs := make([]*Ctx, j.s.workers)
	runTask := func(r, p int) {
		tc := tcs[r]
		if tc == nil {
			tc = &Ctx{job: j}
			tcs[r] = tc
		}
		tc.taskCost = taskCost{}
		defer func() {
			if e := recover(); e != nil {
				// A chain or input stack a panic left mid-partition is
				// dropped, with any pooled scratch it held.
				tc.ins, tc.chains = nil, nil
				failOnce.Do(func() { failed = panicError(fmt.Sprintf("task %d of %s", p, j.chainOf(st)), e) })
			}
		}()
		out := j.evalPart(tc, n, p)
		results[p] = out
		// The stage root's output is materialized: charge the rows it
		// emits and hold it resident alongside operator-claimed memory.
		tc.work += float64(batchLen(out)) * n.weight
		tc.UseMemory(j.s.estResidentBytes(out, n.rows, n.weight))
		cc := j.s.cfg.Cluster
		costs[p] = cluster.Task{
			Compute: tc.work*cc.PerElementCost + tc.shuffleBytes*cc.PerByteShuffle,
			Memory:  tc.mem,
		}
		if observing {
			shufScratch[p] = tc.shuffleBytes
			boundScratch[p] = tc.boundaryBytes
			shapeScratch[p] = tc.batchShape
		}
	}
	wallStart := time.Now()
	j.s.pool.parallelFor(j.s.workers, n.parts, runTask)
	wallSeconds := time.Since(wallStart).Seconds()
	if failed != nil {
		// A panicking task fails its job: no rerun or re-lowering changes
		// what its code does with the rows it was given.
		return stageResult{fail: &stageFailure{root: n, st: st, err: failed}}
	}

	rep, err := j.s.exec.RunStageReport(costs)
	if err != nil {
		var oom *cluster.OOMError
		errors.As(err, &oom)
		return stageResult{rep: rep, fail: &stageFailure{
			root:      n,
			st:        st,
			oom:       oom,
			transient: errors.Is(err, cluster.ErrTaskRetriesExhausted),
			seconds:   rep.Seconds,
			err:       fmt.Errorf("engine: stage %q (%s) failed: %w", n.label, j.chainOf(st), err),
		}}
	}
	if observing {
		var shuffleBytes float64
		for _, sb := range shufScratch {
			shuffleBytes += sb
		}
		var boundaryBytes int64
		batchShape := ""
		for p := range boundScratch {
			boundaryBytes += boundScratch[p]
			if batchShape == "" {
				batchShape = shapeScratch[p]
			}
		}
		j.s.obs.StageRan(obs.Stage{
			Stage:         st.id,
			Label:         n.label,
			Chain:         st.chainString(),
			Fused:         j.ep.fusedDesc(n),
			Parts:         n.parts,
			ShuffleBytes:  shuffleBytes,
			MemoHits:      j.memoHits.Load() - memoHitsBefore,
			Seconds:       rep.Seconds,
			BusySeconds:   rep.BusySeconds,
			Retries:       rep.Retries,
			MaxTaskSec:    rep.MaxTaskSec,
			MaxTaskMem:    rep.MaxTaskMem,
			BoundaryBytes: boundaryBytes,
			BatchShape:    batchShape,
			WallSeconds:   wallSeconds,
		})
	}
	return j.commit(n, results, rep)
}

// commit checkpoints the finished stage rooted at n on the job's frontier,
// registers its output with the residency tracker and, for a cached root,
// keeps its partitions in the node cache.
func (j *job) commit(n *node, parts []Batch, rep cluster.StageReport) stageResult {
	j.front[n] = &checkpoint{data: parts, rep: rep}
	j.registerOutput(n)
	if n.cached {
		n.cacheMu.Lock()
		n.cacheData = parts
		n.cacheMu.Unlock()
	}
	return stageResult{rep: rep}
}

// launchStageRemote ships the stage rooted at n to the backend's process
// pool. ok=false means the stage did not run remotely because the backend
// could not carry it (an error wrapping ErrNotPortable), and the caller
// must run it driver-local. The reason lands in the optimizer decision
// log, so EXPLAIN ANALYZE shows exactly which stages stayed on the driver
// and why. Any other error is the stage's failure (classifyRemoteErr).
func (j *job) launchStageRemote(n *node, st *stage) (stageResult, bool) {
	spec, err := j.buildRemoteSpec(n, j.s.remote.PutBlock)
	wallStart := time.Now()
	var res *RemoteStageResult
	if err == nil {
		res, err = j.s.remote.RunRemoteStage(context.Background(), spec)
	}
	if err == nil && len(res.Parts) != n.parts {
		err = fmt.Errorf("engine: the runner returned %d partitions, want %d", len(res.Parts), n.parts)
	}
	if err != nil {
		if fail := j.classifyRemoteErr(n, st, err); fail != nil {
			return stageResult{fail: fail}, true
		}
		j.s.obs.Decide(obs.Decision{
			Rule:   "proc-backend",
			Choice: "driver-local",
			Why:    fmt.Sprintf("stage %q: %v", n.label, err),
		})
		return stageResult{}, false
	}
	// Remote stages charge no simulated task costs — the backend's clock is
	// real wall time — but the stage still runs through RunStageReport so
	// job/stage/task counters and the per-stage report shape stay uniform.
	rep, err := j.s.exec.RunStageReport(j.s.stageCosts(n.parts))
	if err != nil {
		return stageResult{rep: rep, fail: &stageFailure{
			root:    n,
			st:      st,
			seconds: rep.Seconds,
			err:     fmt.Errorf("engine: stage %q (%s) failed: %w", n.label, j.chainOf(st), err),
		}}, true
	}
	if j.s.obs.Enabled() {
		j.s.obs.StageRan(obs.Stage{
			Stage:         st.id,
			Label:         n.label,
			Chain:         st.chainString(),
			Parts:         n.parts,
			Seconds:       rep.Seconds,
			BusySeconds:   rep.BusySeconds,
			Remote:        true,
			WallSeconds:   time.Since(wallStart).Seconds(),
			RemoteBytes:   res.BytesShipped,
			RemoteWorkers: res.Workers,
		})
	}
	return j.commit(n, res.Parts, rep), true
}

// classifyRemoteErr decides what a failed remote stage means, by the
// RemoteRunner contract's three outcomes:
//
//   - an error wrapping ErrNotPortable: the backend could not carry the
//     stage, so nil: the caller runs it driver-local;
//   - *QuorumLostError: the pool is below its live-worker quorum. A
//     fetch-style failure (no specific lost parent), so the bounded job
//     retry — not an infinite driver wait — decides the job's fate;
//   - anything else: a task failed on a worker (its kernel panicked, or
//     the worker was quarantined for killing workers), or the runner did.
//     The stage fails as it would in process, and recovery does not retry
//     it: its failure carries no OOM, fetch or transient detail.
func (j *job) classifyRemoteErr(n *node, st *stage, err error) *stageFailure {
	if errors.Is(err, ErrNotPortable) {
		return nil
	}
	var quorum *QuorumLostError
	if errors.As(err, &quorum) {
		return &stageFailure{
			root: n, st: st,
			fetch: &cluster.FetchFailedError{Machine: -1, Total: n.parts},
			err:   fmt.Errorf("engine: stage %q (%s): %w", n.label, j.chainOf(st), err),
		}
	}
	return &stageFailure{root: n, st: st, err: fmt.Errorf("engine: stage %q (%s) failed: %w", n.label, j.chainOf(st), err)}
}

// chainOf renders the stage's pipelined operator chain with record
// weights, for error messages.
func (j *job) chainOf(st *stage) string {
	var b []byte
	b = append(b, st.root.label...)
	for _, n := range st.chain[1:] {
		b = fmt.Appendf(b, "<-%s/w%.0f", n.label, n.weight)
	}
	if last := st.chain[len(st.chain)-1]; len(last.deps) > 0 {
		p := last.deps[0].parent
		b = fmt.Appendf(b, "<-[%s/w%.0f]", p.label, p.weight)
	}
	return string(b)
}

// buildBlocks routes the materialized parent of shuffle dep d into the
// child's partitions (see route.go), unless the blocks are still there.
func (j *job) buildBlocks(d *dep) {
	if r := j.blocks[d]; r == nil || r.blocks == nil {
		fresh := j.s.route(d, j.front[d.parent].data)
		j.blocks[d] = &fresh
	}
}

// releaseBlocks ends the life of a dep's routed blocks: no stage still to
// run reads them and no reader kept them (dep.aliased), so their arenas go
// back to the session's free list and the rest to the collector.
func (j *job) releaseBlocks(r *routed) {
	j.s.arenas.put(r.arenas...)
	r.blocks, r.arenas = nil, nil
}

// dropBlocks forgets that d was routed at all: its parent is being rewound
// or its consumer re-lowered, so the next reader fetches and routes afresh.
func (j *job) dropBlocks(d *dep) {
	if r := j.blocks[d]; r != nil {
		j.releaseBlocks(r)
		delete(j.blocks, d)
	}
}

// pinBroadcast flattens the parent of broadcast dep d and charges the
// simulated cluster for holding it on every machine. A failure is
// reported as a structured stage outcome carrying the consuming operator
// (owner), which is where recovery's broadcast demotion applies.
func (j *job) pinBroadcast(d *dep, root *node, st *stage, owner *node) *stageFailure {
	if _, ok := j.bcast[d]; ok {
		return nil
	}
	flat := flatten(j.front[d.parent].data)
	bytes := j.s.estResidentBytes(flat, d.parent.rows, d.parent.weight)
	clockBefore := j.s.exec.Clock()
	if err := j.s.exec.Broadcast(bytes); err != nil {
		var oom *cluster.OOMError
		errors.As(err, &oom)
		return &stageFailure{
			root:  root,
			st:    st,
			owner: owner,
			oom:   oom,
			err:   fmt.Errorf("engine: broadcast of %s failed: %w", d.parent.label, err),
		}
	}
	if j.s.obs.Enabled() {
		j.s.obs.BroadcastPinned(obs.Broadcast{
			Label:   d.parent.label,
			Bytes:   bytes,
			Seconds: j.s.exec.Clock() - clockBefore,
		})
	}
	j.bcast[d] = flat
	j.bcastBytes[d] = bytes
	return nil
}

// evalPart computes partition p of node n inside a task, pipelining narrow
// parents and reading materialized data at stage boundaries. Partitions of
// the plan's fan-in>1 narrow nodes are computed exactly once per job and
// their task costs replayed to every consumer (see memoEntry).
func (j *job) evalPart(tc *Ctx, n *node, p int) Batch {
	if cp, ok := j.front[n]; ok {
		return cp.data[p]
	}
	if j.ep.memo[n] {
		ei, _ := j.memo.LoadOrStore(memoKey{n, p}, &memoEntry{})
		e := ei.(*memoEntry)
		hit := true
		e.once.Do(func() {
			hit = false
			// The partition is computed on the consumer's runner scratch
			// (input stack, fused chains) into costs of its own.
			outer := tc.taskCost
			tc.taskCost = taskCost{}
			e.data = j.evalPartDirect(tc, n, p)
			e.work, e.shuffleBytes, e.mem = tc.work, tc.shuffleBytes, tc.mem
			tc.taskCost = outer
		})
		if hit {
			j.memoHits.Add(1)
		}
		tc.work += e.work
		tc.shuffleBytes += e.shuffleBytes
		tc.UseMemory(e.mem)
		return e.data
	}
	return j.evalPartDirect(tc, n, p)
}

// evalPartDirect is evalPart without the fan-in memo check.
//
// Work is charged input-based: each node pays for the rows it consumes,
// weighted by the producing node's record weight, so a row that stands for
// many real records costs proportionally more and a cardinality-bounded
// row (weight 1) costs exactly one row — regardless of which operator
// produced it.
func (j *job) evalPartDirect(tc *Ctx, n *node, p int) Batch {
	if fi := j.ep.fused[n]; fi != nil {
		// The node tops a fused narrow chain legal under this plan: run
		// the whole chain as one typed loop (fuse.go). Charges replay the
		// unfused per-link sequence exactly.
		return j.evalFused(tc, fi, p)
	}
	// The node's input slots sit on the runner's stack: parents evaluated
	// here push their own above them and pop them before returning.
	base := len(tc.ins)
	tc.ins = append(tc.ins, make([]Batch, len(n.deps))...)
	for i := range n.deps {
		d := &n.deps[i]
		var b Batch
		switch d.kind {
		case depNarrow:
			b = zeroBatch
			if pp, ok := d.parentPart(p); ok {
				b = j.evalPart(tc, d.parent, pp)
			}
			tc.work += float64(batchLen(b)) * d.parent.weight
		case depShuffle:
			// Shuffle reads are charged as network cost and consume
			// CPU; residency is claimed by the consuming operator
			// according to its own semantics (a reduce holds its
			// build map, a groupBy holds its whole input, a
			// pipelined map holds neither).
			b = j.blocks[d].blocks[p]
			tc.work += float64(batchLen(b)) * d.parent.weight
			tc.shuffleBytes += float64(estPartitionBytes(b, d.parent.rows)) * d.parent.weight
			if j.s.obs.Enabled() {
				tc.boundaryBytes += encodedBatchBytes(&tc.encScratch, b)
				if tc.batchShape == "" && batchLen(b) > 0 {
					t, _ := b.Rows()
					tc.batchShape = shapeName(t)
				}
			}
			if b == nil {
				b = zeroBatch
			}
		case depBroadcast:
			// The broadcast build cost is charged at pin time; probe
			// work is charged by the rows the consumer emits.
			b = j.bcast[d]
		}
		// By index into tc.ins as it is now: evaluating a parent may have
		// grown (moved) the stack.
		tc.ins[base+i] = b
	}
	inputs := tc.ins[base:len(tc.ins):len(tc.ins)]
	out := n.compute(tc, p, inputs)
	clear(inputs)
	tc.ins = tc.ins[:base]
	return out
}

// once runs f exactly once per job for the given node id, caching the
// result. Typed operators use it to build per-job lookup structures (e.g.
// the hash table of a broadcast join) once instead of per task. Entries
// are sharded per id, so builds for different ids proceed concurrently.
func (j *job) once(id int64, f func() any) any {
	ei, _ := j.onceVals.LoadOrStore(id, &onceEntry{})
	e := ei.(*onceEntry)
	e.once.Do(func() { e.val = f() })
	return e.val
}
