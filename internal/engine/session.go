// Package engine is a flat-parallel dataflow engine in the mould of Spark.
//
// It is the substrate the paper assumes (Sec. 3: "standard dataflow
// engines"): datasets are immutable, partitioned collections transformed by
// a lazy DAG of operators. Transformations (Map, Filter, ReduceByKey, Join,
// ...) only extend the DAG; actions (Collect, Count, Reduce, CollectMap)
// launch a job that executes the necessary stages. Stages are split at
// shuffle boundaries and narrow chains are pipelined into single tasks,
// exactly the structure whose overheads the paper's experiments measure:
// per-job launch cost, per-task scheduling cost, shuffle volume, broadcast
// memory.
//
// Execution is real — every operator computes its actual result, in
// parallel on the host's cores — while time and memory are accounted on a
// simulated cluster (internal/cluster), so experiments are deterministic
// and reproduce the paper's cluster-scale effects on a single machine.
// Where a shuffled row goes is a function of its key alone (stablehash.go);
// a session holds no hash seed, so two sessions — in one process or in two
// — place every element identically and report the same simulated numbers.
package engine

import (
	"runtime"
	"sync"
	"sync/atomic"

	"matryoshka/internal/cluster"
	"matryoshka/internal/obs"
)

// Config configures a Session.
type Config struct {
	Cluster cluster.Config
	// DefaultParallelism is the default number of partitions for sources
	// and shuffles. The paper sets Spark parallelism to 3x the total core
	// count (Sec. 9.1); NewSession applies the same rule when this is 0.
	DefaultParallelism int
	// hostParallelism bounds the real host-side worker pool that executes
	// tasks and shuffle routing (<= 0: GOMAXPROCS). It affects wall-clock
	// speed only, never the simulated cluster's accounting; only the
	// engine's own tests set it.
	hostParallelism int
	// Obs, when non-nil, receives the structured job/stage/broadcast
	// events and optimizer decisions of every job the session runs (the
	// event spine behind EXPLAIN ANALYZE; see internal/obs).
	Obs *obs.Recorder
	// Backend, when non-nil, replaces the session's private simulator as
	// the target the session charges time and memory to — a process pool
	// (internal/procpool) implements it. Cluster must describe the pool
	// the backend runs on (it still sizes DefaultParallelism and the
	// optimizer's memory estimates). When nil, NewSession builds a private
	// cluster.Simulator.
	Backend Backend
	// Recover enables the adaptive recovery loop: when a stage or
	// broadcast fails with cluster.ErrOutOfMemory (or exhausts its
	// injected-failure retries), the job re-lowers the offending subplan
	// — raising partition counts, demoting broadcasts — and resumes from
	// its completed-stage frontier instead of aborting. Off by default:
	// the paper's workaround baselines must die exactly where the real
	// systems die.
	Recover bool
}

// Backend is where a session charges time and memory: a private
// *cluster.Simulator or a process pool. The method set is exactly the
// slice of the Simulator API the executor uses, so the Simulator
// satisfies it unchanged.
type Backend interface {
	// StartJob charges the per-job launch overhead and counts the job.
	StartJob()
	// RunStageReport charges one stage of tasks and reports what the
	// cluster did.
	RunStageReport(tasks []cluster.Task) (cluster.StageReport, error)
	// Broadcast pins bytes cluster-wide until the job ends (or they are
	// unpinned), charging the distribution time.
	Broadcast(bytes int64) error
	// Unpin releases part of the pinned broadcast bytes early.
	Unpin(bytes int64)
	// ReleaseBroadcasts unpins everything — the end-of-job hook.
	ReleaseBroadcasts()
	// Clock returns the time charged so far, in seconds.
	Clock() float64
	// Stats returns the session's accumulated counters.
	Stats() cluster.Stats
}

var _ Backend = (*cluster.Simulator)(nil)

// DefaultConfig returns a Config for the paper's 25-machine cluster.
func DefaultConfig() Config {
	return Config{Cluster: cluster.DefaultConfig()}
}

// Session is the driver context: it owns the DAG node namespace, the
// simulated cluster, and the worker pool that executes tasks for real.
type Session struct {
	cfg Config
	// exec is what jobs charge: the session-private simulator, or
	// Config.Backend. All execution paths go through exec.
	exec   Backend
	nextID atomic.Int64

	// resid is exec's machine-failure facet (chaos.go), nil when the
	// backend does not track per-machine output residency.
	resid Residency

	// remote is exec's process-pool facet (portable.go), nil when the
	// backend has no real workers: when set, stages whose operators all
	// carry portable marks are shipped to worker processes instead of
	// executing on the driver's host pool.
	remote RemoteRunner

	// workers bounds real (host) parallelism for task execution; pool is
	// the persistent worker pool they run on, created once per session and
	// reused across all stages and jobs.
	workers int
	pool    *workerPool

	// costsScratch is the per-stage task-cost buffer, reused across stages
	// (guarded by mu: one job runs at a time, and cluster.RunStage copies
	// the slice it is handed).
	costsScratch []cluster.Task

	// arenas is the free list released shuffle blocks' memory goes back to
	// and the router allocates from (arena.go). Guarded by mu.
	arenas arenaList

	// noFuse is a test seam: it forces the per-operator evaluator on
	// chains the plan would let fuse, so the in-package suites can assert
	// both evaluators agree. Nothing outside tests sets it.
	noFuse bool

	// obs is the session's event sink; nil when observation is off (all
	// Recorder methods are nil-safe).
	obs *obs.Recorder

	// feedback carries runtime failures back to the lowering phase:
	// denylisted physical choices and partition-count boosts. Always
	// non-nil; it only receives entries when Config.Recover is on.
	feedback *Feedback

	mu sync.Mutex
}

// Feedback is the session-level channel from the executor's adaptive
// recovery loop back to the lowering phase (Sec. 8): physical choices that
// failed at run time are denylisted by (rule, choice), and partition
// counts carry a boost factor. The optimizer consults it on every later
// lowering in the session, so a choice that OOMed once is never re-picked
// — neither by the resumed job nor by subsequent jobs.
type Feedback struct {
	mu         sync.Mutex
	denied     map[[2]string]string // (rule, choice) -> why
	partsBoost int
}

func newFeedback() *Feedback {
	return &Feedback{denied: map[[2]string]string{}, partsBoost: 1}
}

// Deny denylists a (rule, choice) pair, keeping the first reason.
func (f *Feedback) Deny(rule, choice, why string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.denied[[2]string{rule, choice}]; !ok {
		f.denied[[2]string{rule, choice}] = why
	}
}

// Denied reports whether a (rule, choice) pair is denylisted, and why.
func (f *Feedback) Denied(rule, choice string) (string, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	why, ok := f.denied[[2]string{rule, choice}]
	return why, ok
}

// BoostParts multiplies the partition-count boost the optimizer applies to
// future shuffle lowerings (saturating at maxPartsRaise).
func (f *Feedback) BoostParts(factor int) {
	if factor < 1 {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.partsBoost *= factor
	if f.partsBoost > maxPartsRaise {
		f.partsBoost = maxPartsRaise
	}
}

// PartsBoost returns the accumulated partition-count boost (1 = none).
func (f *Feedback) PartsBoost() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.partsBoost
}

// Feedback returns the session's optimizer feedback registry.
func (s *Session) Feedback() *Feedback { return s.feedback }

// NewSession creates a session with its own simulated cluster. An invalid
// cluster configuration is reported as an error rather than a panic, so
// harnesses sweeping configurations can surface it as a failed run.
func NewSession(cfg Config) (*Session, error) {
	if cfg.Cluster.Machines == 0 {
		cfg.Cluster = cluster.DefaultConfig()
	}
	if cfg.DefaultParallelism <= 0 {
		cfg.DefaultParallelism = 3 * cfg.Cluster.Slots()
	}
	var sim *cluster.Simulator
	exec := cfg.Backend
	if exec == nil {
		var err error
		sim, err = cluster.New(cfg.Cluster)
		if err != nil {
			return nil, err
		}
		exec = sim
	} else if err := cfg.Cluster.Validate(); err != nil {
		return nil, err
	}
	workers := cfg.hostParallelism
	if workers <= 0 {
		workers = defaultWorkers()
	}
	s := &Session{
		cfg:      cfg,
		exec:     exec,
		workers:  workers,
		pool:     newWorkerPool(workers),
		obs:      cfg.Obs,
		feedback: newFeedback(),
	}
	s.resid, _ = exec.(Residency)
	s.remote, _ = exec.(RemoteRunner)
	if sim != nil && cfg.Cluster.Faults.Active() && cfg.Obs.Enabled() {
		rec := cfg.Obs
		sim.SetFaultObserver(func(at float64, machine int, kind, detail string) {
			rec.Fault(obs.FaultEvent{At: at, Machine: machine, Kind: kind, Detail: detail})
		})
	}
	// The pool's workers reference only the pool, so a dropped Session is
	// still collectable; this cleanup then shuts its workers down. Close
	// does the same deterministically.
	runtime.AddCleanup(s, func(p *workerPool) { p.close() }, s.pool)
	return s, nil
}

// Close releases the session's host worker pool, its recycled shuffle
// memory and the cached partitions a process pool holds for it. The
// session must not be used afterwards. Closing is optional — abandoned
// sessions are cleaned up by the garbage collector, and a pool drops an
// abandoned session's blocks at the end of the next session's first job —
// but makes the release deterministic. Closing twice is safe.
func (s *Session) Close() {
	s.pool.close()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.arenas = arenaList{}
	if s.remote != nil {
		// No spec has listed a block since the last job ended, so the
		// backend keeps none.
		s.exec.ReleaseBroadcasts()
	}
}

// stageCosts returns a zeroed []cluster.Task of length n backed by the
// session's reusable scratch buffer.
func (s *Session) stageCosts(n int) []cluster.Task {
	if cap(s.costsScratch) < n {
		s.costsScratch = make([]cluster.Task, n)
	}
	c := s.costsScratch[:n]
	for i := range c {
		c[i] = cluster.Task{}
	}
	return c
}

// Config returns the session configuration.
func (s *Session) Config() Config { return s.cfg }

// DefaultParallelism returns the session's default partition count.
func (s *Session) DefaultParallelism() int { return s.cfg.DefaultParallelism }

// Obs returns the session's event recorder; nil (a valid no-op sink) when
// observation is off. The lowering phase logs optimizer decisions here.
func (s *Session) Obs() *obs.Recorder { return s.obs }

// Clock returns the time charged so far, in seconds: virtual on the
// private simulator, wall-clock on a process pool.
func (s *Session) Clock() float64 { return s.exec.Clock() }

// Stats returns cluster statistics (jobs, stages, tasks, broadcasts).
func (s *Session) Stats() cluster.Stats { return s.exec.Stats() }

func (s *Session) newID() int64 { return s.nextID.Add(1) }
