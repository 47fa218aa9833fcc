// Package cluster simulates a parallel compute cluster.
//
// The paper evaluates on physical clusters (25 machines in Sec. 9.1, 36 in
// Sec. 9.7). This package substitutes a deterministic simulator: the engine
// executes every operator for real (so results can be checked), while the
// simulator separately advances a virtual clock by the makespan that the
// job's tasks would take on a cluster of Machines×CoresPerMachine slots.
//
// The cost model captures exactly the effects the paper measures:
//
//   - per-job launch overhead (what sinks the inner-parallel workaround),
//   - per-task scheduling overhead (what amplifies inner-parallel on larger
//     clusters, Sec. 9.3),
//   - limited slots (what caps the outer-parallel workaround when there are
//     fewer groups than cores),
//   - per-machine memory (what OOMs outer-parallel/DIQL on big groups and
//     broadcast joins on big broadcasts).
package cluster

import (
	"cmp"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
)

// ErrOutOfMemory reports that a task or broadcast exceeded a machine's
// memory budget. It is the simulator analogue of a Spark executor OOM.
var ErrOutOfMemory = errors.New("cluster: out of memory")

// OOMError wraps ErrOutOfMemory with enough detail to say *why* the wave
// did not fit — which wave, which machine, and how much of the budget was
// already pinned by broadcasts. The engine's recovery loop reads these
// fields to pick a re-lowering (raise partitions vs demote a broadcast).
type OOMError struct {
	What     string // "task" or "broadcast"
	Bytes    int64  // requested
	Limit    int64  // per-machine budget available (after pinned broadcasts)
	Wave     int    // 1-based scheduling wave that overflowed (task OOMs)
	Machine  int    // machine index holding the excess pressure (task OOMs)
	Resident int64  // broadcast bytes pinned on every machine at failure time
}

func (e *OOMError) Error() string {
	msg := fmt.Sprintf("cluster: out of memory: %s needs %d bytes, machine budget %d", e.What, e.Bytes, e.Limit)
	if e.What == "task" && e.Wave > 0 {
		msg += fmt.Sprintf(" (wave %d, machine %d)", e.Wave, e.Machine)
	}
	if e.Resident > 0 {
		msg += fmt.Sprintf(" (%d bytes broadcast-resident)", e.Resident)
	}
	return msg
}

func (e *OOMError) Unwrap() error { return ErrOutOfMemory }

// ErrTaskRetriesExhausted reports that an injected transient task failure
// repeated beyond Config.MaxTaskRetries, failing the whole stage — the
// Spark `spark.task.maxFailures` abort. It is distinct from ErrOutOfMemory:
// rerunning the same stage may succeed, so the engine's recovery loop
// retries the stage as-is instead of re-lowering it.
var ErrTaskRetriesExhausted = errors.New("cluster: task failed after exhausting retries")

// TaskFailureError wraps ErrTaskRetriesExhausted with the failing wave and
// attempt count.
type TaskFailureError struct {
	Wave     int // 1-based scheduling wave of the failing task
	Attempts int // failed attempts (first run + retries)
}

func (e *TaskFailureError) Error() string {
	return fmt.Sprintf("cluster: task failed %d times (wave %d), retries exhausted", e.Attempts, e.Wave)
}

func (e *TaskFailureError) Unwrap() error { return ErrTaskRetriesExhausted }

// Config describes the simulated cluster and its cost model. All durations
// are virtual seconds.
type Config struct {
	Machines         int   // number of worker machines
	CoresPerMachine  int   // task slots per machine
	MemoryPerMachine int64 // bytes available to tasks on one machine

	JobLaunchOverhead float64 // driver-side cost to launch one job
	StageOverhead     float64 // per-stage scheduling cost
	TaskOverhead      float64 // per-task launch/teardown cost
	PerElementCost    float64 // CPU cost to process one element in an operator
	// PerByteShuffle is the per-task cost of reading one shuffled byte.
	// It models each machine's NIC being shared by its task slots, so
	// shuffle time does NOT shrink with more partitions on the same
	// machines: cost ~= CoresPerMachine / per-machine bandwidth.
	PerByteShuffle   float64
	PerByteBroadcast float64 // driver-side cost per byte to broadcast to the cluster

	// RecordWeight is the simulation scale: how many real-world records
	// one simulated element stands for (>= 1). The engine multiplies
	// per-element work, shuffle bytes and memory estimates of scaled
	// datasets by it, so a laptop-sized simulation reports the costs of
	// the paper-sized workload. Datasets whose cardinality does not grow
	// with the input (lifting tags, per-group scalars) are marked
	// unscaled and keep weight 1.
	RecordWeight float64

	// TaskFailureRate injects transient task failures: each task attempt
	// fails with this probability and is retried, paying its cost again
	// (the speculative/retry behaviour of real clusters). Deterministic
	// per simulator instance. 0 disables injection.
	TaskFailureRate float64

	// MaxTaskRetries caps how often one task may be retried after an
	// injected failure before the whole stage fails with an
	// *TaskFailureError (Spark's spark.task.maxFailures). 0 means the
	// first failure aborts the stage.
	MaxTaskRetries int

	// MemoryOverheadFactor inflates the engine's raw data-size
	// estimates to resident in-memory size (deserialized object
	// headers, group buffers — the JVM blow-up that makes Spark
	// groupBys OOM long before raw bytes reach the heap limit). The
	// engine applies it to its own estimates before submitting task
	// memory; explicit working-set claims (compact arrays held by
	// sequential UDFs) are not inflated.
	MemoryOverheadFactor float64

	// Faults injects machine crashes and rejoins (chaos.go). The zero
	// value injects nothing, leaving every machine immortal.
	Faults FaultPlan
}

// DefaultConfig mirrors the paper's small cluster (Sec. 9.1): 25 machines,
// 16 cores and 32 GB each. The unit costs were calibrated so that the
// workloads in internal/tasks reproduce the relative shapes of the paper's
// figures (who wins, by what factor, where the crossovers are).
func DefaultConfig() Config {
	return Config{
		Machines:        25,
		CoresPerMachine: 16,
		// The paper dedicates 22 GB of each 32 GB machine to Spark.
		MemoryPerMachine:  22 << 30,
		JobLaunchOverhead: 0.7,
		StageOverhead:     0.05,
		TaskOverhead:      0.004,
		PerElementCost:    2e-7,
		// 16 task slots sharing the paper's 1 Gb NIC (Sec. 9.1):
		// 16 / 125 MB/s per shuffled byte per task.
		PerByteShuffle:       1.28e-7,
		PerByteBroadcast:     8e-9, // one pass out of a 1 Gb source
		RecordWeight:         1,
		MaxTaskRetries:       1,
		MemoryOverheadFactor: 14,
	}
}

// LargeConfig mirrors the larger cluster of Sec. 9.7: 36 machines with 40
// hardware threads and 100 GB Spark worker memory each.
func LargeConfig() Config {
	c := DefaultConfig()
	c.Machines = 36
	c.CoresPerMachine = 40
	c.MemoryPerMachine = 100 << 30
	// Xeon E5-2630V4-era machines: 10 Gb network, 40 slots sharing it.
	c.PerByteShuffle = 3.2e-8
	c.PerByteBroadcast = 8e-10
	return c
}

// Validate checks the configuration; the scheduler (internal/sched) and
// New both reject invalid configs through it.
func (c Config) Validate() error { return c.validate() }

func (c Config) validate() error {
	if c.Machines <= 0 || c.CoresPerMachine <= 0 {
		return fmt.Errorf("cluster: need positive machines (%d) and cores (%d)", c.Machines, c.CoresPerMachine)
	}
	if c.MemoryPerMachine <= 0 {
		return fmt.Errorf("cluster: need positive memory, got %d", c.MemoryPerMachine)
	}
	if err := c.Faults.Validate(c.Machines); err != nil {
		return err
	}
	return nil
}

// Slots returns the total number of parallel task slots.
func (c Config) Slots() int { return c.Machines * c.CoresPerMachine }

// Task is the cost of one simulated task.
type Task struct {
	Compute float64 // virtual seconds of CPU + shuffle work (excl. TaskOverhead)
	Memory  int64   // peak bytes held by the task
}

// Stats aggregates what ran on the simulated cluster.
type Stats struct {
	Jobs       int
	Stages     int
	Tasks      int
	Broadcasts int
	// TaskRetries counts injected transient failures that were retried.
	TaskRetries int
	// BusySeconds is the summed task time; Clock is the virtual makespan.
	BusySeconds float64
	// Fault-injection counters (chaos.go): machine transitions applied
	// and distinct shuffle outputs whose fetch failed after a crash.
	MachineCrashes int
	MachineRejoins int
	FetchFailures  int
}

// Simulator owns the virtual clock. It is safe for concurrent use; the
// engine submits whole stages at a time, which keeps accounting
// deterministic regardless of real execution interleaving.
type Simulator struct {
	mu       sync.Mutex
	cfg      Config
	clock    float64
	resident int64 // broadcast bytes currently pinned on every machine
	stats    Stats
	rng      *rand.Rand // failure injection; fixed seed for determinism

	// Machine-failure state (chaos.go). live is the current live-machine
	// snapshot: a crash or rejoin replaces it, nothing changes it in place,
	// so outputs may keep the one they were placed over.
	faults  faultState
	live    []int
	outputs Outputs
	onFault func(at float64, machine int, kind, detail string)

	// Stage scratch, reused under mu by every RunStageReport: the tasks in
	// scheduling order, their durations, one wave's memory per live machine
	// and the slot heap.
	order      []Task
	durations  []float64
	perMachine []int64
	slotHeap   floatHeap
}

// New creates a simulator, rejecting invalid configurations with an error
// that callers (the engine session constructor, harnesses) propagate
// instead of panicking.
func New(cfg Config) (*Simulator, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	s := &Simulator{
		cfg:    cfg,
		rng:    rand.New(rand.NewSource(42)),
		faults: newFaultState(cfg.Faults, cfg.Machines),
	}
	s.snapshotLive()
	return s, nil
}

// Config returns the simulator's configuration.
func (s *Simulator) Config() Config { return s.cfg }

// Clock returns the current virtual time in seconds.
func (s *Simulator) Clock() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.clock
}

// Stats returns a snapshot of the accumulated statistics.
func (s *Simulator) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Advance adds dt virtual seconds of driver-side time.
func (s *Simulator) Advance(dt float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.clock += dt
}

// StartJob charges the per-job launch overhead and counts the job.
func (s *Simulator) StartJob() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.Jobs++
	s.clock += s.cfg.JobLaunchOverhead
}

// StageReport is the simulator's structured account of one executed
// stage: what the list scheduler saw and how long the stage took. The
// engine feeds it into the observation spine (internal/obs).
type StageReport struct {
	Tasks       int
	Waves       int     // ceil(tasks / slots): scheduling waves
	Makespan    float64 // stage time excluding StageOverhead
	Seconds     float64 // clock delta: StageOverhead + Makespan
	BusySeconds float64 // summed task durations
	Retries     int     // injected transient failures in this stage
	MaxTaskSec  float64 // slowest task duration (incl. TaskOverhead)
	MaxTaskMem  int64   // largest task memory claim
}

// RunStage schedules tasks onto the cluster's slots; see RunStageReport.
func (s *Simulator) RunStage(tasks []Task) error {
	_, err := s.RunStageReport(tasks)
	return err
}

// RunStageReport schedules tasks onto the cluster's slots
// (longest-processing-time list scheduling), advances the clock by the
// resulting makespan plus the stage overhead, and reports what happened.
//
// Memory is modelled as shared per machine, as in Spark executors: tasks
// run in waves of up to Slots() at a time, heavy (long) tasks first and
// spread round-robin across machines; within a wave, the sum of a
// machine's resident task memory plus pinned broadcasts must fit the
// machine budget, or the stage fails with an *OOMError. This reproduces
// the Spark behaviours the paper reports: a few huge groups OOM even on
// an otherwise idle cluster, while the same total data in many small
// partitions runs fine.
//
// A failing stage is not free: the clock is charged the partial makespan
// of the waves that ran before the failure (plus the failing wave's work
// so far), matching a real cluster where an abort after N waves has
// already burned N waves of time. The report returned alongside the error
// carries that partial charge so callers can attribute it.
//
// The stage's bookkeeping runs in scratch kept on the simulator and reused
// under its lock, so a stage without faults allocates nothing. The tasks
// are sorted by pdqsort (slices.SortFunc, the template sort.Slice shares),
// whose order of equal-cost tasks decides which machine's wave memory an
// OOM reports: a stable sort would change those bytes.
func (s *Simulator) RunStageReport(tasks []Task) (StageReport, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.Stages++
	s.stats.Tasks += len(tasks)
	budget := s.cfg.MemoryPerMachine - s.resident
	rep := StageReport{Tasks: len(tasks)}

	// Faults take effect at stage boundaries: apply everything scheduled
	// up to now, then run the whole stage on the surviving machines (a
	// crash *during* the window destroys outputs when the next operation
	// advances past it — the in-flight stage itself already fetched its
	// inputs). If nothing is up, stall the clock until a rejoin.
	s.advanceFaults(s.clock)
	live, err := s.awaitLiveMachine()
	if err != nil {
		return rep, err
	}

	order := append(s.order[:0], tasks...)
	s.order = order
	slices.SortFunc(order, byComputeDesc)

	slots := len(live) * s.cfg.CoresPerMachine
	if len(order) > 0 {
		rep.Waves = (len(order) + slots - 1) / slots
	}

	// partial accumulates the gang makespan of completed waves; on
	// failure the stage charges it (plus the failing wave's longest task
	// so far) instead of completing.
	var partial float64
	fail := func(err error) (StageReport, error) {
		rep.Makespan = partial
		rep.Seconds = s.cfg.StageOverhead + partial
		s.clock += rep.Seconds
		return rep, err
	}

	durations := slices.Grow(s.durations[:0], len(order))
	s.durations = durations
	if cap(s.perMachine) < len(live) {
		s.perMachine = make([]int64, len(live))
	}
	perMachine := s.perMachine[:len(live)]
	for w := 0; w < len(order); w += slots {
		wave := order[w:min(w+slots, len(order))]
		waveIdx := w/slots + 1
		for i := range perMachine {
			perMachine[i] = 0
		}
		for i, t := range wave {
			perMachine[i%len(live)] += t.Memory
		}
		for i, m := range perMachine {
			if m > budget {
				return fail(&OOMError{What: "task", Bytes: m, Limit: budget,
					Wave: waveIdx, Machine: live[i], Resident: s.resident})
			}
		}
		var waveMax float64
		for _, t := range wave {
			d := t.Compute + s.cfg.TaskOverhead
			total := d
			if s.cfg.TaskFailureRate > 0 {
				failures := 0
				for s.rng.Float64() < s.cfg.TaskFailureRate {
					// Transient failure: the failed attempt's cost is
					// already in total. Retry from scratch — unless the
					// retry cap is hit, which fails the whole stage
					// (spark.task.maxFailures).
					failures++
					if failures > s.cfg.MaxTaskRetries {
						s.stats.BusySeconds += total
						rep.BusySeconds += total
						if total > waveMax {
							waveMax = total
						}
						partial += waveMax
						return fail(&TaskFailureError{Wave: waveIdx, Attempts: failures})
					}
					s.stats.TaskRetries++
					rep.Retries++
					total += d
				}
			}
			durations = append(durations, total)
			s.stats.BusySeconds += total
			rep.BusySeconds += total
			if total > waveMax {
				waveMax = total
			}
			if total > rep.MaxTaskSec {
				rep.MaxTaskSec = total
			}
			if t.Memory > rep.MaxTaskMem {
				rep.MaxTaskMem = t.Memory
			}
		}
		partial += waveMax
	}
	rep.Makespan = s.slotHeap.makespan(durations, slots)
	rep.Seconds = s.cfg.StageOverhead + rep.Makespan
	s.clock += rep.Seconds
	return rep, nil
}

// byComputeDesc orders tasks longest first. It is negative exactly when
// a.Compute > b.Compute, so pdqsort makes the comparisons and swaps that
// sort.Slice with that less makes, ties included.
func byComputeDesc(a, b Task) int {
	if a.Compute > b.Compute {
		return -1
	}
	if a.Compute < b.Compute {
		return 1
	}
	return 0
}

// Broadcast pins bytes of data on every machine for the remainder of the
// job (until ReleaseBroadcasts) and charges the broadcast cost. It fails
// if the data does not fit next to what is already resident.
func (s *Simulator) Broadcast(bytes int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.advanceFaults(s.clock)
	s.stats.Broadcasts++
	if s.resident+bytes > s.cfg.MemoryPerMachine {
		return &OOMError{What: "broadcast", Bytes: bytes,
			Limit: s.cfg.MemoryPerMachine - s.resident, Resident: s.resident}
	}
	s.resident += bytes
	s.clock += float64(bytes) * s.cfg.PerByteBroadcast
	return nil
}

// Unpin releases bytes of pinned broadcast data before the job ends. The
// engine calls it when adaptive recovery re-lowers a broadcast consumer
// away, so the dropped broadcast stops pressuring later waves.
func (s *Simulator) Unpin(bytes int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.resident -= bytes
	if s.resident < 0 {
		s.resident = 0
	}
}

// ReleaseBroadcasts unpins all broadcast data (end of job).
func (s *Simulator) ReleaseBroadcasts() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.resident = 0
}

// floatHeap is a min-heap of slot finish times, kept to be reused.
type floatHeap struct{ a []float64 }

// makespan computes the completion time of scheduling durations greedily
// (longest first) onto `slots` parallel slots, reusing h's memory. A
// stage's durations come in its tasks' longest-first order, so without
// retries they already descend and are used as they are: sorting them
// could only swap equal values, which give equal sums whichever slot takes
// them. Otherwise they are sorted in place.
//
// Greedy list scheduling depends only on the multiset of slot loads, and
// the first `slots` durations each land on an empty slot (0 + d = d). So
// the heap starts as those durations in reverse: an ascending array is
// already a min-heap. Each later duration goes to the least-loaded slot
// in O(log slots).
func (h *floatHeap) makespan(durations []float64, slots int) float64 {
	if len(durations) == 0 {
		return 0
	}
	if slots < 1 {
		slots = 1
	}
	descending := func(a, b float64) int { return cmp.Compare(b, a) }
	if !slices.IsSortedFunc(durations, descending) {
		slices.SortFunc(durations, descending)
	}
	if len(durations) <= slots {
		return durations[0]
	}
	if cap(h.a) < slots {
		h.a = make([]float64, slots)
	}
	h.a = h.a[:slots]
	for i, d := range durations[:slots] {
		h.a[slots-1-i] = d
	}
	for _, d := range durations[slots:] {
		h.addToMin(d)
	}
	return slices.Max(h.a)
}

// addToMin adds d to the least-loaded slot and restores the heap, sifting
// a hole down instead of swapping at each level.
func (h *floatHeap) addToMin(d float64) {
	a := h.a
	v := a[0] + d
	i := 0
	for {
		c := 2*i + 1
		if c >= len(a) {
			break
		}
		if c+1 < len(a) && a[c+1] < a[c] {
			c++
		}
		if !(a[c] < v) {
			break
		}
		a[i] = a[c]
		i = c
	}
	a[i] = v
}
