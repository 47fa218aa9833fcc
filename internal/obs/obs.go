// Package obs is the engine's event spine: structured per-job, per-stage
// and per-broadcast events with the counters the paper's runtime
// optimizations reason about (shuffle bytes, broadcast sizes, memo hits,
// simulated-clock deltas, task retries), plus the optimizer's decision log
// — each Sec. 8 choice recorded with the observed sizes that justified it.
//
// A Recorder is attached to an engine session (engine.Config.Obs); every
// method is safe on a nil receiver, so instrumented code paths pay one nil
// check when observation is off. The recorded events are the run's
// machine-readable artifact (Jobs, Decisions, Faults); the EXPLAIN ANALYZE
// renderer (Report) is its one text view.
package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Decision is one optimizer choice: which physical implementation a
// lowering-phase rule picked, and why.
type Decision struct {
	Rule   string // e.g. "partitions", "scalar-join", "bag-scalar-join", "half-lifted"
	Choice string // the picked implementation, e.g. "broadcast-left"
	Forced bool   // true when an Options override bypassed the rule
	Why    string // observed sizes that justified the choice
}

// Stage is the record of one executed stage.
type Stage struct {
	Stage        int     // plan stage id within its job
	Label        string  // stage root operator
	Chain        string  // pipelined operator chain
	Fused        string  // fused narrow chains run by the stage, e.g. "fused(map∘filter) ×2 ops"
	Parts        int     // task count
	ShuffleBytes float64 // real shuffle bytes read by the stage's tasks
	MemoHits     int64   // fan-in memo partitions served from cache
	Seconds      float64 // simulated-clock delta (stage overhead + makespan)
	BusySeconds  float64 // summed simulated task time
	Retries      int     // injected transient task failures
	MaxTaskSec   float64 // slowest simulated task
	MaxTaskMem   int64   // largest task memory claim

	// Stage-boundary batch observability: the encoded wire size of the
	// shuffle blocks the stage's tasks read (batchio frames, the distributed
	// backend's serialization) and the element shape of those batches
	// (e.g. "Pair[int,int]"; "any" for an ir dataset's boxed batches, ""
	// when the stage read no shuffle input).
	BoundaryBytes int64
	BatchShape    string

	// Real-execution accounting. WallSeconds is the host wall-clock time
	// the stage's tasks actually took (recorded for every stage, simulated
	// or not — the simulated Seconds above is virtual time and differs by
	// design). The Remote fields are filled only when a process-pool
	// backend ran the stage in worker processes: the encoded bytes that
	// crossed process boundaries and the live-worker count that ran it.
	Remote        bool
	WallSeconds   float64
	RemoteBytes   int64
	RemoteWorkers int
}

// Broadcast is the record of one pinned broadcast.
type Broadcast struct {
	Label   string
	Bytes   int64
	Seconds float64 // simulated-clock delta of the pin
}

// Recovery is the record of one adaptive-recovery action: a stage (or its
// broadcast) failed, and the engine re-lowered the offending subplan — or
// decided to rerun the stage — and resumed the job from its frontier.
type Recovery struct {
	Stage   int     // plan stage id of the failed stage
	Label   string  // stage root operator
	What    string  // failure flavor, e.g. "broadcast OOM (...)"
	Action  string  // e.g. "re-lowered(join=repartition)", "re-lowered(parts 200→800)", "rerun"
	Seconds float64 // virtual time charged to the failed attempt
}

// FaultEvent is one machine-failure transition applied by the simulated
// cluster's fault plan (internal/cluster chaos): a crash that destroyed
// the machine's resident shuffle outputs, or a rejoin that brought it
// back empty. Fault events describe the cluster, not one job, so they
// live on their own stream.
type FaultEvent struct {
	At      float64 // virtual time the transition was applied
	Machine int
	Kind    string // "crash" or "rejoin"
	Detail  string // e.g. "lost 3 shuffle partitions"
}

// Job is the record of one engine job: the plan it ran and what happened.
type Job struct {
	ID         int
	Target     string // the materialized node, e.g. "#42 map"
	Plan       string // rendered physical plan (engine.ExplainPhysical's text)
	Seconds    float64
	Stages     []Stage
	Broadcasts []Broadcast
	Recoveries []Recovery
	Err        string
}

// Recorder accumulates events. The zero value is unusable; construct with
// NewRecorder. A nil *Recorder is a valid no-op sink.
type Recorder struct {
	mu        sync.Mutex
	jobs      []Job
	cur       *Job
	decisions []Decision
	faults    []FaultEvent
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Enabled reports whether events are being recorded.
func (r *Recorder) Enabled() bool { return r != nil }

// StartJob opens a job record. Engine jobs are serialized per session, and
// the recorder's lock makes concurrent sessions safe (their job records
// interleave whole).
func (r *Recorder) StartJob(target, planStr string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.cur = &Job{ID: len(r.jobs) + 1, Target: target, Plan: planStr}
}

// EndJob closes the current job record.
func (r *Recorder) EndJob(seconds float64, err error) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.cur == nil {
		return
	}
	r.cur.Seconds = seconds
	if err != nil {
		r.cur.Err = err.Error()
	}
	r.jobs = append(r.jobs, *r.cur)
	r.cur = nil
}

// StageRan appends a stage record to the current job.
func (r *Recorder) StageRan(s Stage) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.cur != nil {
		r.cur.Stages = append(r.cur.Stages, s)
	}
}

// BroadcastPinned appends a broadcast record to the current job.
func (r *Recorder) BroadcastPinned(b Broadcast) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.cur != nil {
		r.cur.Broadcasts = append(r.cur.Broadcasts, b)
	}
}

// StageRecovered appends an adaptive-recovery record to the current job.
func (r *Recorder) StageRecovered(rec Recovery) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.cur != nil {
		r.cur.Recoveries = append(r.cur.Recoveries, rec)
	}
}

// Decide appends an optimizer decision to the log.
func (r *Recorder) Decide(d Decision) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.decisions = append(r.decisions, d)
}

// Fault appends a machine-failure event.
func (r *Recorder) Fault(e FaultEvent) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.faults = append(r.faults, e)
}

// Faults returns the machine-failure event stream.
func (r *Recorder) Faults() []FaultEvent {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]FaultEvent(nil), r.faults...)
}

// Jobs returns the completed job records.
func (r *Recorder) Jobs() []Job {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Job(nil), r.jobs...)
}

// PeakTaskMem returns the largest single-task memory claim recorded
// across all jobs and stages (including a still-open job) — the
// peak-resident-bytes figure the sec-shred experiment reports per
// nested-bag lowering.
func (r *Recorder) PeakTaskMem() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var peak int64
	scan := func(j *Job) {
		for _, s := range j.Stages {
			if s.MaxTaskMem > peak {
				peak = s.MaxTaskMem
			}
		}
	}
	for i := range r.jobs {
		scan(&r.jobs[i])
	}
	if r.cur != nil {
		scan(r.cur)
	}
	return peak
}

// Decisions returns the decision log.
func (r *Recorder) Decisions() []Decision {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Decision(nil), r.decisions...)
}

// Report renders the recorded run as a stage-level EXPLAIN ANALYZE:
// per job, the planned stages followed by what each stage actually cost
// on the simulated cluster, then the deduplicated optimizer decision log.
// Identical consecutive jobs (same target, same plan — iterative
// supersteps) are collapsed into one entry with a repeat count and summed
// clock time.
func (r *Recorder) Report() string {
	if r == nil {
		return ""
	}
	jobs := r.Jobs()
	decisions := r.Decisions()

	var b strings.Builder
	var clock, busy float64
	stages := 0
	for _, j := range jobs {
		clock += j.Seconds
		stages += len(j.Stages)
		for _, s := range j.Stages {
			busy += s.BusySeconds
		}
	}
	fmt.Fprintf(&b, "EXPLAIN ANALYZE: %d jobs, %d stages, clock %s, busy %s\n",
		len(jobs), stages, secs(clock), secs(busy))

	for i := 0; i < len(jobs); {
		j := jobs[i]
		run := 1
		total := j.Seconds
		for i+run < len(jobs) && sameShape(jobs[i+run], j) {
			total += jobs[i+run].Seconds
			run++
		}
		if run > 1 {
			fmt.Fprintf(&b, "\nJob %d..%d (x%d): %s  %s total\n", j.ID, j.ID+run-1, run, j.Target, secs(total))
		} else {
			fmt.Fprintf(&b, "\nJob %d: %s  %s\n", j.ID, j.Target, secs(j.Seconds))
		}
		for _, line := range strings.Split(strings.TrimRight(j.Plan, "\n"), "\n") {
			fmt.Fprintf(&b, "  %s\n", line)
		}
		for _, s := range j.Stages {
			fmt.Fprintf(&b, "  Stage %d %-16s %s tasks=%d", s.Stage, s.Label, secs(s.Seconds), s.Parts)
			if s.ShuffleBytes > 0 {
				fmt.Fprintf(&b, " shuffle=%s", bytesStr(int64(s.ShuffleBytes)))
			}
			if s.BoundaryBytes > 0 {
				fmt.Fprintf(&b, " boundary=%s", bytesStr(s.BoundaryBytes))
				if s.BatchShape != "" {
					fmt.Fprintf(&b, "/%s", s.BatchShape)
				}
			}
			if s.MemoHits > 0 {
				fmt.Fprintf(&b, " memo-hits=%d", s.MemoHits)
			}
			if s.Retries > 0 {
				fmt.Fprintf(&b, " retries=%d", s.Retries)
			}
			fmt.Fprintf(&b, " maxtask=%s", secs(s.MaxTaskSec))
			if s.Remote {
				fmt.Fprintf(&b, " remote[wall=%s", secs(s.WallSeconds))
				if s.RemoteBytes > 0 {
					fmt.Fprintf(&b, " shipped=%s", bytesStr(s.RemoteBytes))
				}
				fmt.Fprintf(&b, " workers=%d]", s.RemoteWorkers)
			}
			if s.Chain != s.Label {
				fmt.Fprintf(&b, " chain=%s", s.Chain)
			}
			if s.Fused != "" {
				fmt.Fprintf(&b, " %s", s.Fused)
			}
			b.WriteString("\n")
		}
		for _, bc := range j.Broadcasts {
			fmt.Fprintf(&b, "  Broadcast %-14s %s %s pinned cluster-wide\n", bc.Label, secs(bc.Seconds), bytesStr(bc.Bytes))
		}
		for _, rc := range j.Recoveries {
			outcome := "ok"
			if j.Err != "" {
				outcome = "failed"
			}
			fmt.Fprintf(&b, "  Recovery stage %d %s: %s → %s → %s (failed attempt cost %s)\n",
				rc.Stage, rc.Label, rc.What, rc.Action, outcome, secs(rc.Seconds))
		}
		if j.Err != "" {
			fmt.Fprintf(&b, "  ERROR: %s\n", j.Err)
		}
		i += run
	}

	if len(decisions) > 0 {
		b.WriteString("\nOptimizer decisions (Sec. 8):\n")
		for _, line := range dedupDecisions(decisions) {
			fmt.Fprintf(&b, "  %s\n", line)
		}
	}

	if faults := r.Faults(); len(faults) > 0 {
		// Count per kind, rendering the classic pair first (crash/rejoin,
		// the simulator's vocabulary) and any further kinds — the process
		// pool's respawn/quarantine — in first-seen order.
		counts := map[string]int{}
		var extra []string
		for _, e := range faults {
			if e.Kind != "crash" && e.Kind != "rejoin" && counts[e.Kind] == 0 {
				extra = append(extra, e.Kind)
			}
			counts[e.Kind]++
		}
		fmt.Fprintf(&b, "\nFault events: %d crashes, %d rejoins", counts["crash"], counts["rejoin"])
		for _, kind := range extra {
			fmt.Fprintf(&b, ", %d %ss", counts[kind], kind)
		}
		b.WriteString("\n")
		for _, e := range faults {
			fmt.Fprintf(&b, "  [t=%s] machine %d %-6s %s\n", secs(e.At), e.Machine, e.Kind, e.Detail)
		}
	}
	return b.String()
}

// sameShape reports whether two jobs ran the same plan against the same
// target (iterative supersteps repeat these exactly). Jobs that recovered
// are never collapsed — their recovery lines must stay visible.
func sameShape(a, b Job) bool {
	return a.Target == b.Target && a.Plan == b.Plan && a.Err == "" && b.Err == "" &&
		len(a.Recoveries) == 0 && len(b.Recoveries) == 0
}

// dedupDecisions groups identical decisions with a count, preserving
// first-occurrence order.
func dedupDecisions(ds []Decision) []string {
	counts := map[Decision]int{}
	var order []Decision
	for _, d := range ds {
		if counts[d] == 0 {
			order = append(order, d)
		}
		counts[d]++
	}
	var out []string
	for _, d := range order {
		forced := ""
		if d.Forced {
			forced = " (forced)"
		}
		line := fmt.Sprintf("[%s] %s%s — %s", d.Rule, d.Choice, forced, d.Why)
		if counts[d] > 1 {
			line += fmt.Sprintf("  (x%d)", counts[d])
		}
		out = append(out, line)
	}
	return out
}

// secs formats a simulated duration.
func secs(s float64) string { return fmt.Sprintf("%.2fs", s) }

// bytesStr formats a byte count with a binary unit suffix.
func bytesStr(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1fGB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKB", float64(n)/(1<<10))
	}
	return fmt.Sprintf("%dB", n)
}

// SortedRules returns the distinct decision rules recorded, sorted — a
// convenience for tests asserting coverage of the Sec. 8 rules.
func (r *Recorder) SortedRules() []string {
	seen := map[string]bool{}
	var out []string
	for _, d := range r.Decisions() {
		if !seen[d.Rule] {
			seen[d.Rule] = true
			out = append(out, d.Rule)
		}
	}
	sort.Strings(out)
	return out
}
