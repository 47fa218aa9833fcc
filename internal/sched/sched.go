// Package sched is a multi-tenant job scheduler for the simulated
// cluster: it runs declared jobs from several tenants on one shared slot
// pool, placing their stages' tasks under a pluggable policy (FIFO,
// weighted fair share), with speculative re-execution of straggling
// tasks.
//
// The paper's inner-parallel programs launch thousands of tiny jobs
// (Sec. 9 measures exactly that job-launch overhead), but a single
// cluster.Simulator executes one job at a time: there is no notion of
// concurrent jobs, tenants, or contention. This package adds that layer.
// Time is kept on a private deterministic event-queue virtual clock
// (clock.go): tasks from different jobs interleave at task granularity,
// not wave granularity, and every decision — placement order, straggler
// draws, speculation triggers — is a pure function of virtual state and
// the seed. For a fixed seed, makespans and per-job latencies are
// bit-identical across runs.
//
// The one entry point is Run: it executes a declared batch of jobs
// (arrival times, stages, tasks) single-threadedly — the path of the
// sec-sched experiments and `matbench -tenants`.
package sched

import (
	"math"
	"sort"

	"matryoshka/internal/cluster"
)

// Policy names a task-placement policy.
type Policy string

const (
	// PolicyFIFO places tasks in job-arrival order — the head-of-line
	// blocking baseline.
	PolicyFIFO Policy = "fifo"
	// PolicyFair places the next task from the tenant with the smallest
	// weighted dominant share of core·time and memory·time (weighted DRF).
	PolicyFair Policy = "fair"
)

// Config describes the shared pool and the scheduling policy.
type Config struct {
	// Cluster provides the slot pool (Machines × CoresPerMachine), the
	// per-machine memory, and the overhead cost model
	// (JobLaunchOverhead, StageOverhead, TaskOverhead).
	Cluster cluster.Config
	// Policy selects task placement; default PolicyFIFO.
	Policy Policy
	// Speculate enables speculative straggler mitigation: a backup copy
	// of a task whose elapsed time exceeds the speculation threshold
	// (specThreshold) is launched; the first finisher wins, the loser's
	// burned core·seconds stay charged.
	Speculate bool
	// Straggle injects deterministic per-task duration skew. Factor
	// defaults to 8 when Rate > 0.
	Straggle Skew
}

// scheduler owns one run's virtual clock, slot pool and queues.
type scheduler struct {
	cfg   Config
	slots int
	clock eventClock

	machines  []machineState
	freeSlots int
	ready     []*taskRun

	tenants []*tenantState
	byName  map[string]*tenantState

	met aggMetrics
}

type machineState struct {
	freeCores int
	freeMem   int64
}

// tenantState is the scheduler-side record of one tenant. Tenant ids are
// the order of Run's tenant list — ids break policy ties.
type tenantState struct {
	id     int
	name   string
	weight float64
	jobSeq int

	coreSec    float64 // fairness usage: core·seconds placed
	memByteSec float64 // fairness usage: byte·seconds placed

	jobs      int
	busySec   float64
	latencies []float64
	queueWait float64
}

// jobRun is one job's scheduler state.
type jobRun struct {
	t        *tenantState
	seq      int // tenant-local sequence, 1-based
	arrival  float64
	stageSeq int

	// The declared stages still to run.
	stages [][]cluster.Task
	next   int
	finish float64
	err    error
}

// stageRun is one submitted stage: its tasks and their live copies.
type stageRun struct {
	job     *jobRun
	seq     int // job-local, 1-based
	readyAt float64
	total   int
	specs   []cluster.Task // the submitted tasks, until readiness

	taskDone  []bool
	live      [][2]*taskRun // per task index: primary, backup
	backed    []bool
	completed []float64

	firstStart float64 // -1 until the first placement
	nDone      int

	failed error
}

const (
	taskQueued = iota
	taskRunning
	taskDone
	taskCancelled
)

// taskRun is one copy (primary or speculative backup) of one task.
type taskRun struct {
	st     *stageRun
	idx    int
	backup bool
	nomDur float64 // compute + task overhead, unskewed
	dur    float64 // actual duration (primary: nomDur × straggler stretch)
	need   int64   // memory to reserve
	pref   int     // locality-preferred machine

	state   int
	machine int
	start   float64
}

// aggMetrics are the scheduler-wide counters behind Metrics.
type aggMetrics struct {
	specLaunched int
	specWon      int
	specWasted   float64
	prefViol     int
	queueWait    float64
}

// TenantMetrics is one tenant's share of a Metrics snapshot.
type TenantMetrics struct {
	Name      string
	Jobs      int
	Latencies []float64 // per finished job, submission → completion
	QueueWait float64   // summed stage queue waits
	CoreSec   float64   // core·seconds placed (fairness usage)
	BusySec   float64
}

// Metrics is what the scheduler did over one run.
type Metrics struct {
	SpecLaunched   int
	SpecWon        int
	SpecWastedSec  float64
	PrefViolations int
	QueueWaitSec   float64

	Tenants []TenantMetrics
}

// metrics returns a deterministic snapshot (tenants in registration
// order).
func (s *scheduler) metrics() Metrics {
	m := Metrics{
		SpecLaunched:   s.met.specLaunched,
		SpecWon:        s.met.specWon,
		SpecWastedSec:  s.met.specWasted,
		PrefViolations: s.met.prefViol,
		QueueWaitSec:   s.met.queueWait,
	}
	for _, t := range s.tenants {
		m.Tenants = append(m.Tenants, TenantMetrics{
			Name:      t.name,
			Jobs:      t.jobs,
			Latencies: append([]float64(nil), t.latencies...),
			QueueWait: t.queueWait,
			CoreSec:   t.coreSec,
			BusySec:   t.busySec,
		})
	}
	return m
}

// ---- event plumbing -------------------------------------------------

// evStageReady marks a stage's tasks becoming runnable (StageOverhead
// elapsed after submission); evArrival is a workload job arriving;
// evSpecCheck re-examines one running task for speculation. A *taskRun
// event is that copy's completion.
type evStageReady struct{ st *stageRun }
type evArrival struct{ j *jobRun }
type evSpecCheck struct{ tr *taskRun }

// newStage records a stage submitted at virtual time at; the caller
// schedules its readiness. Task copies are created at readiness, not
// here.
func (s *scheduler) newStage(j *jobRun, tasks []cluster.Task, at float64) *stageRun {
	j.stageSeq++
	return &stageRun{
		job:        j,
		seq:        j.stageSeq,
		readyAt:    at + s.cfg.Cluster.StageOverhead,
		total:      len(tasks),
		specs:      tasks,
		taskDone:   make([]bool, len(tasks)),
		live:       make([][2]*taskRun, len(tasks)),
		backed:     make([]bool, len(tasks)),
		firstStart: -1,
	}
}

// drive runs the event loop until the system drains.
func (s *scheduler) drive() {
	for {
		s.placeReady()
		ev, ok := s.clock.peek()
		if !ok {
			return
		}
		// Lazily-cancelled events (a speculated task's losing copy, a
		// speculation check for a task that already finished) must not
		// advance the clock: drop them where next would jump to them.
		if staleEvent(ev.p) {
			s.clock.drop()
			continue
		}
		s.clock.next()
		switch e := ev.p.(type) {
		case evStageReady:
			s.stageBecameReady(e.st)
		case evArrival:
			s.startWorkloadJob(e.j)
		case evSpecCheck:
			s.specCheck(e.tr)
		case *taskRun:
			s.taskFinished(e)
		}
	}
}

// staleEvent reports whether a scheduled event no longer matters: its
// task was cancelled or finished, or its stage already failed.
func staleEvent(p any) bool {
	switch e := p.(type) {
	case *taskRun:
		return e.state != taskRunning
	case evSpecCheck:
		return e.tr.state != taskRunning || e.tr.st.taskDone[e.tr.idx] || e.tr.st.failed != nil
	case evStageReady:
		return e.st.failed != nil
	}
	return false
}

// stageBecameReady creates the stage's primary task copies and enqueues
// them.
func (s *scheduler) stageBecameReady(st *stageRun) {
	if st.total == 0 {
		s.completeStage(st)
		return
	}
	t := st.job.t
	for i, spec := range st.specs {
		nom := spec.Compute + s.cfg.Cluster.TaskOverhead
		stretch := s.cfg.Straggle.stretch(uint64(t.id), uint64(st.job.seq), uint64(st.seq), uint64(i))
		tr := &taskRun{
			st:     st,
			idx:    i,
			nomDur: nom,
			dur:    nom * stretch,
			need:   spec.Memory,
			pref:   s.prefMachine(t.id, st.job.seq, st.seq, i),
			state:  taskQueued,
		}
		st.live[i][0] = tr
		s.ready = append(s.ready, tr)
	}
}

// prefMachine derives a task's locality-preferred machine from its
// identity — a stand-in for "where its input block lives". Pure hash:
// the same task prefers the same machine on every run.
func (s *scheduler) prefMachine(ids ...int) int {
	h := uint64(0x9e3779b97f4a7c15)
	for _, id := range ids {
		h ^= uint64(id)
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 29
	}
	return int(h % uint64(len(s.machines)))
}

// placeReady places as many queued task copies as slots and memory
// allow, in policy order. A copy that fits no machine right now is
// skipped for this round (it stays queued); a copy that could not fit
// even on an idle machine fails its stage with an OOM.
func (s *scheduler) placeReady() {
	var blocked map[*taskRun]bool
	for s.freeSlots > 0 {
		tr := s.pickNext(blocked)
		if tr == nil {
			break
		}
		if tr.need > s.cfg.Cluster.MemoryPerMachine {
			s.failStage(tr.st, &cluster.OOMError{
				What: "task", Bytes: tr.need, Limit: s.cfg.Cluster.MemoryPerMachine,
				Wave: 1, Machine: tr.pref,
			})
			continue
		}
		m, viol := s.chooseMachine(tr)
		if m < 0 {
			if blocked == nil {
				blocked = map[*taskRun]bool{}
			}
			blocked[tr] = true
			continue
		}
		s.place(tr, m, viol)
	}
	s.compactReady()
}

// pickNext returns the queued copy the policy would place next, skipping
// blocked ones; nil when nothing is placeable.
func (s *scheduler) pickNext(blocked map[*taskRun]bool) *taskRun {
	var best *taskRun
	switch s.cfg.Policy {
	case PolicyFair:
		// Weighted DRF: find the tenant with the smallest weighted
		// dominant share among tenants with a placeable copy, then FIFO
		// within that tenant.
		var bestShare float64
		var bestTenant *tenantState
		for _, tr := range s.ready {
			if !placeable(tr, blocked) {
				continue
			}
			t := tr.st.job.t
			if bestTenant == nil || t.id != bestTenant.id {
				sh := s.domShare(t)
				if bestTenant == nil || sh < bestShare || (sh == bestShare && t.id < bestTenant.id) {
					bestShare, bestTenant = sh, t
				}
			}
		}
		if bestTenant == nil {
			return nil
		}
		for _, tr := range s.ready {
			if !placeable(tr, blocked) || tr.st.job.t != bestTenant {
				continue
			}
			if best == nil || fifoLess(tr, best) {
				best = tr
			}
		}
	default: // PolicyFIFO
		for _, tr := range s.ready {
			if !placeable(tr, blocked) {
				continue
			}
			if best == nil || fifoLess(tr, best) {
				best = tr
			}
		}
	}
	return best
}

func placeable(tr *taskRun, blocked map[*taskRun]bool) bool {
	return tr.state == taskQueued && tr.st.failed == nil && !blocked[tr]
}

// fifoLess is the total FIFO order: job arrival, then tenant id, then
// job, stage, task, copy.
func fifoLess(a, b *taskRun) bool {
	aj, bj := a.st.job, b.st.job
	if aj.arrival != bj.arrival {
		return aj.arrival < bj.arrival
	}
	if aj.t.id != bj.t.id {
		return aj.t.id < bj.t.id
	}
	if aj.seq != bj.seq {
		return aj.seq < bj.seq
	}
	if a.st.seq != b.st.seq {
		return a.st.seq < b.st.seq
	}
	if a.idx != b.idx {
		return a.idx < b.idx
	}
	return !a.backup && b.backup
}

// domShare is the tenant's weighted dominant share: the larger of its
// core·time and memory·time usage, each normalized by cluster capacity,
// divided by its weight.
func (s *scheduler) domShare(t *tenantState) float64 {
	core := t.coreSec / float64(s.slots)
	mem := t.memByteSec / (float64(s.cfg.Cluster.Machines) * float64(s.cfg.Cluster.MemoryPerMachine))
	return math.Max(core, mem) / t.weight
}

// chooseMachine picks where to run tr: its preferred machine when that
// has a free core and memory, else the feasible machine with the most
// free memory (lowest index on ties) — counted as a locality preference
// violation. Returns -1 when nothing currently fits.
func (s *scheduler) chooseMachine(tr *taskRun) (int, bool) {
	p := &s.machines[tr.pref]
	if p.freeCores > 0 && p.freeMem >= tr.need {
		return tr.pref, false
	}
	best := -1
	for i := range s.machines {
		m := &s.machines[i]
		if m.freeCores <= 0 || m.freeMem < tr.need {
			continue
		}
		if best < 0 || m.freeMem > s.machines[best].freeMem {
			best = i
		}
	}
	return best, best >= 0
}

// place starts copy tr on machine m at the current virtual time.
func (s *scheduler) place(tr *taskRun, m int, viol bool) {
	now := s.clock.now
	st := tr.st
	t := st.job.t
	tr.state = taskRunning
	tr.machine = m
	tr.start = now
	s.machines[m].freeCores--
	s.machines[m].freeMem -= tr.need
	s.freeSlots--
	if st.firstStart < 0 {
		st.firstStart = now
	}
	if viol {
		s.met.prefViol++
	}
	// Fairness usage is charged at placement from the nominal duration:
	// the policy sees expected cost, as a real scheduler would, not the
	// straggler-inflated actual.
	t.coreSec += tr.nomDur
	t.memByteSec += float64(tr.need) * tr.nomDur
	s.clock.schedule(now+tr.dur, tr)
	// A task placed after the stage's speculation threshold is already
	// known may never see another sibling completion (the tail case that
	// decides the makespan) — schedule its threshold check now.
	if s.cfg.Speculate && !tr.backup && !st.backed[tr.idx] {
		if thr, ok := specThreshold(st.completed, st.total); ok && thr > 0 {
			st.backed[tr.idx] = true
			s.clock.schedule(now+thr, evSpecCheck{tr})
		}
	}
}

// taskFinished handles a task-completion event.
func (s *scheduler) taskFinished(tr *taskRun) {
	now := s.clock.now
	st := tr.st
	s.release(tr)
	tr.state = taskDone
	if st.taskDone[tr.idx] {
		return
	}
	st.taskDone[tr.idx] = true
	st.nDone++
	win := now - tr.start
	st.completed = append(st.completed, win)
	st.job.t.busySec += win
	if tr.backup {
		s.met.specWon++
	}
	// The losing copy is cancelled; its burned core·seconds stay charged,
	// as on a real cluster.
	sib := st.live[tr.idx][0]
	if !tr.backup {
		sib = st.live[tr.idx][1]
	}
	if sib != nil {
		switch sib.state {
		case taskRunning:
			waste := now - sib.start
			st.job.t.busySec += waste
			s.met.specWasted += waste
			s.release(sib)
			sib.state = taskCancelled
		case taskQueued:
			sib.state = taskCancelled
		}
	}
	st.live[tr.idx][0], st.live[tr.idx][1] = nil, nil
	if st.nDone == st.total {
		s.completeStage(st)
		return
	}
	s.maybeSpeculate(st)
}

// release frees tr's slot and memory.
func (s *scheduler) release(tr *taskRun) {
	s.machines[tr.machine].freeCores++
	s.machines[tr.machine].freeMem += tr.need
	s.freeSlots++
}

// maybeSpeculate launches (or schedules a future check for) backup
// copies of running tasks that exceed the speculation threshold.
func (s *scheduler) maybeSpeculate(st *stageRun) {
	if !s.cfg.Speculate {
		return
	}
	thr, ok := specThreshold(st.completed, st.total)
	if !ok || thr <= 0 {
		return
	}
	now := s.clock.now
	for i := range st.live {
		tr := st.live[i][0]
		if tr == nil || tr.state != taskRunning || st.backed[i] || st.taskDone[i] {
			continue
		}
		// Compare against the same value a future check would be
		// scheduled at — mixing (now-start >= thr) with (start+thr)
		// rounds differently and can loop at one virtual instant.
		if at := tr.start + thr; now >= at {
			s.launchBackup(tr)
		} else {
			// Not over the bar yet: re-check exactly when it would be.
			st.backed[i] = true // one pending check or backup per task
			s.clock.schedule(at, evSpecCheck{tr})
		}
	}
}

// specCheck re-examines one task at its scheduled threshold crossing.
func (s *scheduler) specCheck(tr *taskRun) {
	st := tr.st
	// The threshold may have moved as more tasks completed; recompute.
	thr, ok := specThreshold(st.completed, st.total)
	if !ok || thr <= 0 {
		st.backed[tr.idx] = false
		return
	}
	if at := tr.start + thr; s.clock.now >= at {
		st.backed[tr.idx] = false
		s.launchBackup(tr)
	} else {
		s.clock.schedule(at, evSpecCheck{tr})
	}
}

// launchBackup enqueues a speculative copy of running primary tr. The
// backup runs the nominal duration: stragglers are machine-local, and
// the copy prefers a different machine.
func (s *scheduler) launchBackup(tr *taskRun) {
	st := tr.st
	if st.backed[tr.idx] || st.live[tr.idx][1] != nil {
		return
	}
	st.backed[tr.idx] = true
	bk := &taskRun{
		st:     st,
		idx:    tr.idx,
		backup: true,
		nomDur: tr.nomDur,
		dur:    tr.nomDur,
		need:   tr.need,
		pref:   (tr.pref + 1) % len(s.machines),
		state:  taskQueued,
	}
	st.live[tr.idx][1] = bk
	s.ready = append(s.ready, bk)
	s.met.specLaunched++
}

// completeStage accounts a finished stage's queue wait (readiness to its
// first placement) and chains the job's next stage.
func (s *scheduler) completeStage(st *stageRun) {
	qw := 0.0
	if st.firstStart >= 0 {
		qw = st.firstStart - st.readyAt
	}
	st.job.t.queueWait += qw
	s.met.queueWait += qw
	s.submitWorkloadStage(st.job, s.clock.now)
}

// failStage aborts a stage: live copies are cancelled (burned time stays
// charged), and the job finishes with the failure.
func (s *scheduler) failStage(st *stageRun, err error) {
	now := s.clock.now
	st.failed = err
	for i := range st.live {
		for c := 0; c < 2; c++ {
			tr := st.live[i][c]
			if tr == nil {
				continue
			}
			switch tr.state {
			case taskRunning:
				st.job.t.busySec += now - tr.start
				s.release(tr)
				tr.state = taskCancelled
			case taskQueued:
				tr.state = taskCancelled
			}
			st.live[i][c] = nil
		}
	}
	st.job.err = err
	s.finishWorkloadJob(st.job, now)
}

// compactReady drops placed and cancelled copies from the ready queue.
func (s *scheduler) compactReady() {
	kept := s.ready[:0]
	for _, tr := range s.ready {
		if tr.state == taskQueued && tr.st.failed == nil {
			kept = append(kept, tr)
		}
	}
	s.ready = kept
}

// sortJobSpecs orders workload jobs deterministically.
func sortJobSpecs(jobs []jobSpecRef) {
	sort.SliceStable(jobs, func(i, j int) bool {
		if jobs[i].spec.Arrival != jobs[j].spec.Arrival {
			return jobs[i].spec.Arrival < jobs[j].spec.Arrival
		}
		if jobs[i].tenant.id != jobs[j].tenant.id {
			return jobs[i].tenant.id < jobs[j].tenant.id
		}
		return jobs[i].pos < jobs[j].pos
	})
}
