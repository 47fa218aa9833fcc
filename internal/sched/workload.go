package sched

// RunWorkload executes a batch of jobs whose arrival times and stage
// shapes are declared up front, single-threaded on the scheduler's event
// loop. This is what the sec-sched experiments sweep: thousands of jobs
// across many tenants with exact arrival control.

import (
	"fmt"
	"math"
	"sort"

	"matryoshka/internal/cluster"
)

// TenantSpec declares one tenant of a workload.
type TenantSpec struct {
	Name   string
	Weight float64 // fair-share weight; ≤ 0 means 1
	Budget int     // max jobs in flight before arrivals are rejected; 0 = unlimited
}

// JobSpec declares one job: who submits it, when, and its stages (run
// sequentially; each stage is a task list).
type JobSpec struct {
	Tenant  string
	Arrival float64
	Stages  [][]cluster.Task
}

// JobResult is one job's outcome.
type JobResult struct {
	Tenant  string
	Arrival float64
	Finish  float64
	Latency float64 // Finish − Arrival; includes launch overhead and queue waits
	Err     error   // ErrBackpressure-wrapped rejection or a stage failure
}

// WorkloadResult is what RunWorkload reports.
type WorkloadResult struct {
	Jobs     []JobResult // in input order
	Makespan float64     // virtual time when the last job finished
	Metrics  Metrics
}

// jobSpecRef carries a JobSpec through deterministic sorting without
// losing its input position.
type jobSpecRef struct {
	spec   JobSpec
	tenant *tenantState
	pos    int
	j      *jobRun
}

// RunWorkload executes the declared jobs to completion and reports
// per-job latencies and scheduler metrics. It is deterministic: results
// depend only on the config (including the straggler seed) and the
// inputs. A scheduler instance runs one workload; use a fresh one per
// run.
func (s *Scheduler) RunWorkload(tenants []TenantSpec, jobs []JobSpec) (WorkloadResult, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.workload {
		return WorkloadResult{}, fmt.Errorf("sched: RunWorkload called twice; use a fresh scheduler")
	}
	s.workload = true

	for _, ts := range tenants {
		if _, err := s.register(ts.Name, ts.Weight, ts.Budget); err != nil {
			return WorkloadResult{}, err
		}
	}
	refs := make([]jobSpecRef, 0, len(jobs))
	for i, js := range jobs {
		t := s.byName[js.Tenant]
		if t == nil {
			return WorkloadResult{}, fmt.Errorf("sched: job %d names unknown tenant %q", i, js.Tenant)
		}
		if js.Arrival < 0 {
			return WorkloadResult{}, fmt.Errorf("sched: job %d has negative arrival %f", i, js.Arrival)
		}
		refs = append(refs, jobSpecRef{spec: js, tenant: t, pos: i})
	}
	// Arrival events are scheduled in sorted order so event sequence
	// numbers — the clock's tie-breaker — are themselves deterministic
	// in the inputs, not in the caller's slice order.
	sortJobSpecs(refs)
	for i := range refs {
		r := &refs[i]
		r.j = &jobRun{t: r.tenant, arrival: r.spec.Arrival, stages: r.spec.Stages}
		s.schedule(r.spec.Arrival, evArrival{r.j})
	}

	s.drive()

	res := WorkloadResult{
		Jobs:     make([]JobResult, len(jobs)),
		Makespan: s.clock.Now(),
		Metrics:  s.metricsLocked(),
	}
	for _, r := range refs {
		res.Jobs[r.pos] = JobResult{
			Tenant:  r.tenant.name,
			Arrival: r.j.arrival,
			Finish:  r.j.finish,
			Latency: r.j.finish - r.j.arrival,
			Err:     r.j.err,
		}
	}
	return res, nil
}

// startWorkloadJob handles a job-arrival event: admission, the launch
// overhead, and the first stage.
func (s *Scheduler) startWorkloadJob(j *jobRun) {
	t := j.t
	t.jobSeq++
	j.seq = t.jobSeq
	now := s.clock.Now()
	if t.budget > 0 && t.active >= t.budget {
		j.err = fmt.Errorf("tenant %s: %d jobs in flight (budget %d): %w", t.name, t.active, t.budget, ErrBackpressure)
		j.done = true
		j.finish = now
		s.met.admitRejected++
		return
	}
	t.active++
	t.stats.Jobs++
	s.submitWorkloadStage(j, now+s.cfg.Cluster.JobLaunchOverhead)
}

// submitWorkloadStage submits the job's next stage at virtual time
// `at`, or finishes the job when none remain.
func (s *Scheduler) submitWorkloadStage(j *jobRun, at float64) {
	if j.next >= len(j.stages) {
		s.finishWorkloadJob(j, at)
		return
	}
	tasks := j.stages[j.next]
	j.next++
	st := s.newStage(j, tasks, at)
	s.schedule(st.readyAt, evStageReady{st})
}

// finishWorkloadJob closes a job at virtual time `now`; latency is
// recorded only for jobs that ran to success.
func (s *Scheduler) finishWorkloadJob(j *jobRun, now float64) {
	if j.done {
		return
	}
	j.done = true
	j.finish = now
	t := j.t
	t.active--
	if j.err == nil {
		t.latencies = append(t.latencies, now-j.arrival)
	}
}

// Percentile returns the p∈[0,1] percentile of xs (nearest-rank on a
// sorted copy); 0 when xs is empty.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	idx := int(math.Ceil(p*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}
