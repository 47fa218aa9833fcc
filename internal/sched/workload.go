package sched

// Run executes a batch of jobs whose arrival times and stage shapes are
// declared up front, single-threaded on the scheduler's event loop. This
// is what the sec-sched experiments sweep: thousands of jobs across many
// tenants with exact arrival control.

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
	Err     error   // a stage failure, e.g. a task over machine memory
}

// WorkloadResult is what Run reports.
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

// Run executes the declared jobs to completion on a fresh pool and
// reports per-job latencies and scheduler metrics. It is deterministic:
// results depend only on the config (including the straggler seed) and
// the inputs. Invalid configurations and workloads are reported as
// errors.
func Run(cfg Config, tenants []TenantSpec, jobs []JobSpec) (WorkloadResult, error) {
	if err := cfg.Cluster.Validate(); err != nil {
		return WorkloadResult{}, err
	}
	switch cfg.Policy {
	case "":
		cfg.Policy = PolicyFIFO
	case PolicyFIFO, PolicyFair:
	default:
		return WorkloadResult{}, fmt.Errorf("sched: unknown policy %q", cfg.Policy)
	}
	if cfg.Straggle.Rate > 0 && cfg.Straggle.Factor <= 1 {
		cfg.Straggle.Factor = 8
	}
	s := &scheduler{
		cfg:       cfg,
		slots:     cfg.Cluster.Slots(),
		freeSlots: cfg.Cluster.Slots(),
		machines:  make([]machineState, cfg.Cluster.Machines),
		byName:    map[string]*tenantState{},
	}
	for i := range s.machines {
		s.machines[i] = machineState{freeCores: cfg.Cluster.CoresPerMachine, freeMem: cfg.Cluster.MemoryPerMachine}
	}

	for _, ts := range tenants {
		if _, dup := s.byName[ts.Name]; dup {
			return WorkloadResult{}, fmt.Errorf("sched: tenant %q already registered", ts.Name)
		}
		weight := ts.Weight
		if weight <= 0 {
			weight = 1
		}
		t := &tenantState{id: len(s.tenants), name: ts.Name, weight: weight}
		s.tenants = append(s.tenants, t)
		s.byName[ts.Name] = t
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
		s.clock.schedule(r.spec.Arrival, evArrival{r.j})
	}

	s.drive()

	res := WorkloadResult{
		Jobs:     make([]JobResult, len(jobs)),
		Makespan: s.clock.now,
		Metrics:  s.metrics(),
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

// startWorkloadJob handles a job-arrival event: the launch overhead and
// the first stage.
func (s *scheduler) startWorkloadJob(j *jobRun) {
	t := j.t
	t.jobSeq++
	j.seq = t.jobSeq
	t.jobs++
	s.submitWorkloadStage(j, s.clock.now+s.cfg.Cluster.JobLaunchOverhead)
}

// submitWorkloadStage submits the job's next stage at virtual time
// `at`, or finishes the job when none remain.
func (s *scheduler) submitWorkloadStage(j *jobRun, at float64) {
	if j.next >= len(j.stages) {
		s.finishWorkloadJob(j, at)
		return
	}
	tasks := j.stages[j.next]
	j.next++
	st := s.newStage(j, tasks, at)
	s.clock.schedule(st.readyAt, evStageReady{st})
}

// finishWorkloadJob closes a job at virtual time `now`; latency is
// recorded only for jobs that ran to success.
func (s *scheduler) finishWorkloadJob(j *jobRun, now float64) {
	j.finish = now
	if j.err == nil {
		j.t.latencies = append(j.t.latencies, now-j.arrival)
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
