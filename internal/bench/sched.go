package bench

// The multi-tenant scheduling experiment (new section; the paper's
// Sec. 9 measures single-tenant runtimes, this measures what happens
// when several tenants share the simulated cluster). One batch tenant
// keeps the pool saturated with wide heavy stages while interactive
// tenants submit small frequent jobs; the sweep compares FIFO,
// weighted fair share, and fair share + speculative execution on the
// interactive tenants' latency distribution and the overall makespan.
//
// The claim under test: fair share moves interactive p99 from
// "behind the batch backlog" to "about the job's own runtime" without
// giving up makespan (the scheduler stays work-conserving), and
// speculation additionally clips the straggler tail that neither
// policy can queue around.

import (
	"fmt"
	"strings"

	"matryoshka/internal/cluster"
	"matryoshka/internal/sched"
)

// schedOutcome is one policy's measurement of the shared-pool workload.
type schedOutcome struct {
	P50, P99 float64 // interactive-job latency percentiles
	Makespan float64
	Metrics  sched.Metrics
}

// schedCluster is the pool the tenancy experiments share: 4 machines x
// 8 cores = 32 slots, paper-scale memory.
func schedCluster(sc Scale) cluster.Config { return sc.Cluster(4, 8, 22) }

// schedWorkload builds the tenant specs and job list: one "batch"
// tenant with a few wide two-stage jobs, and `interactive` light
// tenants with a stream of small jobs. Purely arithmetic — same input
// every run, so scheduler comparisons are exact.
func schedWorkload(interactive int) ([]sched.TenantSpec, []sched.JobSpec) {
	tenants := []sched.TenantSpec{{Name: "batch", Weight: 1}}
	var jobs []sched.JobSpec
	for b := 0; b < 4; b++ {
		stages := make([][]cluster.Task, 2)
		for st := range stages {
			tasks := make([]cluster.Task, 48)
			for k := range tasks {
				tasks[k] = cluster.Task{Compute: 1.2 + 0.15*float64((b+st+k)%5), Memory: 1 << 20}
			}
			stages[st] = tasks
		}
		jobs = append(jobs, sched.JobSpec{Tenant: "batch", Arrival: 0.4 * float64(b), Stages: stages})
	}
	for i := 0; i < interactive; i++ {
		name := fmt.Sprintf("int%d", i)
		tenants = append(tenants, sched.TenantSpec{Name: name, Weight: 1})
		for j := 0; j < 15; j++ {
			tasks := make([]cluster.Task, 6)
			for k := range tasks {
				tasks[k] = cluster.Task{Compute: 0.25 + 0.05*float64((i+j+k)%3), Memory: 1 << 20}
			}
			jobs = append(jobs, sched.JobSpec{
				Tenant:  name,
				Arrival: 0.8*float64(j) + 0.07*float64(i),
				Stages:  [][]cluster.Task{tasks},
			})
		}
	}
	return tenants, jobs
}

// runSched measures one (policy, speculation, straggler-rate) cell.
func runSched(sc Scale, interactive int, straggle float64, policy sched.Policy, speculate bool) (schedOutcome, error) {
	tenants, jobs := schedWorkload(interactive)
	res, err := sched.Run(sched.Config{
		Cluster:   schedCluster(sc),
		Policy:    policy,
		Speculate: speculate,
		Straggle:  sched.Skew{Rate: straggle, Factor: 8, Seed: sc.seed()},
	}, tenants, jobs)
	if err != nil {
		return schedOutcome{}, err
	}
	var lat []float64
	for _, j := range res.Jobs {
		if j.Err == nil && strings.HasPrefix(j.Tenant, "int") {
			lat = append(lat, j.Latency)
		}
	}
	return schedOutcome{
		P50:      sched.Percentile(lat, 0.50),
		P99:      sched.Percentile(lat, 0.99),
		Makespan: res.Makespan,
		Metrics:  res.Metrics,
	}, nil
}

// schedPolicies are the compared series, in presentation order.
var schedPolicies = []struct {
	Name      string
	Policy    sched.Policy
	Speculate bool
}{
	{"fifo", sched.PolicyFIFO, false},
	{"fair", sched.PolicyFair, false},
	{"fair+spec", sched.PolicyFair, true},
}

// schedRows renders one measured cell as the experiment's three rows
// (p50, p99, makespan columns for this policy series).
func schedRows(exp string, x float64, name string, o schedOutcome, err error) []Row {
	if err != nil {
		return []Row{{Exp: exp, Series: name + "/p99", X: x, Err: err.Error()}}
	}
	return []Row{
		{Exp: exp, Series: name + "/p50", X: x, Seconds: o.P50},
		{Exp: exp, Series: name + "/p99", X: x, Seconds: o.P99},
		{Exp: exp, Series: name + "/makespan", X: x, Seconds: o.Makespan},
	}
}

// SecSched sweeps the interactive tenant count at a fixed 25% straggler
// rate: FIFO vs fair share vs fair share + speculation.
func SecSched(sc Scale) []Row {
	var rows []Row
	for _, tenants := range []int{1, 3, 6} {
		for _, p := range schedPolicies {
			o, err := runSched(sc, tenants, 0.25, p.Policy, p.Speculate)
			rows = append(rows, schedRows("sec-sched", float64(tenants), p.Name, o, err)...)
		}
	}
	return rows
}

// SecSchedStraggle sweeps the straggler rate (percent of tasks
// stretched 8x) at 3 interactive tenants.
func SecSchedStraggle(sc Scale) []Row {
	var rows []Row
	for _, pct := range []int{0, 15, 30, 45} {
		for _, p := range schedPolicies {
			o, err := runSched(sc, 3, float64(pct)/100, p.Policy, p.Speculate)
			rows = append(rows, schedRows("sec-sched-straggle", float64(pct), p.Name, o, err)...)
		}
	}
	return rows
}

// SchedSummary runs a single scheduling configuration (the matbench
// -tenants/-policy/-speculate/-straggle quick path) and renders the
// latency distribution, makespan, and per-tenant accounting.
func SchedSummary(sc Scale, interactive int, straggle float64, policy sched.Policy, speculate bool) (string, error) {
	o, err := runSched(sc, interactive, straggle, policy, speculate)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	spec := ""
	if speculate {
		spec = " +speculation"
	}
	fmt.Fprintf(&b, "scheduler: policy=%s%s  interactive tenants=%d  straggler rate=%.0f%%\n",
		policy, spec, interactive, straggle*100)
	fmt.Fprintf(&b, "interactive latency: p50=%.2fs p99=%.2fs   makespan=%.2fs\n", o.P50, o.P99, o.Makespan)
	m := o.Metrics
	var busy float64
	for _, tm := range m.Tenants {
		busy += tm.BusySec
	}
	fmt.Fprintf(&b, "pool: core-seconds busy=%.1f  queue-wait=%.1f  pref-violations=%d\n",
		busy, m.QueueWaitSec, m.PrefViolations)
	if m.SpecLaunched > 0 {
		fmt.Fprintf(&b, "speculation: launched=%d won=%d wasted=%.1f core-sec\n",
			m.SpecLaunched, m.SpecWon, m.SpecWastedSec)
	}
	for _, tm := range m.Tenants {
		fmt.Fprintf(&b, "  tenant %-8s jobs=%-3d core-sec=%-8.1f queue-wait=%-8.1f p99=%.2fs\n",
			tm.Name, tm.Jobs, tm.CoreSec, tm.QueueWait, sched.Percentile(tm.Latencies, 0.99))
	}
	return b.String(), nil
}
