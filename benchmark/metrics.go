package main

import (
	"math"
	"sort"
)

// metricDecl declares one metric the benchmark prints. BENCHMARK.json
// repeats these declarations for the driver; bench_test.go asserts the
// two agree.
type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: tolerated worsening, share of the baseline
}

// endToEnd are the metrics a user of the system sees, printed with
// -trace 0. None of them is ever 0. fail_ratio is not in the list: it
// is 0 on a healthy run, so it travels as failed/attempted instead.
var endToEnd = []metricDecl{
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "records_per_s", Unit: "rec/s", Better: "higher", Bound: 0.25},
	{Name: "alloc_mb", Unit: "MB", Better: "lower", Bound: 0.03},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// perLayer are the metrics of single layers (layer = module name),
// printed with -trace 1. A metric that does not apply to a workload
// reads 0 there.
var perLayer = []metricDecl{
	{Name: "sim_s", Unit: "sim-s", Better: "lower"},
	{Name: "datagen.gen_s", Unit: "s", Better: "lower"},
	{Name: "ir.parse_us", Unit: "us", Better: "lower"},
	{Name: "core.outside_jobs_s", Unit: "s", Better: "lower"},
	{Name: "core.decisions", Unit: "count", Better: "lower"},
	{Name: "shred.shredded_groupbys", Unit: "count", Better: "higher"},
	{Name: "shred.spill_stage_s", Unit: "s", Better: "lower"},
	{Name: "engine.stage_compute_s", Unit: "s", Better: "lower"},
	{Name: "engine.job_overhead_s", Unit: "s", Better: "lower"},
	{Name: "engine.job_overhead_us_per_stage", Unit: "us", Better: "lower"},
	{Name: "engine.slowest_stage_s", Unit: "s", Better: "lower"},
	{Name: "engine.stages", Unit: "count", Better: "lower"},
	{Name: "engine.fused_stages", Unit: "count", Better: "higher"},
	{Name: "engine.memo_hits", Unit: "count", Better: "higher"},
	{Name: "engine.recoveries", Unit: "count", Better: "lower"},
	{Name: "engine.boundary_mb", Unit: "MB", Better: "lower"},
	{Name: "engine.shuffle_sim_gb", Unit: "GB", Better: "lower"},
	{Name: "engine.wall_1p_s", Unit: "s", Better: "lower"},
	{Name: "engine.host_speedup_x", Unit: "x", Better: "higher"},
	{Name: "engine.gc_cycles", Unit: "count/run", Better: "lower"},
	{Name: "engine.mallocs_k", Unit: "k", Better: "lower"},
	{Name: "engine.codec_encode_mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "engine.codec_decode_mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "sizeest.of_typed_ns_per_elem", Unit: "ns", Better: "lower"},
	{Name: "sizeest.of_boxed_ns_per_elem", Unit: "ns", Better: "lower"},
	{Name: "sizeest.of_batch_ns_per_elem", Unit: "ns", Better: "lower"},
	{Name: "cluster.busy_s", Unit: "s", Better: "lower"},
	{Name: "cluster.us_per_task", Unit: "us", Better: "lower"},
	{Name: "cluster.jobs", Unit: "count", Better: "lower"},
	{Name: "cluster.stages", Unit: "count", Better: "lower"},
	{Name: "cluster.tasks", Unit: "count", Better: "lower"},
	{Name: "procpool.start_s", Unit: "s", Better: "lower"},
	{Name: "procpool.close_s", Unit: "s", Better: "lower"},
	{Name: "procpool.remote_stage_s", Unit: "s", Better: "lower"},
	{Name: "procpool.task_rtt_us", Unit: "us", Better: "lower"},
	{Name: "procpool.put_block_s", Unit: "s", Better: "lower"},
	{Name: "procpool.put_blocks", Unit: "count", Better: "lower"},
	{Name: "procpool.shipped_mb", Unit: "MB", Better: "lower"},
	{Name: "procpool.remote_stages", Unit: "count", Better: "higher"},
	{Name: "procpool.remote_tasks", Unit: "count", Better: "lower"},
	{Name: "procpool.fallback_stages", Unit: "count", Better: "lower"},
	{Name: "procpool.respawns", Unit: "count", Better: "lower"},
	{Name: "procpool.spill_blocks", Unit: "count", Better: "lower"},
	{Name: "procpool.worker_cpu_s", Unit: "s", Better: "lower"},
	{Name: "procpool.worker_util", Unit: "ratio", Better: "higher"},
	{Name: "procpool.worker_peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "procpool.inproc_wall_s", Unit: "s", Better: "lower"},
	{Name: "procpool.slowdown_x", Unit: "x", Better: "lower"},
	{Name: "obs.trace_overhead_x", Unit: "x", Better: "lower"},
}

// metricValue is one measured number in the driver's result format.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object the driver reads from the last line of stdout.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// fill turns measured values into the declared metric set: every
// declared name appears, with its declared unit, and reads 0 when the
// workload did not produce it.
func fill(decls []metricDecl, values map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(decls))
	for _, d := range decls {
		out[d.Name] = metricValue{Value: values[d.Name], Unit: d.Unit}
	}
	return out
}

// median returns the middle value (the mean of the two middle values for
// an even count); 0 for no values.
func median(xs []float64) float64 { return fiveNumber(xs)[2] }

// fiveNumber is min, first quartile, median, third quartile and max of
// xs; quartiles interpolate linearly between order statistics.
func fiveNumber(xs []float64) [5]float64 {
	if len(xs) == 0 {
		return [5]float64{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(q float64) float64 {
		pos := q * float64(len(s)-1)
		lo := int(math.Floor(pos))
		hi := int(math.Ceil(pos))
		return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
	}
	return [5]float64{s[0], at(0.25), at(0.5), at(0.75), s[len(s)-1]}
}
