package main

import (
	"fmt"
	"math"
	"reflect"

	"matryoshka/internal/bench"
	"matryoshka/internal/cluster"
	"matryoshka/internal/core"
	"matryoshka/internal/datagen"
	"matryoshka/internal/engine"
	"matryoshka/internal/ir"
	"matryoshka/internal/ml"
	"matryoshka/internal/obs"
	"matryoshka/internal/tasks"
)

// outcome is what one run of a workload returns to the harness.
type outcome struct {
	value  any
	sim    float64 // simulated makespan (wall time on the process pool)
	jobs   int
	stages int
	tasks  int
	err    error
}

// workload is one named input set plus the public entry point it drives.
type workload struct {
	name string
	why  string
	proc bool // runs on a procpool.Pool with procWorkers workers
	// shredded marks the workload that must lower a group-by shredded;
	// a traced run that records no such decision has failed.
	shredded bool
	// records is the input size records_per_s divides by.
	records func(div int) int
	// recordsPerGB scales the paper cluster (the only cluster used) so
	// that the input stands for the paper's dataset size in GB.
	recordsPerGB int
	// run executes the program once. backend and rec are nil on untraced
	// runs; div shrinks the input for the smoke test (1 = full size).
	run func(seed int64, div int, cc cluster.Config, backend engine.Backend, rec *obs.Recorder) outcome
	// reference computes the sequential ground truth; equal compares a
	// run's value against it with the repo's own test tolerance.
	reference func(seed int64, div int) any
	equal     func(got, want any) bool
	// input regenerates the run's input the way run does, for the
	// datagen and sizeest layer metrics.
	input func(seed int64, div int) any
}

// cluster shrinks RecordsPerGB with the input, so a smaller run keeps the
// data:memory ratio and with it every size-driven optimizer decision.
func (w *workload) cluster(div int) cluster.Config {
	return bench.Scale{RecordsPerGB: shrink(w.recordsPerGB, div, 1)}.PaperCluster()
}

const procWorkers = 2

// viaTasks adapts a tasks.*Spec.Run call: the tasks package reads its
// backend and recorder from package variables.
func viaTasks(backend engine.Backend, rec *obs.Recorder, f func() tasks.Outcome) outcome {
	tasks.Backend, tasks.Obs = backend, rec
	o := f()
	tasks.Backend, tasks.Obs = nil, nil
	return outcome{value: o.Value, sim: o.Seconds, jobs: o.Jobs, stages: o.Stages, tasks: o.Tasks, err: o.Err}
}

func shrink(n, div, floor int) int {
	if n /= div; n < floor {
		return floor
	}
	return n
}

func bounceSpec(visits, days int, seed int64, div int) tasks.BounceRateSpec {
	return tasks.BounceRateSpec{Visits: shrink(visits, div, days), Days: days, Seed: seed}
}

func bounceWorkload(name, why string, strat tasks.Strategy, visits, days, rpgb int) *workload {
	return &workload{
		name: name, why: why, recordsPerGB: rpgb,
		records: func(div int) int { return shrink(visits, div, days) },
		run: func(seed int64, div int, cc cluster.Config, b engine.Backend, rec *obs.Recorder) outcome {
			return viaTasks(b, rec, func() tasks.Outcome { return bounceSpec(visits, days, seed, div).Run(strat, cc) })
		},
		reference: func(seed int64, div int) any { return bounceSpec(visits, days, seed, div).Reference() },
		equal:     bounceEqual,
		input: func(seed int64, div int) any {
			return datagen.VisitsSkew(shrink(visits, div, days), days, 0, seed)
		},
	}
}

func bounceEqual(got, want any) bool {
	g, ok := got.(tasks.BounceRates)
	w := want.(tasks.BounceRates)
	if !ok || len(g) != len(w) {
		return false
	}
	for day, r := range w {
		if gr, ok := g[day]; !ok || math.Abs(gr-r) > 1e-12 {
			return false
		}
	}
	return true
}

func kmeansSpec(points, configs, iters int, seed int64, div int) tasks.KMeansSpec {
	return tasks.KMeansSpec{TotalPoints: shrink(points, div, 4*configs), K: 4, Configs: configs, Eps: 0, MaxIters: iters, Seed: seed}
}

func kmeansWorkload(name, why string, strat tasks.Strategy, proc bool, points, configs, iters, rpgb int) *workload {
	return &workload{
		name: name, why: why, proc: proc, recordsPerGB: rpgb,
		records: func(div int) int { return shrink(points, div, 4*configs) },
		run: func(seed int64, div int, cc cluster.Config, b engine.Backend, rec *obs.Recorder) outcome {
			return viaTasks(b, rec, func() tasks.Outcome { return kmeansSpec(points, configs, iters, seed, div).Run(strat, cc) })
		},
		reference: func(seed int64, div int) any { return kmeansSpec(points, configs, iters, seed, div).Reference() },
		equal:     kmeansEqual,
		input: func(seed int64, div int) any {
			return datagen.GaussianPoints(shrink(points, div, 4*configs)/configs, 4, seed)
		},
	}
}

func kmeansEqual(got, want any) bool {
	g, ok := got.(tasks.KMeansValue)
	w := want.(tasks.KMeansValue)
	if !ok || len(g) != len(w) {
		return false
	}
	for id, wm := range w {
		gm := g[id]
		if len(gm) != len(wm) {
			return false
		}
		for i := range wm {
			if !(ml.Dist2(gm[i], wm[i]) <= 1e-6) {
				return false
			}
		}
	}
	return true
}

func pagerankSpec(seed int64, div int) tasks.PageRankSpec {
	const groups = 64
	return tasks.PageRankSpec{Groups: groups, TotalEdges: shrink(80_000, div, 8*groups), TotalVertices: shrink(16_000, div, 4*groups),
		Eps: 1e-6, MaxIters: 4, Seed: seed}
}

func pagerankEqual(got, want any) bool {
	g, ok := got.(tasks.PageRankValue)
	w := want.(tasks.PageRankValue)
	if !ok || len(g) != len(w) {
		return false
	}
	for grp, wr := range w {
		gr := g[grp]
		if len(gr) != len(wr) {
			return false
		}
		for v, r := range wr {
			if gv, ok := gr[v]; !ok || math.Abs(gv-r) > 1e-6 {
				return false
			}
		}
	}
	return true
}

func shredSpec(seed int64, div int) tasks.ShredSpec {
	return tasks.ShredSpec{Visits: shrink(1_200_000, div, 256), Days: 256, Skew: 1.5, Seed: seed}
}

// bounceProgram is the paper's Listing 1 as an ir AST (cf.
// examples/twophase): per-day bounce rate over boxed (day, ip) pairs.
func bounceProgram() *ir.Program {
	udf := &ir.Fn{
		Params: []string{"day", "group"},
		Body: []ir.Stmt{
			ir.LetS{Name: "countsPerIP", E: ir.ReduceByKey{
				In: ir.Map{In: ir.Ref{Name: "group"},
					F: func(ip any) any { return engine.KV[any, any](ip, int64(1)) }},
				F: func(a, b any) any { return a.(int64) + b.(int64) },
			}},
			ir.LetS{Name: "numBounces", E: ir.Count{In: ir.Filter{
				In:   ir.Ref{Name: "countsPerIP"},
				Pred: func(e any) bool { return e.(engine.Pair[any, any]).Val.(int64) == 1 },
			}}},
			ir.LetS{Name: "numTotalVisitors", E: ir.Count{In: ir.Distinct{In: ir.Ref{Name: "group"}}}},
			ir.LetS{Name: "bounceRate", E: ir.BinOp{
				A: ir.Ref{Name: "numBounces"}, B: ir.Ref{Name: "numTotalVisitors"},
				F: func(a, b any) any { return float64(a.(int64)) / float64(b.(int64)) },
			}},
			ir.Return{E: ir.BinOp{A: ir.Ref{Name: "day"}, B: ir.Ref{Name: "bounceRate"},
				F: func(d, r any) any { return engine.KV[any, any](d, r) }}},
		},
	}
	return &ir.Program{
		Lets: []ir.Let{
			{Name: "visits", E: ir.Source{Name: "visits"}},
			{Name: "visitsPerDay", E: ir.GroupByKey{In: ir.Ref{Name: "visits"}}},
			{Name: "bounceRates", E: ir.Map{In: ir.Ref{Name: "visitsPerDay"}, UDF: udf}},
		},
		Result: "bounceRates",
	}
}

const irVisits, irDays = 288_000, 256

func boxedVisits(seed int64, div int) []any {
	visits := datagen.VisitsSkew(shrink(irVisits, div, irDays), irDays, 0, seed)
	data := make([]any, len(visits))
	for i, v := range visits {
		data[i] = engine.KV[any, any](v.Day, v.IP)
	}
	return data
}

// runIRBoxed drives the ir front end directly: it builds its own session,
// so the backend and recorder go in through engine.Config.
func runIRBoxed(seed int64, div int, cc cluster.Config, b engine.Backend, rec *obs.Recorder) outcome {
	data := boxedVisits(seed, div)
	parsed, err := ir.Parse(bounceProgram())
	if err != nil {
		return outcome{err: err}
	}
	sess, err := engine.NewSession(engine.Config{Cluster: cc, Recover: true, Obs: rec, Backend: b})
	if err != nil {
		return outcome{err: err}
	}
	defer sess.Close()
	res, err := ir.Lower(parsed, sess, map[string][]any{"visits": data}, core.Options{})
	st := sess.Stats()
	o := outcome{sim: sess.Clock(), jobs: st.Jobs, stages: st.Stages, tasks: st.Tasks, err: err}
	if err != nil {
		return o
	}
	rows, ok := res.([]any)
	if !ok {
		o.err = fmt.Errorf("ir.Lower returned %T, want []any", res)
		return o
	}
	rates := make(tasks.BounceRates, len(rows))
	for _, r := range rows {
		kv, ok := r.(engine.Pair[any, any])
		if !ok {
			o.err = fmt.Errorf("ir.Lower row is %T, want Pair[any,any]", r)
			return o
		}
		day, dok := kv.Key.(int64)
		rate, rok := kv.Val.(float64)
		if !dok || !rok {
			o.err = fmt.Errorf("ir.Lower row is (%T, %T), want (int64, float64)", kv.Key, kv.Val)
			return o
		}
		rates[day] = rate
	}
	o.value = rates
	return o
}

// workloads lists the benchmark's inputs in the order they are reported.
// The why strings are the ones BENCHMARK.json declares.
var workloads = []*workload{
	bounceWorkload("bounce_lifted",
		"flattened bounce rate: 2 jobs, 11 stages, shuffle/combine-bound; engine operator compute dominates, job overhead is small",
		tasks.Matryoshka, 672_000, 256, 14_000),
	kmeansWorkload("kmeans_lifted",
		"lifted While + half-lifted broadcast cross + CPU-heavy UDF: 7 jobs, 41 stages, stage compute dominates, almost no shuffle bytes",
		tasks.Matryoshka, false, 1_000_000, 64, 4, 50_000),
	{
		name: "pagerank_lifted", recordsPerGB: 4000,
		why:     "join-heavy lifted loop: 79 stages, 95k simulated tasks; 40% of the wall is between-stage work (route, plan, memo) - the mixed case",
		records: func(div int) int { return pagerankSpec(0, div).TotalEdges },
		run: func(seed int64, div int, cc cluster.Config, b engine.Backend, rec *obs.Recorder) outcome {
			return viaTasks(b, rec, func() tasks.Outcome { return pagerankSpec(seed, div).Run(tasks.Matryoshka, cc) })
		},
		reference: func(seed int64, div int) any { return pagerankSpec(seed, div).Reference() },
		equal:     pagerankEqual,
		input: func(seed int64, div int) any {
			sp := pagerankSpec(seed, div)
			return datagen.GroupedGraphSkew(sp.Groups, sp.TotalVertices/sp.Groups, sp.TotalEdges/sp.Groups, 0, seed)
		},
	},
	bounceWorkload("bounce_inner_jobs",
		"the paper's first fly: 97 jobs over almost no data, so per-job/per-stage driver overhead dominates; bypasses core/ir/shred",
		tasks.InnerParallel, 96_000, 48, 2000),
	{
		name: "shred_skew", recordsPerGB: 200_000, shredded: true,
		why:     "Zipf-skewed keys through internal/shred + GroupByKeySpill: same group-by/shuffle layer as bounce_lifted, used as dictionary+spill",
		records: func(div int) int { return shredSpec(0, div).Visits },
		run: func(seed int64, div int, cc cluster.Config, b engine.Backend, rec *obs.Recorder) outcome {
			return viaTasks(b, rec, func() tasks.Outcome { return shredSpec(seed, div).Run(cc) })
		},
		reference: func(seed int64, div int) any { return shredSpec(seed, div).Reference() },
		equal:     reflect.DeepEqual,
		input: func(seed int64, div int) any {
			sp := shredSpec(seed, div)
			return datagen.VisitsSkew(sp.Visits, sp.Days, sp.Skew, seed)
		},
	},
	{
		name: "bounce_ir_boxed", recordsPerGB: 6000,
		why:     "bounce rate through the ir front end and the boxed Vec[any] fallback: reflective hashing and sizeest, GC-scanned elements",
		records: func(div int) int { return shrink(irVisits, div, irDays) },
		run:     runIRBoxed,
		reference: func(seed int64, div int) any {
			return bounceSpec(irVisits, irDays, seed, div).Reference()
		},
		equal: bounceEqual,
		input: func(seed int64, div int) any { return boxedVisits(seed, div) },
	},
	kmeansWorkload("kmeans_inner_proc",
		"the only workload on procpool/wire/codec/taskreg: 9600 tiny remote tasks on 2 worker processes, round trip per task dominates",
		tasks.InnerParallel, true, 400_000, 2, 2, 20_000),
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}
