package bench

import (
	"matryoshka/internal/cluster"
	"matryoshka/internal/core"
	"matryoshka/internal/engine"
	"matryoshka/internal/obs"
	"matryoshka/internal/tasks"
)

// row converts a task outcome into a bench row.
func row(exp, series string, x float64, o tasks.Outcome) Row {
	r := Row{Exp: exp, Series: series, X: x, Seconds: o.Seconds, Jobs: o.Jobs, OOM: o.OOM}
	if o.Err != nil && !o.OOM {
		r.Err = o.Err.Error()
	}
	return r
}

// kmeansSpec is the shared K-means shape: total work constant at 20 GB of
// points, 4 clusters, convergence capped at 8 Lloyd's iterations.
func kmeansSpec(sc Scale, configs int) tasks.KMeansSpec {
	return tasks.KMeansSpec{
		TotalPoints: sc.Records(20),
		K:           4,
		Configs:     configs,
		Eps:         1e-6,
		MaxIters:    8,
		Seed:        1,
	}
}

func pageRankSpec(sc Scale, groups int, gb float64, skewed bool) tasks.PageRankSpec {
	return tasks.PageRankSpec{
		Groups:        groups,
		TotalEdges:    sc.Records(gb),
		TotalVertices: sc.Records(gb) / 5,
		Eps:           1e-6,
		MaxIters:      6,
		Skewed:        skewed,
		Skew:          sc.Skew,
		Seed:          2,
	}
}

func avgDistSpec(comps int) tasks.AvgDistSpec {
	vpc := 2048 / comps
	if vpc < 4 {
		vpc = 4
	}
	return tasks.AvgDistSpec{
		Components:        comps,
		VerticesPerComp:   vpc,
		ExtraEdgesPerComp: vpc / 2,
		Seed:              3,
		Weight:            64,
	}
}

func bounceSpec(sc Scale, days int, gb float64, skewed bool) tasks.BounceRateSpec {
	return tasks.BounceRateSpec{Visits: sc.Records(gb), Days: days, Skewed: skewed, Skew: sc.Skew, Seed: 4}
}

// Fig1 reproduces the motivating experiment: K-means under the two
// workarounds across 1..256 initial configurations (total work constant),
// against the ideal of a fully parallel single run.
func Fig1(sc Scale) []Row {
	cc := sc.PaperCluster()
	var rows []Row
	ideal := kmeansSpec(sc, 1).Run(tasks.InnerParallel, cc)
	for c := 1; c <= 256; c *= 4 {
		spec := kmeansSpec(sc, c)
		rows = append(rows,
			row("fig1", "inner-parallel", float64(c), spec.Run(tasks.InnerParallel, cc)),
			row("fig1", "outer-parallel", float64(c), spec.Run(tasks.OuterParallel, cc)),
			Row{Exp: "fig1", Series: "ideal", X: float64(c), Seconds: ideal.Seconds},
		)
	}
	return rows
}

// weakScaling sweeps the number of inner computations with constant total
// input across the three strategies.
func weakScaling(exp string, xs []int, run func(x int, s tasks.Strategy) tasks.Outcome) []Row {
	var rows []Row
	for _, x := range xs {
		for _, s := range []tasks.Strategy{tasks.Matryoshka, tasks.InnerParallel, tasks.OuterParallel} {
			rows = append(rows, row(exp, string(s), float64(x), run(x, s)))
		}
	}
	return rows
}

// Fig3KMeans is the K-means panel of the weak-scaling figure.
func Fig3KMeans(sc Scale) []Row {
	cc := sc.PaperCluster()
	return weakScaling("fig3-kmeans", []int{4, 16, 64, 256, 1024}, func(x int, s tasks.Strategy) tasks.Outcome {
		return kmeansSpec(sc, x).Run(s, cc)
	})
}

// Fig3PageRank is the PageRank panel (20 GB of edges).
func Fig3PageRank(sc Scale) []Row {
	cc := sc.PaperCluster()
	return weakScaling("fig3-pagerank", []int{4, 16, 64, 256, 1024}, func(x int, s tasks.Strategy) tasks.Outcome {
		return pageRankSpec(sc, x, 20, false).Run(s, cc)
	})
}

// Fig3AvgDist is the Average Distances panel (three nesting levels).
func Fig3AvgDist(sc Scale) []Row {
	cc := sc.PaperCluster()
	return weakScaling("fig3-avgdist", []int{4, 16, 64}, func(x int, s tasks.Strategy) tasks.Outcome {
		return avgDistSpec(x).Run(s, cc)
	})
}

// Fig4 scales the cluster from 5 to 25 machines with 64 inner
// computations for each iterative task.
func Fig4(sc Scale) []Row {
	var rows []Row
	for _, machines := range []int{5, 10, 15, 20, 25} {
		cc := sc.Cluster(machines, 16, 22)
		for _, s := range []tasks.Strategy{tasks.Matryoshka, tasks.InnerParallel, tasks.OuterParallel} {
			rows = append(rows,
				row("fig4", "kmeans/"+string(s), float64(machines), kmeansSpec(sc, 64).Run(s, cc)),
				row("fig4", "pagerank/"+string(s), float64(machines), pageRankSpec(sc, 64, 20, false).Run(s, cc)),
				row("fig4", "avgdist/"+string(s), float64(machines), avgDistSpec(64).Run(s, cc)),
			)
		}
	}
	return rows
}

// Fig5Weak is Bounce Rate weak scaling at 48 GB, where DIQL and
// outer-parallel run out of memory in all cases (Sec. 9.4).
func Fig5Weak(sc Scale) []Row {
	cc := sc.PaperCluster()
	var rows []Row
	for _, days := range []int{4, 16, 64, 256} {
		spec := bounceSpec(sc, days, 48, false)
		for _, s := range []tasks.Strategy{tasks.Matryoshka, tasks.InnerParallel, tasks.OuterParallel, tasks.DIQL} {
			rows = append(rows, row("fig5-weak", string(s), float64(days), spec.Run(s, cc)))
		}
	}
	return rows
}

// Fig5ScaleOut is Bounce Rate scale-out with 256 groups.
func Fig5ScaleOut(sc Scale) []Row {
	var rows []Row
	for _, machines := range []int{5, 10, 15, 20, 25} {
		cc := sc.Cluster(machines, 16, 22)
		spec := bounceSpec(sc, 256, 48, false)
		for _, s := range []tasks.Strategy{tasks.Matryoshka, tasks.InnerParallel, tasks.OuterParallel, tasks.DIQL} {
			rows = append(rows, row("fig5-scaleout", string(s), float64(machines), spec.Run(s, cc)))
		}
	}
	return rows
}

// Fig6 rescales Bounce Rate to 12 GB so DIQL completes, and compares it to
// Matryoshka (the paper reports Matryoshka faster in all cases, up to
// 6.6x).
func Fig6(sc Scale) []Row {
	cc := sc.PaperCluster()
	var rows []Row
	for _, days := range []int{32, 64, 128, 256} {
		spec := bounceSpec(sc, days, 12, false)
		rows = append(rows,
			row("fig6", string(tasks.Matryoshka), float64(days), spec.Run(tasks.Matryoshka, cc)),
			row("fig6", string(tasks.DIQL), float64(days), spec.Run(tasks.DIQL, cc)),
		)
	}
	return rows
}

// Fig7Bounce is the skew experiment for Bounce Rate: 1024 groups with
// Zipf-distributed keys; Matryoshka is compared against its own unskewed
// runtime (the paper reports within 15%), while inner-parallel degrades
// and outer-parallel OOMs.
func Fig7Bounce(sc Scale) []Row {
	cc := sc.PaperCluster()
	skew := bounceSpec(sc, 1024, 24, true)
	flat := bounceSpec(sc, 1024, 24, false)
	return []Row{
		row("fig7-bounce", "matryoshka/skewed", 1024, skew.Run(tasks.Matryoshka, cc)),
		row("fig7-bounce", "matryoshka/uniform", 1024, flat.Run(tasks.Matryoshka, cc)),
		row("fig7-bounce", "inner-parallel/skewed", 1024, skew.Run(tasks.InnerParallel, cc)),
		row("fig7-bounce", "outer-parallel/skewed", 1024, skew.Run(tasks.OuterParallel, cc)),
	}
}

// Fig7PageRank is the skew experiment for PageRank.
func Fig7PageRank(sc Scale) []Row {
	cc := sc.PaperCluster()
	skew := pageRankSpec(sc, 1024, 20, true)
	flat := pageRankSpec(sc, 1024, 20, false)
	return []Row{
		row("fig7-pagerank", "matryoshka/skewed", 1024, skew.Run(tasks.Matryoshka, cc)),
		row("fig7-pagerank", "matryoshka/uniform", 1024, flat.Run(tasks.Matryoshka, cc)),
		row("fig7-pagerank", "inner-parallel/skewed", 1024, skew.Run(tasks.InnerParallel, cc)),
		row("fig7-pagerank", "outer-parallel/skewed", 1024, skew.Run(tasks.OuterParallel, cc)),
	}
}

// Fig8a ablates the InnerBag-InnerScalar join algorithm on PageRank with
// 160 GB of edges: optimizer vs forced broadcast vs forced repartition
// (Sec. 9.6). Forcing a strategy also bypasses the partition-count
// optimization of Sec. 8.1, as a system without runtime size information
// would.
func Fig8a(sc Scale) []Row {
	cc := sc.LargeCluster() // 160 GB of working state needs the Sec. 9.7 machines
	var rows []Row
	variants := []struct {
		name string
		opt  core.Options
	}{
		{"optimizer", core.Options{}},
		{"broadcast", core.Options{ForceScalarJoin: core.ForceJoin(engine.JoinBroadcastLeft)}},
		{"repartition", core.Options{ForceScalarJoin: core.ForceJoin(engine.JoinRepartition)}},
	}
	for _, groups := range []int{16, 256, 4096, 16384} {
		spec := pageRankSpec(sc, groups, 160, false)
		spec.MaxIters = 5
		for _, v := range variants {
			rows = append(rows, row("fig8a", v.name, float64(groups), spec.RunMatryoshka(cc, v.opt)))
		}
	}
	return rows
}

// Fig8b ablates the half-lifted mapWithClosure broadcast side on K-means
// (Sec. 9.6): optimizer vs always broadcasting the means InnerScalar vs
// always broadcasting the points bag.
func Fig8b(sc Scale) []Row {
	cc := sc.PaperCluster()
	var rows []Row
	variants := []struct {
		name string
		opt  core.Options
	}{
		{"optimizer", core.Options{}},
		{"bcast-scalar", core.Options{ForceHalfLifted: core.ForceHalf(core.BroadcastScalar)}},
		{"bcast-primary", core.Options{ForceHalfLifted: core.ForceHalf(core.BroadcastPrimary)}},
	}
	for _, configs := range []int{4, 64, 1024, 8192} {
		spec := kmeansSpec(sc, configs)
		spec.TotalPoints = sc.Records(40)
		for _, v := range variants {
			rows = append(rows, row("fig8b", v.name, float64(configs), spec.RunMatryoshka(cc, v.opt)))
		}
	}
	return rows
}

// Fig9PageRank is the 8x-input PageRank weak scaling on the Sec. 9.7
// cluster (160 GB of edges, 36 machines).
func Fig9PageRank(sc Scale) []Row {
	cc := sc.LargeCluster()
	return weakScaling("fig9-pagerank", []int{32, 128, 512}, func(x int, s tasks.Strategy) tasks.Outcome {
		spec := pageRankSpec(sc, x, 160, false)
		spec.MaxIters = 5
		return spec.Run(s, cc)
	})
}

// Fig9Bounce is the 8x-input Bounce Rate weak scaling (384 GB of visits).
func Fig9Bounce(sc Scale) []Row {
	cc := sc.LargeCluster()
	return weakScaling("fig9-bounce", []int{32, 128, 512}, func(x int, s tasks.Strategy) tasks.Outcome {
		return bounceSpec(sc, x, 384, false).Run(s, cc)
	})
}

// memPressureSpec is the distilled Sec. 9 memory-pressure workload behind
// the sec9-recovery experiment and `matbench -explain recovery`: an
// oversized broadcast build side (~4 GB resident under this scale) and an
// under-partitioned group stage, sized so 2 GB machines abort without
// adaptive recovery and complete with it.
func memPressureSpec(sc Scale) tasks.MemPressureSpec {
	return tasks.MemPressureSpec{
		BuildRecords: sc.Records(0.4),
		ProbeKeys:    64,
		GroupRecords: sc.Records(0.6),
		Groups:       512,
		IngestParts:  16,
		GroupParts:   4,
	}
}

// Sec9Recovery reruns the Sec. 9 memory-pressure failure modes — the
// oversized broadcast (Sec. 9.6) and the outer-parallel whole-group task
// (Sec. 9.4) — with the adaptive recovery loop off (abort, the behaviour
// the paper reports) vs on, sweeping per-machine memory on a 2-machine
// demo cluster. The recover series completes at memory levels where the
// abort series dies, by demoting the broadcast join to a repartition join
// and re-lowering the group stage to more, smaller partitions; below the
// window both series die in ingest, which no re-lowering can split.
func Sec9Recovery(sc Scale) []Row {
	var rows []Row
	for _, memGB := range []float64{0.5, 1, 2, 4, 8} {
		cc := sc.Cluster(2, 2, memGB)
		for _, mode := range []struct {
			name string
			rec  bool
		}{{"abort", false}, {"recover", true}} {
			prev := tasks.Recovery
			tasks.Recovery = mode.rec
			out := memPressureSpec(sc).Run(cc)
			tasks.Recovery = prev
			rows = append(rows, row("sec9-recovery", mode.name, memGB, out))
		}
	}
	return rows
}

// shredSpec is the skewed nested-materialization workload behind the
// sec-shred experiment and `matbench -explain shred`: 0.15 GB of visits
// over 256 days, with the day distribution's Zipf exponent swept. On the
// deliberately tight 2x1 GB demo cluster, a mild-skew head day still fits
// one task (materialization wins — no spill I/O surcharge), while the
// head day of a high-skew draw cannot be materialized in one task — the
// scenario class the paper's own lowering cannot handle (ROADMAP) — and
// only the shredded lowering streams it through the spill group build.
func shredSpec(sc Scale, skew float64) tasks.ShredSpec {
	return tasks.ShredSpec{Visits: sc.Records(0.15), Days: 256, Skew: skew, Seed: 5}
}

// SecShred sweeps the Zipf exponent and compares the nested-bag
// lowerings: materialized without recovery (abort — what the paper's
// lowering does), materialized with the recovery loop (which demotes the
// group build to shredded after burning the failed attempt), shredded
// first-try with recovery OFF (it must not need it), and the optimizer's
// auto choice. Each run reports simulated clock and, as a second
// `peakMB/<mode>` series, the peak single-task resident claim from the
// run's private event recorder — the peak-bytes half of the crossover:
// on mild skew the materialized build is cheapest (no spill I/O
// surcharge), on high skew it aborts or pays the failed attempt while
// shredded completes first-try with a fraction of the resident peak.
func SecShred(sc Scale) []Row {
	var rows []Row
	for _, skew := range []float64{1.05, 1.2, 1.5, 2.0} {
		for _, mode := range []struct {
			name  string
			shred *core.ShredChoice // nil: the shred rule picks
			rec   bool
		}{
			{"materialized/abort", core.ForceShredChoice(core.ShredMaterialized), false},
			{"materialized/recover", core.ForceShredChoice(core.ShredMaterialized), true},
			{"shredded", core.ForceShredChoice(core.ShredShredded), false},
			{"auto", nil, true},
		} {
			prevRec, prevObs := tasks.Recovery, tasks.Obs
			rec := obs.NewRecorder()
			tasks.Recovery, tasks.Obs = mode.rec, rec
			out := shredSpec(sc, skew).RunMatryoshka(sc.Cluster(2, 2, 1), core.Options{ForceShred: mode.shred})
			tasks.Recovery, tasks.Obs = prevRec, prevObs
			rows = append(rows,
				row("sec-shred", mode.name, skew, out),
				Row{Exp: "sec-shred", Series: "peakMB/" + mode.name, X: skew,
					Seconds: float64(rec.PeakTaskMem()) / (1 << 20), Jobs: out.Jobs},
			)
		}
	}
	return rows
}

// chaosSpec is the shared machine-failure workload: several diamond jobs
// (two shuffle parents into a repartition join) whose fault plan crashes
// each machine `rate` times per 1000 simulated seconds on average
// (rate 0 = fault-free baseline). The seed comes from the scale, so
// `matbench -seed` varies which runs get hit and the default is
// bit-reproducible.
func chaosSpec(sc Scale, rate float64) tasks.ChaosSpec {
	sp := tasks.ChaosSpec{
		Records: sc.Records(1),
		Keys:    256,
		Parts:   6,
		Rounds:  4,
	}
	if rate > 0 {
		sp.Faults = cluster.FaultPlan{MTBF: 1000 / rate, Seed: sc.seed()}
	}
	return sp
}

// Sec9Chaos sweeps the machine crash rate and compares aborting on the
// first lost shuffle fetch (what a lineage-less runtime does) against
// the engine's lineage recovery, which rewinds to the lost stages,
// recomputes only those, and resumes. The recover series completes at
// every rate, paying for each crash with the recomputation it forces;
// the abort series survives only runs where no crash lands between a
// shuffle's materialisation and its consumption.
func Sec9Chaos(sc Scale) []Row {
	var rows []Row
	for _, rate := range []float64{0, 1, 2, 4, 8} {
		for _, mode := range []struct {
			name string
			rec  bool
		}{{"abort", false}, {"recover", true}} {
			prev := tasks.Recovery
			tasks.Recovery = mode.rec
			out := chaosSpec(sc, rate).Run(sc.Cluster(4, 4, 8))
			tasks.Recovery = prev
			rows = append(rows, row("sec9-chaos", mode.name, rate, out))
		}
	}
	return rows
}
