package tasks

import (
	"matryoshka/internal/cluster"
	"matryoshka/internal/core"
	"matryoshka/internal/datagen"
	"matryoshka/internal/engine"
	"matryoshka/internal/ml"
	"matryoshka/internal/sizeest"
	"matryoshka/internal/taskreg"
)

// The inner-parallel loop's assignment step closes over the current
// centroids, which change every iteration: it registers as a
// parameterized op whose JSON argument carries the means (float64s
// round-trip exactly through encoding/json's shortest representation).
var (
	kmeansAssign = taskreg.RegisterMapArg("kmeans.assign",
		func(means []ml.Point) func(ml.Point) engine.Pair[int, ml.PointSum] {
			return func(p ml.Point) engine.Pair[int, ml.PointSum] {
				return engine.KV(ml.Nearest(means, p), ml.PointSum{}.Add(p))
			}
		})
	kmeansSum = taskreg.RegisterReduceByKey[int]("kmeans.sum", ml.PointSum.Merge)
)

// KMeansSpec parameterizes K-means hyperparameter search (Sec. 2.3 /
// Fig. 1): Configs initial centroid sets are trained, each on the same
// point sample of size TotalPoints/Configs, so total work stays constant
// as Configs varies (the weak-scaling setup of Sec. 9.2).
type KMeansSpec struct {
	TotalPoints int
	K           int
	Configs     int
	Eps         float64 // squared max centroid shift to stop
	MaxIters    int
	Seed        int64
}

// KMeansValue maps config index to its converged means.
type KMeansValue = map[int][]ml.Point

const kMeansName = "k-means"

// kmConfig is one hyperparameter configuration.
type kmConfig struct {
	ID   int
	Init []ml.Point
}

func (sp KMeansSpec) points() []ml.Point {
	n := sp.TotalPoints / sp.Configs
	if n < sp.K {
		n = sp.K
	}
	return datagen.GaussianPoints(n, 4, sp.Seed)
}

func (sp KMeansSpec) configs() []kmConfig {
	sets := datagen.RandomCentroidSets(sp.Configs, sp.K, sp.Seed+1)
	out := make([]kmConfig, len(sets))
	for i, s := range sets {
		out[i] = kmConfig{ID: i, Init: s}
	}
	return out
}

// Reference runs every configuration sequentially in driver memory.
func (sp KMeansSpec) Reference() KMeansValue {
	pts := sp.points()
	out := make(KMeansValue, sp.Configs)
	for _, c := range sp.configs() {
		out[c.ID] = ml.KMeansSeq(pts, c.Init, sp.Eps, sp.MaxIters).Means
	}
	return out
}

// Run executes the task under the given strategy.
func (sp KMeansSpec) Run(strat Strategy, cc cluster.Config) Outcome {
	switch strat {
	case Matryoshka:
		return sp.RunMatryoshka(cc, core.Options{})
	case InnerParallel:
		return sp.runInner(cc)
	case OuterParallel:
		return sp.runOuter(cc)
	case DIQL:
		return Outcome{Task: kMeansName, Strategy: DIQL, Err: ErrControlFlowUnsupported}
	}
	return Outcome{Task: kMeansName, Strategy: strat, Err: errUnknownStrategy(strat)}
}

// RunMatryoshka is the nested-parallel program: a bag of configurations
// whose lifted map UDF trains a model with parallel operations and a loop
// (the exact shape Sec. 2.3 motivates). opt is exposed for the Fig. 8
// half-lifted ablation.
func (sp KMeansSpec) RunMatryoshka(cc cluster.Config, opt core.Options) Outcome {
	sess, err := newMatryoshkaSession(cc)
	if err != nil {
		return failed(kMeansName, Matryoshka, err)
	}
	points := engine.Parallelize(sess, sp.points(), 0).Cache()
	// Materialize the shared points bag once (also gives the optimizer a
	// SizeEstimator reading for the half-lifted choice, Sec. 8.3).
	if _, err := engine.Count(points); err != nil {
		return finish(kMeansName, Matryoshka, sess, nil, err)
	}
	configs := engine.Parallelize(sess, sp.configs(), 0).Unscaled()

	type loopState = core.State2[core.InnerScalar[[]ml.Point], core.InnerScalar[int64]]
	value, err := core.LiftFlat(configs, opt, func(ctx *core.Ctx, cfgs core.InnerScalar[kmConfig]) (KMeansValue, error) {
		means := core.UnaryScalarOp(cfgs, func(c kmConfig) []ml.Point { return c.Init })
		ops := core.State2Ops(core.ScalarState[[]ml.Point](), core.ScalarState[int64]())
		init := loopState{A: means, B: core.Pure(ctx, int64(0))}

		out, err := core.While(ctx, init, ops, func(c *core.Ctx, st loopState) (loopState, core.InnerScalar[bool], error) {
			// Assignment step: every run's current means meet every
			// shared point — the half-lifted mapWithClosure of
			// Sec. 8.3.
			assigned := core.HalfLiftedMapWithClosure(st.A, points,
				func(p ml.Point, m []ml.Point) engine.Pair[int, ml.PointSum] {
					return engine.KV(ml.Nearest(m, p), ml.PointSum{}.Add(p))
				})
			// Keys are cluster indices (at most K per run): a bounded
			// key set, reduced with unscaled cost accounting.
			sums := core.ReduceByKeyBagBound(assigned, ml.PointSum.Merge)
			// Gather the k per-cluster sums of each run into one array.
			arrays := core.AggregateBag(sums, make([]ml.PointSum, sp.K),
				func(a []ml.PointSum, kv engine.Pair[int, ml.PointSum]) []ml.PointSum {
					out := append([]ml.PointSum(nil), a...)
					out[kv.Key] = out[kv.Key].Merge(kv.Val)
					return out
				},
				func(x, y []ml.PointSum) []ml.PointSum {
					out := append([]ml.PointSum(nil), x...)
					for i := range y {
						out[i] = out[i].Merge(y[i])
					}
					return out
				})
			newMeans := core.BinaryScalarOp(arrays, st.A, func(sums []ml.PointSum, old []ml.Point) []ml.Point {
				out := make([]ml.Point, len(old))
				for i := range old {
					out[i] = sums[i].Mean(old[i])
				}
				return out
			})
			iters := core.UnaryScalarOp(st.B, func(i int64) int64 { return i + 1 })
			shift := core.BinaryScalarOp(newMeans, st.A, ml.MaxShift)
			cond := core.BinaryScalarOp(shift, iters, func(sh float64, it int64) bool {
				return sh >= sp.Eps && it < int64(sp.MaxIters)
			})
			return loopState{A: newMeans, B: iters}, cond, nil
		})
		if err != nil {
			return nil, err
		}
		final := core.BinaryScalarOp(cfgs, out.A, func(c kmConfig, m []ml.Point) engine.Pair[int, []ml.Point] {
			return engine.KV(c.ID, m)
		})
		tagged, err := final.Collect()
		if err != nil {
			return nil, err
		}
		value := make(KMeansValue, len(tagged))
		for _, kv := range tagged {
			value[kv.Key] = kv.Val
		}
		return value, nil
	})
	return finish(kMeansName, Matryoshka, sess, value, err)
}

// runInner is the inner-parallel workaround: the driver loops over
// configurations and runs each training as its own sequence of dataflow
// jobs (one job per Lloyd's iteration — the job-launch overhead the paper
// measures).
func (sp KMeansSpec) runInner(cc cluster.Config) Outcome {
	sess, err := newSession(cc)
	if err != nil {
		return failed(kMeansName, InnerParallel, err)
	}
	points := engine.Parallelize(sess, sp.points(), 0).Cache()
	value := make(KMeansValue, sp.Configs)
	for _, cfg := range sp.configs() {
		means := append([]ml.Point(nil), cfg.Init...)
		for it := 0; it < sp.MaxIters; it++ {
			cur := means
			// Cluster indices are a bounded key set: the aggregate's
			// cardinality (and shuffle volume) does not scale with the
			// points.
			sums := taskreg.ReduceByKeyBound(taskreg.MapArg(points, kmeansAssign, cur), kmeansSum, 0)
			collected, err := engine.CollectMap(sums) // one job per iteration
			if err != nil {
				return finish(kMeansName, InnerParallel, sess, nil, err)
			}
			next := make([]ml.Point, len(means))
			for i := range means {
				next[i] = collected[i].Mean(means[i])
			}
			shift := ml.MaxShift(means, next)
			means = next
			if shift < sp.Eps {
				break
			}
		}
		value[cfg.ID] = means
	}
	return finish(kMeansName, InnerParallel, sess, value, nil)
}

// runOuter is the outer-parallel workaround: one task per configuration,
// training sequentially inside the UDF. Parallelism is capped by Configs
// and each task holds (and pays for) the whole point sample.
func (sp KMeansSpec) runOuter(cc cluster.Config) Outcome {
	sess, err := newSession(cc)
	if err != nil {
		return failed(kMeansName, OuterParallel, err)
	}
	w := recordWeight(sess)
	pts := sp.points()
	ptsBytes := int64(float64(sizeest.Of(pts)) * w)
	configs := engine.Parallelize(sess, sp.configs(), 0).Unscaled()
	results := engine.MapCtx(configs, func(tc *engine.Ctx, cfg kmConfig) engine.Pair[int, []ml.Point] {
		res := ml.KMeansSeq(pts, cfg.Init, sp.Eps, sp.MaxIters)
		tc.Charge(int64(float64(res.Ops) * w))
		tc.UseMemory(ptsBytes)
		return engine.KV(cfg.ID, res.Means)
	})
	value, err := engine.CollectMap(results)
	if err != nil {
		return finish(kMeansName, OuterParallel, sess, nil, err)
	}
	return finish(kMeansName, OuterParallel, sess, KMeansValue(value), nil)
}
