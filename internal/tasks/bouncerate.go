package tasks

import (
	"matryoshka/internal/cluster"
	"matryoshka/internal/core"
	"matryoshka/internal/datagen"
	"matryoshka/internal/engine"
)

// BounceRateSpec parameterizes the per-day bounce-rate task (Sec. 2.1):
// the ratio of single-page visitors to all visitors, per day. Days are the
// inner computations; Visits is the total input size.
type BounceRateSpec struct {
	Visits int
	Days   int
	Skewed bool    // Zipf day distribution (Sec. 9.5)
	Skew   float64 // Zipf exponent when Skewed (0 = datagen.DefaultZipfS)
	Seed   int64
}

// BounceRates is the task's value: day -> bounce rate.
type BounceRates = map[int64]float64

const bounceRateName = "bounce-rate"

func (sp BounceRateSpec) data() []engine.Pair[int64, int64] {
	visits := datagen.VisitsSkew(sp.Visits, sp.Days, zipfExponent(sp.Skewed, sp.Skew), sp.Seed)
	pairs := make([]engine.Pair[int64, int64], len(visits))
	for i, v := range visits {
		pairs[i] = engine.KV(v.Day, v.IP)
	}
	return pairs
}

// Reference computes the task sequentially in driver memory (ground truth
// for tests; not an execution strategy).
func (sp BounceRateSpec) Reference() BounceRates {
	perDay := map[int64]map[int64]int{}
	for _, v := range sp.data() {
		m := perDay[v.Key]
		if m == nil {
			m = map[int64]int{}
			perDay[v.Key] = m
		}
		m[v.Val]++
	}
	out := make(BounceRates, len(perDay))
	for day, counts := range perDay {
		bounces := 0
		for _, n := range counts {
			if n == 1 {
				bounces++
			}
		}
		out[day] = float64(bounces) / float64(len(counts))
	}
	return out
}

// Run executes the task under the given strategy on a fresh simulated
// cluster.
func (sp BounceRateSpec) Run(strat Strategy, cc cluster.Config) Outcome {
	switch strat {
	case Matryoshka:
		return sp.RunMatryoshka(cc, core.Options{})
	case InnerParallel:
		return sp.runInner(cc)
	case OuterParallel:
		return sp.runOuter(cc, OuterParallel)
	case DIQL:
		// DIQL fails to flatten this program and applies the
		// outer-parallel workaround instead (Sec. 9.4), without
		// runtime optimizations.
		return sp.runOuter(cc, DIQL)
	}
	return Outcome{Task: bounceRateName, Strategy: strat, Err: errUnknownStrategy(strat)}
}

func errUnknownStrategy(s Strategy) error {
	return &unknownStrategyError{s}
}

type unknownStrategyError struct{ s Strategy }

func (e *unknownStrategyError) Error() string { return "tasks: unknown strategy " + string(e.s) }

// RunMatryoshka is the paper's Listings 1-3 end to end: the nested program
// expressed with the nesting primitives (Listing 2), lowered to the flat
// plan (Listing 3) at run time.
func (sp BounceRateSpec) RunMatryoshka(cc cluster.Config, opt core.Options) Outcome {
	sess, err := newMatryoshkaSession(cc)
	if err != nil {
		return failed(bounceRateName, Matryoshka, err)
	}
	visits := engine.Parallelize(sess, sp.data(), 0)
	nb, err := core.GroupByKeyIntoNestedBag(visits, opt)
	if err != nil {
		return finish(bounceRateName, Matryoshka, sess, nil, err)
	}
	// val countsPerIP = group.map((_, 1)).reduceByKey(_+_)
	countsPerIP := core.ReduceByKeyBag(
		core.MapBag(nb.Inner, func(ip int64) engine.Pair[int64, int64] { return engine.KV(ip, int64(1)) }),
		func(a, b int64) int64 { return a + b })
	// val numBounces = countsPerIP.filter(_._2 == 1).count()
	numBounces := core.CountBag(core.FilterBag(countsPerIP, func(p engine.Pair[int64, int64]) bool { return p.Val == 1 }))
	// val numTotalVisitors = group.distinct().count()
	numTotal := core.CountBag(core.DistinctBag(nb.Inner))
	// val bounceRate = binaryScalarOp(numBounces, numTotalVisitors)(_ / _)
	rate := core.BinaryScalarOp(numBounces, numTotal, func(b, t int64) float64 {
		return float64(b) / float64(t)
	})
	// Output: pair each group's key with its rate.
	keyed := core.BinaryScalarOp(nb.Outer, rate, func(day int64, r float64) engine.Pair[int64, float64] {
		return engine.KV(day, r)
	})
	tagged, err := keyed.Collect()
	if err != nil {
		return finish(bounceRateName, Matryoshka, sess, nil, err)
	}
	value := make(BounceRates, len(tagged))
	for _, kv := range tagged {
		value[kv.Key] = kv.Val
	}
	return finish(bounceRateName, Matryoshka, sess, value, nil)
}

// runInner is the inner-parallel workaround: one driver loop over days,
// each day's bounce rate computed by flat dataflow jobs over the filtered
// input.
func (sp BounceRateSpec) runInner(cc cluster.Config) Outcome {
	sess, err := newSession(cc)
	if err != nil {
		return failed(bounceRateName, InnerParallel, err)
	}
	visits := engine.Parallelize(sess, sp.data(), 0).Cache()
	days, err := engine.Collect(engine.Distinct(engine.Keys(visits)))
	if err != nil {
		return finish(bounceRateName, InnerParallel, sess, nil, err)
	}
	value := make(BounceRates, len(days))
	for _, day := range days {
		group := engine.Values(engine.Filter(visits, func(p engine.Pair[int64, int64]) bool { return p.Key == day }))
		counts := engine.ReduceByKey(
			engine.Map(group, func(ip int64) engine.Pair[int64, int64] { return engine.KV(ip, int64(1)) }),
			func(a, b int64) int64 { return a + b })
		bounces, err := engine.Count(engine.Filter(counts, func(p engine.Pair[int64, int64]) bool { return p.Val == 1 }))
		if err != nil {
			return finish(bounceRateName, InnerParallel, sess, nil, err)
		}
		total, err := engine.Count(engine.Distinct(group))
		if err != nil {
			return finish(bounceRateName, InnerParallel, sess, nil, err)
		}
		value[day] = float64(bounces) / float64(total)
	}
	return finish(bounceRateName, InnerParallel, sess, value, nil)
}

// runOuter is the outer-parallel workaround (and the plan DIQL degenerates
// to): groupByKey materializes each day's visits in one task, and the UDF
// computes the bounce rate sequentially over the in-memory array.
func (sp BounceRateSpec) runOuter(cc cluster.Config, label Strategy) Outcome {
	sess, err := newSession(cc)
	if err != nil {
		return failed(bounceRateName, label, err)
	}
	w := recordWeight(sess)
	visits := engine.Parallelize(sess, sp.data(), 0)
	grouped := engine.GroupByKey(visits)
	// DIQL's generated plan runs the group UDF through its generic
	// iterator stack with no runtime optimization (Sec. 9.4); its
	// per-element cost is several times a hand-written loop's.
	udfFactor := 3.0
	if label == DIQL {
		udfFactor = 9
	}
	rates := engine.MapCtx(grouped, func(tc *engine.Ctx, p engine.Pair[int64, []int64]) engine.Pair[int64, float64] {
		tc.Charge(int64(udfFactor * float64(len(p.Val)) * w)) // count-per-IP + filter + distinct passes
		counts := make(map[int64]int, len(p.Val))
		for _, ip := range p.Val {
			counts[ip]++
		}
		bounces := 0
		for _, n := range counts {
			if n == 1 {
				bounces++
			}
		}
		return engine.KV(p.Key, float64(bounces)/float64(len(counts)))
	})
	value, err := engine.CollectMap(rates)
	if err != nil {
		return finish(bounceRateName, label, sess, nil, err)
	}
	return finish(bounceRateName, label, sess, BounceRates(value), nil)
}
