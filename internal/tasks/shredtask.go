package tasks

import (
	"matryoshka/internal/cluster"
	"matryoshka/internal/core"
	"matryoshka/internal/datagen"
	"matryoshka/internal/engine"
)

// ShredSpec parameterizes the nested-materialization workload behind the
// sec-shred experiment: visits grouped by day where every group's full
// visitor log must be materialized at a consumption boundary
// (core.CollectNested) — the un-shred boundary that separates the
// materialized and shredded lowerings. A Zipf day distribution
// concentrates most rows in one group, which is exactly the workload the
// materialized lowering's single-task group build cannot survive; the
// bounce-rate and pagerank tasks never cross this boundary (their lifted
// dataflow is shared by both lowerings verbatim), so this task is where
// the shred choice has observable cost.
type ShredSpec struct {
	Visits int
	Days   int
	Skew   float64 // Zipf day exponent (> 1); 0 = uniform days
	Seed   int64
}

// ShredGroup is one day's result: the materialized row count, the
// lifted distinct-visitor count, and an order-sensitive checksum of the
// materialized rows — so the cross-lowering A/B tests catch any
// reordering, not just multiset changes.
type ShredGroup struct {
	Rows     int64
	Visitors int64
	Check    uint64
}

// ShredValue maps day -> its group summary.
type ShredValue = map[int64]ShredGroup

const shredName = "shred"

func (sp ShredSpec) data() []engine.Pair[int64, int64] {
	visits := datagen.VisitsSkew(sp.Visits, sp.Days, sp.Skew, sp.Seed)
	pairs := make([]engine.Pair[int64, int64], len(visits))
	for i, v := range visits {
		pairs[i] = engine.KV(v.Day, v.IP)
	}
	return pairs
}

// shredCheck folds a group's rows, in order, through FNV-1a.
func shredCheck(ips []int64) uint64 {
	h := uint64(14695981039346656037)
	for _, ip := range ips {
		for s := 0; s < 64; s += 8 {
			h ^= uint64(byte(ip >> s))
			h *= 1099511628211
		}
	}
	return h
}

// Reference computes the task sequentially in driver memory. Per-group
// row order is input order — the same order every lowering's group
// build emits (source-partition-major), so even Check matches.
func (sp ShredSpec) Reference() ShredValue {
	groups := map[int64][]int64{}
	for _, p := range sp.data() {
		groups[p.Key] = append(groups[p.Key], p.Val)
	}
	out := make(ShredValue, len(groups))
	for day, ips := range groups {
		distinct := map[int64]struct{}{}
		for _, ip := range ips {
			distinct[ip] = struct{}{}
		}
		out[day] = ShredGroup{
			Rows:     int64(len(ips)),
			Visitors: int64(len(distinct)),
			Check:    shredCheck(ips),
		}
	}
	return out
}

// Run executes the task under the Matryoshka strategy (the only one: the
// workload exists to compare that strategy's two nested-bag lowerings,
// selected via RunMatryoshka's core.Options.ForceShred).
func (sp ShredSpec) Run(cc cluster.Config) Outcome {
	return sp.RunMatryoshka(cc, core.Options{})
}

// RunMatryoshka groups the visits into a NestedBag, runs one lifted pass
// over the dictionary (distinct visitors per day), then crosses the
// un-shred boundary by materializing every group's rows.
func (sp ShredSpec) RunMatryoshka(cc cluster.Config, opt core.Options) Outcome {
	sess, err := newMatryoshkaSession(cc)
	if err != nil {
		return failed(shredName, Matryoshka, err)
	}
	visits := engine.Parallelize(sess, sp.data(), 0)
	nb, err := core.GroupByKeyIntoNestedBag(visits, opt)
	if err != nil {
		return finish(shredName, Matryoshka, sess, nil, err)
	}
	// Lifted pass: distinct visitors per day, flat dataflow either way.
	numVisitors := core.CountBag(core.DistinctBag(nb.Inner))
	keyed := core.BinaryScalarOp(nb.Outer, numVisitors, func(day int64, v int64) engine.Pair[int64, int64] {
		return engine.KV(day, v)
	})
	tagged, err := keyed.Collect()
	if err != nil {
		return finish(shredName, Matryoshka, sess, nil, err)
	}
	// The consumption boundary: materialize every group's rows through
	// the lowering the shred rule picked.
	groups, err := core.CollectNested(nb)
	if err != nil {
		return finish(shredName, Matryoshka, sess, nil, err)
	}
	value := make(ShredValue, len(groups))
	for day, ips := range groups {
		value[day] = ShredGroup{Rows: int64(len(ips)), Check: shredCheck(ips)}
	}
	for _, kv := range tagged {
		g := value[kv.Key]
		g.Visitors = kv.Val
		value[kv.Key] = g
	}
	return finish(shredName, Matryoshka, sess, value, nil)
}
