package core

import (
	"fmt"

	"matryoshka/internal/engine"
	"matryoshka/internal/obs"
)

// This file is the lowering phase's optimizer (Sec. 8). Every decision uses
// information the nesting primitives expose *before* the data is computed:
// the InnerScalar size (= tag count) from the LiftingContext, and the fact
// that tags are unique join keys.
//
// Each rule logs its choice — and the observed sizes that justified it — to
// the session's event recorder (engine.Config.Obs), so EXPLAIN ANALYZE can
// show why every physical implementation was picked.

// decide records an optimizer decision on the session's event spine.
func (c *Ctx) decide(rule, choice string, forced bool, whyFormat string, args ...any) {
	rec := c.Sess.Obs()
	if !rec.Enabled() {
		return
	}
	rec.Decide(obs.Decision{Rule: rule, Choice: choice, Forced: forced, Why: fmt.Sprintf(whyFormat, args...)})
}

// defaultScalarsPerPartition targets enough elements per partition that the
// per-partition overhead does not dominate (Sec. 8.1: "it is important to
// set the number of partitions in accordance with the bag's size").
const defaultScalarsPerPartition = 4096

// partsFor picks the partition count for a bag of `size` InnerScalar
// elements: as few partitions as keep per-partition work reasonable, capped
// by the engine's default parallelism.
func (c *Ctx) partsFor(size int64) int {
	target := c.Opt.TargetScalarsPerPartition
	if target <= 0 {
		target = defaultScalarsPerPartition
	}
	p := int((size + target - 1) / target)
	if p < 1 {
		p = 1
	}
	if max := c.Sess.DefaultParallelism(); p > max {
		p = max
	}
	// Run-time feedback: if adaptive recovery had to raise partition counts
	// to survive a task OOM in this session, start later lowerings at the
	// raised factor instead of rediscovering the OOM.
	if boost := c.Sess.Feedback().PartsBoost(); boost > 1 {
		p *= boost
		c.decide("partitions", fmt.Sprintf("%d", p), true,
			"retried-after-OOM: session feedback raised partition counts %dx after a task OOM", boost)
		return p
	}
	c.decide("partitions", fmt.Sprintf("%d", p), false,
		"Sec. 8.1: %d inner scalars / target %d per partition, capped at parallelism %d", size, target, c.Sess.DefaultParallelism())
	return p
}

// ScalarJoinStrategy picks the algorithm for an InnerScalar⋈InnerScalar
// tag join (binaryScalarOp, Sec. 4.3). Both sides have exactly Size
// elements with unique keys, so: repartition when there are enough
// elements to fill every partition of the engine's default parallelism
// (the paper sets parallelism to 3x the core count, Sec. 9.1), broadcast
// otherwise (Sec. 8.2). Broadcasting below the threshold also keeps tag
// joins skew-immune: a repartition join partitioned by the tag would put a
// Zipf head group's entire state into one task (cf. Sec. 9.5).
func (c *Ctx) ScalarJoinStrategy() engine.JoinStrategy { return c.tagJoinStrategy("scalar-join") }

// BagScalarJoinStrategy picks the algorithm for an InnerBag⋈InnerScalar
// tag join (mapWithClosure, Sec. 5.1; the loop-condition join of Listing 4,
// line 5). The InnerScalar side is the *left* input of the join. Broadcast
// the scalar side while it is small; repartition once it is large enough to
// occupy the cluster (Sec. 8.2).
func (c *Ctx) BagScalarJoinStrategy() engine.JoinStrategy {
	return c.tagJoinStrategy("bag-scalar-join")
}

// tagJoinStrategy is the one rule behind both tag joins, recorded under
// rule: an override, then a broadcast denied after an OOM, then the size
// threshold of Sec. 8.2.
func (c *Ctx) tagJoinStrategy(rule string) engine.JoinStrategy {
	if f := c.Opt.ForceScalarJoin; f != nil {
		c.decide(rule, f.String(), true, "Options.ForceScalarJoin override")
		return *f
	}
	if why, denied := c.Sess.Feedback().Denied("join", "broadcast"); denied {
		c.decide(rule, engine.JoinRepartition.String(), true, "retried-after-OOM: %s", why)
		return engine.JoinRepartition
	}
	if c.Size >= int64(c.Sess.DefaultParallelism()) {
		c.decide(rule, engine.JoinRepartition.String(), false,
			"Sec. 8.2: %d tags >= parallelism %d", c.Size, c.Sess.DefaultParallelism())
		return engine.JoinRepartition
	}
	c.decide(rule, engine.JoinBroadcastLeft.String(), false,
		"Sec. 8.2: %d tags < parallelism %d", c.Size, c.Sess.DefaultParallelism())
	return engine.JoinBroadcastLeft
}

// ShredChoice selects the physical representation of a nested bag built
// by GroupByKeyIntoNestedBag: materialize each group's inner bag in one
// task at consumption boundaries (the paper's lowering), or keep the
// shredded flat/dictionary form (internal/shred) and un-shred through a
// spill group-by plus dictionary join. Both produce bit-identical
// nested values; they differ in where the memory goes.
type ShredChoice int

const (
	// ShredMaterialized builds each group's inner bag in one task
	// (engine.GroupByKey) when the nested value is consumed.
	ShredMaterialized ShredChoice = iota
	// ShredShredded keeps inner-bag contents as a flat dictionary and
	// un-shreds through the spill group build (shred.Unshred).
	ShredShredded
)

func (s ShredChoice) String() string {
	if s == ShredMaterialized {
		return "materialized"
	}
	return "shredded"
}

// ForceShredChoice builds the Options override for a ShredChoice.
func ForceShredChoice(s ShredChoice) *ShredChoice { return &s }

// shredBytesPerRow is the assumed real bytes per inner row when sizing a
// group build — the same figure the benchmarks use for record weight
// (bench realBytesPerRecord).
const shredBytesPerRow = 48

// ShredStrategy picks the nested-bag representation from the observed
// group structure: the shredded form wins exactly when materializing the
// largest group in a single task would eat more than half a machine
// (the group's task never runs alone in a wave), after honoring an
// explicit override and this session's OOM feedback.
func (c *Ctx) ShredStrategy(groups, maxGroup, total int64, weight float64) ShredChoice {
	if f := c.Opt.ForceShred; f != nil {
		c.decide("shred", f.String(), true, "Options.ForceShred override")
		return *f
	}
	if why, denied := c.Sess.Feedback().Denied("shred", "materialized"); denied {
		c.decide("shred", ShredShredded.String(), true, "retried-after-OOM: %s", why)
		return ShredShredded
	}
	cl := c.Sess.Config().Cluster
	est := int64(float64(maxGroup) * weight * shredBytesPerRow * cl.MemoryOverheadFactor)
	budget := cl.MemoryPerMachine / 2
	if est > budget {
		c.decide("shred", ShredShredded.String(), false,
			"largest of %d groups has %d rows (of %d): materializing it is ~%dMB resident, over the %dMB half-machine budget",
			groups, maxGroup, total, est>>20, budget>>20)
		return ShredShredded
	}
	c.decide("shred", ShredMaterialized.String(), false,
		"largest of %d groups has %d rows (of %d): materializing it is ~%dMB resident, within the %dMB half-machine budget",
		groups, maxGroup, total, est>>20, budget>>20)
	return ShredMaterialized
}

// HalfLiftedChoice selects the broadcast side of a half-lifted
// mapWithClosure (Sec. 8.3), which is a cross product between the bag
// representing an InnerScalar and a primary input bag from outside the
// lifted UDF.
type HalfLiftedChoice int

const (
	// BroadcastScalar replicates the InnerScalar side.
	BroadcastScalar HalfLiftedChoice = iota
	// BroadcastPrimary replicates the outside (primary) bag.
	BroadcastPrimary
)

func (h HalfLiftedChoice) String() string {
	if h == BroadcastScalar {
		return "broadcast-scalar"
	}
	return "broadcast-primary"
}

// ForceHalf builds the Options override for a HalfLiftedChoice.
func ForceHalf(h HalfLiftedChoice) *HalfLiftedChoice { return &h }

// HalfLiftedStrategy implements Sec. 8.3 verbatim: "If the InnerScalar has
// only 1 partition, we broadcast it. This is quick to check, and it is also
// the common case due to the optimization in Sec. 8.1. Otherwise, we use
// the SizeEstimator to compare the sizes of the two inputs and broadcast
// the smaller one." Unknown sizes are passed as -1.
func (c *Ctx) HalfLiftedStrategy(scalarBytes, primaryBytes int64) HalfLiftedChoice {
	if f := c.Opt.ForceHalfLifted; f != nil {
		c.decide("half-lifted", f.String(), true, "Options.ForceHalfLifted override")
		return *f
	}
	// Run-time feedback: never re-pick a side that adaptive recovery
	// demoted after an OOM in this session.
	fb := c.Sess.Feedback()
	if why, denied := fb.Denied("half-lifted", BroadcastScalar.String()); denied {
		if _, both := fb.Denied("half-lifted", BroadcastPrimary.String()); !both {
			c.decide("half-lifted", BroadcastPrimary.String(), true, "retried-after-OOM: %s", why)
			return BroadcastPrimary
		}
	}
	if why, denied := fb.Denied("half-lifted", BroadcastPrimary.String()); denied {
		c.decide("half-lifted", BroadcastScalar.String(), true, "retried-after-OOM: %s", why)
		return BroadcastScalar
	}
	if c.Parts == 1 {
		c.decide("half-lifted", BroadcastScalar.String(), false, "Sec. 8.3: InnerScalar has 1 partition")
		return BroadcastScalar
	}
	if scalarBytes >= 0 && primaryBytes >= 0 && primaryBytes < scalarBytes {
		c.decide("half-lifted", BroadcastPrimary.String(), false,
			"Sec. 8.3: primary %dB < scalar %dB (SizeEstimator)", primaryBytes, scalarBytes)
		return BroadcastPrimary
	}
	c.decide("half-lifted", BroadcastScalar.String(), false,
		"Sec. 8.3: scalar %dB <= primary %dB (or size unknown)", scalarBytes, primaryBytes)
	return BroadcastScalar
}
