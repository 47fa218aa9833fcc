// Package core implements Matryoshka's primary contribution: the nesting
// primitives and runtime lowering machinery of the paper's two-phase
// flattening process.
//
// The parsing phase (internal/ir, or a user writing against this package
// directly, which corresponds to the explicitly nested-parallel program of
// the paper's Listing 2) produces programs over three nesting primitives:
//
//   - InnerScalar[S] — a scalar inside a lifted UDF (Sec. 4.3), represented
//     at run time by a flat Bag[(Tag, S)];
//   - InnerBag[E] — a bag inside a lifted UDF (Sec. 4.4), represented by a
//     flat Bag[(Tag, E)];
//   - NestedBag[O, I] — a nested bag outside any UDF (Sec. 4.5), represented
//     by an InnerScalar[O] plus an InnerBag[I].
//
// The lowering phase is this package's operation set: each call resolves to
// flat engine operators, choosing physical implementations (join algorithm,
// partition counts, broadcast side) at run time from the cardinalities
// tracked in the LiftingContext (Sec. 8). Control flow inside lifted UDFs is
// handled by While and If (Sec. 6, Listing 4).
package core

import (
	"matryoshka/internal/engine"
)

// Options carries optimizer overrides, used by the benchmarks of Sec. 9.6
// to force a physical choice and measure the gap to the optimizer's pick.
type Options struct {
	// ForceScalarJoin, when non-nil, fixes the join algorithm for every
	// tag join (InnerScalar⋈InnerScalar and InnerBag⋈InnerScalar)
	// instead of letting the optimizer decide (Fig. 8 left).
	ForceScalarJoin *engine.JoinStrategy
	// ForceHalfLifted, when non-nil, fixes the half-lifted
	// mapWithClosure broadcast side (Fig. 8 right).
	ForceHalfLifted *HalfLiftedChoice
	// ForceShred, when non-nil, fixes the nested-bag representation
	// (materialized vs shredded) instead of letting ShredStrategy pick
	// from observed group sizes.
	ForceShred *ShredChoice
	// TargetScalarsPerPartition overrides the partition-count rule of
	// Sec. 8.1 (0 = default).
	TargetScalarsPerPartition int64
	// MaxLoopIterations bounds lifted while loops
	// (0 = DefaultMaxIterations).
	MaxLoopIterations int
}

// Force helpers for building Options literals.
func ForceJoin(s engine.JoinStrategy) *engine.JoinStrategy { return &s }

// Ctx is the LiftingContext of Sec. 8.1: per lifted UDF, it records the set
// of tags (one per original UDF invocation) and their count, which is the
// exact size of every InnerScalar inside the UDF. All lifted operations
// receive it and consult it for physical decisions.
type Ctx struct {
	Sess *engine.Session
	// Tags holds every tag of this lifted UDF, cached. Operations that
	// must produce output for empty inner bags (e.g. count) read it
	// (Sec. 4.4, "we store the bag of tags once per lifted UDF").
	Tags engine.Dataset[engine.Tag]
	// Size is the number of tags — known *before* any InnerScalar inside
	// the UDF is computed, which is what enables the optimizations of
	// Sec. 8 (partition counts, join algorithm, broadcast side).
	Size int64
	// Parts is the partition count the optimizer chose for
	// InnerScalar-sized bags in this UDF.
	Parts int
	Opt   Options
}

// NewContext creates a LiftingContext. tags must enumerate each tag exactly
// once; it is cached here. The partition count is sized by the *real* tag
// cardinality — simulated count times the tag dataset's record weight — so
// deeper, data-scaled tag sets get proportionally more partitions.
func NewContext(sess *engine.Session, tags engine.Dataset[engine.Tag], size int64, opt Options) *Ctx {
	c := &Ctx{Sess: sess, Tags: tags.Cache(), Size: size, Opt: opt}
	c.Parts = c.partsFor(realSize(size, c.Tags))
	return c
}

// withTags derives the context of a restricted tag set (loop continuation,
// if-branch). tags must already be cached.
func (c *Ctx) withTags(tags engine.Dataset[engine.Tag], size int64) *Ctx {
	nc := &Ctx{Sess: c.Sess, Tags: tags, Size: size, Opt: c.Opt}
	nc.Parts = nc.partsFor(realSize(size, tags))
	return nc
}

func realSize(size int64, tags engine.Dataset[engine.Tag]) int64 {
	return int64(float64(size) * tags.Weight())
}
