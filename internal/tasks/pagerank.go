package tasks

import (
	"maps"
	"math"
	"slices"

	"matryoshka/internal/cluster"
	"matryoshka/internal/core"
	"matryoshka/internal/datagen"
	"matryoshka/internal/engine"
	"matryoshka/internal/graph"
)

// PageRankSpec parameterizes per-group PageRank (Sec. 9.1: "we perform a
// grouping of the graph edges and compute a separate PageRank for each
// group", as in Topic-Sensitive PageRank / BlockRank). For weak scaling,
// TotalEdges and TotalVertices stay constant and are divided among Groups.
type PageRankSpec struct {
	Groups        int
	TotalEdges    int
	TotalVertices int
	Eps           float64 // L1 rank-change convergence threshold
	MaxIters      int
	Skewed        bool    // Zipf group sizes (Sec. 9.5)
	Skew          float64 // Zipf exponent when Skewed (0 = datagen.DefaultZipfS)
	Seed          int64
	// NoCoPartition disables pre-partitioning of the loop's static join
	// inputs (edges, degrees), re-shuffling them every superstep — the
	// ablation for the engine's co-partitioning optimization.
	NoCoPartition bool
}

// PageRankValue maps group id to its vertices' ranks.
type PageRankValue = map[int64]map[int64]float64

const pageRankName = "pagerank"

func (sp PageRankSpec) data() []datagen.GroupedEdge {
	epg := sp.TotalEdges / sp.Groups
	vpg := sp.TotalVertices / sp.Groups
	if vpg < 2 {
		vpg = 2
	}
	return datagen.GroupedGraphSkew(sp.Groups, vpg, epg, zipfExponent(sp.Skewed, sp.Skew), sp.Seed)
}

// Reference computes every group's PageRank sequentially.
func (sp PageRankSpec) Reference() PageRankValue {
	perGroup := map[int64][]datagen.Edge{}
	for _, ge := range sp.data() {
		perGroup[ge.Group] = append(perGroup[ge.Group], ge.Edge)
	}
	out := make(PageRankValue, len(perGroup))
	for g, edges := range perGroup {
		out[g] = graph.PageRankSeq(edges, sp.Eps, sp.MaxIters).Ranks
	}
	return out
}

// Run executes the task under the given strategy.
func (sp PageRankSpec) Run(strat Strategy, cc cluster.Config) Outcome {
	switch strat {
	case Matryoshka:
		return sp.RunMatryoshka(cc, core.Options{})
	case InnerParallel:
		return sp.runInner(cc)
	case OuterParallel:
		return sp.runOuter(cc)
	case DIQL:
		return Outcome{Task: pageRankName, Strategy: DIQL, Err: ErrControlFlowUnsupported}
	}
	return Outcome{Task: pageRankName, Strategy: strat, Err: errUnknownStrategy(strat)}
}

// seqHashOpsFactor converts the hash-map-based operation counts of the
// sequential per-group algorithms (PageRankSeq, AvgDistancesSeq traverse
// maps per edge) into engine-loop element-equivalents: a map lookup plus
// bookkeeping costs roughly this many tight-loop element operations. It
// keeps the outer-parallel workaround's charged cost honest relative to
// the engine operators the other strategies are billed through.
const seqHashOpsFactor = 4

// prDN packs the per-group dangling mass and vertex count that the rank
// update needs as a closure (the initWeight pattern of Sec. 5).
type prDN struct {
	Dangling float64
	N        float64
}

// RunMatryoshka flattens the nested program: group the edges into a
// NestedBag and run one lifted PageRank over all groups, with the
// iteration lifted per Sec. 6 (groups converge at different iterations).
// opt is exposed for the Fig. 8 join-strategy ablation.
func (sp PageRankSpec) RunMatryoshka(cc cluster.Config, opt core.Options) Outcome {
	sess, err := newMatryoshkaSession(cc)
	if err != nil {
		return failed(pageRankName, Matryoshka, err)
	}
	pairs := make([]engine.Pair[int64, datagen.Edge], 0)
	for _, ge := range sp.data() {
		pairs = append(pairs, engine.KV(ge.Group, ge.Edge))
	}
	input := engine.Parallelize(sess, pairs, 0)
	nb, err := core.GroupByKeyIntoNestedBag(input, opt)
	if err != nil {
		return finish(pageRankName, Matryoshka, sess, nil, err)
	}
	ctx := nb.Ctx()
	edges := nb.Inner.Cache()

	// Per-group vertex set, count, and out-degrees (0 for sink vertices).
	verts := core.DistinctBag(core.FlatMapBag(edges, func(e datagen.Edge) []int64 {
		return []int64{e.Src, e.Dst}
	})).Cache()
	n := core.CountBag(verts).Cache()
	degrees := core.ReduceByKeyBag(
		core.UnionBags(
			core.MapBag(edges, func(e datagen.Edge) engine.Pair[int64, int64] { return engine.KV(e.Src, int64(1)) }),
			core.MapBag(verts, func(v int64) engine.Pair[int64, int64] { return engine.KV(v, int64(0)) }),
		),
		func(a, b int64) int64 { return a + b }).Cache()
	edgesBySrc := core.MapBag(edges, func(e datagen.Edge) engine.Pair[int64, int64] {
		return engine.KV(e.Src, e.Dst)
	})
	// Static per-superstep join inputs. Normally hash-partitioned once and
	// cached so the loop shuffles only the (small) rank state each
	// iteration; the NoCoPartition ablation re-shuffles them per superstep.
	var joinRanksWithDegrees func(r core.InnerBag[engine.Pair[int64, float64]]) core.InnerBag[engine.Pair[int64, engine.Tuple2[float64, int64]]]
	var joinRanksWithEdges func(r core.InnerBag[engine.Pair[int64, float64]]) core.InnerBag[engine.Pair[int64, engine.Tuple2[float64, engine.Tuple2[int64, int64]]]]
	if sp.NoCoPartition {
		degreesC := degrees
		edgesDeg := core.JoinBags(edgesBySrc, degrees).Cache()
		joinRanksWithDegrees = func(r core.InnerBag[engine.Pair[int64, float64]]) core.InnerBag[engine.Pair[int64, engine.Tuple2[float64, int64]]] {
			return core.JoinBags(r, degreesC)
		}
		joinRanksWithEdges = func(r core.InnerBag[engine.Pair[int64, float64]]) core.InnerBag[engine.Pair[int64, engine.Tuple2[float64, engine.Tuple2[int64, int64]]]] {
			return core.JoinBags(r, edgesDeg)
		}
	} else {
		degreesKeyed := core.PartitionBagByKey(degrees)
		edgesDegKeyed := core.PartitionBagByKey(core.JoinBagsPartitioned(edgesBySrc, degreesKeyed))
		joinRanksWithDegrees = func(r core.InnerBag[engine.Pair[int64, float64]]) core.InnerBag[engine.Pair[int64, engine.Tuple2[float64, int64]]] {
			return core.JoinBagsPartitioned(r, degreesKeyed)
		}
		joinRanksWithEdges = func(r core.InnerBag[engine.Pair[int64, float64]]) core.InnerBag[engine.Pair[int64, engine.Tuple2[float64, engine.Tuple2[int64, int64]]]] {
			return core.JoinBagsPartitioned(r, edgesDegKeyed)
		}
	}

	// val initWeight = 1.0 / n; ranks = vertices.map(v => (v, initWeight))
	// — the closure example of Sec. 5.1, implemented as mapWithClosure.
	initWeight := core.UnaryScalarOp(n, func(c int64) float64 { return 1 / float64(c) })
	ranks0 := core.MapWithClosure(
		core.MapBag(verts, func(v int64) engine.Pair[int64, float64] { return engine.KV(v, 0.0) }),
		initWeight,
		func(p engine.Pair[int64, float64], w float64) engine.Pair[int64, float64] {
			return engine.KV(p.Key, w)
		})

	type loopState = core.State2[core.InnerBag[engine.Pair[int64, float64]], core.InnerScalar[int64]]
	ops := core.State2Ops(core.BagState[engine.Pair[int64, float64]](), core.ScalarState[int64]())
	init := loopState{A: ranks0, B: core.Pure(ctx, int64(0))}

	out, err := core.While(ctx, init, ops, func(c *core.Ctx, st loopState) (loopState, core.InnerScalar[bool], error) {
		ranks := st.A
		// rank/degree per vertex, contributions along edges.
		rankDeg := joinRanksWithDegrees(ranks)
		contribs := core.MapBag(
			joinRanksWithEdges(ranks),
			func(p engine.Pair[int64, engine.Tuple2[float64, engine.Tuple2[int64, int64]]]) engine.Pair[int64, float64] {
				return engine.KV(p.Val.B.A, p.Val.A/float64(p.Val.B.B))
			})
		sums := core.ReduceByKeyBag(
			core.UnionBags(contribs,
				core.MapBag(verts, func(v int64) engine.Pair[int64, float64] { return engine.KV(v, 0.0) })),
			func(a, b float64) float64 { return a + b })
		// Per-group dangling mass and n, packed as one closure scalar.
		dangling := core.AggregateBag(
			core.FilterBag(rankDeg, func(p engine.Pair[int64, engine.Tuple2[float64, int64]]) bool { return p.Val.B == 0 }),
			0.0,
			func(a float64, p engine.Pair[int64, engine.Tuple2[float64, int64]]) float64 { return a + p.Val.A },
			func(x, y float64) float64 { return x + y })
		dn := core.BinaryScalarOp(dangling, n, func(d float64, c int64) prDN {
			return prDN{Dangling: d, N: float64(c)}
		})
		newRanks := core.MapWithClosure(sums, dn,
			func(p engine.Pair[int64, float64], v prDN) engine.Pair[int64, float64] {
				return engine.KV(p.Key, (1-graph.Damping)/v.N+graph.Damping*(p.Val+v.Dangling/v.N))
			})
		// L1 delta between old and new ranks, per group.
		delta := core.AggregateBag(
			core.MapBag(core.JoinBags(newRanks, ranks),
				func(p engine.Pair[int64, engine.Tuple2[float64, float64]]) float64 {
					return math.Abs(p.Val.A - p.Val.B)
				}),
			0.0,
			func(a, d float64) float64 { return a + d },
			func(x, y float64) float64 { return x + y })
		iters := core.UnaryScalarOp(st.B, func(i int64) int64 { return i + 1 })
		cond := core.BinaryScalarOp(delta, iters, func(d float64, it int64) bool {
			return d >= sp.Eps && it < int64(sp.MaxIters)
		})
		return loopState{A: newRanks, B: iters}, cond, nil
	})
	if err != nil {
		return finish(pageRankName, Matryoshka, sess, nil, err)
	}

	value, err := collectGroupedRanks(nb, out.A)
	return finish(pageRankName, Matryoshka, sess, value, err)
}

func collectGroupedRanks(nb core.NestedBag[int64, datagen.Edge], ranks core.InnerBag[engine.Pair[int64, float64]]) (PageRankValue, error) {
	outer, err := nb.Outer.Collect()
	if err != nil {
		return nil, err
	}
	groups, err := ranks.CollectGroups()
	if err != nil {
		return nil, err
	}
	value := make(PageRankValue, len(outer))
	for tag, g := range outer {
		m := make(map[int64]float64, len(groups[tag]))
		for _, kv := range groups[tag] {
			m[kv.Key] = kv.Val
		}
		value[g] = m
	}
	return value, nil
}

// runInner loops over groups in the driver, running each group's PageRank
// as flat jobs (one collect per iteration).
func (sp PageRankSpec) runInner(cc cluster.Config) Outcome {
	sess, err := newSession(cc)
	if err != nil {
		return failed(pageRankName, InnerParallel, err)
	}
	pairs := make([]engine.Pair[int64, datagen.Edge], 0)
	groupIDs := map[int64]bool{}
	for _, ge := range sp.data() {
		pairs = append(pairs, engine.KV(ge.Group, ge.Edge))
		groupIDs[ge.Group] = true
	}
	all := engine.Parallelize(sess, pairs, 0).Cache()
	value := make(PageRankValue, len(groupIDs))
	// In key order, not map order: the clock is a float sum over the jobs.
	for _, g := range slices.Sorted(maps.Keys(groupIDs)) {
		gid := g
		edges := engine.Values(engine.Filter(all, func(p engine.Pair[int64, datagen.Edge]) bool { return p.Key == gid })).Cache()
		ranks, err := enginePageRank(sess, edges, sp.Eps, sp.MaxIters)
		if err != nil {
			return finish(pageRankName, InnerParallel, sess, nil, err)
		}
		value[g] = ranks
	}
	return finish(pageRankName, InnerParallel, sess, value, nil)
}

// enginePageRank runs one flat PageRank with a driver loop, collecting the
// ranks each iteration (the standard inner-parallel implementation shape:
// one setup job for the adjacency, then one job per iteration).
func enginePageRank(sess *engine.Session, edges engine.Dataset[datagen.Edge], eps float64, maxIters int) (map[int64]float64, error) {
	adjD := engine.ReduceByKey(
		engine.FlatMap(edges, func(e datagen.Edge) []engine.Pair[int64, []int64] {
			// Emit the sink endpoint too so every vertex has an entry.
			return []engine.Pair[int64, []int64]{engine.KV(e.Src, []int64{e.Dst}), engine.KV(e.Dst, []int64(nil))}
		}),
		func(a, b []int64) []int64 { return append(append([]int64(nil), a...), b...) })
	adj, err := engine.CollectMap(adjD)
	if err != nil {
		return nil, err
	}
	// Sorted: verts is a dataset (its order is what each partition holds and
	// ships) and the order dangling and delta are summed in.
	verts := slices.Sorted(maps.Keys(adj))
	n := float64(len(verts))
	if n == 0 {
		return map[int64]float64{}, nil
	}
	ranks := make(map[int64]float64, len(verts))
	for _, v := range verts {
		ranks[v] = 1 / n
	}
	vD := engine.Parallelize(sess, verts, 0).Cache()
	for it := 0; it < maxIters; it++ {
		cur := ranks
		var dangling float64
		for _, v := range verts {
			if len(adj[v]) == 0 {
				dangling += cur[v]
			}
		}
		contribsD := engine.ReduceByKey(
			engine.FlatMap(vD, func(v int64) []engine.Pair[int64, float64] {
				outs := adj[v]
				share := cur[v] / float64(len(outs))
				res := make([]engine.Pair[int64, float64], len(outs))
				for i, w := range outs {
					res[i] = engine.KV(w, share)
				}
				return res
			}),
			func(a, b float64) float64 { return a + b })
		contribs, err := engine.CollectMap(contribsD) // one job per iteration
		if err != nil {
			return nil, err
		}
		next := make(map[int64]float64, len(verts))
		var delta float64
		for _, v := range verts {
			nv := (1-graph.Damping)/n + graph.Damping*(contribs[v]+dangling/n)
			delta += math.Abs(nv - cur[v])
			next[v] = nv
		}
		ranks = next
		if delta < eps {
			break
		}
	}
	return ranks, nil
}

// runOuter groups the edges and runs the whole sequential PageRank inside
// the group UDF (parallelism capped by Groups; skewed groups OOM).
func (sp PageRankSpec) runOuter(cc cluster.Config) Outcome {
	sess, err := newSession(cc)
	if err != nil {
		return failed(pageRankName, OuterParallel, err)
	}
	pairs := make([]engine.Pair[int64, datagen.Edge], 0)
	for _, ge := range sp.data() {
		pairs = append(pairs, engine.KV(ge.Group, ge.Edge))
	}
	w := recordWeight(sess)
	grouped := engine.GroupByKey(engine.Parallelize(sess, pairs, 0))
	results := engine.MapCtx(grouped, func(tc *engine.Ctx, p engine.Pair[int64, []datagen.Edge]) engine.Pair[int64, map[int64]float64] {
		res := graph.PageRankSeq(p.Val, sp.Eps, sp.MaxIters)
		tc.Charge(int64(float64(res.Ops) * w * seqHashOpsFactor))
		return engine.KV(p.Key, res.Ranks)
	})
	value, err := engine.CollectMap(results)
	if err != nil {
		return finish(pageRankName, OuterParallel, sess, nil, err)
	}
	return finish(pageRankName, OuterParallel, sess, PageRankValue(value), nil)
}
