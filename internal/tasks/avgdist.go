package tasks

import (
	"maps"
	"slices"

	"matryoshka/internal/cluster"
	"matryoshka/internal/core"
	"matryoshka/internal/datagen"
	"matryoshka/internal/engine"
	"matryoshka/internal/graph"
)

// AvgDistSpec parameterizes Average Distances (Sec. 2.2): find the
// connected components of a graph, then compute the average shortest-path
// distance between all vertex pairs of each component —
// connectedComps(g).map(avgDistances). The task has three levels of
// parallelism: components x BFS sources x the BFS itself (Sec. 9.1).
type AvgDistSpec struct {
	Components        int
	VerticesPerComp   int
	ExtraEdgesPerComp int
	Seed              int64
	// Weight is the simulation scale for this task (real records per
	// simulated edge; 0 or 1 = unscaled). Average Distances is sized
	// directly in vertices rather than GB — all-pairs BFS work grows
	// quadratically in the vertex count, so a record-weight derived
	// from bytes would be incoherent. The task therefore overrides the
	// cluster's RecordWeight with its own.
	Weight float64
}

// AvgDistValue maps component id (its minimum vertex id) to the average
// pairwise distance within the component.
type AvgDistValue = map[int64]float64

const avgDistName = "avg-distances"

func (sp AvgDistSpec) data() []datagen.Edge {
	return datagen.ComponentsGraph(sp.Components, sp.VerticesPerComp, sp.ExtraEdgesPerComp, sp.Seed)
}

// Reference computes the task sequentially.
func (sp AvgDistSpec) Reference() AvgDistValue {
	edges := sp.data()
	comps := graph.ConnectedComponentsSeq(edges).Comp
	perComp := map[int64][]datagen.Edge{}
	for _, e := range edges {
		perComp[comps[e.Src]] = append(perComp[comps[e.Src]], e)
	}
	out := make(AvgDistValue, len(perComp))
	for c, es := range perComp {
		out[c] = graph.AvgDistancesSeq(es).Avg
	}
	return out
}

// Run executes the task under the given strategy.
func (sp AvgDistSpec) Run(strat Strategy, cc cluster.Config) Outcome {
	if sp.Weight >= 1 {
		cc.RecordWeight = sp.Weight
	} else {
		cc.RecordWeight = 1
	}
	switch strat {
	case Matryoshka:
		return sp.runMatryoshka(cc)
	case InnerParallel:
		return sp.runInner(cc)
	case OuterParallel:
		return sp.runOuter(cc)
	case DIQL:
		return Outcome{Task: avgDistName, Strategy: DIQL, Err: ErrControlFlowUnsupported}
	}
	return Outcome{Task: avgDistName, Strategy: strat, Err: errUnknownStrategy(strat)}
}

// engineConnectedComponents is the flat label-propagation step all
// strategies share (it is the outermost, already-flat part of the
// program): vertex -> min vertex id of its component.
func engineConnectedComponents(sess *engine.Session, edges engine.Dataset[datagen.Edge]) (engine.Dataset[engine.Pair[int64, int64]], error) {
	labels := engine.Map(
		engine.Distinct(engine.FlatMap(edges, func(e datagen.Edge) []int64 { return []int64{e.Src, e.Dst} })),
		func(v int64) engine.Pair[int64, int64] { return engine.KV(v, v) }).Cache()
	edgesBySrc := engine.Map(edges, func(e datagen.Edge) engine.Pair[int64, int64] {
		return engine.KV(e.Src, e.Dst)
	}).Cache()
	for {
		prev := labels
		propagated := engine.Map(
			engine.Join(labels, edgesBySrc),
			func(p engine.Pair[int64, engine.Tuple2[int64, int64]]) engine.Pair[int64, int64] {
				return engine.KV(p.Val.B, p.Val.A) // neighbour gets my label
			})
		labels = engine.ReduceByKey(engine.Union(labels, propagated), func(a, b int64) int64 {
			return min(a, b)
		}).Cache()
		changed, err := engine.Count(engine.Filter(
			engine.Join(prev, labels),
			func(p engine.Pair[int64, engine.Tuple2[int64, int64]]) bool { return p.Val.A != p.Val.B },
		)) // one job per propagation round
		if err != nil {
			return labels, err
		}
		if changed == 0 {
			return labels, nil
		}
	}
}

// runMatryoshka runs the full three-level nested program: flat connected
// components, a NestedBag of per-component edges (level 1), a lifted map
// over each component's vertices as BFS sources (level 2, composite tags
// per Sec. 7), and the lifted BFS loop expanding frontiers as parallel bag
// operations (level 3).
func (sp AvgDistSpec) runMatryoshka(cc cluster.Config) Outcome {
	sess, err := newMatryoshkaSession(cc)
	if err != nil {
		return failed(avgDistName, Matryoshka, err)
	}
	edges := engine.Parallelize(sess, sp.data(), 0).Cache()
	labels, err := engineConnectedComponents(sess, edges)
	if err != nil {
		return finish(avgDistName, Matryoshka, sess, nil, err)
	}
	// (comp, edge) pairs: tag each edge with its source's component.
	byComp := engine.Map(
		engine.Join(
			engine.Map(edges, func(e datagen.Edge) engine.Pair[int64, datagen.Edge] { return engine.KV(e.Src, e) }),
			labels),
		func(p engine.Pair[int64, engine.Tuple2[datagen.Edge, int64]]) engine.Pair[int64, datagen.Edge] {
			return engine.KV(p.Val.B, p.Val.A)
		})
	nb, err := core.GroupByKeyIntoNestedBag(byComp, core.Options{})
	if err != nil {
		return finish(avgDistName, Matryoshka, sess, nil, err)
	}
	// The per-component adjacency is static across all BFS supersteps:
	// partition it once so every frontier expansion shuffles only the
	// frontier.
	compEdges := core.PartitionBagByKey(core.MapBag(nb.Inner, func(e datagen.Edge) engine.Pair[int64, int64] {
		return engine.KV(e.Src, e.Dst)
	}))
	verts := core.DistinctBag(core.FlatMapBag(nb.Inner, func(e datagen.Edge) []int64 {
		return []int64{e.Src, e.Dst}
	})).Cache()

	// Level 2: each vertex of each component is one BFS invocation.
	type distSum struct {
		Sum   int64
		Pairs int64
	}
	perSource, err := core.MapBagLifted(verts, func(ctx2 *core.Ctx, srcs core.InnerScalar[int64]) (core.InnerScalar[distSum], error) {
		frontier0 := core.BagOfScalar(srcs)
		dists0 := core.MapBag(frontier0, func(v int64) engine.Pair[int64, int64] { return engine.KV(v, int64(0)) })
		type bfsState = core.State2[core.State2[core.InnerBag[int64], core.InnerBag[engine.Pair[int64, int64]]], core.InnerScalar[int64]]
		ops := core.State2Ops(
			core.State2Ops(core.BagState[int64](), core.BagState[engine.Pair[int64, int64]]()),
			core.ScalarState[int64]())
		init := bfsState{
			A: core.State2[core.InnerBag[int64], core.InnerBag[engine.Pair[int64, int64]]]{A: frontier0, B: dists0},
			B: core.Pure(ctx2, int64(0)),
		}
		out, err := core.While(ctx2, init, ops, func(c *core.Ctx, st bfsState) (bfsState, core.InnerScalar[bool], error) {
			frontier, dists := st.A.A, st.A.B
			// Level 3: expand the frontier via a join with the
			// enclosing component's edges (composite-tag join).
			reached := core.MapBag(
				core.JoinWithEnclosingKeyed(
					core.MapBag(frontier, func(v int64) engine.Pair[int64, struct{}] { return engine.KV(v, struct{}{}) }),
					compEdges),
				func(p engine.Pair[int64, engine.Tuple2[struct{}, int64]]) int64 { return p.Val.B })
			candidates := core.DistinctBag(reached)
			// Anti-join against visited vertices: marker 0 wins.
			marked := core.ReduceByKeyBag(
				core.UnionBags(
					core.MapBag(candidates, func(v int64) engine.Pair[int64, int64] { return engine.KV(v, int64(1)) }),
					core.MapBag(dists, func(p engine.Pair[int64, int64]) engine.Pair[int64, int64] { return engine.KV(p.Key, int64(0)) })),
				func(a, b int64) int64 { return min(a, b) })
			newFrontier := core.MapBag(
				core.FilterBag(marked, func(p engine.Pair[int64, int64]) bool { return p.Val == 1 }),
				func(p engine.Pair[int64, int64]) int64 { return p.Key })
			depth := core.UnaryScalarOp(st.B, func(d int64) int64 { return d + 1 })
			newDists := core.UnionBags(dists,
				core.MapWithClosure(newFrontier, depth, func(v, d int64) engine.Pair[int64, int64] {
					return engine.KV(v, d)
				}))
			grew := core.CountBag(newFrontier)
			cond := core.UnaryScalarOp(grew, func(n int64) bool { return n > 0 })
			return bfsState{
				A: core.State2[core.InnerBag[int64], core.InnerBag[engine.Pair[int64, int64]]]{A: newFrontier, B: newDists},
				B: depth,
			}, cond, nil
		})
		if err != nil {
			return core.InnerScalar[distSum]{}, err
		}
		return core.AggregateBag(out.A.B, distSum{},
			func(a distSum, p engine.Pair[int64, int64]) distSum {
				if p.Val == 0 {
					return a // the source itself
				}
				return distSum{Sum: a.Sum + p.Val, Pairs: a.Pairs + 1}
			},
			func(x, y distSum) distSum { return distSum{x.Sum + y.Sum, x.Pairs + y.Pairs} }), nil
	})
	if err != nil {
		return finish(avgDistName, Matryoshka, sess, nil, err)
	}
	// Fold the per-source sums back to the component level and average.
	perComp := core.AggregateBag(core.UnliftScalarToOuter(perSource, nb.Ctx()), distSum{},
		func(a distSum, d distSum) distSum { return distSum{a.Sum + d.Sum, a.Pairs + d.Pairs} },
		func(x, y distSum) distSum { return distSum{x.Sum + y.Sum, x.Pairs + y.Pairs} })
	avg := core.BinaryScalarOp(nb.Outer, perComp, func(compID int64, d distSum) engine.Pair[int64, float64] {
		if d.Pairs == 0 {
			return engine.KV(compID, 0.0)
		}
		return engine.KV(compID, float64(d.Sum)/float64(d.Pairs))
	})
	tagged, err := avg.Collect()
	if err != nil {
		return finish(avgDistName, Matryoshka, sess, nil, err)
	}
	value := make(AvgDistValue, len(tagged))
	for _, kv := range tagged {
		value[kv.Key] = kv.Val
	}
	return finish(avgDistName, Matryoshka, sess, value, nil)
}

// runInner parallelizes only the innermost level: driver loops over
// components and over BFS sources, each BFS level running as a flat job —
// the job explosion the paper reports for this task.
func (sp AvgDistSpec) runInner(cc cluster.Config) Outcome {
	sess, err := newSession(cc)
	if err != nil {
		return failed(avgDistName, InnerParallel, err)
	}
	edges := engine.Parallelize(sess, sp.data(), 0).Cache()
	labels, err := engineConnectedComponents(sess, edges)
	if err != nil {
		return finish(avgDistName, InnerParallel, sess, nil, err)
	}
	labelMap, err := engine.CollectMap(labels)
	if err != nil {
		return finish(avgDistName, InnerParallel, sess, nil, err)
	}
	// Components and BFS sources in key order, not map order: the clock is a
	// float sum over the jobs they launch.
	compVerts := map[int64][]int64{}
	for _, v := range slices.Sorted(maps.Keys(labelMap)) {
		c := labelMap[v]
		compVerts[c] = append(compVerts[c], v)
	}
	value := make(AvgDistValue, len(compVerts))
	for _, comp := range slices.Sorted(maps.Keys(compVerts)) {
		compID, vs := comp, compVerts[comp]
		compEdges := engine.Filter(edges, func(e datagen.Edge) bool { return labelMap[e.Src] == compID }).Cache()
		var sum, pairs int64
		for _, src := range vs {
			visited := map[int64]bool{src: true}
			frontier := map[int64]bool{src: true}
			for depth := int64(1); len(frontier) > 0; depth++ {
				f := frontier
				nextD := engine.Distinct(engine.Map(
					engine.Filter(compEdges, func(e datagen.Edge) bool { return f[e.Src] }),
					func(e datagen.Edge) int64 { return e.Dst }))
				reached, err := engine.Collect(nextD) // one job per BFS level
				if err != nil {
					return finish(avgDistName, InnerParallel, sess, nil, err)
				}
				frontier = map[int64]bool{}
				for _, v := range reached {
					if !visited[v] {
						visited[v] = true
						frontier[v] = true
						sum += depth
						pairs++
					}
				}
			}
		}
		if pairs > 0 {
			value[comp] = float64(sum) / float64(pairs)
		} else {
			value[comp] = 0
		}
	}
	return finish(avgDistName, InnerParallel, sess, value, nil)
}

// runOuter parallelizes only the outermost level: one task per component
// running the whole all-pairs BFS sequentially.
func (sp AvgDistSpec) runOuter(cc cluster.Config) Outcome {
	sess, err := newSession(cc)
	if err != nil {
		return failed(avgDistName, OuterParallel, err)
	}
	edges := engine.Parallelize(sess, sp.data(), 0).Cache()
	labels, err := engineConnectedComponents(sess, edges)
	if err != nil {
		return finish(avgDistName, OuterParallel, sess, nil, err)
	}
	byComp := engine.Map(
		engine.Join(
			engine.Map(edges, func(e datagen.Edge) engine.Pair[int64, datagen.Edge] { return engine.KV(e.Src, e) }),
			labels),
		func(p engine.Pair[int64, engine.Tuple2[datagen.Edge, int64]]) engine.Pair[int64, datagen.Edge] {
			return engine.KV(p.Val.B, p.Val.A)
		})
	w := recordWeight(sess)
	grouped := engine.GroupByKey(byComp)
	results := engine.MapCtx(grouped, func(tc *engine.Ctx, p engine.Pair[int64, []datagen.Edge]) engine.Pair[int64, float64] {
		res := graph.AvgDistancesSeq(p.Val)
		tc.Charge(int64(float64(res.Ops) * w * seqHashOpsFactor))
		return engine.KV(p.Key, res.Avg)
	})
	value, err := engine.CollectMap(results)
	if err != nil {
		return finish(avgDistName, OuterParallel, sess, nil, err)
	}
	return finish(avgDistName, OuterParallel, sess, AvgDistValue(value), nil)
}
