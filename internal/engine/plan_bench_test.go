package engine

import "testing"

// pagerankDAG builds, without running it, the DAG a lifted PageRank of steps
// supersteps hands the engine: rows keyed by (group tag, vertex), a cached
// links dataset, and per superstep a join of the links with the ranks whose
// contributions are reduced by vertex.
func pagerankDAG(s *Session, steps int) *node {
	var edges []Pair[structKey, structKey]
	for g := uint64(0); g < 4; g++ {
		for v := int64(0); v < 64; v++ {
			from := structKey{T: [4]uint64{g}, K: v}
			edges = append(edges, KV(from, structKey{T: from.T, K: (v + 1) % 64}), KV(from, structKey{T: from.T, K: (v * 7) % 64}))
		}
	}
	links := PartitionByKey(Parallelize(s, edges, 8), 16).Cache()
	ranks := ReduceByKey(MapValues(links, func(structKey) float64 { return 1 }), func(a, _ float64) float64 { return a })
	for i := 0; i < steps; i++ {
		contribs := Map(Join(links, ranks), func(kv Pair[structKey, Tuple2[structKey, float64]]) Pair[structKey, float64] {
			return KV(kv.Val.A, kv.Val.B)
		})
		sums := ReduceByKey(contribs, func(a, b float64) float64 { return a + b })
		ranks = MapValues(sums, func(r float64) float64 { return 0.15 + 0.85*r })
	}
	return ranks.n
}

var planSink *execPlan

// BenchmarkPlan is the planning layer alone: the physical plan of a
// PageRank-shaped lifted job of ten join → reduce supersteps, built per
// iteration and never run.
func BenchmarkPlan(b *testing.B) {
	s := benchSession()
	defer s.Close()
	target := pagerankDAG(s, 10)
	b.ReportAllocs()
	for b.Loop() {
		planSink = s.buildExecPlan(target, nil)
	}
}
