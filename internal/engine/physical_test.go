package engine

import "testing"

// Golden tests for plan formation as seen through ExplainPhysical. Node IDs
// are sequential per fresh session and the default test cluster has
// RecordWeight 1 (weights omitted), so the rendered plans are deterministic.

func explainGolden(t *testing.T, got, want string) {
	t.Helper()
	if got != want {
		t.Errorf("plan mismatch\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestExplainPhysicalUnionDiamond(t *testing.T) {
	s := testSession()
	base := Parallelize(s, ints(8), 4)
	a := Map(base, func(x int) int { return x * 2 })
	b := Filter(base, func(x int) bool { return x%2 == 0 })
	u := Union(a, b)

	// The chain threads through the union's first narrow input down to the
	// shared base; that base is the diamond's memo site.
	explainGolden(t, ExplainPhysical(u),
		"Stage 1 root=#4 union parts=8 chain=union<-map<-parallelize\n"+
			"Memo sites: #1 parallelize\n")
}

func TestExplainPhysicalBroadcastJoin(t *testing.T) {
	s := testSession()
	small := Parallelize(s, []Pair[int, string]{{1, "a"}}, 1)
	big := Parallelize(s, []Pair[int, int]{{1, 10}, {2, 20}}, 4)
	j := JoinWith(small, big, JoinBroadcastLeft, 0)

	explainGolden(t, ExplainPhysical(j),
		"Stage 1 root=#1 parallelize parts=1\n"+
			"Stage 2 root=#3 broadcastJoin parts=2 chain=broadcastJoin<-[parallelize]\n"+
			"  <-broadcast Stage 1 (#1 parallelize)\n")
}

func TestExplainPhysicalShuffleBoundary(t *testing.T) {
	s := testSession()
	d := Parallelize(s, []Pair[string, int]{{"a", 1}, {"b", 2}, {"a", 3}}, 4)
	r := ReduceByKey(d, func(a, b int) int { return a + b })
	m := Map(r, func(p Pair[string, int]) int { return p.Val })

	// ReduceByKey plants a map-side combine (mapPartitions) before the
	// shuffle; Parallelize caps parts at len(data)=3.
	explainGolden(t, ExplainPhysical(m),
		"Stage 1 root=#2 mapPartitions parts=3 chain=mapPartitions<-parallelize\n"+
			"Stage 2 root=#4 map parts=8 chain=map<-reduceByKey<-[mapPartitions]\n"+
			"  <-shuffle Stage 1 (#2 mapPartitions)\n")
}
