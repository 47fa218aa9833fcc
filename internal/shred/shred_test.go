package shred

import (
	"reflect"
	"sort"
	"testing"

	"matryoshka/internal/engine"
)

func testSession() *engine.Session {
	cfg := engine.DefaultConfig()
	cfg.Cluster.Machines = 4
	cfg.Cluster.CoresPerMachine = 2
	cfg.DefaultParallelism = 6
	s, err := engine.NewSession(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

func skewedPairs(n, keys int) []engine.Pair[int, int64] {
	out := make([]engine.Pair[int, int64], n)
	for i := range out {
		// Key 0 takes half the rows; the rest spread evenly.
		k := 0
		if i%2 == 1 {
			k = 1 + (i/2)%(keys-1)
		}
		out[i] = engine.KV(k, int64(i))
	}
	return out
}

func TestObserveExactStats(t *testing.T) {
	s := testSession()
	data := skewedPairs(4000, 41)
	b := Shred(engine.Parallelize(s, data, 8))
	st, err := Observe(b)
	if err != nil {
		t.Fatalf("Observe: %v", err)
	}
	if st.Groups != 41 || st.Total != 4000 || st.Max != 2000 {
		t.Fatalf("stats = %+v, want {41 2000 4000}", st)
	}
}

// TestUnshredMatchesGroupByKey: un-shredding is bit-identical (keys,
// values, and per-group element order) to a materialized group build of
// the same source — the contract the A/B DeepEqual suites rely on.
func TestUnshredMatchesGroupByKey(t *testing.T) {
	s := testSession()
	data := skewedPairs(3000, 37)
	src := engine.Parallelize(s, data, 8)
	viaShred, err := UnshredCollect(Shred(src))
	if err != nil {
		t.Fatalf("UnshredCollect: %v", err)
	}
	viaGroup, err := engine.CollectMap(engine.GroupByKey(src))
	if err != nil {
		t.Fatalf("GroupByKey: %v", err)
	}
	if !reflect.DeepEqual(viaShred, viaGroup) {
		t.Fatalf("unshred diverged from materialized group build")
	}
	if len(viaShred) != 37 {
		t.Fatalf("got %d groups, want 37", len(viaShred))
	}
}

// TestTopRecordsEnumerateGroupsOnce: Top holds exactly one record per
// key with the observed size, and Group is the session's stable key
// hash (the same identity the tag lowering mints).
func TestTopRecordsEnumerateGroupsOnce(t *testing.T) {
	s := testSession()
	data := skewedPairs(1000, 11)
	b := Shred(engine.Parallelize(s, data, 4))
	recs, err := engine.Collect(b.Top)
	if err != nil {
		t.Fatalf("Collect(Top): %v", err)
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].Key < recs[j].Key })
	if len(recs) != 11 {
		t.Fatalf("%d top records, want 11", len(recs))
	}
	var total int64
	for _, r := range recs {
		if r.Group != engine.HashKey(r.Key) {
			t.Errorf("key %d: group id %d != HashKey %d", r.Key, r.Group, engine.HashKey(r.Key))
		}
		total += r.Size
	}
	if total != 1000 {
		t.Fatalf("sizes sum to %d, want 1000", total)
	}
}
