package engine

import (
	"errors"
	"maps"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"matryoshka/internal/cluster"
	"matryoshka/internal/obs"
)

// recoverConfig is a small, memory-tight cluster with the adaptive
// recovery loop enabled and an event recorder attached.
func recoverConfig(mem int64) (Config, *obs.Recorder) {
	rec := obs.NewRecorder()
	cfg := DefaultConfig()
	cfg.Cluster.Machines = 2
	cfg.Cluster.CoresPerMachine = 2
	cfg.Cluster.MemoryPerMachine = mem
	cfg.DefaultParallelism = 4
	cfg.Recover = true
	cfg.Obs = rec
	return cfg, rec
}

// recoveries flattens the recovery events of every job in the recorder.
func recoveries(rec *obs.Recorder) []obs.Recovery {
	var out []obs.Recovery
	for _, j := range rec.Jobs() {
		out = append(out, j.Recoveries...)
	}
	return out
}

// TestRecoverBroadcastOOMDemotesToRepartition: the same workload that
// TestBroadcastOOM proves aborts now completes when recovery is on — the
// broadcast join is demoted to its repartition fallback, the failed choice
// is denylisted, and the virtual clock is deterministic across sessions.
func TestRecoverBroadcastOOMDemotesToRepartition(t *testing.T) {
	run := func() (map[int]int64, float64, *Session, *obs.Recorder) {
		// 1 MB machines: ingesting small fits (~350 KB per task), but
		// broadcasting all of it (~1.4 MB resident) does not.
		cfg, rec := recoverConfig(1 << 20)
		s := mustSession(cfg)
		small := Parallelize(s, makePairs(2000), 4)
		big := Parallelize(s, makePairs(10), 2)
		got, err := Collect(JoinWith(small, big, JoinBroadcastLeft, 0))
		if err != nil {
			t.Fatalf("Collect with recovery: %v", err)
		}
		vals := make(map[int]int64, len(got))
		for _, p := range got {
			vals[p.Key] = p.Val.B
		}
		return vals, s.Clock(), s, rec
	}

	vals, clock1, s, rec := run()
	if len(vals) != 10 {
		t.Fatalf("join produced %d keys, want 10", len(vals))
	}
	for k := 0; k < 10; k++ {
		if vals[k] != int64(k) {
			t.Errorf("key %d joined to %d", k, vals[k])
		}
	}
	if why, denied := s.Feedback().Denied("join", "broadcast"); !denied {
		t.Error("failed broadcast choice not denylisted")
	} else if !strings.Contains(why, "OOMed") {
		t.Errorf("denylist reason = %q", why)
	}
	recs := recoveries(rec)
	if len(recs) != 1 {
		t.Fatalf("got %d recoveries, want 1: %+v", len(recs), recs)
	}
	if !strings.Contains(recs[0].What, "broadcast OOM") {
		t.Errorf("What = %q", recs[0].What)
	}
	if recs[0].Action != "re-lowered(join=repartition)" {
		t.Errorf("Action = %q", recs[0].Action)
	}
	if report := rec.Report(); !strings.Contains(report, "re-lowered(join=repartition)") {
		t.Errorf("EXPLAIN ANALYZE does not render the recovery:\n%s", report)
	}

	_, clock2, _, _ := run()
	if clock1 != clock2 {
		t.Errorf("recovered clock not deterministic: %.6f vs %.6f", clock1, clock2)
	}
}

// TestRecoverTaskOOMRaisesPartitions: a groupByKey whose per-task
// residency overflows a machine is re-lowered to more, smaller partitions
// and completes with the right groups.
func TestRecoverTaskOOMRaisesPartitions(t *testing.T) {
	// 512 KB machines: ingest at 8 partitions fits (~340 KB per machine
	// per wave), grouping into 4 partitions does not (~700 KB).
	cfg, rec := recoverConfig(512 << 10)
	s := mustSession(cfg)
	// 2000 single-element groups: splittable pressure, the opposite of the
	// giant-group case below.
	grouped, err := Collect(GroupByKey(Parallelize(s, makePairs(2000), 8)))
	if err != nil {
		t.Fatalf("Collect with recovery: %v", err)
	}
	if len(grouped) != 2000 {
		t.Fatalf("got %d groups, want 2000", len(grouped))
	}
	sort.Slice(grouped, func(i, j int) bool { return grouped[i].Key < grouped[j].Key })
	for i, g := range grouped {
		if g.Key != i || len(g.Val) != 1 || g.Val[0] != int64(i) {
			t.Fatalf("group[%d] = %+v", i, g)
		}
	}
	recs := recoveries(rec)
	if len(recs) == 0 {
		t.Fatal("no recovery recorded")
	}
	if !strings.Contains(recs[0].What, "task OOM") || !strings.Contains(recs[0].Action, "re-lowered(parts ") {
		t.Errorf("recovery = %+v", recs[0])
	}
	if s.Feedback().PartsBoost() <= 1 {
		t.Errorf("parts boost = %d, want > 1", s.Feedback().PartsBoost())
	}
}

// TestRecoverGiantGroupDemotesToShredded: a single unsplittable group
// defeats the partition raise (it always lands in one task), which used
// to abort with OOM exactly as the paper observes for the outer-parallel
// workaround. With the shredded lowering registered as the group build's
// fallback, recovery now demotes groupByKey to the spill variant after
// the raises are exhausted, denylists shred=materialized for the
// session, and the job completes — deterministically.
func TestRecoverGiantGroupDemotesToShredded(t *testing.T) {
	run := func() ([]Pair[int, []int64], float64, *Session, *obs.Recorder) {
		// 1 MB machines: ingest fits, but the single ~3.5 MB group cannot
		// be split by raising partitions; the spill build's bounded
		// working set (~220 KB) fits.
		cfg, rec := recoverConfig(1 << 20)
		s := mustSession(cfg)
		pairs := make([]Pair[int, int64], 5000)
		for i := range pairs {
			pairs[i] = KV(7, int64(i))
		}
		got, err := Collect(GroupByKey(Parallelize(s, pairs, 8)))
		if err != nil {
			t.Fatalf("Collect with recovery: %v", err)
		}
		return got, s.Clock(), s, rec
	}

	got, clock1, s, rec := run()
	if len(got) != 1 || got[0].Key != 7 || len(got[0].Val) != 5000 {
		t.Fatalf("got %d groups (first key %d, %d values), want the one 5000-value group",
			len(got), got[0].Key, len(got[0].Val))
	}
	if why, denied := s.Feedback().Denied("shred", "materialized"); !denied {
		t.Error("failed materialized group build not denylisted")
	} else if !strings.Contains(why, "OOMed") {
		t.Errorf("denylist reason = %q", why)
	}
	recs := recoveries(rec)
	var demoted bool
	for _, r := range recs {
		if r.Action == "re-lowered(shred=shredded)" {
			demoted = true
			if !strings.Contains(r.What, "task OOM") {
				t.Errorf("demotion What = %q", r.What)
			}
		}
	}
	if !demoted {
		t.Fatalf("no shred demotion among recoveries: %+v", recs)
	}
	if report := rec.Report(); !strings.Contains(report, "re-lowered(shred=shredded)") {
		t.Errorf("EXPLAIN ANALYZE does not render the demotion:\n%s", report)
	}

	_, clock2, _, _ := run()
	if clock1 != clock2 {
		t.Errorf("recovered clock not deterministic: %.6f vs %.6f", clock1, clock2)
	}
}

// TestRecoverHalfLiftedDemotesBroadcastSide: when the broadcast-scalar
// side of a half-lifted cross OOMs, recovery flips to the mirrored
// broadcast-primary lowering and denylists the failed side.
func TestRecoverHalfLiftedDemotesBroadcastSide(t *testing.T) {
	// 1 MB machines: ingesting the scalar side fits (~300 KB per task),
	// broadcasting it (~1.2 MB resident) does not; the mirrored lowering
	// broadcasts the one-element primary instead.
	cfg, rec := recoverConfig(1 << 20)
	s := mustSession(cfg)
	scalar := Parallelize(s, ints(2000), 4)
	primary := Parallelize(s, []int{1000}, 2)
	got, err := Collect(CrossWithBroadcast(scalar, primary, func(a, b int) int { return a + b }))
	if err != nil {
		t.Fatalf("Collect with recovery: %v", err)
	}
	if len(got) != 2000 {
		t.Fatalf("cross produced %d elements, want 2000", len(got))
	}
	sort.Ints(got)
	if got[0] != 1000 || got[len(got)-1] != 1000+1999 {
		t.Fatalf("cross range [%d, %d]", got[0], got[len(got)-1])
	}
	if _, denied := s.Feedback().Denied("half-lifted", "broadcast-scalar"); !denied {
		t.Error("failed half-lifted side not denylisted")
	}
	// The demote cascades: the mirrored lowering's repartition tail first
	// holds the whole output in one task, which a parts raise then splits.
	recs := recoveries(rec)
	if len(recs) == 0 || recs[0].Action != "re-lowered(half-lifted=broadcast-primary)" {
		t.Fatalf("recoveries = %+v", recs)
	}
}

// TestRecoverTransientExhaustionRerunsDeterministically: exhausted task
// retries rerun the stage (no plan change) and the virtual clock stays
// deterministic — and strictly above the failure-free clock.
func TestRecoverTransientExhaustionRerunsDeterministically(t *testing.T) {
	run := func(rate float64) (int, float64, *obs.Recorder) {
		cfg, rec := recoverConfig(1 << 30)
		cfg.Cluster.TaskFailureRate = rate
		s := mustSession(cfg)
		got, err := Collect(Map(Parallelize(s, ints(500), 16), func(x int) int { return x + 1 }))
		if err != nil {
			t.Fatalf("Collect at rate %.2f: %v", rate, err)
		}
		sum := 0
		for _, v := range got {
			sum += v
		}
		return sum, s.Clock(), rec
	}
	want := 500 * 501 / 2
	sumClean, clean, _ := run(0)
	sumFlaky, flaky1, rec := run(0.3)
	_, flaky2, _ := run(0.3)
	if sumClean != want || sumFlaky != want {
		t.Fatalf("sums = %d, %d, want %d", sumClean, sumFlaky, want)
	}
	if flaky1 != flaky2 {
		t.Errorf("flaky clock not deterministic: %.6f vs %.6f", flaky1, flaky2)
	}
	if flaky1 <= clean {
		t.Errorf("failures should cost time: %.3f <= %.3f", flaky1, clean)
	}
	for _, r := range recoveries(rec) {
		if r.Action != "rerun" {
			t.Errorf("transient recovery action = %q, want rerun", r.Action)
		}
	}
}

// TestRecoveryOffStillAborts: the recovery loop is opt-in; without it the
// broadcast OOM aborts exactly as before.
func TestRecoveryOffStillAborts(t *testing.T) {
	cfg, _ := recoverConfig(4 << 10)
	cfg.Recover = false
	s := mustSession(cfg)
	small := Parallelize(s, makePairs(2000), 4)
	big := Parallelize(s, makePairs(10), 2)
	_, err := Collect(JoinWith(small, big, JoinBroadcastLeft, 0))
	if !errors.Is(err, cluster.ErrOutOfMemory) {
		t.Fatalf("err = %v, want OOM", err)
	}
}

// TestRecoverDemotionUnfusesStaleChains: a fused chain with a broadcast
// cross in it must not survive the demotion of that cross. The first plan
// fuses map∘cross∘map∘map; pinning the cross's broadcast side OOMs, recovery
// splices the mirrored lowering (a repartition over the other cross) into
// the consumer's dep, and the replan — which walks the live deps — must
// compose no chain through the abandoned node, which the new stage graph
// never pins a broadcast for: the chain above now starts over the
// repartition, and the job returns the reference value.
func TestRecoverDemotionUnfusesStaleChains(t *testing.T) {
	// 1 MB machines: broadcasting the 2000-element primary (~1.2 MB
	// resident) OOMs; the mirrored lowering broadcasts the one-element
	// scalar side instead.
	cfg, rec := recoverConfig(1 << 20)
	s := mustSession(cfg)
	scalar := Map(Parallelize(s, []int{999}, 2), func(v int) int { return v + 1 })
	primary := Map(Parallelize(s, ints(2000), 4), func(v int) int { return v })
	crossed := CrossBroadcastBig(scalar, primary, func(a, b int) int { return a + b })
	mapped := Map(Map(crossed, func(v int) int { return v * 2 }), func(v int) int { return v + 1 })
	through := func(ep *execPlan, n *node) bool {
		for _, fi := range ep.fused {
			if fi.head == n || slices.Contains(fi.via, n) {
				return true
			}
		}
		return false
	}
	if fi := s.buildExecPlan(mapped.n, nil).fused[mapped.n]; fi == nil || len(fi.via) != 4 || fi.via[1] != crossed.n {
		t.Fatalf("first plan did not fuse map∘cross∘map∘map: %+v", fi)
	}
	got, err := Collect(mapped)
	if err != nil {
		t.Fatalf("Collect with recovery: %v", err)
	}
	if len(got) != 2000 {
		t.Fatalf("cross produced %d elements, want 2000", len(got))
	}
	sort.Ints(got)
	for i, v := range got {
		if want := (1000+i)*2 + 1; v != want {
			t.Fatalf("got[%d] = %d, want %d", i, v, want)
		}
	}
	if _, denied := s.Feedback().Denied("half-lifted", "broadcast-primary"); !denied {
		t.Error("failed half-lifted side not denylisted")
	}
	recs := recoveries(rec)
	if len(recs) == 0 || recs[0].Action != "re-lowered(half-lifted=broadcast-scalar)" {
		t.Fatalf("recoveries = %+v", recs)
	}
	// The rewired DAG, planned afresh: two maps over the repartition, and
	// below it the mirrored cross topping a chain of its own (it streams
	// the mapped primary side the first lowering broadcast).
	ep := s.buildExecPlan(mapped.n, nil)
	if through(ep, crossed.n) {
		t.Error("a fused chain still runs through the abandoned cross")
	}
	if fi := ep.fused[mapped.n]; fi == nil || len(fi.via) != 2 || fi.head.label != "repartition" {
		t.Errorf("chain above the demoted cross = %+v, want map∘map over the repartition", fi)
	}
	if !slices.ContainsFunc(slices.Collect(maps.Keys(ep.fused)), func(n *node) bool { return n.label == "crossBroadcastSmall" }) {
		t.Error("the mirrored cross tops no fused chain")
	}
}

// TestRecoveryFeedbackIsolatedAcrossSessions: session A's broadcast join
// OOMs and is adaptively re-lowered to a repartition join while session B
// runs its own broadcast join at the same time, each on its own private
// simulator. A's failure must denylist the choice in A's session only —
// B's feedback stays clean, B keeps broadcasting, and both get correct
// results.
func TestRecoveryFeedbackIsolatedAcrossSessions(t *testing.T) {
	// 1 MB machines: A broadcasts ~1.4 MB (OOMs, recovers); B broadcasts
	// ~7 KB (fits).
	ca, recA := recoverConfig(1 << 20)
	cb, recB := recoverConfig(1 << 20)
	sa, sb := mustSession(ca), mustSession(cb)

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		small := Parallelize(sa, makePairs(2000), 4)
		big := Parallelize(sa, makePairs(10), 2)
		got, err := Collect(JoinWith(small, big, JoinBroadcastLeft, 0))
		if err != nil {
			t.Errorf("session A join with recovery: %v", err)
			return
		}
		if len(got) != 10 {
			t.Errorf("session A joined %d keys, want 10", len(got))
		}
	}()
	go func() {
		defer wg.Done()
		small := Parallelize(sb, makePairs(10), 2)
		big := Parallelize(sb, makePairs(2000), 4)
		got, err := Collect(JoinWith(small, big, JoinBroadcastLeft, 0))
		if err != nil {
			t.Errorf("session B join: %v", err)
			return
		}
		if len(got) != 10 {
			t.Errorf("session B joined %d keys, want 10", len(got))
		}
	}()
	wg.Wait()

	if _, denied := sa.Feedback().Denied("join", "broadcast"); !denied {
		t.Error("session A's failed broadcast choice not denylisted in A's session")
	}
	if why, denied := sb.Feedback().Denied("join", "broadcast"); denied {
		t.Errorf("session A's denylist leaked into session B: %q", why)
	}
	if boost := sb.Feedback().PartsBoost(); boost != 1 {
		t.Errorf("session B's partition boost perturbed: %d, want 1", boost)
	}
	if n := len(recoveries(recA)); n != 1 {
		t.Errorf("session A recorded %d recoveries, want 1", n)
	}
	if n := len(recoveries(recB)); n != 0 {
		t.Errorf("session B recorded %d recoveries, want 0", n)
	}
}
