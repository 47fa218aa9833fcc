package tasks

import (
	"matryoshka/internal/cluster"
	"matryoshka/internal/engine"
	"matryoshka/internal/taskreg"
)

// The chaos diamond's operators are registered by name so a process-pool
// backend can run its stages in worker processes (the same binary
// re-exec'd makes these registrations there too). The named functions are
// behaviorally identical to the closures they replaced; the simulator's
// golden numbers cannot see the difference.
func chaosSum(a, b int64) int64                      { return a + b }
func chaosCount(vs []int64) int64                    { return int64(len(vs)) }
func chaosTotal(t engine.Tuple2[int64, int64]) int64 { return t.A + t.B }

var (
	chaosSumOp   = taskreg.RegisterReduceByKey[int]("chaos.sum", chaosSum)
	chaosGroupOp = taskreg.RegisterGroupByKey[int, int64]("chaos.group")
	chaosCountOp = taskreg.RegisterMapValues[int]("chaos.count", chaosCount)
	chaosJoinOp  = taskreg.RegisterJoin[int, int64, int64]("chaos.join")
	chaosTotalOp = taskreg.RegisterMapValues[int]("chaos.total", chaosTotal)
)

// ChaosSpec is the fault-tolerance workload behind `matbench -explain
// chaos` and the sec9-chaos experiment: several back-to-back jobs, each
// a diamond of two shuffle parents (a reduce and a group-count over
// independent inputs) feeding a repartition join. The shape is chosen so
// a machine crash between the parents' materialisations loses exactly
// the dead machine's shuffle partitions and the consumer's fetch fails —
// the scenario lineage-based recovery (engine.Config.Recover) rewinds
// and recomputes, and the one the abort series dies on. Crash times come
// from the attached FaultPlan, so a fixed seed makes every run,
// including its failures, bit-identical.
type ChaosSpec struct {
	Records int // pairs per input side, per round
	Keys    int // distinct keys (values cycle over them)
	Parts   int // shuffle width of the reduce parent; the other edges derive from it
	Rounds  int // back-to-back jobs on one session
	Faults  cluster.FaultPlan
}

// ChaosValue is the task's checkable result, accumulated over rounds.
type ChaosValue struct {
	Keys  int   // distinct join keys in the final round
	Total int64 // sum over rounds and keys of (reduced sum + group count)
}

const chaosName = "chaos"

// pairs is round r's input: every key appears Records/Keys (+1) times
// with value r+1, so each round's result differs and a recomputed stage
// that accidentally reused stale state would be caught by Reference.
func (sp ChaosSpec) pairs(r int) []engine.Pair[int, int64] {
	ps := make([]engine.Pair[int, int64], sp.Records)
	for i := range ps {
		ps[i] = engine.KV(i%sp.Keys, int64(r+1))
	}
	return ps
}

// Reference computes the task sequentially: key k occurs c_k times per
// side, so round r contributes sum_k (c_k*(r+1) + c_k) = Records*(r+2).
func (sp ChaosSpec) Reference() ChaosValue {
	keys := sp.Keys
	if sp.Records < keys {
		keys = sp.Records
	}
	var total int64
	for r := 0; r < sp.Rounds; r++ {
		total += int64(sp.Records) * int64(r+2)
	}
	return ChaosValue{Keys: keys, Total: total}
}

// Run executes the rounds on a fresh simulated cluster with the spec's
// fault plan attached, under the Matryoshka runtime (flip Recovery off
// to reproduce the abort-on-fetch-failure behaviour).
func (sp ChaosSpec) Run(cc cluster.Config) Outcome {
	cc.Faults = sp.Faults
	sess, err := newMatryoshkaSession(cc)
	if err != nil {
		return failed(chaosName, Matryoshka, err)
	}
	var value ChaosValue
	for r := 0; r < sp.Rounds; r++ {
		left := engine.Parallelize(sess, sp.pairs(r), sp.Parts)
		right := engine.Parallelize(sess, sp.pairs(r), sp.Parts+2)
		sums := taskreg.ReduceByKeyN(left, chaosSumOp, sp.Parts)
		counts := taskreg.MapValues(taskreg.GroupByKeyN(right, chaosGroupOp, sp.Parts+2), chaosCountOp)
		joined := taskreg.JoinWith(sums, counts, chaosJoinOp, engine.JoinRepartition, sp.Parts+1)
		got, err := engine.CollectMap(taskreg.MapValues(joined, chaosTotalOp))
		if err != nil {
			return finish(chaosName, Matryoshka, sess, nil, err)
		}
		value.Keys = len(got)
		for _, v := range got {
			value.Total += v
		}
	}
	return finish(chaosName, Matryoshka, sess, value, nil)
}
