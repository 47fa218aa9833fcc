package bench

// The shred rule's two lowerings of GroupByKeyIntoNestedBag must be
// pure physical alternatives: the same nested program run materialized
// and shredded has to produce DeepEqual-identical values — including
// the shred task's order-sensitive per-group checksums — and each
// lowering's simulated numbers must match testdata/exec_rows.golden
// exactly, whatever the host parallelism (see exec_modes_test.go).

import (
	"fmt"
	"reflect"
	"testing"

	"matryoshka/internal/core"
	"matryoshka/internal/tasks"
)

func TestShredLoweringsBitIdentical(t *testing.T) {
	sc := Scale{RecordsPerGB: 300}
	cc := sc.PaperCluster()
	for _, task := range []struct {
		name string
		run  func(core.Options) tasks.Outcome
	}{
		{"bounce-rate", func(opt core.Options) tasks.Outcome { return bounceSpec(sc, 8, 2, true).RunMatryoshka(cc, opt) }},
		{"pagerank", func(opt core.Options) tasks.Outcome { return pageRankSpec(sc, 8, 2, true).RunMatryoshka(cc, opt) }},
		{"shred", func(opt core.Options) tasks.Outcome {
			return shredSpec(sc, 1.3).RunMatryoshka(sc.Cluster(2, 2, 1), opt)
		}},
	} {
		t.Run(task.name, func(t *testing.T) {
			var refValue any
			atProcs(t, func(t *testing.T) {
				var got []string
				for _, lowering := range []struct {
					label string
					force *core.ShredChoice
				}{
					{"off", core.ForceShredChoice(core.ShredMaterialized)},
					{"on", core.ForceShredChoice(core.ShredShredded)},
				} {
					out := task.run(core.Options{ForceShred: lowering.force})
					if out.Err != nil {
						t.Fatalf("shred=%s: %v", lowering.label, out.Err)
					}
					if refValue == nil {
						refValue = out.Value
					} else if !reflect.DeepEqual(refValue, out.Value) {
						t.Fatalf("shred=%s: value diverged from the first run", lowering.label)
					}
					got = append(got, fmt.Sprintf("shred=%s seconds=%s jobs=%d stages=%d tasks=%d",
						lowering.label, fmtFloat(out.Seconds), out.Jobs, out.Stages, out.Tasks))
				}
				checkGolden(t, "exec_rows.golden", "shred/"+task.name, got)
			})
		})
	}
}
