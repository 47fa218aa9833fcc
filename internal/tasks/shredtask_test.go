package tasks

import (
	"reflect"
	"testing"

	"matryoshka/internal/core"
)

// TestShredTaskMatchesReference: the shred workload agrees with the
// sequential reference — including the order-sensitive per-group
// checksum — under the optimizer's pick and under both forced lowerings,
// and the forced lowerings are bit-identical to each other.
func TestShredTaskMatchesReference(t *testing.T) {
	spec := ShredSpec{Visits: 20_000, Days: 17, Skew: 1.3, Seed: 42}
	want := spec.Reference()
	if len(want) == 0 {
		t.Fatal("empty reference")
	}
	values := map[string]ShredValue{}
	for _, mode := range []struct {
		name  string
		force *core.ShredChoice
	}{
		{"auto", nil},
		{"materialized", core.ForceShredChoice(core.ShredMaterialized)},
		{"shredded", core.ForceShredChoice(core.ShredShredded)},
	} {
		t.Run(mode.name, func(t *testing.T) {
			o := spec.RunMatryoshka(testCluster(), core.Options{ForceShred: mode.force})
			checkOutcome(t, o)
			got := o.Value.(ShredValue)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s lowering diverged from reference", mode.name)
			}
			values[mode.name] = got
		})
	}
	if !reflect.DeepEqual(values["materialized"], values["shredded"]) {
		t.Fatal("forced lowerings diverged from each other")
	}
}
