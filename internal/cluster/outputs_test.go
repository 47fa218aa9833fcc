package cluster

import (
	"reflect"
	"testing"
)

// TestOutputsPlaceAndLose pins the residency table both backends share:
// round-robin placement over the live machines, a failure named by the
// machine of its first lost partition whatever order the losses came in,
// one first failure per output, and an output registered with nothing
// live born lost on the machine that would have held each partition.
func TestOutputsPlaceAndLose(t *testing.T) {
	var o Outputs
	id := o.Register(4, []int{1, 2}, 3) // machines 1,2,1,2
	if n := o.Lose(2); n != 2 {
		t.Fatalf("Lose(2) marked %d partitions, want 2", n)
	}
	if n := o.Lose(1); n != 2 {
		t.Fatalf("Lose(1) marked %d partitions, want 2", n)
	}
	ff, first := o.Check(id)
	if ff == nil || !first || !reflect.DeepEqual(*ff, FetchFailedError{Machine: 1, Parts: []int{0, 1, 2, 3}, Total: 4}) {
		t.Fatalf("Check = %+v, first %v; want machine 1, parts [0 1 2 3] of 4, first", ff, first)
	}
	if ff, first := o.Check(id); ff == nil || first {
		t.Fatalf("second Check = %+v, first %v; want the failure again, not first", ff, first)
	}
	dead := o.Register(2, nil, 3)
	if ff, _ := o.Check(dead); ff == nil || !reflect.DeepEqual(*ff, FetchFailedError{Machine: 0, Parts: []int{0, 1}, Total: 2}) {
		t.Fatalf("output born on a dead cluster: Check = %+v, want machine 0, parts [0 1] of 2", ff)
	}
	o.Drop(id)
	if ff, first := o.Check(id); ff != nil || first {
		t.Fatalf("Check of a dropped output = %+v, %v; want nil", ff, first)
	}

	// Loss marks exist only once something is lost, a machine lost twice
	// counts once, an output with fewer partitions than live machines
	// keeps the rest, and a loss destroys only outputs registered before.
	o = Outputs{}
	early := o.Register(5, []int{0, 1, 2}, 3)  // machines 0,1,2,0,1
	narrow := o.Register(2, []int{0, 1, 2}, 3) // machines 0,1
	if n := o.Lose(7); n != 0 || o.m[early].lost != nil || o.m[narrow].lost != nil {
		t.Fatalf("Lose of a machine holding nothing marked %d and allocated marks", n)
	}
	if n := o.Lose(2); n != 1 || o.m[narrow].lost != nil {
		t.Fatalf("Lose(2) marked %d partitions (want 1) or marked the 2-partition output", n)
	}
	if n := o.Lose(2); n != 0 {
		t.Fatalf("second Lose(2) marked %d partitions, want 0", n)
	}
	late := o.Register(3, []int{0, 1, 2}, 3)
	if ff, _ := o.Check(late); ff != nil {
		t.Fatalf("output registered after the loss: Check = %+v, want nil", ff)
	}
	if n := o.Lose(0); n != 4 { // early 0 and 3, narrow 0, late 0
		t.Fatalf("Lose(0) marked %d partitions, want 4", n)
	}
	want := map[OutputID]FetchFailedError{
		early:  {Machine: 0, Parts: []int{0, 2, 3}, Total: 5},
		narrow: {Machine: 0, Parts: []int{0}, Total: 2},
		late:   {Machine: 0, Parts: []int{0}, Total: 3},
	}
	for id, w := range want {
		if ff, first := o.Check(id); ff == nil || !first || !reflect.DeepEqual(*ff, w) {
			t.Errorf("Check(%d) = %+v, first %v; want %+v, first", id, ff, first, w)
		}
	}
}
