package sched

import (
	"math"
	"testing"
)

func TestEventClockOrdersByTimeThenSeq(t *testing.T) {
	var c eventClock
	c.schedule(3.0, 30)
	c.schedule(1.0, 10)
	c.schedule(2.0, 20)
	c.schedule(1.0, 11) // same time as payload 10, scheduled later
	var got []any
	for {
		ev, ok := c.next()
		if !ok {
			break
		}
		got = append(got, ev.p)
	}
	want := []any{10, 11, 20, 30}
	if len(got) != len(want) {
		t.Fatalf("popped %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("pop[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if c.now != 3.0 {
		t.Errorf("clock = %f, want 3.0", c.now)
	}
}

func TestEventClockDropDoesNotAdvance(t *testing.T) {
	var c eventClock
	c.schedule(5.0, 1)
	c.schedule(9.0, 2)
	if ev, ok := c.drop(); !ok || ev.p != 1 {
		t.Fatalf("drop = %+v, %v; want payload 1", ev, ok)
	}
	if c.now != 0 {
		t.Errorf("drop advanced the clock to %f", c.now)
	}
	if ev, ok := c.next(); !ok || ev.p != 2 || c.now != 9.0 {
		t.Errorf("next after drop = %+v, %v, clock %f; want payload 2 at 9.0", ev, ok, c.now)
	}
}

func TestEventClockRejectsPastEvents(t *testing.T) {
	var c eventClock
	c.schedule(2.0, 1)
	c.next()
	defer func() {
		if recover() == nil {
			t.Error("scheduling before the clock did not panic")
		}
	}()
	c.schedule(1.0, 2)
}

func TestSkewDeterministicAndCalibrated(t *testing.T) {
	k := Skew{Rate: 0.25, Factor: 8, Seed: 7}
	stragglers := 0
	const n = 100000
	for i := uint64(0); i < n; i++ {
		a := k.stretch(1, 2, i)
		if a != k.stretch(1, 2, i) {
			t.Fatalf("stretch not deterministic for id %d", i)
		}
		switch a {
		case 8:
			stragglers++
		case 1:
		default:
			t.Fatalf("stretch = %f, want 1 or 8", a)
		}
	}
	got := float64(stragglers) / n
	if math.Abs(got-0.25) > 0.01 {
		t.Errorf("straggler rate = %.4f, want ~0.25", got)
	}
	if (Skew{}).stretch(1) != 1 {
		t.Error("zero Skew should be the identity")
	}
	if (Skew{Rate: 1, Factor: 8}).stretch(42) != 8 {
		t.Error("Rate 1 should always straggle")
	}
}

func TestSkewSeedChangesDraws(t *testing.T) {
	a := Skew{Rate: 0.5, Factor: 4, Seed: 1}
	b := Skew{Rate: 0.5, Factor: 4, Seed: 2}
	same := 0
	for i := uint64(0); i < 1000; i++ {
		if a.stretch(i) == b.stretch(i) {
			same++
		}
	}
	if same == 1000 {
		t.Error("different seeds produced identical straggler sets")
	}
}

func TestSpecThreshold(t *testing.T) {
	if _, ok := specThreshold([]float64{1, 1}, 8); ok {
		t.Error("2 of 8 completed should not trigger speculation at q=0.75")
	}
	// 6 of 8 = ceil(0.75*8): eligible; quantile of completed durations
	// [1..6] at 0.75 → index ceil(0.75*6)-1 = 4 → 5.0; threshold 7.5.
	thr, ok := specThreshold([]float64{1, 2, 3, 4, 5, 6}, 8)
	if !ok {
		t.Fatal("6 of 8 completed should trigger speculation")
	}
	if thr != 7.5 {
		t.Errorf("threshold = %f, want 7.5", thr)
	}
	// The 2-task minimum floors tiny stages: 1 of 1 completed is below it.
	if _, ok := specThreshold([]float64{1}, 1); ok {
		t.Error("a 1-task stage should never speculate")
	}
	if thr, ok := specThreshold([]float64{2, 2, 2}, 4); !ok || thr != 3 {
		t.Errorf("3 of 4 at 2s: threshold = %f, %v; want 3, true", thr, ok)
	}
}

// TestEventClockDropEdgeCases covers the lazy-cancellation corners the
// scheduler leans on: dropping when everything already fired, draining
// the heap by drop alone, and interleaving drop with schedule mid-
// dispatch without disturbing clock monotonicity.
func TestEventClockDropEdgeCases(t *testing.T) {
	var c eventClock

	// drop on an empty clock reports absence, twice in a row.
	if _, ok := c.drop(); ok {
		t.Error("drop on an empty clock reported an event")
	}
	if _, ok := c.drop(); ok {
		t.Error("second empty drop reported an event")
	}

	// drop after the last event fired: the heap is empty again.
	c.schedule(1.0, 1)
	if ev, ok := c.next(); !ok || ev.p != 1 {
		t.Fatalf("next = %+v, %v", ev, ok)
	}
	if _, ok := c.drop(); ok {
		t.Error("drop found an event after all fired")
	}
	if c.now != 1.0 {
		t.Errorf("clock = %f, want 1.0", c.now)
	}

	// Double-drop drains a two-event heap without moving the clock.
	c.schedule(2.0, 2)
	c.schedule(3.0, 3)
	if ev, _ := c.drop(); ev.p != 2 {
		t.Errorf("first drop popped payload %v, want 2", ev.p)
	}
	if ev, _ := c.drop(); ev.p != 3 {
		t.Errorf("second drop popped payload %v, want 3", ev.p)
	}
	if _, ok := c.peek(); ok || c.now != 1.0 {
		t.Errorf("after double-drop: pending=%v clock=%f, want none and 1.0", ok, c.now)
	}

	// drop during dispatch: scheduling between peek and drop may change
	// the head, and drop must remove the *current* head, not the peeked
	// one. The clock may then legally schedule at the dropped horizon.
	c.schedule(5.0, 5)
	if ev, _ := c.peek(); ev.p != 5 {
		t.Fatalf("peek = payload %v, want 5", ev.p)
	}
	c.schedule(4.0, 4) // new earlier head after the peek
	if ev, _ := c.drop(); ev.p != 4 {
		t.Errorf("drop removed payload %v, want the new head 4", ev.p)
	}
	if ev, ok := c.next(); !ok || ev.p != 5 || c.now != 5.0 {
		t.Errorf("next = %+v, %v, clock %f; want payload 5 at 5.0", ev, ok, c.now)
	}

	// Monotonicity survived every mixture above: time never went back,
	// and re-scheduling at exactly now is allowed.
	c.schedule(5.0, 6)
	if ev, _ := c.next(); ev.p != 6 || c.now != 5.0 {
		t.Errorf("same-time reschedule misfired: payload %v at %f", ev.p, c.now)
	}
}
