package cluster

// This file holds the mechanisms the multi-tenant scheduler
// (internal/sched) builds on: a deterministic event-queue virtual clock
// that can interleave tasks from different jobs, hash-derived per-task
// duration skew (straggler injection), and the quantile trigger for
// speculative task re-execution. They live here — next to the cost model —
// because they are cluster-simulation primitives, not scheduling policy:
// the scheduler decides *what* to place and when to launch a backup copy;
// these types decide *when events happen* and *how long a task takes*,
// identically for every caller with the same seed.

import (
	"container/heap"
	"fmt"
	"math"
	"sort"
)

// Event is one scheduled occurrence on an EventClock. Key is an opaque
// payload handle chosen by the caller; Seq is the schedule order, which
// breaks ties between events at the same virtual time, so pop order is a
// total order that depends only on the sequence of Schedule calls — never
// on goroutine interleaving or map iteration.
type Event struct {
	Time float64
	Seq  uint64
	Key  uint64
}

// EventClock is a discrete-event virtual clock: a priority queue of
// events ordered by (time, schedule order). Unlike Simulator's
// wave-at-a-time clock, it can interleave individually timed tasks from
// many concurrent jobs. It is not safe for concurrent use; the scheduler
// drives it from one goroutine.
type EventClock struct {
	now float64
	seq uint64
	h   eventHeap
}

// Now returns the current virtual time.
func (c *EventClock) Now() float64 { return c.now }

// Len returns the number of pending events.
func (c *EventClock) Len() int { return len(c.h) }

// Schedule enqueues an event at virtual time `at`. Scheduling in the past
// is a logic error in the caller's bookkeeping and panics rather than
// silently breaking monotonicity.
func (c *EventClock) Schedule(at float64, key uint64) {
	if at < c.now {
		panic(fmt.Sprintf("cluster: event scheduled at %.6f before clock %.6f", at, c.now))
	}
	c.seq++
	heap.Push(&c.h, Event{Time: at, Seq: c.seq, Key: key})
}

// Peek returns the earliest pending event without advancing the clock.
func (c *EventClock) Peek() (Event, bool) {
	if len(c.h) == 0 {
		return Event{}, false
	}
	return c.h[0], true
}

// Next pops the earliest pending event and advances the clock to its
// time.
func (c *EventClock) Next() (Event, bool) {
	if len(c.h) == 0 {
		return Event{}, false
	}
	ev := heap.Pop(&c.h).(Event)
	c.now = ev.Time
	return ev, true
}

// Drop removes the earliest pending event WITHOUT advancing the clock.
// This is the other half of lazy cancellation: a scheduler that
// invalidates scheduled events after the fact (the losing copy of a
// speculated task) peeks, recognizes the corpse, and drops it — if it
// used Next, a cancelled 8-second straggler would still drag the clock
// to its never-happening completion time.
func (c *EventClock) Drop() (Event, bool) {
	if len(c.h) == 0 {
		return Event{}, false
	}
	return heap.Pop(&c.h).(Event), true
}

type eventHeap []Event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].Time != h[j].Time {
		return h[i].Time < h[j].Time
	}
	return h[i].Seq < h[j].Seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(Event)) }
func (h *eventHeap) Pop() any     { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }

var _ heap.Interface = (*eventHeap)(nil)

// Skew injects per-task duration skew: each task is independently a
// straggler with probability Rate, running Factor times its nominal
// duration. The draw is a pure hash of (Seed, the task's identity), so it
// is identical regardless of when — or on which goroutine — the task is
// placed. This models the machine-local causes of stragglers the paper's
// clusters exhibit (contended disks, background daemons), which is also
// why a speculative backup copy runs at the nominal duration: it lands on
// a different machine.
type Skew struct {
	Rate   float64 // probability a task straggles (0 disables)
	Factor float64 // duration multiplier for stragglers (> 1)
	Seed   uint64
}

// Stretch returns the duration multiplier for the task identified by ids:
// Factor with probability Rate, else 1. Deterministic in (Seed, ids).
func (k Skew) Stretch(ids ...uint64) float64 {
	if k.Rate <= 0 || k.Factor <= 1 {
		return 1
	}
	h := k.Seed ^ 0x9e3779b97f4a7c15
	for _, id := range ids {
		h = splitmix64(h ^ id)
	}
	// Top 53 bits → uniform [0, 1).
	u := float64(h>>11) / (1 << 53)
	if u < k.Rate {
		return k.Factor
	}
	return 1
}

// splitmix64 is the SplitMix64 finalizer: a cheap, well-mixed 64-bit
// permutation used to derive per-task randomness from structured ids.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// SpecPolicy is the trigger for speculative task re-execution, modelled
// on Spark's spark.speculation.{quantile,multiplier}: once at least
// Quantile of a stage's tasks have finished, any still-running task whose
// elapsed time exceeds Multiplier times the Quantile-th completed
// duration gets a backup copy.
type SpecPolicy struct {
	Quantile     float64 // fraction of the stage that must have completed (default 0.75)
	Multiplier   float64 // elapsed-vs-quantile threshold (default 1.5)
	MinCompleted int     // floor on completed tasks before speculating (default 2)
}

// DefaultSpecPolicy mirrors Spark's defaults.
func DefaultSpecPolicy() SpecPolicy {
	return SpecPolicy{Quantile: 0.75, Multiplier: 1.5, MinCompleted: 2}
}

// withDefaults fills zero fields.
func (p SpecPolicy) withDefaults() SpecPolicy {
	d := DefaultSpecPolicy()
	if p.Quantile <= 0 || p.Quantile > 1 {
		p.Quantile = d.Quantile
	}
	if p.Multiplier <= 1 {
		p.Multiplier = d.Multiplier
	}
	if p.MinCompleted <= 0 {
		p.MinCompleted = d.MinCompleted
	}
	return p
}

// Threshold reports the elapsed-time bar above which a running task of a
// stage with `total` tasks and the given completed durations should be
// speculated, and whether enough of the stage has finished to speculate
// at all.
func (p SpecPolicy) Threshold(completed []float64, total int) (float64, bool) {
	p = p.withDefaults()
	need := int(math.Ceil(p.Quantile * float64(total)))
	if need < p.MinCompleted {
		need = p.MinCompleted
	}
	if len(completed) < need || len(completed) == 0 {
		return 0, false
	}
	sorted := make([]float64, len(completed))
	copy(sorted, completed)
	sort.Float64s(sorted)
	idx := int(math.Ceil(p.Quantile*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	return p.Multiplier * sorted[idx], true
}
