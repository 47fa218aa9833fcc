package sched

// The mechanisms the scheduler builds on: a deterministic event-queue
// virtual clock that can interleave tasks from different jobs, hash-
// derived per-task duration skew (straggler injection), and the quantile
// trigger for speculative task re-execution. They decide *when events
// happen* and *how long a task takes*, identically for every run with the
// same seed; sched.go decides *what* to place and when to launch a backup.

import (
	"container/heap"
	"fmt"
	"math"
	"sort"

	"matryoshka/internal/cluster"
)

// event is one scheduled occurrence on an eventClock: its virtual time,
// its schedule order and what it is about. seq breaks ties between events
// at the same time, so pop order is a total order that depends only on
// the sequence of schedule calls — never on map iteration.
type event struct {
	at  float64
	seq uint64
	p   any
}

// eventClock is a discrete-event virtual clock: a priority queue of
// events ordered by (time, schedule order). Unlike cluster.Simulator's
// wave-at-a-time clock, it can interleave individually timed tasks from
// many concurrent jobs.
type eventClock struct {
	now float64
	seq uint64
	h   eventHeap
}

// schedule enqueues payload p at virtual time at. Scheduling in the past
// is a logic error in the caller's bookkeeping and panics rather than
// silently breaking monotonicity.
func (c *eventClock) schedule(at float64, p any) {
	if at < c.now {
		panic(fmt.Sprintf("sched: event scheduled at %.6f before clock %.6f", at, c.now))
	}
	c.seq++
	heap.Push(&c.h, event{at: at, seq: c.seq, p: p})
}

// peek returns the earliest pending event without advancing the clock.
func (c *eventClock) peek() (event, bool) {
	if len(c.h) == 0 {
		return event{}, false
	}
	return c.h[0], true
}

// next pops the earliest pending event and advances the clock to its
// time.
func (c *eventClock) next() (event, bool) {
	ev, ok := c.drop()
	if ok {
		c.now = ev.at
	}
	return ev, ok
}

// drop removes the earliest pending event WITHOUT advancing the clock.
// This is the other half of lazy cancellation: the scheduler invalidates
// events after the fact (the losing copy of a speculated task), peeks,
// recognizes the corpse, and drops it — with next, a cancelled 8-second
// straggler would still drag the clock to its never-happening completion.
func (c *eventClock) drop() (event, bool) {
	if len(c.h) == 0 {
		return event{}, false
	}
	return heap.Pop(&c.h).(event), true
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() any     { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }

// Skew injects per-task duration skew: each task is independently a
// straggler with probability Rate, running Factor times its nominal
// duration. The draw is a pure hash of (Seed, the task's identity), so it
// is identical regardless of when the task is placed. This models the
// machine-local causes of stragglers the paper's clusters exhibit
// (contended disks, background daemons), which is also why a speculative
// backup copy runs at the nominal duration: it lands on a different
// machine.
type Skew struct {
	Rate   float64 // probability a task straggles (0 disables)
	Factor float64 // duration multiplier for stragglers (> 1)
	Seed   uint64
}

// stretch returns the duration multiplier for the task identified by ids:
// Factor with probability Rate, else 1. Deterministic in (Seed, ids).
func (k Skew) stretch(ids ...uint64) float64 {
	if k.Rate <= 0 || k.Factor <= 1 {
		return 1
	}
	h := k.Seed ^ 0x9e3779b97f4a7c15
	for _, id := range ids {
		h = cluster.SplitMix64(h ^ id)
	}
	// Top 53 bits → uniform [0, 1).
	u := float64(h>>11) / (1 << 53)
	if u < k.Rate {
		return k.Factor
	}
	return 1
}

// The speculation trigger, Spark's spark.speculation.{quantile,multiplier}
// defaults: once at least specQuantile of a stage's tasks (and at least
// specMinCompleted) have finished, a still-running task whose elapsed
// time exceeds specMultiplier times the specQuantile-th completed
// duration gets a backup copy.
const (
	specQuantile     = 0.75
	specMultiplier   = 1.5
	specMinCompleted = 2
)

// specThreshold reports the elapsed-time bar above which a running task
// of a stage with total tasks and the given completed durations should be
// speculated, and whether enough of the stage has finished to speculate
// at all.
func specThreshold(completed []float64, total int) (float64, bool) {
	need := int(math.Ceil(specQuantile * float64(total)))
	if need < specMinCompleted {
		need = specMinCompleted
	}
	if len(completed) < need {
		return 0, false
	}
	sorted := make([]float64, len(completed))
	copy(sorted, completed)
	sort.Float64s(sorted)
	idx := int(math.Ceil(specQuantile*float64(len(sorted)))) - 1
	return specMultiplier * sorted[idx], true
}
