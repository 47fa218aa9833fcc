package procpool

// Seeded fault injection for the process pool, mirroring cluster.FaultPlan
// at the substrate level: where the simulator's plan crashes model
// machines at virtual times, this one damages the real transport — worker
// kills keyed to the dispatch counter, and delayed or torn data-plane
// frames keyed to a frame counter. Every fault is one an ordered stream
// socket can really suffer: it can stall or break, and it never loses a
// frame while it stays open. Every decision is a pure function of
// (Seed, counter) via splitmix64, so a fixed-seed chaos run injects the
// same faults at the same points on every execution — the property the
// proc-chaos soak's bit-identity assertion rests on.
//
// Injection points are data-plane only (msgTask, msgBlockData): the
// control plane (hello, heartbeat, shutdown) stays clean so a chaos run
// exercises task recovery, not pool bring-up.

import (
	"time"

	"matryoshka/internal/cluster"
)

// FaultPlan describes deterministic faults to inject into a running pool;
// it is the one place a pool fault is injected. Counters are global across
// the pool (dispatches, data frames), so "the Nth" and "every Nth" are
// exact and seed-stable. The zero value injects nothing.
type FaultPlan struct {
	// Seed drives every per-event choice (where to tear a frame). Two
	// runs with the same seed and workload inject identically.
	Seed uint64

	// KillAfterTasks SIGKILLs the worker a task was just dispatched to on
	// the Nth dispatch of the pool's lifetime (1-based; 0 disables) — the
	// one deterministic mid-stage crash the recovery tests inject.
	KillAfterTasks int

	// KillEveryTasks SIGKILLs the worker a task was just dispatched to on
	// every Nth dispatch (0 disables) — the continuous-crash source for
	// the proc-chaos soak.
	KillEveryTasks int

	// DelayEveryFrames stalls every Nth data-plane frame by Delay before
	// writing it (0 disables; Delay defaults to 5ms).
	DelayEveryFrames int
	Delay            time.Duration

	// ResetEveryFrames tears every Nth data-plane frame mid-write and
	// resets the connection, killing the worker link (0 disables).
	ResetEveryFrames int
}

// Active reports whether the plan injects anything.
func (p FaultPlan) Active() bool {
	return p.KillAfterTasks > 0 || p.KillEveryTasks > 0 || p.DelayEveryFrames > 0 || p.ResetEveryFrames > 0
}

// frameFault classifies what happens to the n-th data-plane frame.
type frameFault int

const (
	frameClean frameFault = iota
	frameDelay
	frameReset
)

// frameFaultAt returns the fate of the n-th (1-based) data-plane frame.
// Reset beats delay when cadences collide, so a plan that sets both is
// still a total function of n.
func (p FaultPlan) frameFaultAt(n uint64) frameFault {
	switch {
	case p.ResetEveryFrames > 0 && n%uint64(p.ResetEveryFrames) == 0:
		return frameReset
	case p.DelayEveryFrames > 0 && n%uint64(p.DelayEveryFrames) == 0:
		return frameDelay
	}
	return frameClean
}

// killsAt reports whether the n-th (1-based) task dispatch kills its
// worker: the one-shot kill's dispatch, or one of the repeating kill's.
func (p FaultPlan) killsAt(n uint64) bool {
	return n == uint64(p.KillAfterTasks) || p.KillEveryTasks > 0 && n%uint64(p.KillEveryTasks) == 0
}

// delay returns the configured frame delay, defaulted.
func (p FaultPlan) delay() time.Duration {
	if p.Delay > 0 {
		return p.Delay
	}
	return 5 * time.Millisecond
}

// draw hashes (Seed, domain, counter) to a uniform uint64 — the same
// stateless SplitMix64 derivation as cluster.FaultPlan's crash hazard, so
// injected choices depend only on the seed and the event index, never on
// goroutine interleaving.
func (p FaultPlan) draw(domain, n uint64) uint64 {
	h := cluster.SplitMix64(p.Seed ^ 0x6a09e667f3bcc908)
	h = cluster.SplitMix64(h ^ domain*0x9e3779b97f4a7c15)
	return cluster.SplitMix64(h ^ n)
}

// tearPoint picks where to cut the n-th torn frame: somewhere strictly
// inside the encoded frame so the peer sees a short read, not a clean
// boundary.
func (p FaultPlan) tearPoint(n uint64, frameLen int) int {
	if frameLen <= 1 {
		return 0
	}
	return 1 + int(p.draw(1, n)%uint64(frameLen-1))
}
