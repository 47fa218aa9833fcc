package procpool

// Seeded fault injection for the process pool, mirroring cluster.FaultPlan
// (PR 5) at the substrate level: where the simulator's plan crashes model
// machines at virtual times, this one damages the real transport — worker
// kills keyed to the dispatch counter, and delayed/dropped/torn data-plane
// frames keyed to a frame counter. Every decision is a pure function of
// (Seed, counter) via splitmix64, so a fixed-seed chaos run injects the
// same faults at the same points on every execution — the property the
// proc-chaos soak's bit-identity assertion rests on.
//
// Injection points are data-plane only (msgTask, msgBlockData): the
// control plane (hello, heartbeat, shutdown) stays clean so a chaos run
// exercises task recovery, not pool bring-up.

import "time"

// FaultPlan describes deterministic faults to inject into a running pool.
// Counters are global across the pool (dispatches, data frames),
// so "every Nth" is exact and seed-stable. The zero value injects nothing.
type FaultPlan struct {
	// Seed drives every per-event choice (where to tear a frame). Two runs with the same seed and workload inject
	// identically.
	Seed uint64

	// KillEveryTasks SIGKILLs the worker a task was just dispatched to on
	// every Nth dispatch (0 disables) — the continuous-crash source for
	// the proc-chaos soak.
	KillEveryTasks int

	// DelayEveryFrames stalls every Nth data-plane frame by Delay before
	// writing it (0 disables; Delay defaults to 5ms).
	DelayEveryFrames int
	Delay            time.Duration

	// DropEveryFrames silently swallows every Nth data-plane frame: the
	// peer never sees it, so only a task deadline or heartbeat timeout
	// can unwedge the stage (0 disables).
	DropEveryFrames int

	// ResetEveryFrames tears every Nth data-plane frame mid-write and
	// resets the connection, killing the worker link (0 disables).
	ResetEveryFrames int
}

// Active reports whether the plan injects anything.
func (p FaultPlan) Active() bool {
	return p.KillEveryTasks > 0 || p.DelayEveryFrames > 0 || p.DropEveryFrames > 0 || p.ResetEveryFrames > 0
}

// frameFault classifies what happens to the n-th data-plane frame.
type frameFault int

const (
	frameClean frameFault = iota
	frameDelay
	frameDrop
	frameReset
)

// frameFaultAt returns the fate of the n-th (1-based) data-plane frame.
// Reset beats drop beats delay when cadences collide, so a plan that sets
// several is still a total function of n.
func (p FaultPlan) frameFaultAt(n uint64) frameFault {
	switch {
	case p.ResetEveryFrames > 0 && n%uint64(p.ResetEveryFrames) == 0:
		return frameReset
	case p.DropEveryFrames > 0 && n%uint64(p.DropEveryFrames) == 0:
		return frameDrop
	case p.DelayEveryFrames > 0 && n%uint64(p.DelayEveryFrames) == 0:
		return frameDelay
	}
	return frameClean
}

// killsAt reports whether the n-th (1-based) task dispatch kills its
// worker.
func (p FaultPlan) killsAt(n uint64) bool {
	return p.KillEveryTasks > 0 && n%uint64(p.KillEveryTasks) == 0
}

// delay returns the configured frame delay, defaulted.
func (p FaultPlan) delay() time.Duration {
	if p.Delay > 0 {
		return p.Delay
	}
	return 5 * time.Millisecond
}

// draw hashes (Seed, domain, counter) to a uniform uint64 — the same
// stateless splitmix64 derivation as cluster.FaultPlan's crash hazard, so
// injected choices depend only on the seed and the event index, never on
// goroutine interleaving.
func (p FaultPlan) draw(domain, n uint64) uint64 {
	h := splitmix64(p.Seed ^ 0x6a09e667f3bcc908)
	h = splitmix64(h ^ domain*0x9e3779b97f4a7c15)
	return splitmix64(h ^ n)
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

// splitmix64 is the finalizer from Vigna's splitmix64 generator: a cheap,
// well-mixed bijection on uint64 (same idiom as internal/cluster).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	z := x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
