package cluster

// This file adds machine failures to the simulator. The paper's substrate
// (Spark, Sec. 9) survives worker loss by recomputing lost partitions from
// lineage; to reproduce that behaviour the simulator must first be able to
// *lose* things. A FaultPlan crashes machines at explicit virtual times or
// via a seeded MTBF hazard; a crash destroys the shuffle outputs resident
// on that machine, so a later stage's fetch raises a typed
// *FetchFailedError that the engine's recovery loop turns into a lineage
// rewind (internal/engine/recover.go). Everything here is a pure function
// of (seed, ids): fixed-seed chaos runs are bit-identical.

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrFetchFailed reports that a stage tried to read shuffle outputs that
// were resident on a machine that has since crashed — the simulator
// analogue of Spark's FetchFailedException. The engine reacts by rewinding
// the lost parent stages along lineage, not by re-lowering the plan.
var ErrFetchFailed = errors.New("cluster: shuffle fetch failed")

// ErrNoLiveMachines reports that every machine is down and no rejoin is
// scheduled, so the cluster can never run another task. With an MTBF
// hazard machines always rejoin; only an explicit FaultPlan can strand the
// cluster like this.
var ErrNoLiveMachines = errors.New("cluster: all machines are down with no rejoin scheduled")

// FetchFailedError wraps ErrFetchFailed with the crashed machine and the
// partitions it took down. The engine names the lost parent stage when it
// renders the failure (the simulator only knows output handles).
type FetchFailedError struct {
	Machine int   // crashed machine that held the lost partitions
	Parts   []int // lost partition indices, sorted
	Total   int   // partitions in the output
}

func (e *FetchFailedError) Error() string {
	return fmt.Sprintf("cluster: fetch failed: machine %d crashed holding %d/%d shuffle partitions %v",
		e.Machine, len(e.Parts), e.Total, e.Parts)
}

func (e *FetchFailedError) Unwrap() error { return ErrFetchFailed }

// FaultKind distinguishes the two machine transitions of a FaultPlan.
type FaultKind int

const (
	// FaultCrash takes a machine down, destroying its resident shuffle
	// outputs. A crashed machine stays down until a FaultRejoin (explicit
	// plans) or for FaultPlan.Repair seconds (MTBF hazard).
	FaultCrash FaultKind = iota
	// FaultRejoin brings a machine back, empty: it holds no shuffle
	// outputs and must re-fetch pinned broadcast blocks (charged).
	FaultRejoin
)

func (k FaultKind) String() string {
	if k == FaultCrash {
		return "crash"
	}
	return "rejoin"
}

// FaultEvent is one explicit machine transition at a virtual time.
type FaultEvent struct {
	At      float64
	Machine int
	Kind    FaultKind
}

// FaultPlan describes when machines fail. Two sources compose:
//
//   - Events: explicit crash/rejoin transitions at fixed virtual times
//     (deterministic by construction; crashed machines stay down until an
//     explicit rejoin).
//   - MTBF: a seeded hazard — each machine crashes with the given mean
//     virtual time between failures and rejoins Repair seconds later. The
//     k-th gap of machine m is an exponential draw derived by hashing
//     (Seed, m, k), so the whole schedule is a pure function of the seed:
//     no RNG state, no dependence on call order.
//
// The zero value injects nothing.
type FaultPlan struct {
	Events []FaultEvent
	MTBF   float64 // mean virtual seconds between crashes per machine (0 disables)
	Repair float64 // downtime before a hazard-crashed machine rejoins (default 10)
	Seed   uint64
}

// Active reports whether the plan injects any faults.
func (p FaultPlan) Active() bool { return p.MTBF > 0 || len(p.Events) > 0 }

// withDefaults returns the plan with zero fields defaulted (Repair 10).
func (p FaultPlan) withDefaults() FaultPlan {
	if p.Repair <= 0 {
		p.Repair = 10
	}
	return p
}

// Validate rejects out-of-domain plans; machines is the cluster size.
func (p FaultPlan) Validate(machines int) error {
	if p.MTBF < 0 {
		return fmt.Errorf("cluster: FaultPlan.MTBF must be >= 0, got %g", p.MTBF)
	}
	if p.Repair < 0 {
		return fmt.Errorf("cluster: FaultPlan.Repair must be >= 0, got %g", p.Repair)
	}
	for _, ev := range p.Events {
		if ev.At < 0 {
			return fmt.Errorf("cluster: fault event at negative time %g", ev.At)
		}
		if ev.Machine < 0 || ev.Machine >= machines {
			return fmt.Errorf("cluster: fault event targets machine %d of %d", ev.Machine, machines)
		}
		if ev.Kind != FaultCrash && ev.Kind != FaultRejoin {
			return fmt.Errorf("cluster: unknown fault kind %d", ev.Kind)
		}
	}
	return nil
}

// crashGap returns machine m's draw-th up-time gap: an exponential with
// mean MTBF, derived purely from (Seed, m, draw).
func (p FaultPlan) crashGap(machine, draw int) float64 {
	h := SplitMix64(p.Seed ^ 0x51b9d1e4c2a7f36d)
	h = SplitMix64(h ^ uint64(machine)*0x9e3779b97f4a7c15)
	h = SplitMix64(h ^ uint64(draw))
	// Top 53 bits, offset to (0,1) so log never sees zero.
	u := (float64(h>>11) + 0.5) / (1 << 53)
	return -p.MTBF * math.Log(u)
}

// SplitMix64 is the SplitMix64 finalizer: a cheap, well-mixed 64-bit
// permutation used to derive per-draw randomness from structured ids.
// The crash hazard, the process pool's fault plan and the scheduler's
// straggler skew all draw through it.
func SplitMix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// OutputID is a handle to one stage's registered shuffle output. The
// engine registers an output after each completed stage and checks it
// before each consuming fetch; the handle stays valid until DropOutput.
type OutputID int64

// Outputs is the shuffle-residency table: where each partition of every
// registered output lives, and which partitions a machine loss destroyed.
// It is the one placement-and-loss rule of both backends — the simulator
// and the process pool (internal/procpool) keep their outputs here, so a
// real worker death and a simulated crash produce the same
// FetchFailedError. Not safe for concurrent use: each caller serializes
// it under its own lock. The zero value is empty and ready.
type Outputs struct {
	m    map[OutputID]*output
	next OutputID
}

// output is one registered output. A live partition stores its machine
// index; a lost partition stores -(machine+1), remembering which loss
// destroyed it.
type output struct {
	machines []int
	counted  bool // Check already reported this output's first failure
}

// Register places an output of parts partitions: partition p on
// live[p%len(live)], round-robin over the live machines like the wave
// scheduler's spread. With nothing live the output is born lost on the
// machine that would have held it, p%machines: the consuming fetch fails
// and recomputation waits for a machine to come back.
func (t *Outputs) Register(parts int, live []int, machines int) OutputID {
	o := &output{machines: make([]int, parts)}
	for p := range o.machines {
		if len(live) > 0 {
			o.machines[p] = live[p%len(live)]
		} else {
			o.machines[p] = -(p%machines + 1)
		}
	}
	if t.m == nil {
		t.m = make(map[OutputID]*output)
	}
	id := t.next
	t.next++
	t.m[id] = o
	return id
}

// Lose marks every partition resident on machine lost and returns how
// many it marked.
func (t *Outputs) Lose(machine int) int {
	lost := 0
	for _, o := range t.m {
		for p, loc := range o.machines {
			if loc == machine {
				o.machines[p] = -(machine + 1)
				lost++
			}
		}
	}
	return lost
}

// Check returns a *FetchFailedError naming the first lost partition's
// machine and every lost partition of the output, or nil when all are
// resident or the handle is unknown (already dropped). first is true the
// first time an output fails, so each caller counts a fetch failure once
// per output.
func (t *Outputs) Check(id OutputID) (ff *FetchFailedError, first bool) {
	o := t.m[id]
	if o == nil {
		return nil, false
	}
	for p, loc := range o.machines {
		if loc >= 0 {
			continue
		}
		if ff == nil {
			ff = &FetchFailedError{Machine: -loc - 1, Total: len(o.machines)}
		}
		ff.Parts = append(ff.Parts, p)
	}
	if ff == nil {
		return nil, false
	}
	first = !o.counted
	o.counted = true
	return ff, first
}

// Drop forgets an output; later losses no longer affect it.
func (t *Outputs) Drop(id OutputID) { delete(t.m, id) }

// faultState is the simulator's view of the fault plan: per-machine
// liveness plus the merged cursor over explicit events and the hazard.
type faultState struct {
	plan    FaultPlan
	active  bool
	down    []bool
	crashes []int

	events []FaultEvent // explicit, sorted by (At, Machine)
	evIdx  int

	hazAt   []float64 // next hazard transition per machine (+Inf when idle)
	hazUp   []bool    // true: next hazard transition is a rejoin
	hazDraw []int     // next gap index per machine
}

func newFaultState(p FaultPlan, machines int) faultState {
	f := faultState{plan: p.withDefaults(), active: p.Active()}
	if !f.active {
		return f
	}
	f.down = make([]bool, machines)
	f.crashes = make([]int, machines)
	f.events = make([]FaultEvent, len(p.Events))
	copy(f.events, p.Events)
	sort.SliceStable(f.events, func(i, j int) bool {
		if f.events[i].At != f.events[j].At {
			return f.events[i].At < f.events[j].At
		}
		return f.events[i].Machine < f.events[j].Machine
	})
	f.hazAt = make([]float64, machines)
	f.hazUp = make([]bool, machines)
	f.hazDraw = make([]int, machines)
	for m := range f.hazAt {
		if f.plan.MTBF > 0 {
			f.hazAt[m] = f.plan.crashGap(m, 0)
			f.hazDraw[m] = 1
		} else {
			f.hazAt[m] = math.Inf(1)
		}
	}
	return f
}

// next returns the earliest pending transition: its time, machine, kind,
// and whether it came from the explicit list (explicit wins ties, then
// lower machine index — a total order independent of map iteration).
func (f *faultState) next() (at float64, machine int, kind FaultKind, explicit, ok bool) {
	at = math.Inf(1)
	if f.evIdx < len(f.events) {
		ev := f.events[f.evIdx]
		at, machine, kind, explicit, ok = ev.At, ev.Machine, ev.Kind, true, true
	}
	for m, t := range f.hazAt {
		if t < at {
			k := FaultCrash
			if f.hazUp[m] {
				k = FaultRejoin
			}
			at, machine, kind, explicit, ok = t, m, k, false, true
		}
	}
	return at, machine, kind, explicit, ok
}

// advanceFaults applies every fault transition scheduled at or before
// `now`. Called with s.mu held; the fault observer (if any) runs under the
// lock and must not call back into the simulator.
func (s *Simulator) advanceFaults(now float64) {
	f := &s.faults
	if !f.active {
		return
	}
	for {
		at, m, kind, explicit, ok := f.next()
		if !ok || at > now {
			return
		}
		if explicit {
			f.evIdx++
		} else if kind == FaultCrash {
			f.hazUp[m] = true
			f.hazAt[m] = at + f.plan.Repair
		} else {
			f.hazUp[m] = false
			f.hazAt[m] = at + f.plan.crashGap(m, f.hazDraw[m])
			f.hazDraw[m]++
		}
		switch kind {
		case FaultCrash:
			s.applyCrash(at, m)
		case FaultRejoin:
			s.applyRejoin(at, m)
		}
	}
}

func (s *Simulator) applyCrash(at float64, m int) {
	f := &s.faults
	if f.down[m] {
		return
	}
	f.down[m] = true
	f.crashes[m]++
	s.stats.MachineCrashes++
	lost := s.outputs.Lose(m)
	if s.onFault != nil {
		s.onFault(at, m, "crash", fmt.Sprintf("lost %d shuffle partitions", lost))
	}
}

func (s *Simulator) applyRejoin(at float64, m int) {
	f := &s.faults
	if !f.down[m] {
		return
	}
	f.down[m] = false
	s.stats.MachineRejoins++
	// The rejoined machine comes back empty and must re-fetch the pinned
	// broadcast blocks; charge the driver's per-byte push for them.
	if s.resident > 0 {
		s.clock += float64(s.resident) * s.cfg.PerByteBroadcast
	}
	if s.onFault != nil {
		s.onFault(at, m, "rejoin", fmt.Sprintf("%d broadcast bytes re-pushed", s.resident))
	}
}

// liveMachines returns the indices of machines currently up. With no
// active fault plan that is every machine.
func (s *Simulator) liveMachines() []int {
	live := make([]int, 0, s.cfg.Machines)
	for m := 0; m < s.cfg.Machines; m++ {
		if !s.faults.active || !s.faults.down[m] {
			live = append(live, m)
		}
	}
	return live
}

// LiveMachines reports how many machines are currently up (fault
// transitions scheduled before the current clock applied first).
func (s *Simulator) LiveMachines() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.advanceFaults(s.clock)
	return len(s.liveMachines())
}

// SetFaultObserver installs a callback invoked for every applied fault
// transition (kind "crash" or "rejoin"). The callback runs under the
// simulator lock and must not call back into the simulator; the engine
// uses it to feed fault events into the observation spine.
func (s *Simulator) SetFaultObserver(fn func(at float64, machine int, kind, detail string)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.onFault = fn
}

// RegisterOutput records where a completed stage's shuffle output lives
// (Outputs.Register over the live machines). The engine calls it after
// each successful stage and checks the handle with CheckFetch before each
// consuming stage.
func (s *Simulator) RegisterOutput(parts int) OutputID {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.advanceFaults(s.clock)
	return s.outputs.Register(parts, s.liveMachines(), s.cfg.Machines)
}

// CheckFetch reports whether the output's partitions are all still
// resident on live machines. If a crash destroyed any, it returns a
// *FetchFailedError naming the crashed machine and the lost partitions.
// An unknown (already dropped) handle fetches cleanly.
func (s *Simulator) CheckFetch(id OutputID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.advanceFaults(s.clock)
	ff, first := s.outputs.Check(id)
	if ff == nil {
		return nil
	}
	if first {
		s.stats.FetchFailures++
	}
	return ff
}

// DropOutput forgets a registered output (its stage was rewound or its
// job finished); subsequent crashes no longer affect it.
func (s *Simulator) DropOutput(id OutputID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.outputs.Drop(id)
}

// awaitLiveMachine stalls the clock until at least one machine is up,
// applying fault transitions along the way. Returns the live set, or an
// error if the cluster is permanently dead. Called with s.mu held.
func (s *Simulator) awaitLiveMachine() ([]int, error) {
	for {
		live := s.liveMachines()
		if len(live) > 0 {
			return live, nil
		}
		at, _, _, _, ok := s.faults.next()
		if !ok {
			return nil, ErrNoLiveMachines
		}
		if at > s.clock {
			s.clock = at
		}
		s.advanceFaults(s.clock)
	}
}
