package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

// refRunStageReport is RunStageReport as it was before its bookkeeping
// moved into reused scratch: a fresh sorted copy of the tasks (sort.Slice),
// fresh durations, per-machine memory and live set per stage, and the
// always-sorting makespan on a fresh heap. It shares the fault machinery
// (advanceFaults) with the simulator it runs on, but never reads the
// simulator's live snapshot or stage scratch.
func refRunStageReport(s *Simulator, tasks []Task) (StageReport, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.Stages++
	s.stats.Tasks += len(tasks)
	budget := s.cfg.MemoryPerMachine - s.resident
	rep := StageReport{Tasks: len(tasks)}

	s.advanceFaults(s.clock)
	var live []int
	for {
		live = live[:0]
		for m := 0; m < s.cfg.Machines; m++ {
			if !s.faults.active || !s.faults.down[m] {
				live = append(live, m)
			}
		}
		if len(live) > 0 {
			break
		}
		at, _, _, _, ok := s.faults.next()
		if !ok {
			return rep, ErrNoLiveMachines
		}
		if at > s.clock {
			s.clock = at
		}
		s.advanceFaults(s.clock)
	}

	order := make([]Task, len(tasks))
	copy(order, tasks)
	sort.Slice(order, func(i, j int) bool { return order[i].Compute > order[j].Compute })

	slots := len(live) * s.cfg.CoresPerMachine
	if len(order) > 0 {
		rep.Waves = (len(order) + slots - 1) / slots
	}
	var partial float64
	fail := func(err error) (StageReport, error) {
		rep.Makespan = partial
		rep.Seconds = s.cfg.StageOverhead + partial
		s.clock += rep.Seconds
		return rep, err
	}
	durations := make([]float64, 0, len(order))
	perMachine := make([]int64, len(live))
	for w := 0; w < len(order); w += slots {
		wave := order[w:min(w+slots, len(order))]
		waveIdx := w/slots + 1
		for i := range perMachine {
			perMachine[i] = 0
		}
		for i, t := range wave {
			perMachine[i%len(live)] += t.Memory
		}
		for i, m := range perMachine {
			if m > budget {
				return fail(&OOMError{What: "task", Bytes: m, Limit: budget,
					Wave: waveIdx, Machine: live[i], Resident: s.resident})
			}
		}
		var waveMax float64
		for _, t := range wave {
			d := t.Compute + s.cfg.TaskOverhead
			total := d
			if s.cfg.TaskFailureRate > 0 {
				failures := 0
				for s.rng.Float64() < s.cfg.TaskFailureRate {
					failures++
					if failures > s.cfg.MaxTaskRetries {
						s.stats.BusySeconds += total
						rep.BusySeconds += total
						if total > waveMax {
							waveMax = total
						}
						partial += waveMax
						return fail(&TaskFailureError{Wave: waveIdx, Attempts: failures})
					}
					s.stats.TaskRetries++
					rep.Retries++
					total += d
				}
			}
			durations = append(durations, total)
			s.stats.BusySeconds += total
			rep.BusySeconds += total
			if total > waveMax {
				waveMax = total
			}
			if total > rep.MaxTaskSec {
				rep.MaxTaskSec = total
			}
			if t.Memory > rep.MaxTaskMem {
				rep.MaxTaskMem = t.Memory
			}
		}
		partial += waveMax
	}
	rep.Makespan = refMakespan(durations, slots)
	rep.Seconds = s.cfg.StageOverhead + rep.Makespan
	s.clock += rep.Seconds
	return rep, nil
}

// stageCase is one generated run: a cluster and the stages it runs, in
// order, on one simulator.
type stageCase struct {
	cfg    Config
	stages [][]Task
}

// genStageCase draws a cluster of 1–4 machines of 1–4 cores, optionally
// with transient task failures and a fault plan, and a stage sequence
// that ends by shrinking and growing again. Task costs take four values,
// so most tasks tie on Compute while their Memory differs; budgets range
// from below one task's claim to several waves' worth, so some stages OOM
// in wave 1, 2 or 3.
func genStageCase(r *rand.Rand) stageCase {
	c := DefaultConfig()
	c.Machines = 1 + r.Intn(4)
	c.CoresPerMachine = 1 + r.Intn(4)
	c.StageOverhead = 0.1
	c.TaskOverhead = 0.01
	c.MemoryPerMachine = 1 + r.Int63n(int64(c.CoresPerMachine)*400)
	if r.Intn(3) == 0 {
		c.TaskFailureRate = []float64{0.05, 0.2, 0.5}[r.Intn(3)]
		c.MaxTaskRetries = r.Intn(3)
	}
	switch r.Intn(4) {
	case 0:
		c.Faults.MTBF = 1 + 4*r.Float64()
		c.Faults.Repair = 0.5 + 2*r.Float64()
		c.Faults.Seed = r.Uint64()
	case 1:
		for range 1 + r.Intn(2*c.Machines) {
			kind := FaultCrash
			if r.Intn(3) == 0 {
				kind = FaultRejoin
			}
			c.Faults.Events = append(c.Faults.Events,
				FaultEvent{At: 6 * r.Float64(), Machine: r.Intn(c.Machines), Kind: kind})
		}
	}
	slots := c.Slots()
	sizes := []int{}
	for range r.Intn(4) {
		sizes = append(sizes, r.Intn(4*slots+2))
	}
	big := slots + r.Intn(3*slots+1)
	sizes = append(sizes, big, r.Intn(big), big+1+r.Intn(2*slots))
	sc := stageCase{cfg: c}
	for _, n := range sizes {
		tasks := make([]Task, n)
		for i := range tasks {
			tasks[i] = Task{Compute: float64(r.Intn(4)) * 0.25, Memory: r.Int63n(200)}
		}
		sc.stages = append(sc.stages, tasks)
	}
	return sc
}

// TestRunStageReportMatchesReference: RunStageReport, on its reused
// scratch, reports every stage bit for bit as the reference does on fresh
// memory — each StageReport field, the error's type, fields and text, the
// clock and the stats — over generated clusters and stage sequences,
// including OOMs in waves 1 to 3, exhausted retries, crashes and a
// cluster with no machine left.
func TestRunStageReportMatchesReference(t *testing.T) {
	seen := map[string]int{}
	f := func(seed int64) bool {
		sc := genStageCase(rand.New(rand.NewSource(seed)))
		got, want := mustNew(sc.cfg), mustNew(sc.cfg)
		for i, tasks := range sc.stages {
			in := slices.Clone(tasks)
			gr, gerr := got.RunStageReport(tasks)
			wr, werr := refRunStageReport(want, tasks)
			if !slices.Equal(in, tasks) {
				t.Errorf("seed %d stage %d: RunStageReport changed its input", seed, i)
				return false
			}
			if !reflect.DeepEqual(gr, wr) || !reflect.DeepEqual(gerr, werr) ||
				fmt.Sprint(gerr) != fmt.Sprint(werr) ||
				math.Float64bits(got.Clock()) != math.Float64bits(want.Clock()) ||
				!reflect.DeepEqual(got.Stats(), want.Stats()) {
				t.Errorf("seed %d stage %d:\n got %+v %T %v clock %v %+v\nwant %+v %T %v clock %v %+v",
					seed, i, gr, gerr, gerr, got.Clock(), got.Stats(), wr, werr, werr, want.Clock(), want.Stats())
				return false
			}
			switch e := gerr.(type) {
			case *OOMError:
				seen[fmt.Sprintf("oom wave %d", e.Wave)]++
			case *TaskFailureError:
				seen["retries exhausted"]++
			case nil:
				seen["ok"]++
			default:
				seen[e.Error()]++
			}
		}
		if got.Stats().MachineCrashes > 0 {
			seen["crashes"]++
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"ok", "oom wave 1", "oom wave 2", "oom wave 3",
		"retries exhausted", "crashes", ErrNoLiveMachines.Error()} {
		if seen[k] == 0 {
			t.Errorf("no generated stage exercised %q (seen %v)", k, seen)
		}
	}
}

// TestSortFuncMatchesSortSlice: the simulator's slices.SortFunc orders
// tasks exactly as sort.Slice with the same comparison did, equal-cost
// tasks included — both are the same pdqsort template, and which
// equal-cost task lands on which machine decides the bytes an OOM reports.
func TestSortFuncMatchesSortSlice(t *testing.T) {
	f := func(raw []uint8) bool {
		tasks := make([]Task, len(raw))
		for i, r := range raw {
			tasks[i] = Task{Compute: float64(r % 4), Memory: int64(i)}
		}
		want := slices.Clone(tasks)
		sort.Slice(want, func(i, j int) bool { return want[i].Compute > want[j].Compute })
		got := slices.Clone(tasks)
		slices.SortFunc(got, byComputeDesc)
		return slices.Equal(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestWarmStageAllocatesNothing: once its scratch has grown, a stage of
// 1200 tasks with no faults allocates nothing, and registering an output
// allocates at most its table entry, whatever its partition count.
func TestWarmStageAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	sim := mustNew(DefaultConfig())
	tasks := make([]Task, 1200)
	for i := range tasks {
		tasks[i] = Task{Compute: float64(i%5) * 1e-3, Memory: int64(i)}
	}
	if _, err := sim.RunStageReport(tasks); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(20, func() { sim.RunStageReport(tasks) }); n != 0 {
		t.Errorf("warm RunStageReport of %d tasks: %v allocations, want 0", len(tasks), n)
	}
	for _, parts := range []int{1, 1200, 100000} {
		if n := testing.AllocsPerRun(50, func() { sim.RegisterOutput(parts) }); n > 1 {
			t.Errorf("RegisterOutput(%d): %v allocations, want <= 1", parts, n)
		}
	}
}
