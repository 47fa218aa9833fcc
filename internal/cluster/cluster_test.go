package cluster

import (
	"cmp"
	"errors"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

// mustNew unwraps New for tests using known-valid configs.
func mustNew(c Config) *Simulator {
	s, err := New(c)
	if err != nil {
		panic(err)
	}
	return s
}

func testConfig() Config {
	c := DefaultConfig()
	c.Machines = 2
	c.CoresPerMachine = 2
	c.MemoryPerMachine = 1000
	c.JobLaunchOverhead = 1
	c.StageOverhead = 0.1
	c.TaskOverhead = 0.01
	c.MemoryOverheadFactor = 1
	return c
}

func TestMemorySharedWithinWave(t *testing.T) {
	s := mustNew(testConfig()) // 2 machines x 2 cores, 1000 bytes each
	// Four concurrent 600-byte tasks: two land on each machine -> 1200 > 1000.
	tasks := make([]Task, 4)
	for i := range tasks {
		tasks[i] = Task{Compute: 1, Memory: 600}
	}
	if err := s.RunStage(tasks); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("err = %v, want OOM from co-resident tasks", err)
	}
}

func TestFewTasksGetWholeMachine(t *testing.T) {
	s := mustNew(testConfig())
	// Two 900-byte tasks spread to the two machines: each fits alone.
	if err := s.RunStage([]Task{{Compute: 1, Memory: 900}, {Compute: 1, Memory: 900}}); err != nil {
		t.Fatalf("err = %v, want nil (one heavy task per machine)", err)
	}
}

func TestJobOverheadAccumulates(t *testing.T) {
	s := mustNew(testConfig())
	for i := 0; i < 5; i++ {
		s.StartJob()
	}
	if got := s.Clock(); math.Abs(got-5) > 1e-9 {
		t.Errorf("clock = %v, want 5", got)
	}
	if s.Stats().Jobs != 5 {
		t.Errorf("jobs = %d, want 5", s.Stats().Jobs)
	}
}

func TestStageMakespanPerfectlyParallel(t *testing.T) {
	s := mustNew(testConfig()) // 4 slots
	tasks := make([]Task, 4)
	for i := range tasks {
		tasks[i] = Task{Compute: 1}
	}
	if err := s.RunStage(tasks); err != nil {
		t.Fatal(err)
	}
	// 4 tasks on 4 slots: makespan = 1 + taskOverhead, plus stage overhead.
	want := 0.1 + 1 + 0.01
	if got := s.Clock(); math.Abs(got-want) > 1e-9 {
		t.Errorf("clock = %v, want %v", got, want)
	}
}

func TestStageMakespanSerializesBeyondSlots(t *testing.T) {
	s := mustNew(testConfig()) // 4 slots
	tasks := make([]Task, 8)
	for i := range tasks {
		tasks[i] = Task{Compute: 1}
	}
	if err := s.RunStage(tasks); err != nil {
		t.Fatal(err)
	}
	want := 0.1 + 2*(1+0.01) // two waves
	if got := s.Clock(); math.Abs(got-want) > 1e-9 {
		t.Errorf("clock = %v, want %v", got, want)
	}
}

func TestStragglerDominatesMakespan(t *testing.T) {
	s := mustNew(testConfig())
	tasks := []Task{{Compute: 10}, {Compute: 0.1}, {Compute: 0.1}, {Compute: 0.1}}
	if err := s.RunStage(tasks); err != nil {
		t.Fatal(err)
	}
	if got := s.Clock(); got < 10 {
		t.Errorf("clock = %v, want >= 10 (straggler)", got)
	}
	if got := s.Clock(); got > 10.5 {
		t.Errorf("clock = %v, want ~10.11", got)
	}
}

func TestTaskOOM(t *testing.T) {
	s := mustNew(testConfig()) // 1000 bytes per machine
	err := s.RunStage([]Task{{Compute: 1, Memory: 2000}})
	if !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("err = %v, want ErrOutOfMemory", err)
	}
	var oom *OOMError
	if !errors.As(err, &oom) || oom.Bytes != 2000 {
		t.Errorf("OOMError details wrong: %+v", oom)
	}
}

func TestBroadcastOOMAndResidency(t *testing.T) {
	s := mustNew(testConfig())
	if err := s.Broadcast(600); err != nil {
		t.Fatal(err)
	}
	// Broadcast shrinks the task budget.
	if err := s.RunStage([]Task{{Memory: 500}}); !errors.Is(err, ErrOutOfMemory) {
		t.Errorf("task over reduced budget: err = %v, want OOM", err)
	}
	// A second broadcast beyond the limit fails too.
	if err := s.Broadcast(600); !errors.Is(err, ErrOutOfMemory) {
		t.Errorf("second broadcast: err = %v, want OOM", err)
	}
	s.ReleaseBroadcasts()
	if err := s.RunStage([]Task{{Memory: 900}}); err != nil {
		t.Errorf("after release: err = %v, want nil", err)
	}
}

func TestMakespanProperties(t *testing.T) {
	// Property: makespan >= max duration, makespan >= sum/slots,
	// makespan <= sum (never worse than fully serial).
	f := func(raw []uint16, slots8 uint8) bool {
		slots := int(slots8%16) + 1
		durations := make([]float64, len(raw))
		var sum, maxD float64
		for i, r := range raw {
			durations[i] = float64(r) / 100
			sum += durations[i]
			if durations[i] > maxD {
				maxD = durations[i]
			}
		}
		m := makespan(durations, slots)
		lower := math.Max(maxD, sum/float64(slots))
		return m >= lower-1e-9 && m <= sum+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// refMakespan is makespan as it was before it trusted presorted input: it
// always sorts a copy.
func refMakespan(durations []float64, slots int) float64 {
	if len(durations) == 0 {
		return 0
	}
	if slots < 1 {
		slots = 1
	}
	sorted := slices.Clone(durations)
	sort.Sort(sort.Reverse(sort.Float64Slice(sorted)))
	if len(sorted) <= slots {
		return sorted[0]
	}
	h := newFloatHeap(slots)
	for _, d := range sorted {
		h.addToMin(d)
	}
	return h.max()
}

// TestMakespanMatchesAlwaysSorting: makespan equals the always-sorting
// routine bit for bit on the durations RunStageReport hands it — task
// costs in longest-first order, many of them tied, plus the task overhead,
// some multiplied by retries — and on arbitrary order.
func TestMakespanMatchesAlwaysSorting(t *testing.T) {
	f := func(raw []uint8, retries []uint8, slots8 uint8, seed int64) bool {
		slots := int(slots8%16) + 1
		compute := make([]float64, len(raw))
		for i, r := range raw {
			compute[i] = float64(r%8) / 3 // few distinct values: ties
		}
		slices.SortFunc(compute, func(a, b float64) int { return cmp.Compare(b, a) })
		durations := make([]float64, len(compute))
		for i, c := range compute {
			d := c + 0.1
			durations[i] = d
			if i < len(retries) && retries[i]%5 == 0 {
				durations[i] += d * float64(retries[i]%3)
			}
		}
		shuffled := slices.Clone(durations)
		rand.New(rand.NewSource(seed)).Shuffle(len(shuffled), func(i, j int) {
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		})
		return makespan(durations, slots) == refMakespan(durations, slots) &&
			makespan(shuffled, slots) == refMakespan(shuffled, slots)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestMoreMachinesNeverSlower(t *testing.T) {
	durations := make([]float64, 100)
	for i := range durations {
		durations[i] = float64(i%7) + 0.5
	}
	prev := math.Inf(1)
	for slots := 1; slots <= 64; slots *= 2 {
		m := makespan(durations, slots)
		if m > prev+1e-9 {
			t.Errorf("makespan with %d slots = %v > previous %v", slots, m, prev)
		}
		prev = m
	}
}

func TestInvalidConfigReturnsError(t *testing.T) {
	if _, err := New(Config{Machines: 0, CoresPerMachine: 1, MemoryPerMachine: 1}); err == nil {
		t.Error("New with zero machines should return an error")
	}
}

func TestDefaultConfigsSane(t *testing.T) {
	for _, cfg := range []Config{DefaultConfig(), LargeConfig()} {
		if err := cfg.validate(); err != nil {
			t.Errorf("config invalid: %v", err)
		}
		if cfg.Slots() <= 0 {
			t.Errorf("slots = %d", cfg.Slots())
		}
	}
	if LargeConfig().Slots() <= DefaultConfig().Slots() {
		t.Error("large cluster should have more slots")
	}
}

func TestFailureInjectionRetriesAndDeterminism(t *testing.T) {
	// A stage whose task exhausts its retries fails with a typed error;
	// callers (the engine's recovery loop) rerun it. Either way the rng
	// stream — and hence the clock — is deterministic across simulator
	// instances.
	run := func() (Stats, float64, int) {
		cfg := testConfig()
		cfg.TaskFailureRate = 0.3
		s := mustNew(cfg)
		stageFailures := 0
		for i := 0; i < 20; i++ {
			tasks := make([]Task, 10)
			for j := range tasks {
				tasks[j] = Task{Compute: 1}
			}
			for {
				err := s.RunStage(tasks)
				if err == nil {
					break
				}
				if !errors.Is(err, ErrTaskRetriesExhausted) {
					t.Fatal(err)
				}
				stageFailures++
				if stageFailures > 1000 {
					t.Fatal("stage never completes")
				}
			}
		}
		return s.Stats(), s.Clock(), stageFailures
	}
	st1, c1, f1 := run()
	st2, c2, f2 := run()
	if st1.TaskRetries == 0 {
		t.Fatal("expected injected retries")
	}
	if st1.TaskRetries != st2.TaskRetries || c1 != c2 || f1 != f2 {
		t.Fatalf("failure injection must be deterministic: %v/%v/%v vs %v/%v/%v",
			st1.TaskRetries, c1, f1, st2.TaskRetries, c2, f2)
	}
	// Retries (and failed stage attempts) make the run slower than a
	// failure-free one.
	cfg := testConfig()
	s := mustNew(cfg)
	for i := 0; i < 20; i++ {
		tasks := make([]Task, 10)
		for j := range tasks {
			tasks[j] = Task{Compute: 1}
		}
		if err := s.RunStage(tasks); err != nil {
			t.Fatal(err)
		}
	}
	if c1 <= s.Clock() {
		t.Errorf("with failures %.2fs should exceed clean %.2fs", c1, s.Clock())
	}
}

func TestTaskOOMCarriesWaveMachineResident(t *testing.T) {
	s := mustNew(testConfig()) // 2x2, 1000 bytes per machine
	if err := s.Broadcast(200); err != nil {
		t.Fatal(err)
	}
	// Wave 1 (4 long, light tasks) fits; wave 2 has two 900-byte tasks
	// landing on machine 0 and 1 — each over the 800-byte reduced budget.
	tasks := []Task{
		{Compute: 2, Memory: 10}, {Compute: 2, Memory: 10},
		{Compute: 2, Memory: 10}, {Compute: 2, Memory: 10},
		{Compute: 1, Memory: 900}, {Compute: 1, Memory: 10},
	}
	err := s.RunStage(tasks)
	var oom *OOMError
	if !errors.As(err, &oom) {
		t.Fatalf("err = %v, want *OOMError", err)
	}
	if oom.Wave != 2 || oom.Machine != 0 || oom.Resident != 200 || oom.Limit != 800 {
		t.Errorf("OOM detail = %+v, want wave 2, machine 0, resident 200, limit 800", oom)
	}
	if oom.Bytes != 900 {
		t.Errorf("oom.Bytes = %d, want 900", oom.Bytes)
	}
}

func TestFailedStageChargesPartialMakespan(t *testing.T) {
	s := mustNew(testConfig()) // 4 slots
	// Wave 1: four 1s tasks, fits. Wave 2: a 2000-byte task OOMs.
	tasks := []Task{
		{Compute: 1}, {Compute: 1}, {Compute: 1}, {Compute: 1},
		{Compute: 0.5, Memory: 2000},
	}
	before := s.Clock()
	err := s.RunStage(tasks)
	if !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("err = %v, want OOM", err)
	}
	// The failed attempt still burned stage overhead + wave 1's makespan.
	want := 0.1 + (1 + 0.01)
	if got := s.Clock() - before; math.Abs(got-want) > 1e-9 {
		t.Errorf("failed-stage charge = %v, want %v", got, want)
	}
}

func TestRetriesExhaustedFailsStageWithCharge(t *testing.T) {
	cfg := testConfig()
	cfg.TaskFailureRate = 1 // every attempt fails
	s := mustNew(cfg)
	before := s.Clock()
	err := s.RunStage([]Task{{Compute: 1}})
	if !errors.Is(err, ErrTaskRetriesExhausted) {
		t.Fatalf("err = %v, want ErrTaskRetriesExhausted", err)
	}
	if errors.Is(err, ErrOutOfMemory) {
		t.Error("a transient task failure must not look like an OOM")
	}
	var tf *TaskFailureError
	if !errors.As(err, &tf) || tf.Wave != 1 || tf.Attempts != 2 {
		t.Errorf("TaskFailureError = %+v, want wave 1, 2 attempts (default MaxTaskRetries 1)", tf)
	}
	// Two failed attempts of a 1.01s task, plus stage overhead.
	want := 0.1 + 2*(1+0.01)
	if got := s.Clock() - before; math.Abs(got-want) > 1e-9 {
		t.Errorf("exhausted-retry charge = %v, want %v", got, want)
	}
	if st := s.Stats(); st.TaskRetries != 1 {
		t.Errorf("TaskRetries = %d, want 1 (one retry launched before the cap)", st.TaskRetries)
	}
}

func TestMaxTaskRetriesZeroFailsOnFirstFailure(t *testing.T) {
	cfg := testConfig()
	cfg.TaskFailureRate = 1
	cfg.MaxTaskRetries = 0
	s := mustNew(cfg)
	err := s.RunStage([]Task{{Compute: 1}})
	var tf *TaskFailureError
	if !errors.As(err, &tf) || tf.Attempts != 1 {
		t.Fatalf("err = %v, want TaskFailureError after 1 attempt", err)
	}
}

func TestUnpinRestoresTaskBudget(t *testing.T) {
	s := mustNew(testConfig())
	if err := s.Broadcast(600); err != nil {
		t.Fatal(err)
	}
	if err := s.RunStage([]Task{{Memory: 500}}); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("task over reduced budget: err = %v, want OOM", err)
	}
	s.Unpin(600)
	if err := s.RunStage([]Task{{Memory: 500}}); err != nil {
		t.Errorf("after Unpin: err = %v, want nil", err)
	}
}
