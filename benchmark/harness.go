package main

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"matryoshka/internal/cluster"
	"matryoshka/internal/engine"
	"matryoshka/internal/ir"
	"matryoshka/internal/obs"
	"matryoshka/internal/procpool"
	"matryoshka/internal/sizeest"
)

// plan fixes how much one measurement does. The defaults are the
// benchmark's; bench_test.go shrinks them.
type plan struct {
	seed       int64
	div        int     // input shrink factor (1 = full size)
	seconds    float64 // length of the timed pass
	minSamples int     // timed samples taken even if seconds is over
	setups     int     // times set-up is repeated; setup_s is their median
	warmups    int     // untimed runs at the end of each set-up
	tracedRuns int     // traced runs; their medians are reported
	oneProc    int     // untraced runs at GOMAXPROCS=1
	twinRuns   int     // in-process twin runs of the proc workload
}

func defaultPlan(seed int64, seconds float64) plan {
	return plan{seed: seed, div: 1, seconds: seconds, minSamples: 11, setups: 3, warmups: 2, tracedRuns: 3, oneProc: 3, twinRuns: 5}
}

// maxProcs is the driver's GOMAXPROCS: min(nproc, 4).
func maxProcs() int {
	if n := runtime.NumCPU(); n < 4 {
		return n
	}
	return 4
}

// fallbackStages is how many stages of kmeans_inner_proc run on the
// driver: the cached source stage, whose partitions are driver-resident.
// More than that means stages silently stopped shipping.
const fallbackStages = 1

// measurement drives one workload in this process.
type measurement struct {
	w    *workload
	p    plan
	cc   cluster.Config
	pool *procpool.Pool // live pool of the proc workload, else nil

	ref any // sequential reference value
	// sim is the simulated makespan: the first run sets it and every
	// later run on a simulator must reproduce it bit for bit. The pool's
	// clock is wall time, so the proc workload takes sim (and the value
	// the pool must reproduce, twin) from a run on a private simulator.
	sim    float64
	simSet bool
	twin   any

	poolStart []float64 // seconds each procpool.Start took
	poolClose []float64

	attempted, failed int
	problems          []string
}

func (m *measurement) fail(format string, args ...any) {
	m.failed++
	if len(m.problems) < 8 {
		m.problems = append(m.problems, fmt.Sprintf(format, args...))
	}
}

// traceOut is what one traced run leaves behind.
type traceOut struct {
	spans   []span
	rec     *obs.Recorder
	batches []engine.Batch
}

// run executes the workload once and checks the outcome: the correctness
// gate behind failed/attempted. It returns the wall seconds of the run
// alone, and the trace when traced is set.
func (m *measurement) run(traced bool) (float64, *traceOut) {
	var backend engine.Backend
	var rec *obs.Recorder
	var tb *tracedBackend
	var tp *tracedPool
	switch {
	case traced && m.pool != nil:
		tb = newTracedBackend(m.pool)
		tp = &tracedPool{tracedBackend: tb, remote: m.pool}
		backend, rec = tp, obs.NewRecorder()
	case traced:
		sim, err := cluster.New(m.cc)
		if err != nil {
			m.attempted++
			m.fail("cluster.New: %v", err)
			return 0, nil
		}
		tb = newTracedBackend(sim)
		backend, rec = tb, obs.NewRecorder()
	case m.pool != nil:
		backend = m.pool
	}
	var before cluster.Stats
	var remoteStages, remoteTasks int
	if m.pool != nil {
		before = m.pool.Stats()
		remoteStages, remoteTasks = m.pool.RemoteStages(), m.pool.RemoteTasks()
	}

	start := time.Now()
	o := m.w.run(m.p.seed, m.p.div, m.cc, backend, rec)
	wall := time.Since(start).Seconds()

	var out *traceOut
	if traced {
		out = &traceOut{spans: tb.finish(), rec: rec}
		if tp != nil {
			out.batches = tp.batches
		}
	}
	m.attempted++
	switch {
	case o.err != nil:
		m.fail("run failed: %v", o.err)
	case !m.w.equal(o.value, m.ref):
		m.fail("value differs from the sequential reference")
	case m.pool != nil:
		stages := m.pool.Stats().Stages - before.Stages
		remoteStages = m.pool.RemoteStages() - remoteStages
		switch {
		case !reflect.DeepEqual(o.value, m.twin):
			m.fail("value differs from the in-process twin")
		case m.pool.RemoteTasks() == remoteTasks:
			m.fail("no task ran in a worker process")
		case stages-remoteStages != fallbackStages:
			m.fail("%d of %d stages ran driver-local, want %d", stages-remoteStages, stages, fallbackStages)
		}
	case !m.simSet:
		m.sim, m.simSet = o.sim, true
	case o.sim != m.sim:
		m.fail("sim_s %v differs from the first run's %v", o.sim, m.sim)
	}
	return wall, out
}

// setup computes the reference, starts the pool and warms up: everything
// between process start and the first timed sample.
func (m *measurement) setup() (float64, error) {
	start := time.Now()
	m.ref = m.w.reference(m.p.seed, m.p.div)
	if m.w.proc {
		twin := m.w.run(m.p.seed, m.p.div, m.cc, nil, nil)
		m.attempted++
		if twin.err != nil || !m.w.equal(twin.value, m.ref) {
			m.fail("in-process twin does not match the reference (err=%v)", twin.err)
		}
		m.twin, m.sim = twin.value, twin.sim
		if err := m.startPool(); err != nil {
			return 0, err
		}
	}
	for i := 0; i < m.p.warmups; i++ {
		m.run(false)
	}
	return time.Since(start).Seconds(), nil
}

func (m *measurement) startPool() error {
	start := time.Now()
	pool, err := procpool.Start(procpool.Config{Workers: procWorkers})
	if err != nil {
		return fmt.Errorf("procpool.Start: %w", err)
	}
	m.poolStart = append(m.poolStart, time.Since(start).Seconds())
	m.pool = pool
	return nil
}

func (m *measurement) closePool() {
	if m.pool == nil {
		return
	}
	start := time.Now()
	m.pool.Close()
	m.poolClose = append(m.poolClose, time.Since(start).Seconds())
	m.pool = nil
}

// pass is the outcome of a timed, untraced pass.
type pass struct {
	walls     []float64
	peakRSSMB float64 // median over samples of the peak RSS during one sample
	allocMB   float64 // per sample
	gcCycles  float64
	mallocsK  float64
}

// timedPass takes closed-loop samples with tracing off: the next run
// starts when the previous one returned, and nothing but the reference
// stays alive in between.
func (m *measurement) timedPass(seconds float64, minSamples int) pass {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var walls, peaks []float64
	for start := time.Now(); len(walls) < minSamples || time.Since(start).Seconds() < seconds; {
		resetPeakRSS()
		wall, _ := m.run(false)
		walls = append(walls, wall)
		peaks = append(peaks, peakRSSMB())
	}
	runtime.ReadMemStats(&after)
	n := float64(len(walls))
	return pass{
		walls:     walls,
		peakRSSMB: median(peaks),
		allocMB:   float64(after.TotalAlloc-before.TotalAlloc) / n / 1e6,
		gcCycles:  float64(after.NumGC-before.NumGC) / n,
		mallocsK:  float64(after.Mallocs-before.Mallocs) / n / 1e3,
	}
}

// report is what measuring one workload yields: the driver's result
// object plus what explains it.
type report struct {
	result
	Samples  int        `json:"samples"`
	Wall     [5]float64 `json:"wall_min_q1_med_q3_max_s"`
	Problems []string   `json:"problems,omitempty"`
	Spans    []span     `json:"spans,omitempty"` // last traced run
}

// print writes every metric by name with its unit, then the summary the
// metrics are read against.
func (r *report) print(workload string) {
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("%-18s %-34s %14.6g %s\n", workload, name, r.Metrics[name].Value, r.Metrics[name].Unit)
	}
	fmt.Printf("%-18s %-34s %14.6g %s\n", workload, "fail_ratio", float64(r.Failed)/float64(r.Attempted), "ratio")
	fmt.Printf("%-18s samples=%d wall min/q1/median/q3/max = %.4f/%.4f/%.4f/%.4f/%.4f s\n", workload,
		r.Samples, r.Wall[0], r.Wall[1], r.Wall[2], r.Wall[3], r.Wall[4])
	for _, problem := range r.Problems {
		fmt.Printf("%-18s FAILED: %s\n", workload, problem)
	}
}

// measureEndToEnd is the -trace 0 run: set-up (repeated, for a steady
// setup_s), then the timed pass with tracing off.
func measureEndToEnd(w *workload, p plan) (*report, error) {
	m := &measurement{w: w, p: p, cc: w.cluster(p.div)}
	defer m.closePool()
	var setups []float64
	for i := 0; i < p.setups; i++ {
		m.closePool()
		s, err := m.setup()
		if err != nil {
			return nil, err
		}
		setups = append(setups, s)
	}
	ps := m.timedPass(p.seconds, p.minSamples)
	wall := median(ps.walls)
	values := map[string]float64{
		"wall_s":        wall,
		"records_per_s": float64(w.records(p.div)) / wall,
		"alloc_mb":      ps.allocMB,
		"peak_rss_mb":   ps.peakRSSMB,
		"setup_s":       median(setups),
	}
	return m.report(endToEnd, values, ps, nil), nil
}

func (m *measurement) report(decls []metricDecl, values map[string]float64, ps pass, spans []span) *report {
	return &report{
		result: result{
			Correct:   m.failed == 0,
			Attempted: m.attempted,
			Failed:    m.failed,
			Metrics:   fill(decls, values),
		},
		Samples:  len(ps.walls),
		Wall:     fiveNumber(ps.walls),
		Problems: m.problems,
		Spans:    spans,
	}
}

// measureLayers is the -trace 1 run. A short untraced pass gives the
// wall time the ratios are taken against; then come the traced runs, the
// runs at GOMAXPROCS=1 and the direct calls into single layers.
func measureLayers(w *workload, p plan) (*report, error) {
	m := &measurement{w: w, p: p, cc: w.cluster(p.div)}
	defer m.closePool()
	if _, err := m.setup(); err != nil {
		return nil, err
	}
	ps := m.timedPass(p.seconds/2, (p.minSamples+1)/2)
	wall := median(ps.walls)
	values := map[string]float64{
		"sim_s":            m.sim,
		"engine.gc_cycles": ps.gcCycles,
		"engine.mallocs_k": ps.mallocsK,
	}

	prev := runtime.GOMAXPROCS(1)
	var one []float64
	for i := 0; i < p.oneProc; i++ {
		s, _ := m.run(false)
		one = append(one, s)
	}
	runtime.GOMAXPROCS(prev)
	values["engine.wall_1p_s"] = median(one)
	values["engine.host_speedup_x"] = median(one) / wall

	// The proc workload traces a fresh pool, so that its counters and the
	// worker CPU time getrusage reports after Close belong to the traced
	// runs, plus one warm-up run of the new workers, alone.
	var cpuBefore float64
	if w.proc {
		m.closePool()
		cpuBefore = childCPUSeconds()
		if err := m.startPool(); err != nil {
			return nil, err
		}
		m.run(false)
	}
	var last *traceOut
	var tracedWalls []float64
	perRun := map[string][]float64{}
	for i := 0; i < p.tracedRuns; i++ {
		tracedWall, tr := m.run(true)
		if tr == nil {
			continue
		}
		last = tr
		tracedWalls = append(tracedWalls, tracedWall)
		for name, v := range layerTimes(tr.spans, tr.rec) {
			perRun[name] = append(perRun[name], v)
		}
	}
	if last == nil {
		return nil, fmt.Errorf("%s: no traced run completed", w.name)
	}
	for name, vs := range perRun {
		values[name] = median(vs)
	}
	values["obs.trace_overhead_x"] = median(tracedWalls) / wall
	if w.shredded && values["shred.shredded_groupbys"] == 0 {
		m.fail("no group-by was lowered shredded")
	}

	if w.proc {
		m.poolMetrics(values, cpuBefore, wall)
		codecMetrics(values, last.batches)
	}
	inputMetrics(values, w, p)
	return m.report(perLayer, values, ps, last.spans), nil
}

// poolMetrics reads the traced pool's counters, closes it for the
// workers' rusage, and times the same program in-process. cpuBefore is
// the child CPU time before the traced pool started; wall the untraced
// median the slowdown is taken against.
func (m *measurement) poolMetrics(values map[string]float64, cpuBefore, wall float64) {
	runs := float64(m.p.tracedRuns + 1) // and the warm-up run
	values["procpool.shipped_mb"] = float64(m.pool.BytesShipped()) / runs / 1e6
	values["procpool.remote_stages"] = float64(m.pool.RemoteStages()) / runs
	values["procpool.remote_tasks"] = float64(m.pool.RemoteTasks()) / runs
	values["procpool.respawns"] = float64(m.pool.Respawns())
	spilled, _ := m.pool.Spills()
	values["procpool.spill_blocks"] = float64(spilled)
	values["procpool.worker_peak_rss_mb"] = workersPeakRSSMB()
	m.closePool()
	cpu := (childCPUSeconds() - cpuBefore) / runs
	values["procpool.worker_cpu_s"] = cpu
	values["procpool.worker_util"] = cpu / (values["procpool.remote_stage_s"] * procWorkers)
	values["procpool.start_s"] = median(m.poolStart)
	values["procpool.close_s"] = median(m.poolClose)
	var twins []float64
	for i := 0; i < m.p.twinRuns; i++ {
		start := time.Now()
		o := m.w.run(m.p.seed, m.p.div, m.cc, nil, nil)
		twins = append(twins, time.Since(start).Seconds())
		m.attempted++
		if o.err != nil || !reflect.DeepEqual(o.value, m.twin) {
			m.fail("in-process twin run does not repeat (err=%v)", o.err)
		}
	}
	values["procpool.inproc_wall_s"] = median(twins)
	values["procpool.slowdown_x"] = wall / median(twins)
}

// timeMedian returns the median seconds of reps calls of f.
func timeMedian(reps int, f func()) float64 {
	times := make([]float64, reps)
	for i := range times {
		start := time.Now()
		f()
		times[i] = time.Since(start).Seconds()
	}
	return median(times)
}

// inputMetrics times the layers that can be called directly on the
// workload's input: the generator, the size estimator and the ir parser.
func inputMetrics(values map[string]float64, w *workload, p plan) {
	var input any
	values["datagen.gen_s"] = timeMedian(3, func() { input = w.input(p.seed, p.div) })
	n := float64(reflect.ValueOf(input).Len())
	if boxed, ok := input.([]any); ok {
		values["sizeest.of_boxed_ns_per_elem"] = timeMedian(3, func() { sizeest.OfSlice(boxed) }) * 1e9 / n
		// A parse error has already failed every run of the workload.
		values["ir.parse_us"] = timeMedian(201, func() { _, _ = ir.Parse(bounceProgram()) }) * 1e6
	} else {
		values["sizeest.of_typed_ns_per_elem"] = timeMedian(3, func() { sizeest.Of(input) }) * 1e9 / n
	}
}

// codecMetrics feeds the batches captured at PutBlock straight to the
// batch codec and the size estimator.
func codecMetrics(values map[string]float64, batches []engine.Batch) {
	if len(batches) == 0 {
		return
	}
	var elems, bytes int
	frames := make([][]byte, len(batches))
	for i, b := range batches {
		frame, err := engine.EncodeBatch(nil, b)
		if err != nil {
			return // an unencodable batch never reaches PutBlock
		}
		frames[i] = frame
		elems += b.Len()
		bytes += len(frame)
	}
	const reps = 9
	var buf []byte
	enc := timeMedian(reps, func() {
		for _, b := range batches {
			buf, _ = engine.EncodeBatch(buf[:0], b)
		}
	})
	dec := timeMedian(reps, func() {
		for _, f := range frames {
			engine.DecodeBatch(f)
		}
	})
	est := timeMedian(reps, func() {
		for _, b := range batches {
			sizeest.OfBatch(b)
		}
	})
	values["engine.codec_encode_mb_s"] = float64(bytes) / 1e6 / enc
	values["engine.codec_decode_mb_s"] = float64(bytes) / 1e6 / dec
	values["sizeest.of_batch_ns_per_elem"] = est * 1e9 / float64(elems)
}

// resetPeakRSS restarts the kernel's peak-RSS counter of this process at
// its current RSS. The process's all-time peak moves by a tenth from run
// to run with GC timing; the median of per-sample peaks does not. Where
// the write is not allowed, every reading is the peak so far instead.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// statusValue returns the first value on the line of a /proc/<pid>/status
// file that starts with key ("VmHWM:\t 12345 kB" gives "12345").
func statusValue(status []byte, key string) string {
	for _, line := range strings.Split(string(status), "\n") {
		if fields := strings.Fields(line); len(fields) >= 2 && fields[0] == key {
			return fields[1]
		}
	}
	return ""
}

// hwmMB is the peak resident set (VmHWM) in a status file, in MB.
func hwmMB(status []byte) float64 {
	kb, _ := strconv.ParseFloat(statusValue(status, "VmHWM:"), 64)
	return kb * 1024 / 1e6
}

// peakRSSMB is this process's peak resident set since the last reset.
func peakRSSMB() float64 {
	status, _ := os.ReadFile("/proc/self/status")
	return hwmMB(status)
}

// workersPeakRSSMB is the largest peak resident set among this process's
// live children: the pool's workers. getrusage(RUSAGE_CHILDREN) cannot
// say it, because a child's ru_maxrss starts at the parent's peak at the
// time of the fork.
func workersPeakRSSMB() float64 {
	self := strconv.Itoa(os.Getpid())
	paths, _ := filepath.Glob("/proc/[0-9]*/status")
	var peak float64
	for _, path := range paths {
		// A process that exits between the glob and the read is skipped.
		if status, err := os.ReadFile(path); err == nil && statusValue(status, "PPid:") == self {
			peak = max(peak, hwmMB(status))
		}
	}
	return peak
}

// childCPUSeconds is the CPU time of the child processes this process has
// waited for: the pool's workers, once the pool is closed.
func childCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_CHILDREN, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}
