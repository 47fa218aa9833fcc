// Command matbench regenerates the paper's evaluation figures on the
// simulated cluster and prints each as a text table.
//
// Usage:
//
//	matbench                 # run every experiment at the default scale
//	matbench -exp fig3-kmeans
//	matbench -list
//	matbench -records-per-gb 2000   # smaller/faster sweep
//	matbench -csv rows.csv          # raw rows for external plotting
//	matbench -explain bounce-rate   # EXPLAIN ANALYZE one task's Matryoshka run
//	matbench -explain recovery -mem 2147483648   # watch adaptive recovery re-lower OOMs
//	matbench -explain bounce-rate -faultrate 0.2 # task retries + rerun recoveries
//	matbench -explain chaos                      # machine crashes + lineage recomputation
//	matbench -exp sec9-chaos -seed 7             # crash-rate sweep under a different hazard seed
//	matbench -exp fig3-kmeans -mtbf 200          # any experiment under a machine-crash hazard
//	matbench -backend proc -procchaos        # self-healing soak: 20 jobs under seeded worker kills
//	matbench -tenants 3 -policy fair -speculate -straggle 0.25
//	                                 # one multi-tenant scheduling run (p50/p99/makespan)
//	matbench -exp fig1 -cpuprofile cpu.out -memprofile mem.out
//	                                 # profile the host engine under a real workload
//	matbench -exp sec-shred -skew 1.5            # nested-bag lowerings under a chosen Zipf exponent
//	matbench -explain shred                      # watch the shred rule pick a lowering from observed sizes
//
// Reported times are simulated cluster seconds (see internal/cluster);
// absolute values depend on the scale, the relative shapes are the result.
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"time"

	"matryoshka/internal/bench"
	"matryoshka/internal/procpool"
	"matryoshka/internal/sched"
)

// knobs carries every validated flag value.
type knobs struct {
	mem        int64
	faultRate  float64
	straggle   float64
	mtbf       float64
	seed       int64
	tenants    int
	policy     string
	cpuProfile string
	memProfile string
	explain    string
	backend    string
	workers    int
	procChaos  bool
	skew       float64
}

// validateFlags rejects out-of-domain knob values before any experiment
// runs, so a typo fails with a usage error instead of a misleading
// sweep (a fault rate of 1.2 would silently clamp deep inside the
// simulator; negative memory would "fit" nothing and OOM everything).
func validateFlags(k knobs) error {
	if k.faultRate < 0 || k.faultRate > 1 {
		return fmt.Errorf("-faultrate %v is not a probability (want 0..1)", k.faultRate)
	}
	if k.mem < 0 {
		return fmt.Errorf("-mem %d is negative (want bytes per machine, 0 = paper default)", k.mem)
	}
	if k.straggle < 0 || k.straggle > 1 {
		return fmt.Errorf("-straggle %v is not a rate (want 0..1)", k.straggle)
	}
	if k.mtbf < 0 {
		return fmt.Errorf("-mtbf %v is negative (want mean seconds between crashes per machine, 0 = off)", k.mtbf)
	}
	if k.seed < 0 {
		return fmt.Errorf("-seed %d is negative (want a non-negative hazard/skew seed, 0 = default)", k.seed)
	}
	if k.tenants < 0 {
		return fmt.Errorf("-tenants %d is negative", k.tenants)
	}
	if k.policy != string(sched.PolicyFIFO) && k.policy != string(sched.PolicyFair) {
		return fmt.Errorf("-policy %q is unknown (want fifo or fair)", k.policy)
	}
	if k.cpuProfile != "" && k.cpuProfile == k.memProfile {
		return fmt.Errorf("-cpuprofile and -memprofile both write %q; the second would truncate the first", k.cpuProfile)
	}
	if k.skew != 0 && k.skew <= 1 {
		return fmt.Errorf("-skew %v is not a valid Zipf exponent (want > 1, 0 = each generator's default)", k.skew)
	}
	if k.backend != "sim" && k.backend != "proc" {
		return fmt.Errorf("-backend %q is unknown (want sim or proc)", k.backend)
	}
	if k.workers < 0 {
		return fmt.Errorf("-workers %d is negative (want worker process count, 0 = default)", k.workers)
	}
	if k.workers > 0 && k.backend != "proc" {
		return fmt.Errorf("-workers applies to the process pool; add -backend proc")
	}
	if k.procChaos && k.backend != "proc" {
		return fmt.Errorf("-procchaos soaks the process pool; add -backend proc")
	}
	if k.backend == "proc" {
		switch {
		case k.explain != "":
			return fmt.Errorf("-backend proc runs the sim-vs-proc A/B comparison; -explain is a simulator view, run it separately")
		case k.tenants > 0:
			return fmt.Errorf("-backend proc and -tenants are exclusive: the multi-tenant scheduler is a simulator backend of its own")
		}
	}
	return nil
}

func main() {
	// A pool worker is this same binary re-exec'd; divert before flags,
	// tests, or any output.
	if procpool.IsWorker() {
		procpool.WorkerMain()
	}
	os.Exit(run())
}

// run is main with explicit exit codes: every early exit is a return, so
// the deferred profile writers always flush (an os.Exit inside would
// silently produce empty or truncated profile files).
func run() int {
	var (
		expID      = flag.String("exp", "all", "experiment id (see -list) or 'all'")
		list       = flag.Bool("list", false, "list experiment ids and exit")
		perGB      = flag.Int("records-per-gb", bench.DefaultScale().RecordsPerGB, "simulated records per paper-GB (smaller = faster)")
		quiet      = flag.Bool("q", false, "suppress progress output")
		csvPath    = flag.String("csv", "", "also write raw rows as CSV to this file")
		explain    = flag.String("explain", "", "EXPLAIN ANALYZE one task's Matryoshka run (bounce-rate, pagerank, k-means, avg-distances, recovery, chaos, shred)")
		mem        = flag.Int64("mem", 0, "override per-machine memory in bytes (creates the pressure adaptive recovery reacts to)")
		faultRate  = flag.Float64("faultrate", 0, "inject transient task failures with this probability per task")
		tenants    = flag.Int("tenants", 0, "run one multi-tenant scheduling workload with this many interactive tenants (plus a batch tenant)")
		policy     = flag.String("policy", "fair", "scheduling policy for -tenants: fifo or fair")
		speculate  = flag.Bool("speculate", false, "enable speculative straggler re-execution for -tenants")
		straggle   = flag.Float64("straggle", 0.25, "straggler rate for -tenants: fraction of tasks stretched 8x")
		mtbf       = flag.Float64("mtbf", 0, "machine crash hazard: mean simulated seconds between crashes per machine (0 = off)")
		seed       = flag.Int64("seed", 0, "seed for the crash hazard and straggler skew (0 = default, runs stay bit-reproducible)")
		skew       = flag.Float64("skew", 0, "override the Zipf exponent of skewed datasets (> 1; 0 = each generator's default)")
		backend    = flag.String("backend", "sim", "execution backend: sim (per-run simulator) or proc (run the sim-vs-process-pool A/B comparison)")
		workers    = flag.Int("workers", 0, "worker process count for -backend proc (0 = min(4, NumCPU))")
		procChaos  = flag.Bool("procchaos", false, "with -backend proc: run the self-healing soak (seeded worker kills; respawn-on must match the reference, respawn-off must abort)")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile at exit to this file")
	)
	flag.Parse()
	if err := validateFlags(knobs{mem: *mem, faultRate: *faultRate, straggle: *straggle,
		mtbf: *mtbf, seed: *seed, tenants: *tenants, policy: *policy,
		cpuProfile: *cpuProfile, memProfile: *memProfile,
		explain: *explain, backend: *backend, workers: *workers,
		procChaos: *procChaos, skew: *skew}); err != nil {
		fmt.Fprintf(os.Stderr, "matbench: %v\n", err)
		flag.Usage()
		return 2
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "matbench: %v\n", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "matbench: cpuprofile: %v\n", err)
			f.Close()
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "matbench: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows retained memory
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "matbench: memprofile: %v\n", err)
			}
		}()
	}

	if *list {
		for _, e := range bench.Registry() {
			fmt.Printf("%-16s %s\n", e.ID, e.Title)
		}
		return 0
	}
	sc := bench.Scale{RecordsPerGB: *perGB, MemoryPerMachine: *mem, FaultRate: *faultRate, Seed: uint64(*seed), Skew: *skew, MTBF: *mtbf}

	if *backend == "proc" {
		runProc := bench.ProcAB
		if *procChaos {
			runProc = bench.ProcChaos
		}
		out, err := runProc(sc, *workers)
		if err != nil {
			fmt.Fprintf(os.Stderr, "matbench: %v\n", err)
			return 1
		}
		fmt.Print(out)
		return 0
	}

	if *tenants > 0 {
		out, err := bench.SchedSummary(sc, *tenants, *straggle, sched.Policy(*policy), *speculate)
		if err != nil {
			fmt.Fprintf(os.Stderr, "matbench: %v\n", err)
			return 1
		}
		fmt.Print(out)
		return 0
	}

	if *explain != "" {
		out, err := bench.ExplainRun(*explain, sc)
		if err != nil {
			fmt.Fprintf(os.Stderr, "matbench: %v\n", err)
			return 1
		}
		fmt.Print(out)
		return 0
	}

	var exps []bench.Experiment
	if *expID == "all" {
		exps = bench.Registry()
	} else {
		e, ok := bench.Find(*expID)
		if !ok {
			fmt.Fprintf(os.Stderr, "matbench: unknown experiment %q (try -list)\n", *expID)
			return 2
		}
		exps = []bench.Experiment{e}
	}

	var csvW *csvWriter
	if *csvPath != "" {
		w, err := newCSVWriter(*csvPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "matbench: %v\n", err)
			return 1
		}
		defer w.Close()
		csvW = w
	}
	for _, e := range exps {
		start := time.Now()
		rows := e.Run(sc)
		fmt.Println(bench.Table(e, rows))
		if csvW != nil {
			if err := csvW.writeRows(rows); err != nil {
				fmt.Fprintf(os.Stderr, "matbench: csv: %v\n", err)
				return 1
			}
		}
		if !*quiet {
			fmt.Printf("  [%s: %d rows in %.1fs wall]\n\n", e.ID, len(rows), time.Since(start).Seconds())
		}
	}
	return 0
}

// csvWriter appends experiment rows to a CSV file for external plotting.
type csvWriter struct {
	f *os.File
	w *csv.Writer
}

func newCSVWriter(path string) (*csvWriter, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	w := csv.NewWriter(f)
	if err := w.Write([]string{"experiment", "series", "x", "seconds", "jobs", "oom", "err"}); err != nil {
		f.Close()
		return nil, err
	}
	return &csvWriter{f: f, w: w}, nil
}

func (c *csvWriter) writeRows(rows []bench.Row) error {
	for _, r := range rows {
		rec := []string{
			r.Exp, r.Series,
			strconv.FormatFloat(r.X, 'g', -1, 64),
			strconv.FormatFloat(r.Seconds, 'f', 3, 64),
			strconv.Itoa(r.Jobs),
			strconv.FormatBool(r.OOM),
			r.Err,
		}
		if err := c.w.Write(rec); err != nil {
			return err
		}
	}
	c.w.Flush()
	return c.w.Error()
}

func (c *csvWriter) Close() error {
	c.w.Flush()
	return c.f.Close()
}
