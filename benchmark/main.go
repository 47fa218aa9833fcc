// Command benchmark is the repository's wall-clock yardstick: seven named
// workloads, each measured end to end with tracing off and layer by layer
// from traced runs, every number taken from outside by timing calls into
// public functions. See README.md.
//
//	benchmark -workload NAME -seed N -seconds S -trace 0|1   one workload, in this process
//	benchmark -seed N -out results.json                      all workloads, one child process per run
//	benchmark -compare A.json B.json                         verdict per (workload, end-to-end metric)
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"

	"matryoshka/internal/procpool"
)

func main() {
	// The benchmark binary is also the pool's worker binary.
	if procpool.IsWorker() {
		procpool.WorkerMain()
	}
	name := flag.String("workload", "", "measure this one workload in this process; the last line of output is the result object")
	seed := flag.Int64("seed", 1, "seed of every generated input")
	seconds := flag.Float64("seconds", 8, "length of the timed pass of one run")
	trace := flag.Int("trace", 0, "0: end-to-end metrics with tracing off; 1: per-layer metrics from traced runs")
	detail := flag.Bool("detail", false, "with -workload: add sample quartiles, problems and spans to the result object")
	out := flag.String("out", "", "without -workload: write host header, metrics and spans of all workloads to this file")
	compare := flag.Bool("compare", false, "compare two result files: -compare A.json B.json")
	flag.Parse()

	var err error
	switch {
	case *compare:
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchmark -compare A.json B.json")
			os.Exit(2)
		}
		var regressed bool
		regressed, err = compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err == nil && regressed {
			os.Exit(1)
		}
	case *name != "":
		err = runOne(*name, *seed, *seconds, *trace, *detail)
	default:
		err = runAll(*seed, *seconds, *out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
}

// runOne measures one workload in this process and prints every metric
// by name with its unit, then the result object as the last line.
func runOne(name string, seed int64, seconds float64, trace int, detail bool) error {
	w := findWorkload(name)
	if w == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	runtime.GOMAXPROCS(maxProcs())
	p := defaultPlan(seed, seconds)
	var rep *report
	var err error
	switch trace {
	case 0:
		rep, err = measureEndToEnd(w, p)
	case 1:
		rep, err = measureLayers(w, p)
	default:
		err = fmt.Errorf("-trace must be 0 or 1, got %d", trace)
	}
	if err != nil {
		return err
	}
	rep.print(w.name)
	var last any = rep.result
	if detail {
		last = rep
	}
	line, err := json.Marshal(last)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// host is the shape of the machine a result file was measured on.
// Results from different shapes are never compared.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPU        string `json:"cpu_model"`
	GOGC       string `json:"gogc"`
	Workers    int    `json:"procpool_workers"`
	Seed       int64  `json:"seed"`
	Commit     string `json:"git_commit"`
}

func hostShape(seed int64) host {
	h := host{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: maxProcs(),
		GoVersion:  runtime.Version(),
		CPU:        "unknown",
		GOGC:       os.Getenv("GOGC"),
		Workers:    procWorkers,
		Seed:       seed,
		Commit:     "unknown",
	}
	if h.GOGC == "" {
		h.GOGC = "100"
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if key, val, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(key) == "model name" {
				h.CPU = strings.TrimSpace(val)
				break
			}
		}
	}
	if commit, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(commit))
	}
	return h
}

// workloadResult is one workload's part of a result file.
type workloadResult struct {
	Name      string                 `json:"name"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	FailRatio float64                `json:"fail_ratio"`
	Samples   int                    `json:"samples"`
	Wall      [5]float64             `json:"wall_min_q1_med_q3_max_s"`
	EndToEnd  map[string]metricValue `json:"end_to_end"`
	PerLayer  map[string]metricValue `json:"per_layer"`
	Problems  []string               `json:"problems,omitempty"`
	Spans     []span                 `json:"spans,omitempty"`
}

type resultFile struct {
	Host      host             `json:"host"`
	Seconds   float64          `json:"seconds"`
	Workloads []workloadResult `json:"workloads"`
}

// runAll measures every workload, each run in a child process of its
// own (a re-exec of this binary), so that no workload inherits another's
// heap.
func runAll(seed int64, seconds float64, out string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	child := func(w *workload, trace int) (*report, error) {
		cmd := exec.Command(exe, "-workload", w.name, "-seed", strconv.FormatInt(seed, 10),
			"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace), "-detail")
		cmd.Stderr = os.Stderr
		stdout, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("%s -trace %d: %w", w.name, trace, err)
		}
		lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
		rep := &report{}
		if err := json.Unmarshal(lines[len(lines)-1], rep); err != nil {
			return nil, fmt.Errorf("%s -trace %d: result line: %w", w.name, trace, err)
		}
		return rep, nil
	}
	file := resultFile{Host: hostShape(seed), Seconds: seconds}
	for _, w := range workloads {
		e2e, err := child(w, 0)
		if err != nil {
			return err
		}
		layers, err := child(w, 1)
		if err != nil {
			return err
		}
		e2e.print(w.name)
		layers.print(w.name)
		res := workloadResult{
			Name:      w.name,
			Attempted: e2e.Attempted + layers.Attempted,
			Failed:    e2e.Failed + layers.Failed,
			Samples:   e2e.Samples,
			Wall:      e2e.Wall,
			EndToEnd:  e2e.Metrics,
			PerLayer:  layers.Metrics,
			Problems:  append(e2e.Problems, layers.Problems...),
			Spans:     layers.Spans,
		}
		res.FailRatio = float64(res.Failed) / float64(res.Attempted)
		file.Workloads = append(file.Workloads, res)
	}
	if out == "" {
		return nil
	}
	data, err := json.Marshal(file)
	if err != nil {
		return err
	}
	return os.WriteFile(out, append(data, '\n'), 0o644)
}
