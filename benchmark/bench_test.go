package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"matryoshka/internal/cluster"
	"matryoshka/internal/engine"
	"matryoshka/internal/procpool"
)

// TestMain is the worker hook: the pool's workers are re-execs of this
// test binary.
func TestMain(m *testing.M) {
	if procpool.IsWorker() {
		procpool.WorkerMain()
	}
	os.Exit(m.Run())
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// smokePlan is every workload at 1/50 size: one set-up, one timed sample,
// one traced run.
func smokePlan() plan {
	return plan{seed: 1, div: 50, minSamples: 1, setups: 1, warmups: 1, tracedRuns: 1, oneProc: 1, twinRuns: 1}
}

func checkReport(t *testing.T, rep *report, decls []metricDecl) {
	t.Helper()
	if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
		t.Errorf("correct=%v attempted=%d failed=%d: %v", rep.Correct, rep.Attempted, rep.Failed, rep.Problems)
	}
	if len(rep.Metrics) != len(decls) {
		t.Errorf("emitted %d metrics, declared %d", len(rep.Metrics), len(decls))
	}
	for _, d := range decls {
		if got, ok := rep.Metrics[d.Name]; !ok || got.Unit != d.Unit {
			t.Errorf("metric %s: emitted %+v (present=%v), declared unit %q", d.Name, got, ok, d.Unit)
		}
	}
}

// TestWorkloadsSmoke runs both kinds of run on every workload. A traced
// run that returns another value or another sim_s than the untraced runs
// counts as failed, so Failed == 0 also says the wrapper is transparent.
func TestWorkloadsSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			e2e, err := measureEndToEnd(w, smokePlan())
			if err != nil {
				t.Fatal(err)
			}
			checkReport(t, e2e, endToEnd)
			for name, v := range e2e.Metrics {
				if !(v.Value > 0) {
					t.Errorf("end-to-end metric %s = %v, must never be 0", name, v.Value)
				}
			}

			layers, err := measureLayers(w, smokePlan())
			if err != nil {
				t.Fatal(err)
			}
			checkReport(t, layers, perLayer)
			value := func(name string) float64 { return layers.Metrics[name].Value }
			for _, name := range []string{"sim_s", "engine.stages", "cluster.jobs", "cluster.tasks", "engine.wall_1p_s", "obs.trace_overhead_x"} {
				if !(value(name) > 0) {
					t.Errorf("%s = %v, want > 0", name, value(name))
				}
			}
			if got := value("engine.recoveries"); got != 0 {
				t.Errorf("engine.recoveries = %v, want 0", got)
			}
			if w.proc != (value("procpool.remote_tasks") > 0) {
				t.Errorf("proc=%v but procpool.remote_tasks = %v", w.proc, value("procpool.remote_tasks"))
			}
			if w.proc && !(value("engine.codec_encode_mb_s") > 0 && value("procpool.worker_cpu_s") > 0) {
				t.Errorf("proc workload: codec %v MB/s, worker cpu %v s, want both > 0",
					value("engine.codec_encode_mb_s"), value("procpool.worker_cpu_s"))
			}
			if len(layers.Spans) == 0 || layers.Spans[0].Name != spanRun {
				t.Errorf("traced run kept %d spans", len(layers.Spans))
			}
		})
	}
}

// A session that saw RemoteRunner on the simulator's wrapper would try to
// ship stages to a pool that is not there.
func TestTracedBackendHidesRemoteRunner(t *testing.T) {
	sim, err := cluster.New(workloads[0].cluster(1))
	if err != nil {
		t.Fatal(err)
	}
	var b engine.Backend = newTracedBackend(sim)
	if _, ok := b.(engine.RemoteRunner); ok {
		t.Error("tracedBackend implements engine.RemoteRunner")
	}
}

// TestDeclarationsMatchBenchmarkJSON keeps BENCHMARK.json and the names,
// units, directions and bounds this binary emits from drifting apart.
func TestDeclarationsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metricDecl `json:"end_to_end"`
		PerLayer  []metricDecl `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(decl.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n json %+v\n code %+v", decl.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(decl.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n json %+v\n code %+v", decl.PerLayer, perLayer)
	}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the binary has %d", len(decl.Workloads), len(workloads))
	}
	seen := map[string]bool{}
	for i, w := range workloads {
		if decl.Workloads[i].Name != w.name || decl.Workloads[i].Why != w.why {
			t.Errorf("workload %d: json %+v, code {%s %s}", i, decl.Workloads[i], w.name, w.why)
		}
		if !nameRE.MatchString(w.name) || len(w.why) > 200 || strings.Contains(w.why, "\n") || seen[w.name] {
			t.Errorf("workload %q: bad or repeated name, or why is not one line of at most 200 characters", w.name)
		}
		seen[w.name] = true
	}
	hasSetup := false
	for _, d := range append(append([]metricDecl(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.Name) || !unitRE.MatchString(d.Unit) || seen[d.Name] {
			t.Errorf("metric %q (unit %q): bad or repeated name, or bad unit", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %q: better = %q", d.Name, d.Better)
		}
		seen[d.Name] = true
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower" && d.Bound > 0)
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("end-to-end metric %q: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if !hasSetup {
		t.Error("no end-to-end metric setup_s in s, lower is better")
	}
}

func compareFixture(wall float64, quartiles [2]float64, failed int) *resultFile {
	e2e := map[string]float64{"wall_s": wall, "records_per_s": 1000 / wall, "alloc_mb": 100, "peak_rss_mb": 50, "setup_s": 1}
	return &resultFile{
		Host: host{NProc: 2, GOMAXPROCS: 2},
		Workloads: []workloadResult{{
			Name: "w", Attempted: 10, Failed: failed, FailRatio: float64(failed) / 10,
			Wall:     [5]float64{quartiles[0], quartiles[0], wall, quartiles[1], quartiles[1]},
			EndToEnd: fill(endToEnd, e2e),
			PerLayer: fill(perLayer, map[string]float64{"cluster.jobs": 2}),
		}},
	}
}

func TestCompareVerdicts(t *testing.T) {
	tight := [2]float64{0.99, 1.01}
	base := compareFixture(1, tight, 0)
	cases := []struct {
		name      string
		b         *resultFile
		regressed bool
		want      string // a row the output must contain, fields squeezed
	}{
		{"same", compareFixture(1, tight, 0), false, "w wall_s 1 1 s 1.0000 ok"},
		{"within bound", compareFixture(1.05, [2]float64{1.04, 1.06}, 0), false, "w wall_s 1 1.05 s 1.0500 ok"},
		{"worse", compareFixture(1.4, [2]float64{1.39, 1.41}, 0), true, "w wall_s 1 1.4 s 1.4000 worse"},
		{"worse inside a wide spread", compareFixture(1.4, [2]float64{1, 1.8}, 0), false, "w wall_s 1 1.4 s 1.4000 unresolved"},
		{"same inside a wide spread", compareFixture(1, [2]float64{0.8, 1.2}, 0), false, "w wall_s 1 1 s 1.0000 unresolved"},
		{"better", compareFixture(0.5, [2]float64{0.49, 0.51}, 0), false, "w records_per_s 1000 2000 rec/s 2.0000 ok"},
		{"fails more often", compareFixture(1, tight, 1), true, "w fail_ratio 0 0.1 ratio - worse"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var out bytes.Buffer
			regressed, err := compareResults(&out, base, c.b)
			if err != nil {
				t.Fatal(err)
			}
			squeezed := strings.Join(strings.Fields(out.String()), " ")
			if regressed != c.regressed || !strings.Contains(squeezed, c.want) {
				t.Errorf("regressed=%v, want %v and a row %q in:\n%s", regressed, c.regressed, c.want, out.String())
			}
		})
	}

	other := compareFixture(1, tight, 0)
	other.Host.GOMAXPROCS = 4
	if _, err := compareResults(&bytes.Buffer{}, base, other); err == nil {
		t.Error("results measured at different GOMAXPROCS were compared")
	}
	changed := compareFixture(1, tight, 0)
	changed.Workloads[0].PerLayer["cluster.jobs"] = metricValue{Value: 3, Unit: "count"}
	var out bytes.Buffer
	if _, err := compareResults(&out, base, changed); err != nil || !strings.Contains(out.String(), "cluster.jobs") {
		t.Errorf("a changed exact count was not reported (err=%v):\n%s", err, out.String())
	}
}
