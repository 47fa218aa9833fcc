package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

func loadResults(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	file := &resultFile{}
	if err := json.Unmarshal(data, file); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return file, nil
}

func compareFiles(out io.Writer, pathA, pathB string) (regressed bool, err error) {
	a, err := loadResults(pathA)
	if err != nil {
		return false, err
	}
	b, err := loadResults(pathB)
	if err != nil {
		return false, err
	}
	return compareResults(out, a, b)
}

// wallSpread is the distance between the quartiles of a workload's wall
// samples as a share of their median: the run-to-run spread the timing
// metrics carry.
func wallSpread(r *workloadResult) float64 {
	if r.Wall[2] == 0 {
		return 0
	}
	return (r.Wall[3] - r.Wall[1]) / r.Wall[2]
}

// verdict judges one (workload, end-to-end metric) pair: worse is how
// much B is worse than A as a share of A (negative when better), spread
// is the metric's run-to-run spread. A change is unresolved when the
// spread is too wide to tell it from noise.
func verdict(worse, spread, bound float64) string {
	switch {
	case worse > bound && worse > spread:
		return "worse"
	case worse > bound || spread > bound:
		return "unresolved"
	}
	return "ok"
}

// compareResults prints one row per (workload, end-to-end metric) with
// both values, the ratio B/A and a verdict, and reports whether any
// metric got worse by more than its bound or any workload failed more
// often. Results from hosts of different shape are refused.
func compareResults(out io.Writer, a, b *resultFile) (regressed bool, err error) {
	if a.Host.NProc != b.Host.NProc || a.Host.GOMAXPROCS != b.Host.GOMAXPROCS {
		return false, fmt.Errorf("host shapes differ (nproc %d vs %d, GOMAXPROCS %d vs %d): results from different machines are not compared",
			a.Host.NProc, b.Host.NProc, a.Host.GOMAXPROCS, b.Host.GOMAXPROCS)
	}
	inB := map[string]*workloadResult{}
	for i := range b.Workloads {
		inB[b.Workloads[i].Name] = &b.Workloads[i]
	}
	fmt.Fprintf(out, "%-18s %-14s %14s %14s %-6s %12s  %s\n", "workload", "metric", "A", "B", "unit", "B/A", "verdict")
	for i := range a.Workloads {
		wa := &a.Workloads[i]
		wb := inB[wa.Name]
		if wb == nil {
			return false, fmt.Errorf("workload %s is missing from B", wa.Name)
		}
		for _, d := range endToEnd {
			va, vb := wa.EndToEnd[d.Name].Value, wb.EndToEnd[d.Name].Value
			if va == 0 {
				return false, fmt.Errorf("%s %s is 0 in A", wa.Name, d.Name)
			}
			worse := (vb - va) / va
			if d.Better == "higher" {
				worse = -worse
			}
			var spread float64
			if d.Name == "wall_s" || d.Name == "records_per_s" {
				spread = max(wallSpread(wa), wallSpread(wb))
			}
			v := verdict(worse, spread, d.Bound)
			regressed = regressed || v == "worse"
			fmt.Fprintf(out, "%-18s %-14s %14.6g %14.6g %-6s %12.4f  %s\n", wa.Name, d.Name, va, vb, d.Unit, vb/va, v)
		}
		v := "ok"
		if wb.FailRatio > wa.FailRatio {
			v, regressed = "worse", true
		}
		fmt.Fprintf(out, "%-18s %-14s %14.6g %14.6g %-6s %12s  %s\n", wa.Name, "fail_ratio", wa.FailRatio, wb.FailRatio, "ratio", "-", v)
		// Exact counts say whether the lowering or the plan changed; they
		// carry no verdict.
		for _, d := range perLayer {
			va, vb := wa.PerLayer[d.Name].Value, wb.PerLayer[d.Name].Value
			if (d.Unit == "count" || d.Unit == "sim-s") && va != vb {
				fmt.Fprintf(out, "%-18s %-34s %g -> %g (exact metric changed)\n", wa.Name, d.Name, va, vb)
			}
		}
	}
	return regressed, nil
}
