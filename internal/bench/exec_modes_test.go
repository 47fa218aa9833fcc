package bench

// Host-side execution choices (worker count, pool scheduling, fused or
// per-operator evaluation of a narrow chain) must never reach a simulated
// number. testdata/exec_rows.golden holds the raw rows of real registry
// experiments, generated when the engine still had a serial reference
// executor and a fusion switch and all three paths produced these rows;
// the tests here and in shred_modes_test.go compare against it exactly
// (floats in shortest round-trip form, no tolerance), once at the host's
// GOMAXPROCS and once on a single proc. A drift is a behaviour change:
// -update is for deliberate recalibrations only.

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
)

func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// atProcs runs f at the host's GOMAXPROCS and again pinned to one proc.
func atProcs(t *testing.T, f func(t *testing.T)) {
	t.Run("procs=default", f)
	t.Run("procs=1", func(t *testing.T) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		f(t)
	})
}

// checkGolden compares got with the "[section]" block of testdata/file
// (rewriting that block under -update).
func checkGolden(t *testing.T, file, section string, got []string) {
	t.Helper()
	path := filepath.Join("testdata", file)
	raw, err := os.ReadFile(path)
	if err != nil && !*update {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	sections := map[string][]string{}
	var cur string
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		if strings.HasPrefix(line, "[") {
			cur = strings.Trim(line, "[]")
		} else if line != "" {
			sections[cur] = append(sections[cur], line)
		}
	}
	if *update && !slices.Equal(sections[section], got) {
		sections[section] = got
		names := make([]string, 0, len(sections))
		for name := range sections {
			names = append(names, name)
		}
		slices.Sort(names)
		var b strings.Builder
		for _, name := range names {
			fmt.Fprintf(&b, "[%s]\n%s\n", name, strings.Join(sections[name], "\n"))
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want := sections[section]
	if len(got) != len(want) {
		t.Fatalf("[%s]: %d rows, golden has %d (run with -update if intended)", section, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("[%s] row %d drifted (run with -update if intended)\ngot:  %s\nwant: %s", section, i, got[i], want[i])
		}
	}
}

// rowLines renders experiment rows the way the golden files hold them.
func rowLines(rows []Row) []string {
	var out []string
	for _, r := range rows {
		out = append(out, fmt.Sprintf("series=%s x=%s seconds=%s jobs=%d oom=%t err=%q",
			r.Series, fmtFloat(r.X), fmtFloat(r.Seconds), r.Jobs, r.OOM, r.Err))
	}
	return out
}

func TestExperimentRowsMatchGolden(t *testing.T) {
	// Small scale keeps the runtime reasonable; the plans and operators
	// exercised are the full ones (shuffles, broadcasts, skewed groups,
	// control flow), only the record counts shrink.
	sc := Scale{RecordsPerGB: 300}
	for _, id := range []string{"fig1", "fig7-bounce"} {
		exp, ok := Find(id)
		if !ok {
			t.Fatalf("experiment %s not in registry", id)
		}
		t.Run(id, func(t *testing.T) {
			atProcs(t, func(t *testing.T) {
				checkGolden(t, "exec_rows.golden", id, rowLines(exp.Run(sc)))
			})
		})
	}
}
