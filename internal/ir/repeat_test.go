package ir

import (
	"fmt"
	"os"
	"os/exec"
	"slices"
	"strings"
	"testing"

	"matryoshka/internal/core"
	"matryoshka/internal/engine"
	"matryoshka/internal/obs"
)

// boxedBounceRun lowers the bounce-rate program over a source whose days
// are int64s and one string, so the program lowers boxed — every shuffle
// keys on any, every group tag is HashKey of a boxed day — and renders
// what the simulated cluster saw as one line: the clock as a hex float
// (all 64 bits), the stats, and the rows in the order they came back.
func boxedBounceRun(t *testing.T) string {
	ps, err := Parse(bounceRateProgram())
	if err != nil {
		t.Fatal(err)
	}
	visits := make([]any, 4000)
	x := uint64(31)
	for i := range visits {
		x = x*6364136223846793005 + 1442695040888963407
		visits[i] = engine.KV[any, any](int64(x>>33)%23, int64(x>>40)%700)
	}
	visits[0] = engine.KV[any, any]("day", int64(1))
	cfg := engine.DefaultConfig()
	cfg.Cluster.Machines, cfg.Cluster.CoresPerMachine, cfg.DefaultParallelism = 4, 2, 6
	cfg.Obs = obs.NewRecorder()
	sess, err := engine.NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	res, err := Lower(ps, sess, map[string][]any{"visits": visits}, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.ContainsFunc(cfg.Obs.Decisions(), func(d obs.Decision) bool { return d.Rule == "ir-shape" }) {
		t.Fatal("the mixed source lowered typed; this test needs boxed keys")
	}
	return fmt.Sprintf("clock=%x stats=%+v rows=%v", sess.Clock(), sess.Stats(), res)
}

const (
	// boxedChildEnv marks the re-exec'd child of
	// TestBoxedKeysPlaceAlikeAcrossProcesses: it prints its line and is done.
	boxedChildEnv = "MATRYOSHKA_IR_BOXED_CHILD"
	boxedLinePfx  = "BOXED "
)

// TestBoxedKeysPlaceAlikeAcrossProcesses: a program keyed on any reads the
// same simulated clock, stats and row order twice in this process and once
// in another. Boxed keys used to be placed by a hash seeded per process, so
// the child's partitions — and with them task costs and the clock —
// differed from this process's.
func TestBoxedKeysPlaceAlikeAcrossProcesses(t *testing.T) {
	first := boxedBounceRun(t)
	if os.Getenv(boxedChildEnv) != "" {
		fmt.Println(boxedLinePfx + first)
		return
	}
	if again := boxedBounceRun(t); again != first {
		t.Errorf("second run in this process differs:\n first: %s\n again: %s", first, again)
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestBoxedKeysPlaceAlikeAcrossProcesses$", "-test.count=1")
	cmd.Env = append(os.Environ(), boxedChildEnv+"=1")
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("child process: %v\n%s", err, out)
	}
	_, rest, ok := strings.Cut(string(out), boxedLinePfx)
	child, _, _ := strings.Cut(rest, "\n")
	if !ok || child != first {
		t.Errorf("run in a child process differs:\n first: %s\n child: %s", first, child)
	}
}
