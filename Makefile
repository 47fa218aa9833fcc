GO ?= go

.PHONY: check test race vet build bench-module examples bench bench-check figures figures-check fmt-check sched-bench chaos-bench shred-bench procchaos-bench fuzz-smoke loc

## check: what CI's `make check` job runs — formatting, vet, build, tests,
## race tests, the benchmark module and the examples. CI's other jobs add
## bench-check, fuzz-smoke, figures-check, the process-pool e2e and chaos
## runs and the experiment smokes (.github/workflows/ci.yml).
check: fmt-check vet build test race bench-module examples

## fmt-check: fail if any file needs gofmt.
fmt-check:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt -l found unformatted files:"; \
		echo "$$unformatted"; \
		exit 1; \
	fi

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

## bench-module: vet and test the wall-clock benchmark (benchmark/ is a
## module of its own, so `./...` above never descends into it). It imports
## matryoshka/internal/... by name: removing a symbol it uses (the list is
## in benchmark/README.md) would otherwise break the yardstick silently.
bench-module:
	cd benchmark && $(GO) vet . && $(GO) test .

## examples: run every program under examples/. Each checks its own answer
## and exits nonzero (log.Fatal) on a wrong one; they are the public-API
## callers of internal/core, so a broken lifted operation shows up here.
examples:
	@set -e; for ex in $(wildcard examples/*); do \
		echo "== go run ./$$ex"; \
		$(GO) run ./$$ex; \
	done

## bench: run the engine hot-path benchmarks and save them as JSON.
## Committed results live in BENCH_engine.json; regenerate on a quiet
## machine. Pinned to `-cpu 1`, like the gate that reads it (bench-check).
bench:
	$(GO) test -bench . -benchmem -cpu 1 -run '^$$' ./internal/engine | tee /dev/stderr | $(GO) run ./cmd/benchjson > BENCH_engine.json

## bench-check: hot-path regression gate — rerun the engine benchmarks
## (few iterations: this is a smoke gate, not a measurement) and fail if
## any benchmark kept since the committed BENCH_engine.json baseline got
## more than 3x slower in ns/op. The wide factor is deliberate: at 10
## iterations the allocation-dominated benchmarks sit well above their
## full-benchtime steady state (GC pacing and span reuse never settle),
## so a tight ns/op bound would flake — order-of-magnitude regressions
## still trip it. The precise check is allocs/op on the stage-boundary
## benchmarks and on the struct-keyed route (ShuffleRoute/structkey/parallel,
## the session's router as a stage runs it), gated exactly (allocation
## counts are deterministic; any growth is a real change to the typed data
## path — a per-row allocation in the router's key hashing, for one). The run is pinned to
## `-cpu 1` because every committed baseline row is `procs: 1`: on more
## procs the runtime's concurrent-GC allocations land in allocs/op
## (a few more an op than the exact count on ShuffleBoundary/boxed) and
## the flatten benchmarks' multi-MB outputs page-fault their way to up to
## 2.6x the one-proc numbers, so the gate would trip on the host's shape,
## not on a change. New and removed
## benchmarks are reported but never fail; regenerate the baseline with
## `make bench`. ShuffleRoute/twice-in-job runs whole jobs (pool scratch,
## plans), so its allocs/op is not exact and it is gated on ns/op only; the
## exact gate on recycled shuffle memory is TestShuffleJobRecyclesBlocks.
## TinyStage runs whole jobs too, but on a session one untimed job warmed,
## so its allocs/op repeats exactly at 10 iterations and at full benchtime
## (3605 / 3687 at -cpu 1) and is gated: a per-task allocation would add
## 1200 an op. Plan builds a physical plan and runs nothing; its allocs/op
## repeats exactly at 10 iterations and at full benchtime (258) and is
## gated: planning must not grow per node or per edge. BatchCodec encodes
## and decodes one frame per op, its allocs/op repeat exactly at 10
## iterations, and it is gated: a per-row or per-field allocation in the
## codec's leaf walk would add ten thousand an op.
bench-check:
	$(GO) test -bench . -benchmem -benchtime 10x -cpu 1 -run '^$$' ./internal/engine | $(GO) run ./cmd/benchjson -check BENCH_engine.json -factor 3 -gate-allocs 'ShuffleBoundary|ShuffleRoute/structkey|TinyStage|Plan$$|BatchCodec'

## loc: print the code lines of every package under internal/ and cmd/ —
## Go lines outside _test.go files that are neither blank nor only a
## comment — and their total. ROADMAP.md and CHANGES.md cite these
## numbers; a simplicity change reads them before and after, and CI's
## check job prints them after `make check`. It reports, it gates nothing.
loc:
	@total=0; for d in $$(find internal cmd -name '*.go' ! -name '*_test.go' | xargs -n1 dirname | sort -u); do \
		n=$$(cat $$(find $$d -maxdepth 1 -name '*.go' ! -name '*_test.go') | grep -cvE '^[[:space:]]*(//.*)?$$'); \
		printf '%-22s %6d\n' $$d $$n; total=$$((total + n)); \
	done; printf '%-22s %6d\n' total $$total

## fuzz-smoke: fuzz the batch wire codec for 30s from the checked-in seed
## corpus (internal/engine/testdata/fuzz/FuzzBatchCodec, which holds tags
## the decoder's tag check must refuse: one too deep, one with a level
## past its depth), then the
## process-pool frame protocol for 15s (the driver parses these bytes off
## a socket from another process) and the task decoder for 15s (a task
## body's engine rows, which the worker reads with engine.ReadTask and
## walks once accepted), then the engine's keyed index against a Go map
## for 15s. No decoder may panic on arbitrary
## bytes, everything accepted must round-trip, and the index must answer
## every put, find and reset as the map does; CI runs this on every push.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzBatchCodec -fuzztime 30s ./internal/engine
	$(GO) test -run '^$$' -fuzz FuzzKeyIndex -fuzztime 15s ./internal/engine
	$(GO) test -run '^$$' -fuzz FuzzWireFrame -fuzztime 15s ./internal/procpool
	$(GO) test -run '^$$' -fuzz FuzzRemoteTask -fuzztime 15s ./internal/procpool

## figures: regenerate the simulated-cluster paper figures
## (internal/bench/testdata/bench_rows.csv).
figures:
	$(GO) run ./cmd/matbench -q -csv internal/bench/testdata/bench_rows.csv

## figures-check: regenerate the figures and fail if a row moved. Simulated
## numbers repeat across processes, so the committed file regenerates byte
## for byte; takes as long as `make figures` (minutes).
figures-check: figures
	git diff --exit-code internal/bench/testdata/bench_rows.csv

## sched-bench: smoke the multi-tenant scheduler — both sweep tables
## plus one speculation run (what EXPERIMENTS.md's sec-sched section
## reports).
sched-bench:
	$(GO) run ./cmd/matbench -q -exp sec-sched
	$(GO) run ./cmd/matbench -q -exp sec-sched-straggle
	$(GO) run ./cmd/matbench -tenants 3 -policy fair -speculate -straggle 0.25

## shred-bench: smoke the shredded nested-bag lowering — the Zipf-skew
## sweep (materialized vs shredded clock and peak task memory; what
## EXPERIMENTS.md's sec-shred section reports) plus one run's EXPLAIN
## ANALYZE showing the shred rule's decision.
shred-bench:
	$(GO) run ./cmd/matbench -q -exp sec-shred
	$(GO) run ./cmd/matbench -explain shred

## procchaos-bench: smoke the process pool's self-healing — 20 jobs
## under seeded worker kills; exits nonzero unless the respawn-on run
## matches the reference bit-for-bit (with at least one respawn and one
## lineage recomputation) and the respawn-off control aborts.
procchaos-bench:
	$(GO) run ./cmd/matbench -records-per-gb 2000 -backend proc -procchaos

## chaos-bench: smoke the fault-tolerance path — the crash-rate sweep
## (abort vs lineage recovery; what EXPERIMENTS.md's sec9-chaos section
## reports) plus one chaotic run rendered end to end.
chaos-bench:
	$(GO) run ./cmd/matbench -q -exp sec9-chaos
	$(GO) run ./cmd/matbench -explain chaos
