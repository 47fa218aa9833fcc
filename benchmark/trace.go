package main

import (
	"context"
	"strings"
	"time"

	"matryoshka/internal/cluster"
	"matryoshka/internal/engine"
	"matryoshka/internal/obs"
)

// span is one timed interval recorded by the benchmark's own wrapper
// around the calls into a layer. Span 0 is the run; jobs hang off it and
// backend calls hang off the job (or the run) that was open when they
// were made.
type span struct {
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"` // seconds since the run started
	End    float64 `json:"end_s"`
	Parent int     `json:"parent"`          // index into the span list; -1 for the run
	Tasks  int     `json:"tasks,omitempty"` // tasks the call carried
}

const (
	spanRun         = "run"
	spanJob         = "job"
	spanStageReport = "backend.RunStageReport"
	spanPutBlock    = "procpool.PutBlock"
	spanRemoteStage = "procpool.RunRemoteStage"
)

// keepBatches is how many batches seen at PutBlock a traced run keeps for
// the codec and sizeest micro-measurements.
const keepBatches = 64

// tracedBackend forwards engine.Backend and engine.Residency to the
// backend it wraps and timestamps every call. A job span runs from
// StartJob to the end of ReleaseBroadcasts — the two calls the engine
// brackets every job with. The engine makes all backend calls from the
// goroutine that holds the session lock, so the wrapper needs no lock of
// its own.
type tracedBackend struct {
	inner engine.Backend
	resid engine.Residency
	t0    time.Time
	spans []span
	open  int // index of the span new calls hang off: the open job, or the run
}

func newTracedBackend(inner engine.Backend) *tracedBackend {
	resid, _ := inner.(engine.Residency)
	return &tracedBackend{
		inner: inner,
		resid: resid,
		t0:    time.Now(),
		spans: []span{{Name: spanRun, Parent: -1}},
	}
}

func (b *tracedBackend) since() float64 { return time.Since(b.t0).Seconds() }

// call records one finished backend call that started at start.
func (b *tracedBackend) call(name string, start float64, tasks int) {
	b.spans = append(b.spans, span{Name: name, Start: start, End: b.since(), Parent: b.open, Tasks: tasks})
}

// finish closes the run span and returns the recorded spans.
func (b *tracedBackend) finish() []span {
	b.spans[0].End = b.since()
	return b.spans
}

func (b *tracedBackend) StartJob() {
	start := b.since()
	b.spans = append(b.spans, span{Name: spanJob, Start: start, Parent: 0})
	b.open = len(b.spans) - 1
	b.inner.StartJob()
	b.call("backend.StartJob", start, 0)
}

func (b *tracedBackend) RunStageReport(tasks []cluster.Task) (cluster.StageReport, error) {
	start := b.since()
	rep, err := b.inner.RunStageReport(tasks)
	b.call(spanStageReport, start, len(tasks))
	return rep, err
}

func (b *tracedBackend) Broadcast(bytes int64) error {
	start := b.since()
	err := b.inner.Broadcast(bytes)
	b.call("backend.Broadcast", start, 0)
	return err
}

func (b *tracedBackend) Unpin(bytes int64) {
	start := b.since()
	b.inner.Unpin(bytes)
	b.call("backend.Unpin", start, 0)
}

func (b *tracedBackend) ReleaseBroadcasts() {
	start := b.since()
	b.inner.ReleaseBroadcasts()
	b.call("backend.ReleaseBroadcasts", start, 0)
	if b.open != 0 {
		b.spans[b.open].End = b.since()
		b.open = 0
	}
}

func (b *tracedBackend) Clock() float64 {
	start := b.since()
	c := b.inner.Clock()
	b.call("backend.Clock", start, 0)
	return c
}

func (b *tracedBackend) Stats() cluster.Stats {
	start := b.since()
	st := b.inner.Stats()
	b.call("backend.Stats", start, 0)
	return st
}

func (b *tracedBackend) RegisterOutput(parts int) cluster.OutputID {
	start := b.since()
	id := b.resid.RegisterOutput(parts)
	b.call("backend.RegisterOutput", start, 0)
	return id
}

func (b *tracedBackend) CheckFetch(id cluster.OutputID) error {
	start := b.since()
	err := b.resid.CheckFetch(id)
	b.call("backend.CheckFetch", start, 0)
	return err
}

func (b *tracedBackend) DropOutput(id cluster.OutputID) {
	start := b.since()
	b.resid.DropOutput(id)
	b.call("backend.DropOutput", start, 0)
}

func (b *tracedBackend) Advance(dt float64) {
	start := b.since()
	b.resid.Advance(dt)
	b.call("backend.Advance", start, 0)
}

// tracedPool adds engine.RemoteRunner, so a session given one ships
// portable stages exactly as it would to the bare pool. A session given a
// plain tracedBackend must not see these methods: it would try to ship.
type tracedPool struct {
	*tracedBackend
	remote  engine.RemoteRunner
	batches []engine.Batch // the first keepBatches batches put
}

func (p *tracedPool) PutBlock(b engine.Batch) (uint64, error) {
	start := p.since()
	id, err := p.remote.PutBlock(b)
	p.call(spanPutBlock, start, 0)
	if len(p.batches) < keepBatches {
		p.batches = append(p.batches, b)
	}
	return id, err
}

func (p *tracedPool) RunRemoteStage(ctx context.Context, spec *engine.RemoteStageSpec) (*engine.RemoteStageResult, error) {
	start := p.since()
	res, err := p.remote.RunRemoteStage(ctx, spec)
	p.call(spanRemoteStage, start, len(spec.Tasks))
	return res, err
}

var (
	_ engine.Backend      = (*tracedBackend)(nil)
	_ engine.Residency    = (*tracedBackend)(nil)
	_ engine.RemoteRunner = (*tracedPool)(nil)
)

// layerTimes splits one traced run into the disjoint parts the per-layer
// metrics report:
//
//	traced wall = outside-jobs + Σ job span
//	job span    = stage compute (obs) + backend busy + remote stage + put block + remainder
//
// and the remainder is the engine's own job overhead: plan build, fusion
// compile, shuffle route, broadcast flatten, lineage bookkeeping.
func layerTimes(spans []span, rec *obs.Recorder) map[string]float64 {
	var jobSpan, busyInJobs, busy, remote, put float64
	var jobs, stages, tasks, remoteTasks, putBlocks int
	for _, s := range spans[1:] {
		d := s.End - s.Start
		switch s.Name {
		case spanJob:
			jobSpan += d
			jobs++
		case spanRemoteStage:
			remote += d
			remoteTasks += s.Tasks
		case spanPutBlock:
			put += d
			putBlocks++
		default:
			busy += d
			if s.Parent != 0 {
				busyInJobs += d
			}
			if s.Name == spanStageReport {
				stages++
				tasks += s.Tasks
			}
		}
	}
	wall := spans[0].End - spans[0].Start

	var compute, slowest, spill, boundary, shuffle float64
	var obsStages, fused, memo, recoveries int
	for _, j := range rec.Jobs() {
		recoveries += len(j.Recoveries)
		for _, st := range j.Stages {
			obsStages++
			memo += int(st.MemoHits)
			boundary += float64(st.BoundaryBytes)
			shuffle += st.ShuffleBytes
			if st.Fused != "" {
				fused++
			}
			if st.Remote {
				continue
			}
			compute += st.WallSeconds
			if st.WallSeconds > slowest {
				slowest = st.WallSeconds
			}
			if strings.Contains(st.Chain, "groupByKeySpill") {
				spill += st.WallSeconds
			}
		}
	}
	var shredded, fallback int
	decisions := rec.Decisions()
	for _, d := range decisions {
		switch {
		case d.Rule == "shred" && d.Choice == "shredded":
			shredded++
		case d.Rule == "proc-backend" && d.Choice == "driver-local":
			fallback++
		}
	}

	overhead := jobSpan - compute - busyInJobs - remote - put
	return map[string]float64{
		"core.outside_jobs_s":              wall - jobSpan,
		"core.decisions":                   float64(len(decisions)),
		"shred.shredded_groupbys":          float64(shredded),
		"shred.spill_stage_s":              spill,
		"engine.stage_compute_s":           compute,
		"engine.job_overhead_s":            overhead,
		"engine.job_overhead_us_per_stage": perUnit(overhead*1e6, stages),
		"engine.slowest_stage_s":           slowest,
		"engine.stages":                    float64(obsStages),
		"engine.fused_stages":              float64(fused),
		"engine.memo_hits":                 float64(memo),
		"engine.recoveries":                float64(recoveries),
		"engine.boundary_mb":               boundary / 1e6,
		"engine.shuffle_sim_gb":            shuffle / 1e9,
		"cluster.busy_s":                   busy,
		"cluster.us_per_task":              perUnit(busy*1e6, tasks),
		"cluster.jobs":                     float64(jobs),
		"cluster.stages":                   float64(stages),
		"cluster.tasks":                    float64(tasks),
		"procpool.remote_stage_s":          remote,
		"procpool.task_rtt_us":             perUnit(remote*1e6, remoteTasks),
		"procpool.put_block_s":             put,
		"procpool.put_blocks":              float64(putBlocks),
		"procpool.fallback_stages":         float64(fallback),
	}
}

func perUnit(total float64, n int) float64 {
	if n == 0 {
		return 0
	}
	return total / float64(n)
}
