package engine

import (
	"sync"
	"sync/atomic"
)

// workerPool is a persistent set of goroutines executing submitted
// functions. One pool is created per Session and reused for every stage of
// every job, replacing the goroutine-per-partition + fresh-semaphore
// launch that paid spawn and scheduling cost on every stage.
//
// Workers reference only the pool, never the Session, so an abandoned
// Session stays collectable: a runtime cleanup registered in NewSession
// closes the task channel and the workers exit.
type workerPool struct {
	tasks     chan func()
	closeOnce sync.Once
}

func newWorkerPool(workers int) *workerPool {
	if workers < 1 {
		workers = 1
	}
	p := &workerPool{tasks: make(chan func())}
	for i := 0; i < workers; i++ {
		go p.worker()
	}
	return p
}

func (p *workerPool) worker() {
	for f := range p.tasks {
		f()
	}
}

// submit schedules f on an idle worker, blocking while all workers are
// busy. Submitted functions must not panic (a panic kills the worker and
// the process) and must not submit to the pool themselves (deadlock);
// parallelFor recovers inside its runners.
func (p *workerPool) submit(f func()) { p.tasks <- f }

// close stops the workers after in-flight tasks drain. The pool must not
// be used afterwards. Idempotent.
func (p *workerPool) close() { p.closeOnce.Do(func() { close(p.tasks) }) }

// parallelFor runs body(r, i) for every i in [0, n) and returns when all
// are done, on at most width runners. r < max(width, 1) names the runner
// calling, and a runner calls body sequentially, so a body may keep state
// per runner in a slice indexed by r. Submission cost is O(width), not
// O(n), and with width <= 1 the loop runs inline on the caller, bypassing
// the pool entirely.
//
// A runner claims a guided block of ⌈left / (4·runners)⌉ of the indices no
// runner has claimed, then takes its block's indices one at a time; when no
// index is left unclaimed it steals the upper half of another runner's
// untaken ones. Guided blocks keep the shared counter's cache line quiet —
// a stage of 1200 near-empty tasks makes a few dozen claims, not 1200 — and
// stealing keeps a block from stranding work behind a runner that stalls or
// meets a slow task: no runner goes idle while an index waits in a block.
//
// A panicking body stops its runner; the other runners finish the indices
// left, and the first panic is re-raised on the caller's goroutine.
func (p *workerPool) parallelFor(width, n int, body func(r, i int)) {
	if min(width, n) <= 1 {
		for i := 0; i < n; i++ {
			body(0, i)
		}
		return
	}
	runners := min(width, n) // declared past the inline loop, which need not pay for its capture
	var next atomic.Int64    // the first index no runner has claimed
	blocks := make([]block, runners)
	var wg sync.WaitGroup
	var once sync.Once
	var panicked any
	wg.Add(runners)
	for r := 0; r < runners; r++ {
		p.submit(func() {
			defer wg.Done()
			defer func() {
				if e := recover(); e != nil {
					once.Do(func() { panicked = e })
				}
			}()
			own := &blocks[r]
			for {
				if i, ok := own.take(); ok {
					body(r, i)
					continue
				}
				if cur := next.Load(); cur < int64(n) {
					k := (int64(n) - cur + int64(4*runners) - 1) / int64(4*runners)
					if next.CompareAndSwap(cur, cur+k) {
						own.Store(span(cur, cur+k))
					}
					continue
				}
				if !own.steal(blocks, r) {
					return
				}
			}
		})
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
}

// block is a runner's claimed and untaken indices [lo, hi), packed into one
// word (span) so the owner taking from the bottom and a thief cutting the
// top agree through a single compare-and-swap; each sits on its own cache
// line, so a runner taking its next index touches no line another runner
// writes unless one is stealing from it.
type block struct {
	atomic.Uint64
	_ [56]byte
}

// span packs the index range [lo, hi); parallelFor's n stays below 2^32.
func span(lo, hi int64) uint64 { return uint64(lo)<<32 | uint64(hi) }

// bounds loads b: the packed word and the range it holds.
func (b *block) bounds() (v uint64, lo, hi int64) {
	v = b.Load()
	return v, int64(v >> 32), int64(v & (1<<32 - 1))
}

// take removes the lowest untaken index of b.
func (b *block) take() (int, bool) {
	for {
		v, lo, hi := b.bounds()
		if lo >= hi {
			return 0, false
		}
		if b.CompareAndSwap(v, span(lo+1, hi)) {
			return int(lo), true
		}
	}
}

// steal moves the upper half of some other runner's untaken indices into b,
// the empty block of runner r, and reports false when no runner has any.
func (b *block) steal(blocks []block, r int) bool {
	for k := 1; k < len(blocks); k++ {
		victim := &blocks[(r+k)%len(blocks)]
		for {
			v, lo, hi := victim.bounds()
			if lo >= hi {
				break
			}
			mid := lo + (hi-lo)/2
			if victim.CompareAndSwap(v, span(lo, mid)) {
				b.Store(span(mid, hi))
				return true
			}
		}
	}
	return false
}
