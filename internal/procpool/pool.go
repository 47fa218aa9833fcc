package procpool

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"matryoshka/internal/cluster"
	"matryoshka/internal/engine"
	"matryoshka/internal/obs"
)

// Config sizes a Pool. The zero value means defaults.
type Config struct {
	// Workers is how many worker slots the pool maintains (default
	// min(4, NumCPU)). A slot whose process dies is refilled by respawn
	// while RespawnBudget lasts, so the fleet does not monotonically
	// shrink under sustained faults.
	Workers int
	// heartbeatEvery is how often workers beat (default 100ms);
	// heartbeatTimeout is how long a silent worker stays presumed-live
	// before it is declared crashed (default 3s). Only the pool's own
	// tests set them.
	heartbeatEvery   time.Duration
	heartbeatTimeout time.Duration
	// TaskDeadline bounds how long one dispatched task may run (0 = no
	// deadline). A task that exceeds it on a live, heartbeating worker is
	// cancelled — the worker is killed and respawned, the task requeued —
	// so a wedged compute cannot stall a stage forever.
	TaskDeadline time.Duration
	// RespawnBudget caps replacement workers over the pool's lifetime
	// (0 means the default of 32); past it the pool degrades to quorum
	// failure instead of respawning a crash loop forever. A negative
	// budget turns respawn off: a dead worker stays dead, which pins the
	// fleet size.
	RespawnBudget int
	// RespawnBackoff is the delay before refilling a dead slot (default
	// 50ms). It doubles per consecutive fast death of that slot (capped
	// at 2s); an incarnation that survived a while resets the doubling.
	RespawnBackoff time.Duration
	// QuorumWait bounds how long a stage with no live worker waits for
	// respawn to restore one (default 2s) before it fails with
	// engine.QuorumLostError — which the engine turns into a fetch-style
	// failure for the bounded job retry, never a deadlock.
	QuorumWait time.Duration
	// Faults is the seeded fault-injection plan (chaos.go): a one-shot or
	// repeating worker kill, delayed or torn data-plane frames. Zero value
	// injects nothing.
	Faults FaultPlan
	// Events, when non-nil, receives the pool's fault events — kinds
	// "crash", "respawn", "quarantine" — timed on the pool clock, so
	// EXPLAIN ANALYZE renders real process churn next to the simulator's
	// crash/rejoin vocabulary.
	Events *obs.Recorder
}

func (c *Config) defaults() {
	if c.Workers <= 0 {
		c.Workers = 4
		if n := runtime.NumCPU(); n < c.Workers {
			c.Workers = n
		}
		if c.Workers < 1 {
			c.Workers = 1
		}
	}
	if c.heartbeatEvery <= 0 {
		c.heartbeatEvery = 100 * time.Millisecond
	}
	if c.heartbeatTimeout <= 0 {
		c.heartbeatTimeout = 3 * time.Second
	}
	if c.RespawnBudget == 0 {
		c.RespawnBudget = 32
	}
	if c.RespawnBackoff <= 0 {
		c.RespawnBackoff = 50 * time.Millisecond
	}
	if c.QuorumWait <= 0 {
		c.QuorumWait = 2 * time.Second
	}
}

// heartbeatCheck is how often the driver-side monitor scans for stale
// workers: heartbeatTimeout/4, clamped to [10ms, 1s]. Staleness itself is
// governed by heartbeatTimeout; this interval only bounds detection
// latency, so it deliberately does not track heartbeatEvery — a short
// beat period must not make the driver poll needlessly hot.
func (c *Config) heartbeatCheck() time.Duration {
	d := c.heartbeatTimeout / 4
	if d < 10*time.Millisecond {
		d = 10 * time.Millisecond
	}
	if d > time.Second {
		d = time.Second
	}
	return d
}

// drainTimeout bounds Close's graceful drain: workers get msgShutdown and
// this long to exit before SIGKILL.
const drainTimeout = 2 * time.Second

// quarantineAfter is K in the poison-task rule: a task that kills (or
// deadline-times-out on) this many distinct worker incarnations is
// quarantined — the stage fails fast with the operator chain named instead
// of the task serially destroying the fleet.
const quarantineAfter = 3

// taskReply is what a dispatched task resolves to: a batch frame or an
// error message. died distinguishes a worker death while the task was
// unanswered (synthesized by markDead) from an error the worker itself
// reported (a compute failure, or an input missing from its cache). pos
// is the task's place in its share's dispatch order.
type taskReply struct {
	pos     int
	payload []byte
	errMsg  string
	died    bool
}

// parseReply decodes a msgTaskResult body.
func parseReply(body []byte) (id uint64, r taskReply, err error) {
	id, tag, rest, err := parseTagged(body)
	if err != nil {
		return 0, r, err
	}
	if tag == resultOK {
		r.payload = rest
	} else {
		r.errMsg = string(rest)
	}
	return id, r, nil
}

// pendingTask is where the answer to one dispatched task goes: the reply
// channel of its share, and its position in that share.
type pendingTask struct {
	ch  chan<- taskReply
	pos int
}

// workerProc is the driver's handle on one worker incarnation. A respawn
// installs a fresh workerProc (new gen) into the same slot; the old one
// stays dead forever, so in-flight dispatch goroutines holding it observe
// a stable corpse.
type workerProc struct {
	idx      int    // slot index (stable across respawns)
	gen      uint64 // pool-unique incarnation id (quarantine blame tracking)
	pid      int
	cmd      *exec.Cmd
	conn     net.Conn
	br       *bufio.Reader // conn, buffered; after the handshake only readLoop reads it
	readDone chan struct{} // closed once readLoop has read everything the worker sent
	exited   chan struct{} // closed once cmd.Wait returned (process reaped)

	wmu  sync.Mutex      // serializes frame writes to bw, guards held
	bw   *bufio.Writer   // conn, buffered: a share is written through it and flushed once
	held map[uint64]bool // blocks this incarnation holds: pushed to it, and not dropped by a msgClearCache since

	mu       sync.Mutex
	dead     bool
	deadErr  error
	lastBeat time.Time
	pending  map[uint64]pendingTask // unanswered task id -> where its reply goes
}

// send writes one control-plane frame and flushes it.
func (w *workerProc) send(typ byte, body []byte) error {
	w.wmu.Lock()
	defer w.wmu.Unlock()
	if err := writeFrame(w.bw, typ, body); err != nil {
		return err
	}
	return w.bw.Flush()
}

func (w *workerProc) flush() error {
	w.wmu.Lock()
	defer w.wmu.Unlock()
	return w.bw.Flush()
}

func (w *workerProc) isDead() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.dead
}

// pendingSpawn is a worker process that has been started but has not yet
// completed the socket handshake. handshake resolves done with the
// installed workerProc, or with nil after setting err to why the
// handshake failed.
type pendingSpawn struct {
	idx  int
	pid  int
	cmd  *exec.Cmd
	err  error
	done chan *workerProc
}

// Pool is a process-pool backend for engine sessions: real worker
// processes run portable stages, wall-clock replaces the simulated clock,
// and worker crashes surface as fetch failures the engine recovers from.
// Create with Start, stop with Close. A Pool may serve many sequential
// sessions (the engine runs one stage at a time per session; Pools are
// not meant to be shared by concurrent sessions). A session's cached
// partitions stay in the store and in the workers from the job that
// first reads them for as long as every job reads them, and at the
// latest until the session's Close (ReleaseBroadcasts).
//
// Dispatch is one pipeline per (worker, stage): RunRemoteStage hands each
// live worker its whole share — input blocks pushed ahead of the tasks
// that read them, one flush — and reads the answers as they come, so a
// stage of many tiny tasks costs a few syscalls per worker, not a round
// trip per task (wire.go has the protocol, runShare the failure rules).
//
// The pool self-heals: dead workers are re-exec'd with backoff (health.go)
// up to a budget, so sustained faults churn the fleet instead of shrinking
// it to zero.
type Pool struct {
	cfg   Config
	dir   string
	exe   string // re-exec path for respawns
	sock  string
	ln    net.Listener
	store *blockStore
	start time.Time

	stopOnce sync.Once
	stopCh   chan struct{}
	// unreaped counts the processes the pool started and has not reaped
	// yet. spawnInto adds one while the pool is open; whoever reaps a
	// process marks it done; Close waits for none to be left.
	unreaped sync.WaitGroup

	taskSeq   uint64 // atomic: wire task ids
	genSeq    uint64 // atomic: worker incarnation ids
	frameSeq  uint64 // atomic: data-plane frames sent (fault-plan cadence)
	nDispatch int64  // atomic: lifetime dispatch count (fault-plan kills)
	shipped   int64  // atomic: bytes served to + returned by workers
	remoteSt  int64  // atomic: remote stages completed
	remoteTk  int64  // atomic: remote tasks completed

	mu          sync.Mutex
	closed      bool
	workerList  []*workerProc // fixed-size slots; entries replaced on respawn
	spawning    map[int]*pendingSpawn
	slotDeaths  []int // consecutive fast deaths per slot (backoff doubling)
	slotBorn    []time.Time
	respawnsIn  int // respawns in flight (quorum wait looks at this)
	respawnsUse int // respawns spent against the budget
	respawns    int // respawns completed
	quarantines int
	stats       cluster.Stats
	clockOffset float64
	lastClock   float64
	keep        map[uint64]bool // blocks the current job's specs listed as resident (ReleaseBroadcasts keeps them)
	// outputs is where each registered shuffle output's partitions "live",
	// by slot index. The actual bytes stay on the driver's frontier: what
	// it models is which results a real cluster would have lost, so the
	// engine's lineage recovery is exercised by real process deaths.
	outputs cluster.Outputs
}

// The three engine facets the pool provides.
var (
	_ engine.Backend      = (*Pool)(nil)
	_ engine.Residency    = (*Pool)(nil)
	_ engine.RemoteRunner = (*Pool)(nil)
)

// Start spawns the workers (re-execs of the current binary; see IsWorker)
// and waits for all of them to complete the socket handshake. They join
// the way a respawned worker does: acceptLoop serves every handshake.
func Start(cfg Config) (*Pool, error) {
	cfg.defaults()
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("procpool: %w", err)
	}
	dir, err := os.MkdirTemp("", "matpool-")
	if err != nil {
		return nil, fmt.Errorf("procpool: %w", err)
	}
	sock := filepath.Join(dir, "pool.sock")
	ln, err := net.Listen("unix", sock)
	if err != nil {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("procpool: %w", err)
	}
	p := &Pool{
		cfg:        cfg,
		dir:        dir,
		exe:        exe,
		sock:       sock,
		ln:         ln,
		store:      newBlockStore(),
		start:      time.Now(),
		stopCh:     make(chan struct{}),
		workerList: make([]*workerProc, cfg.Workers),
		spawning:   map[int]*pendingSpawn{},
		slotDeaths: make([]int, cfg.Workers),
		slotBorn:   make([]time.Time, cfg.Workers),
	}
	fail := func(err error) (*Pool, error) {
		p.Close()
		return nil, err
	}
	go p.acceptLoop()
	spawns := make([]*pendingSpawn, cfg.Workers)
	for i := range spawns {
		ps, err := p.spawnInto(i)
		if err != nil {
			return fail(err)
		}
		spawns[i] = ps
	}
	timeout := time.NewTimer(handshakeTimeout)
	defer timeout.Stop()
	for _, ps := range spawns {
		select {
		case w := <-ps.done:
			if w == nil {
				return fail(ps.err)
			}
		case <-timeout.C:
			return fail(fmt.Errorf("procpool: worker %d never connected (waited %v)", ps.idx, handshakeTimeout))
		}
	}
	go p.monitor()
	return p, nil
}

// Close shuts the pool down gracefully: every live worker gets a shutdown
// frame and drainTimeout to exit on its own; stragglers are SIGKILLed.
// Every spawned process is reaped before Close returns (no orphans, no
// zombies), the store is emptied and the socket directory removed.
// Teardown deaths are not counted as crashes.
func (p *Pool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	workers := make([]*workerProc, 0, len(p.workerList))
	for _, w := range p.workerList {
		if w != nil {
			workers = append(workers, w)
		}
	}
	spawning := p.spawning
	p.spawning = map[int]*pendingSpawn{}
	p.mu.Unlock()
	p.stopOnce.Do(func() { close(p.stopCh) })
	p.ln.Close()
	// Processes no handshake has claimed just die, and are reaped here:
	// they have no waitWorker goroutine.
	for _, ps := range spawning {
		p.reap(ps)
	}
	// Graceful drain: ask, then wait bounded.
	for _, w := range workers {
		if !w.isDead() {
			w.send(msgShutdown, nil)
		}
	}
	deadline := time.Now().Add(drainTimeout)
	for _, w := range workers {
		select {
		case <-w.exited:
		case <-time.After(time.Until(deadline)):
		}
	}
	// The hard way for stragglers; then wait for every reap, a handshake's
	// or a dead worker's included, so no zombie outlives Close (SIGKILL
	// cannot be ignored, so this terminates).
	for _, w := range workers {
		w.conn.Close()
		if w.cmd.Process != nil {
			w.cmd.Process.Kill()
		}
	}
	p.unreaped.Wait()
	p.store.retain(nil)
	os.RemoveAll(p.dir)
}

// readLoop demuxes one worker's incoming frames. Any frame proves the
// worker alive; a read error means it died (or the pool is closing). A
// reply goes to the channel of the share its task belongs to, which is
// buffered to the share's length, so readLoop never blocks on a collector.
func (p *Pool) readLoop(w *workerProc) {
	fail := func(reason error) {
		close(w.readDone)
		p.markDead(w, reason)
	}
	for {
		typ, body, err := readFrame(w.br)
		if err != nil {
			fail(fmt.Errorf("procpool: worker %d connection lost: %v", w.idx, err))
			return
		}
		var id uint64 // task ids start at 1: nothing but a result finds a pending task
		var r taskReply
		if typ == msgTaskResult {
			if id, r, err = parseReply(body); err != nil {
				fail(fmt.Errorf("procpool: worker %d sent a bad result: %v", w.idx, err))
				return
			}
		}
		w.mu.Lock()
		w.lastBeat = time.Now() // for a heartbeat, the whole message
		if pt, ok := w.pending[id]; ok {
			delete(w.pending, id)
			// Sent under the lock (it cannot block: see above) so that
			// markDead, which takes the lock to collect what is still
			// pending, queues its died replies behind every real answer.
			r.pos = pt.pos
			pt.ch <- r
		}
		w.mu.Unlock()
	}
}

// waitWorker reaps the worker process; an exit before Close is a crash.
// The exit closed the worker's end of the socket, so readLoop is about to
// hit EOF: the death is declared only after it has delivered every answer
// the worker wrote before dying, or a task that was answered would be the
// first unanswered one and take the blame.
func (p *Pool) waitWorker(w *workerProc) {
	defer p.unreaped.Done()
	err := w.cmd.Wait()
	<-w.readDone
	p.markDead(w, fmt.Errorf("procpool: worker %d exited: %v", w.idx, err))
	close(w.exited)
}

// markDead records a worker crash exactly once: cut the connection, make
// sure the process is gone, mark every shuffle partition registered on it
// lost — the state CheckFetch turns into the FetchFailedError lineage
// recovery rewinds from — schedule a replacement worker for the slot
// (health.go), and then fail its unanswered tasks.
func (p *Pool) markDead(w *workerProc, reason error) {
	w.mu.Lock()
	if w.dead {
		w.mu.Unlock()
		return
	}
	w.dead = true
	w.deadErr = reason
	pend := w.pending
	w.pending = map[uint64]pendingTask{}
	w.mu.Unlock()

	w.conn.Close()
	if w.cmd.Process != nil {
		w.cmd.Process.Kill()
	}

	p.mu.Lock()
	closed := p.closed
	if !closed {
		p.stats.MachineCrashes++
		p.outputs.Lose(w.idx)
		p.scheduleRespawnLocked(w.idx)
	}
	p.mu.Unlock()
	// Only now do the shares waiting on this worker learn of the death:
	// whatever they do next already sees it counted and its outputs lost.
	for _, pt := range pend {
		pt.ch <- taskReply{pos: pt.pos, errMsg: reason.Error(), died: true} // buffered, never blocks
	}
	if !closed {
		p.event("crash", w.idx, reason.Error())
	}
}

// liveWorkers snapshots the currently live workers under the pool lock.
func (p *Pool) liveWorkers() []*workerProc {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.liveLocked()
}

func (p *Pool) liveLocked() []*workerProc {
	live := make([]*workerProc, 0, len(p.workerList))
	for _, w := range p.workerList {
		if w != nil && !w.isDead() {
			live = append(live, w)
		}
	}
	return live
}

// LiveWorkers reports how many workers are currently up.
func (p *Pool) LiveWorkers() int { return len(p.liveWorkers()) }

// Workers reports the pool's slot count.
func (p *Pool) Workers() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.workerList)
}

// RemoteStages and RemoteTasks count what actually ran in worker
// processes (the A/B tests assert they are nonzero: a silently
// driver-local run would still produce identical values).
func (p *Pool) RemoteStages() int { return int(atomic.LoadInt64(&p.remoteSt)) }

// RemoteTasks counts tasks completed by worker processes.
func (p *Pool) RemoteTasks() int { return int(atomic.LoadInt64(&p.remoteTk)) }

// BytesShipped totals the encoded frames that crossed process boundaries.
func (p *Pool) BytesShipped() int64 { return atomic.LoadInt64(&p.shipped) }

// Spills always reports 0: the store keeps batches in memory and never
// spills. It stays for the wall-clock benchmark, which reads it as
// procpool.spill_blocks; a change to the benchmark removes both.
func (p *Pool) Spills() (blocks int, bytes int64) { return 0, 0 }

// Respawns reports how many replacement workers completed their handshake.
func (p *Pool) Respawns() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.respawns
}

// Quarantines reports how many poison tasks were quarantined.
func (p *Pool) Quarantines() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.quarantines
}

// ---- engine.RemoteRunner ----

// PutBlock stores b for dispatch to push to the workers whose tasks read
// it, and returns the id b already has if the store still holds it. It
// never fails: the batch is encoded as it is pushed (pushBlock), so a
// shape the codec refuses fails the stage that reads it.
func (p *Pool) PutBlock(b engine.Batch) (uint64, error) {
	return p.store.put(b), nil
}

// RunRemoteStage splits the spec's tasks round-robin into one share per
// live worker, ships every share whole (runShare) and collects the decoded
// result partitions. The spec's Resident blocks join the set the job's end
// keeps (ReleaseBroadcasts). Workers run their shares in order, so when one
// dies the task to blame is the first one of its share it had been sent
// and not answered; that task is re-dispatched on a survivor — until
// quarantineAfter distinct worker incarnations died under it, at which
// point it is quarantined (PoisonTaskError; the pool stays live).
// Everything else the dead worker left unanswered or unsent requeues
// blame-free. When live workers fall below the quorum the stage waits
// bounded for respawn, then fails with engine.QuorumLostError. Ctx
// cancellation stops dispatching and drops the pending replies.
func (p *Pool) RunRemoteStage(ctx context.Context, spec *engine.RemoteStageSpec) (*engine.RemoteStageResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if len(spec.Resident) > 0 {
		p.mu.Lock()
		if p.keep == nil {
			p.keep = map[uint64]bool{}
		}
		for _, id := range spec.Resident {
			p.keep[id] = true
		}
		p.mu.Unlock()
	}
	if len(spec.Tasks) == 0 {
		return &engine.RemoteStageResult{}, nil
	}
	shippedBefore := atomic.LoadInt64(&p.shipped)
	parts := make([]engine.Batch, len(spec.Tasks))
	failedOn := make([]map[uint64]bool, len(spec.Tasks)) // task -> worker gens it died on
	queue := make([]int, len(spec.Tasks))
	for i := range queue {
		queue[i] = i
	}
	ranOn := map[int]bool{}
	for len(queue) > 0 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		live, err := p.waitQuorum(ctx, spec.Label)
		if err != nil {
			return nil, err
		}
		// Round-robin over the live workers; a queue shorter than the
		// fleet leaves the workers past its end without a share.
		shares := make([]share, min(len(live), len(queue)))
		for k, ti := range queue {
			sh := &shares[k%len(shares)]
			sh.tasks = append(sh.tasks, ti)
		}
		var wg sync.WaitGroup
		for wi := range shares {
			wg.Add(1)
			go func(w *workerProc, sh *share) {
				defer wg.Done()
				p.runShare(ctx, w, spec, sh, parts)
			}(live[wi], &shares[wi])
		}
		wg.Wait()
		queue = queue[:0]
		for wi := range shares {
			sh := &shares[wi]
			if sh.err != nil {
				return nil, sh.err
			}
			if sh.ran {
				ranOn[live[wi].idx] = true
			}
			if ti := sh.blamed; ti >= 0 {
				if failedOn[ti] == nil {
					failedOn[ti] = map[uint64]bool{}
				}
				failedOn[ti][live[wi].gen] = true
				if len(failedOn[ti]) >= quarantineAfter {
					pe := &PoisonTaskError{
						Stage:   spec.Label,
						Part:    ti,
						Ops:     opChain(&spec.Tasks[ti]),
						Workers: len(failedOn[ti]),
					}
					p.noteQuarantine(pe)
					return nil, pe
				}
				queue = append(queue, ti)
			}
			queue = append(queue, sh.requeue...)
		}
	}
	atomic.AddInt64(&p.remoteSt, 1)
	atomic.AddInt64(&p.remoteTk, int64(len(spec.Tasks)))
	return &engine.RemoteStageResult{
		Parts:        parts,
		BytesShipped: atomic.LoadInt64(&p.shipped) - shippedBefore,
		Workers:      len(ranOn),
	}, nil
}

// share is one worker's part of a dispatch round: the tasks (indices into
// the spec) in the order they are sent, the state its sender and collector
// share, and what runShare made of it.
type share struct {
	tasks   []int
	base    uint64         // wire id of tasks[0]; tasks[pos] goes out as base+pos
	replies chan taskReply // buffered to len(tasks): one reply per task at most
	sent    atomic.Int64   // task frames written so far

	ran     bool  // the worker answered at least one task
	blamed  int   // task the worker died under, -1 if none
	requeue []int // tasks to dispatch again, blame-free
	err     error // ends the stage: a task's error, an undecodable result, an unencodable block, cancellation
}

// runShare ships sh to w and collects the answers. A sender goroutine
// writes the whole share through the worker's buffered writer (sendShare)
// while this one decodes replies as readLoop delivers them, so neither the
// driver nor the worker ever waits a round trip per task. It returns once
// the sender is done and every task of the share is accounted for:
// answered into parts, requeued, blamed, or dropped with sh.err set.
//
// TaskDeadline bounds the head-of-line task — the first one sent and not
// answered — and is re-armed on every reply, so a long share of short
// tasks is never killed for its length. A single-threaded worker has no
// task-level cancel, so the only reliable one is killing the process:
// respawn replaces it and the head-of-line task takes the blame.
//
// A death of any cause blames the head-of-line task too: the worker runs
// its queue in order. Answers still in a dead worker's writer died with
// it, so the rule is exact where the worker flushes (wire.go): for the
// task that first runs an operator on that process — the poison task of an
// operator that kills it — and for any task that ran longer than a
// heartbeat. A process that dies fast under data rather than under an
// operator can get a finished neighbour blamed in its place: the stage
// still ends after quarantineAfter deaths with its operator chain named,
// but the Part in the error may be the neighbour's.
func (p *Pool) runShare(ctx context.Context, w *workerProc, spec *engine.RemoteStageSpec, sh *share, parts []engine.Batch) {
	n := len(sh.tasks)
	sh.blamed = -1
	sh.base = atomic.AddUint64(&p.taskSeq, uint64(n)) - uint64(n) + 1
	sh.replies = make(chan taskReply, n)
	sctx, stopSending := context.WithCancel(ctx)
	defer stopSending()
	sendDone := make(chan error, 1)
	go func() { sendDone <- p.sendShare(sctx, w, spec, sh) }()

	var deadline *time.Timer
	var deadlineC <-chan time.Time
	if p.cfg.TaskDeadline > 0 {
		deadline = time.NewTimer(p.cfg.TaskDeadline)
		defer deadline.Stop()
		deadlineC = deadline.C
	}
	done := make([]bool, n)
	answered, sending, dead := 0, true, false
	head := func() int { // first unanswered position
		for pos := range done {
			if !done[pos] {
				return pos
			}
		}
		return n
	}
	for sh.err == nil && !dead && (sending || answered < n) {
		select {
		case r := <-sh.replies:
			if r.died {
				dead = true
				break
			}
			done[r.pos] = true
			answered++
			ti := sh.tasks[r.pos]
			switch {
			case r.errMsg != "":
				sh.err = fmt.Errorf("procpool: stage %q task %d: %s", spec.Label, ti, r.errMsg)
			default:
				b, derr := decodeBatchFrame(r.payload)
				if derr != nil {
					sh.err = fmt.Errorf("procpool: stage %q task %d result: %v", spec.Label, ti, derr)
					break
				}
				atomic.AddInt64(&p.shipped, int64(len(r.payload)))
				parts[ti] = b
				sh.ran = true
			}
			if deadline != nil {
				deadline.Reset(p.cfg.TaskDeadline)
			}
		case err := <-sendDone:
			sending = false
			switch {
			case err != nil:
				sh.err = err
			case ctx.Err() != nil:
				sh.err = ctx.Err()
			case int(sh.sent.Load()) < n:
				dead = true // short of cancellation, the sender stops early only on a dead worker
			}
		case <-ctx.Done():
			// The job is cancelled: nobody wants the replies, and the
			// worker is left alone (it finishes or dies on its own).
			sh.err = ctx.Err()
		case <-deadlineC:
			// Nothing to kill for when an answer is waiting to be read
			// (this goroutine was the slow one) or nothing is in flight
			// (the sender is still pushing).
			if h := head(); len(sh.replies) == 0 && h < int(sh.sent.Load()) {
				p.markDead(w, fmt.Errorf("procpool: worker %d: task %d exceeded its %v deadline; cancelled and requeued",
					w.idx, sh.tasks[h], p.cfg.TaskDeadline))
			} else {
				deadline.Reset(p.cfg.TaskDeadline)
			}
		}
	}
	stopSending()
	if sending {
		if err := <-sendDone; err != nil && sh.err == nil {
			sh.err = err
		}
	}
	switch {
	case sh.err != nil:
		// The stage is lost: whatever the worker still answers is dropped.
		w.mu.Lock()
		for pos := range sh.tasks {
			delete(w.pending, sh.base+uint64(pos))
		}
		w.mu.Unlock()
	case dead:
		// The worker ran its queue in order, so what it died under is the
		// first task it was sent and had not answered.
		if h := head(); h < int(sh.sent.Load()) {
			sh.blamed = sh.tasks[h]
			done[h] = true
		}
		for pos, ok := range done {
			if !ok {
				sh.requeue = append(sh.requeue, sh.tasks[pos])
			}
		}
	}
}

// sendShare writes the share in dispatch order: for each task, every block
// its steps read that w does not hold yet, then the task frame; one flush
// at the end. It stops early when ctx is cancelled, when w is dead (or
// dies of a failed write), and after a dispatch the fault plan kills at —
// the kill fires synchronously here, so the crash and its lost-output
// bookkeeping are ordered before any later stage of the run, making
// recovery tests deterministic. A block the store cannot
// serve or the codec refuses is the one error returned: it is found here,
// before the task that reads it is sent.
func (p *Pool) sendShare(ctx context.Context, w *workerProc, spec *engine.RemoteStageSpec, sh *share) error {
	defer w.flush() // a failed flush kills the connection: readLoop reports it
	// One task body and one block frame at a time: sendData copies each
	// out before the next is encoded into the same buffer.
	var body, frame []byte
	for pos, ti := range sh.tasks {
		if ctx.Err() != nil {
			return nil
		}
		t := &spec.Tasks[ti]
		var err error
		for _, in := range t.Inputs {
			if in.Step == 0 && in.Block != 0 {
				if frame, err = p.pushBlock(w, in.Block, frame); err != nil {
					return fmt.Errorf("procpool: stage %q task %d: %w", spec.Label, ti, err)
				}
			}
		}
		id := sh.base + uint64(pos)
		if body, err = encodeTask(body[:0], id, t); err != nil {
			return err
		}
		w.mu.Lock()
		if w.dead {
			w.mu.Unlock()
			return nil
		}
		w.pending[id] = pendingTask{ch: sh.replies, pos: pos}
		w.mu.Unlock()
		if err := p.sendData(w, msgTask, body); err != nil {
			p.markDead(w, fmt.Errorf("procpool: worker %d send failed: %v", w.idx, err))
			return nil
		}
		sh.sent.Add(1)
		n := atomic.AddInt64(&p.nDispatch, 1)
		if p.cfg.Faults.killsAt(uint64(n)) {
			p.markDead(w, fmt.Errorf("procpool: worker %d killed by fault plan at dispatch %d", w.idx, n))
			return nil
		}
	}
	return nil
}

// pushBlock sends block id to w unless this incarnation already holds it,
// encoding the stored batch into buf, and returns buf for the next block.
// A batch the codec refuses is found before the task that reads it is
// sent: the error wraps engine.ErrNotPortable, and the stage runs
// driver-local. A block the store does not hold is a driver bug, which
// fails the stage.
func (p *Pool) pushBlock(w *workerProc, id uint64, buf []byte) ([]byte, error) {
	w.wmu.Lock()
	have := w.held[id]
	w.wmu.Unlock()
	if have {
		return buf, nil
	}
	b, ok := p.store.get(id)
	if !ok {
		return buf, fmt.Errorf("procpool: unknown block %d", id)
	}
	buf, err := engine.EncodeBatch(buf[:0], b)
	if err != nil {
		return buf, fmt.Errorf("%w: procpool: block %d: %w", engine.ErrNotPortable, id, err)
	}
	head := blockHead(id)
	if err := p.sendData(w, msgBlockData, head[:], buf); err != nil {
		p.markDead(w, fmt.Errorf("procpool: worker %d send failed: %v", w.idx, err))
		return buf, nil // sendShare finds the worker dead before the next task frame
	}
	atomic.AddInt64(&p.shipped, int64(len(buf)))
	w.wmu.Lock()
	w.held[id] = true
	w.wmu.Unlock()
	return buf, nil
}

// ---- engine.Backend ----

// StartJob counts the job; a real pool has no launch overhead to charge.
func (p *Pool) StartJob() {
	p.mu.Lock()
	p.stats.Jobs++
	p.mu.Unlock()
}

// RunStageReport reports the wall-clock the stage actually took (the
// delta since the previous report) and counts its tasks. The simulated
// per-task costs are ignored: this backend measures instead of modeling.
func (p *Pool) RunStageReport(tasks []cluster.Task) (cluster.StageReport, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.stats.Stages++
	p.stats.Tasks += len(tasks)
	now := p.clockLocked()
	sec := now - p.lastClock
	p.lastClock = now
	p.stats.BusySeconds += sec
	return cluster.StageReport{
		Tasks:       len(tasks),
		Waves:       1,
		Makespan:    sec,
		Seconds:     sec,
		BusySeconds: sec,
	}, nil
}

// Broadcast counts a broadcast (actual broadcast batches ship as ordinary
// blocks, cached per worker).
func (p *Pool) Broadcast(int64) error {
	p.mu.Lock()
	p.stats.Broadcasts++
	p.mu.Unlock()
	return nil
}

// Unpin is a no-op: the pool charges no broadcast residency.
func (p *Pool) Unpin(int64) {}

// ReleaseBroadcasts is the end-of-job hook. The blocks the job's specs
// listed as resident — partitions of cached datasets — stay in the store
// and in every worker that holds them; every other block is dead, so the
// store drops it, each worker drops it from its cache (msgClearCache
// names what that worker keeps) along with its resolved kernels, and the
// driver forgets it pushed it there. A session's Close calls it once
// more, with nothing listed, to drop the rest.
func (p *Pool) ReleaseBroadcasts() {
	p.mu.Lock()
	keep := p.keep
	p.keep = nil
	p.mu.Unlock()
	keep = p.store.retain(keep)
	for _, w := range p.liveWorkers() {
		var ids []uint64
		w.wmu.Lock()
		for id := range w.held {
			if keep[id] {
				ids = append(ids, id)
			} else {
				delete(w.held, id)
			}
		}
		w.wmu.Unlock()
		slices.Sort(ids)
		w.send(msgClearCache, encodeIDs(ids))
	}
}

// Clock is wall time since the pool started, plus retry-backoff advances.
func (p *Pool) Clock() float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.clockLocked()
}

func (p *Pool) clockLocked() float64 {
	return time.Since(p.start).Seconds() + p.clockOffset
}

// Stats returns the pool's accumulated counters.
func (p *Pool) Stats() cluster.Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// ---- engine.Residency ----

// RegisterOutput places a completed stage's partitions on the currently
// live workers by the simulator's rule (cluster.Outputs.Register). If
// every worker is down the output is born lost; the next CheckFetch fails
// and recovery (or the job's error path) takes over. Liveness is sampled
// under the pool lock: markDead marks lost partitions under the same lock,
// so an output can never land on a worker whose death sweep already ran
// (it would be stranded "live" on a corpse).
func (p *Pool) RegisterOutput(parts int) cluster.OutputID {
	p.mu.Lock()
	defer p.mu.Unlock()
	var live []int
	for _, w := range p.liveLocked() {
		live = append(live, w.idx)
	}
	return p.outputs.Register(parts, live, len(p.workerList))
}

// CheckFetch reports a *cluster.FetchFailedError if any partition of the
// output was registered on a worker that has since died. Each output
// counts at most one fetch failure, like the simulator.
func (p *Pool) CheckFetch(id cluster.OutputID) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	ff, first := p.outputs.Check(id)
	if ff == nil {
		return nil
	}
	if first {
		p.stats.FetchFailures++
	}
	return ff
}

// DropOutput forgets an output (its stage was rewound or recomputed).
func (p *Pool) DropOutput(id cluster.OutputID) {
	p.mu.Lock()
	p.outputs.Drop(id)
	p.mu.Unlock()
}

// Advance adds recovery-backoff seconds to the pool clock.
func (p *Pool) Advance(dt float64) {
	p.mu.Lock()
	p.clockOffset += dt
	p.mu.Unlock()
}
