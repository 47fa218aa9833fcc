package procpool

// Self-healing machinery: the monitor that turns silence into declared
// death, the respawn path that refills a dead worker's slot with a fresh
// process (exponential backoff per crash-looping slot, a pool-lifetime
// budget so a pathological loop degrades to quorum failure instead of
// forking forever), the quorum gate stage dispatch waits behind, and the
// fault-injecting data-plane send. Worker lifecycle:
//
//	spawn -> live -> suspect (stale heartbeat) -> dead -> respawned
//	                                  task kills it 3x -> task quarantined
//
// Death always flows through markDead (pool.go), which schedules the
// respawn; the handshake here installs the replacement.

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"os"
	"os/exec"
	"sync/atomic"
	"time"

	"matryoshka/internal/engine"
	"matryoshka/internal/obs"
)

const (
	// respawnBackoffCap bounds the exponential respawn backoff.
	respawnBackoffCap = 2 * time.Second
	// respawnHandshakeTimeout bounds how long a respawned process may
	// take to dial back before it is written off (and retried).
	respawnHandshakeTimeout = 15 * time.Second
)

// monitor scans for workers whose heartbeat went stale. The scan interval
// (heartbeatCheck) is independent of HeartbeatEvery: beats set the
// staleness clock, the monitor only bounds detection latency.
func (p *Pool) monitor() {
	t := time.NewTicker(p.cfg.heartbeatCheck())
	defer t.Stop()
	for {
		select {
		case <-p.stopCh:
			return
		case <-t.C:
			for _, w := range p.snapshotWorkers() {
				w.mu.Lock()
				stale := !w.dead && time.Since(w.lastBeat) > p.cfg.HeartbeatTimeout
				w.mu.Unlock()
				if stale {
					p.markDead(w, fmt.Errorf("procpool: worker %d heartbeat timed out (> %v)", w.idx, p.cfg.HeartbeatTimeout))
				}
			}
		}
	}
}

// spawnInto starts a worker process destined for slot idx and registers
// it as pending; the handshake (triggered by the process dialing back)
// installs it.
func (p *Pool) spawnInto(idx int) (*pendingSpawn, error) {
	cmd := exec.Command(p.exe)
	cmd.Env = append(os.Environ(), socketEnv+"="+p.sock)
	cmd.Stderr = os.Stderr
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, fmt.Errorf("procpool: pool is closed")
	}
	if err := cmd.Start(); err != nil {
		p.mu.Unlock()
		return nil, fmt.Errorf("procpool: spawn worker %d: %w", idx, err)
	}
	ps := &pendingSpawn{idx: idx, pid: cmd.Process.Pid, cmd: cmd, done: make(chan *workerProc, 1)}
	p.spawning[ps.pid] = ps
	p.mu.Unlock()
	return ps, nil
}

// handshake completes one accepted connection: read the hello, match the
// pid to a pending spawn, install the workerProc into its slot, and start
// its read/reap goroutines. The pending spawn's done channel resolves
// with the worker (or nil on failure) for respawnWorker.
func (p *Pool) handshake(conn net.Conn) (*workerProc, error) {
	fail := func(ps *pendingSpawn, err error) (*workerProc, error) {
		conn.Close()
		if ps != nil {
			if ps.cmd.Process != nil {
				ps.cmd.Process.Kill()
			}
			go ps.cmd.Wait()
			ps.done <- nil
		}
		return nil, err
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	br := bufio.NewReaderSize(conn, wireBuf)
	typ, body, err := readFrame(br)
	if err != nil || typ != msgHello {
		return fail(nil, fmt.Errorf("procpool: bad hello (type %d): %v", typ, err))
	}
	pid, err := parseHello(body)
	if err != nil {
		return fail(nil, fmt.Errorf("procpool: hello: %w", err))
	}
	conn.SetReadDeadline(time.Time{})
	p.mu.Lock()
	ps, ok := p.spawning[pid]
	delete(p.spawning, pid)
	closed := p.closed
	p.mu.Unlock()
	if !ok {
		conn.Close()
		return nil, fmt.Errorf("procpool: connection from unknown pid %d", pid)
	}
	if closed {
		return fail(ps, fmt.Errorf("procpool: pool is closed"))
	}
	w := &workerProc{
		idx:      ps.idx,
		gen:      atomic.AddUint64(&p.genSeq, 1),
		pid:      pid,
		cmd:      ps.cmd,
		conn:     conn,
		br:       br,
		readDone: make(chan struct{}),
		exited:   make(chan struct{}),
		bw:       bufio.NewWriterSize(conn, wireBuf),
		held:     map[uint64]bool{},
		lastBeat: time.Now(),
		pending:  map[uint64]pendingTask{},
	}
	if err := w.send(msgHelloAck, encodeHelloAck(w.idx, p.cfg.HeartbeatEvery)); err != nil {
		return fail(ps, fmt.Errorf("procpool: worker %d ack: %w", w.idx, err))
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return fail(ps, fmt.Errorf("procpool: pool is closed"))
	}
	p.workerList[w.idx] = w
	p.slotBorn[w.idx] = time.Now()
	p.mu.Unlock()
	go p.readLoop(w)
	go p.waitWorker(w)
	ps.done <- w
	return w, nil
}

// acceptLoop serves handshakes for respawned workers (the initial fleet
// handshakes synchronously in Start). Exits when Close closes the
// listener.
func (p *Pool) acceptLoop() {
	for {
		conn, err := p.ln.Accept()
		if err != nil {
			return
		}
		go p.handshake(conn)
	}
}

// scheduleRespawnLocked (caller holds p.mu) books a replacement for a
// dead slot: spends budget, computes the consecutive-crash count for the
// backoff, and hands off to respawnWorker. Incrementing respawnsIn here,
// synchronously inside markDead, guarantees waitQuorum sees either a live
// worker or a respawn in flight — never a silent gap.
func (p *Pool) scheduleRespawnLocked(idx int) {
	if p.respawnsUse >= p.cfg.RespawnBudget {
		return // budget spent: the pool degrades to quorum failure
	}
	p.respawnsUse++
	p.respawnsIn++
	// An incarnation that survived a while was not crash-looping: reset
	// the consecutive-death count so its slot restarts at base backoff.
	stable := 4 * p.cfg.RespawnBackoff
	if stable < 100*time.Millisecond {
		stable = 100 * time.Millisecond
	}
	if born := p.slotBorn[idx]; !born.IsZero() && time.Since(born) >= stable {
		p.slotDeaths[idx] = 0
	}
	p.slotDeaths[idx]++
	go p.respawnWorker(idx, p.slotDeaths[idx])
}

// respawnWorker refills slot idx after the backoff, then waits for the
// replacement's handshake. Spawn and handshake failures retry within the
// budget; Close aborts the attempt.
func (p *Pool) respawnWorker(idx, deaths int) {
	backoff := p.cfg.RespawnBackoff
	for i := 1; i < deaths && backoff < respawnBackoffCap; i++ {
		backoff *= 2
	}
	if backoff > respawnBackoffCap {
		backoff = respawnBackoffCap
	}
	retry := func() {
		p.mu.Lock()
		p.respawnsIn--
		if !p.closed {
			p.scheduleRespawnLocked(idx)
		}
		p.mu.Unlock()
	}
	select {
	case <-p.stopCh:
		p.mu.Lock()
		p.respawnsIn--
		p.mu.Unlock()
		return
	case <-time.After(backoff):
	}
	ps, err := p.spawnInto(idx)
	if err != nil {
		retry()
		return
	}
	select {
	case w := <-ps.done:
		if w == nil {
			retry()
			return
		}
		p.mu.Lock()
		p.respawnsIn--
		p.respawns++
		p.stats.MachineRejoins++
		p.mu.Unlock()
		p.event("respawn", idx, fmt.Sprintf("worker %d respawned as pid %d after %v backoff", idx, w.pid, backoff))
	case <-time.After(respawnHandshakeTimeout):
		p.mu.Lock()
		delete(p.spawning, ps.pid)
		p.mu.Unlock()
		if ps.cmd.Process != nil {
			ps.cmd.Process.Kill()
		}
		go ps.cmd.Wait()
		retry()
	case <-p.stopCh:
		p.mu.Lock()
		p.respawnsIn--
		p.mu.Unlock()
	}
}

// waitQuorum blocks until at least one worker is up, a bounded wait
// that rides out respawn backoff. It fails immediately — not after
// QuorumWait — once no respawn is in flight and none can be scheduled
// (respawn disabled or budget spent): the fleet can only stay short, and
// engine.QuorumLostError hands the decision to lineage recovery and the
// bounded job retry instead of deadlocking the stage.
func (p *Pool) waitQuorum(ctx context.Context, label string) ([]*workerProc, error) {
	deadline := time.Now().Add(p.cfg.QuorumWait)
	for {
		p.mu.Lock()
		live := p.liveLocked()
		inFlight := p.respawnsIn
		canRespawn := !p.cfg.DisableRespawn && p.respawnsUse < p.cfg.RespawnBudget
		closed := p.closed
		p.mu.Unlock()
		if closed {
			return nil, fmt.Errorf("procpool: pool is closed")
		}
		if len(live) > 0 {
			return live, nil
		}
		if (inFlight == 0 && !canRespawn) || time.Now().After(deadline) {
			return nil, &engine.QuorumLostError{Stage: label, Live: len(live)}
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-p.stopCh:
			return nil, fmt.Errorf("procpool: pool closed while waiting for workers")
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// sendData writes one data-plane frame (msgTask, msgBlockData) into w's
// buffered writer — the caller flushes once its share is written —
// applying the fault plan's frame faults. Control-plane frames (acks,
// shutdown, cache clears) use w.send directly and stay clean: the chaos
// being modeled is a flaky transport under load, not a corrupted protocol.
func (p *Pool) sendData(w *workerProc, typ byte, body ...[]byte) error {
	if p.cfg.Faults.Active() {
		n := atomic.AddUint64(&p.frameSeq, 1)
		switch p.cfg.Faults.frameFaultAt(n) {
		case frameDelay:
			time.Sleep(p.cfg.Faults.delay())
		case frameDrop:
			// Swallowed silently — exactly what a lost datagram looks
			// like. A task whose block was dropped answers resultMissing
			// and is sent again; a dropped task is never answered, and
			// the task deadline (or the heartbeat monitor) unwedges the
			// share waiting for it.
			return nil
		case frameReset:
			// The frames buffered before this one did leave the driver:
			// flush them, then tear this one.
			frame := appendFrame(nil, typ, body...)
			cut := p.cfg.Faults.tearPoint(n, len(frame))
			w.wmu.Lock()
			w.bw.Flush()
			w.conn.Write(frame[:cut])
			w.wmu.Unlock()
			w.conn.Close()
			return fmt.Errorf("procpool: injected connection reset to worker %d mid-frame (%d/%d bytes)", w.idx, cut, len(frame))
		}
	}
	w.wmu.Lock()
	defer w.wmu.Unlock()
	return writeFrame(w.bw, typ, body...)
}

// noteQuarantine records a poison-task quarantine (count + fault event).
func (p *Pool) noteQuarantine(pe *engine.PoisonTaskError) {
	p.mu.Lock()
	p.quarantines++
	p.mu.Unlock()
	p.event("quarantine", -1, pe.Error())
}

// event emits a fault event to the configured recorder (nil-safe). Never
// call it holding p.mu: Clock takes the pool lock.
func (p *Pool) event(kind string, machine int, detail string) {
	if p.cfg.Events == nil {
		return
	}
	p.cfg.Events.Fault(obs.FaultEvent{At: p.Clock(), Machine: machine, Kind: kind, Detail: detail})
}
