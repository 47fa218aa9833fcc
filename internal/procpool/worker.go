package procpool

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"time"

	"matryoshka/internal/engine"
)

// socketEnv carries the pool's unix socket path into spawned workers. Its
// presence is what distinguishes a worker re-exec from a normal launch.
const socketEnv = "MATRYOSHKA_PROCPOOL_SOCKET"

// IsWorker reports whether this process was spawned as a pool worker.
// Binaries that may host a pool (matbench, test binaries via TestMain)
// must check it first thing in main and divert to WorkerMain — before
// flag parsing, before tests, before anything that prints.
func IsWorker() bool { return os.Getenv(socketEnv) != "" }

// WorkerMain runs the worker protocol loop and exits the process; it
// never returns. Operator and batch-shape registrations happened in init
// functions by the time main runs, so the worker resolves exactly the
// names the driver registered — they are the same binary.
func WorkerMain() {
	os.Exit(workerRun(os.Getenv(socketEnv)))
}

// workerRun is the worker's whole life: dial, handshake, then one loop over
// the frames the driver pushes, in order — a block goes into the cache, a
// task runs against the cache and is answered, and nothing is ever asked
// of the driver. It returns the process exit code: 0 when the driver says
// so or hangs up, 1 — with the reason on stderr — for anything it cannot
// read, so a corrupted stream never dies silently.
func workerRun(sock string) int {
	conn, err := net.Dial("unix", sock)
	if err != nil {
		fmt.Fprintf(os.Stderr, "procpool worker: dial: %v\n", err)
		return 1
	}
	defer conn.Close()
	br := bufio.NewReaderSize(conn, wireBuf)

	// The heartbeat goroutine and the task loop share the connection's
	// writer; frames must not interleave. Everything is flushed as it is
	// written except task results, which gather in the writer while more
	// work is waiting (see the task loop).
	var wmu sync.Mutex
	bw := bufio.NewWriterSize(conn, wireBuf)
	send := func(flush bool, typ byte, body ...[]byte) error {
		wmu.Lock()
		defer wmu.Unlock()
		if err := writeFrame(bw, typ, body...); err != nil || !flush {
			return err
		}
		return bw.Flush()
	}
	flush := func() {
		wmu.Lock()
		bw.Flush() // a failed flush fails the next send too
		wmu.Unlock()
	}

	if err := send(true, msgHello, encodeHello(os.Getpid())); err != nil {
		fmt.Fprintf(os.Stderr, "procpool worker: hello: %v\n", err)
		return 1
	}
	typ, body, err := readFrame(br)
	if err != nil || typ != msgHelloAck {
		fmt.Fprintf(os.Stderr, "procpool worker: handshake: type %d err %v\n", typ, err)
		return 1
	}
	_, beatEvery, err := parseHelloAck(body)
	if err != nil {
		fmt.Fprintf(os.Stderr, "procpool worker: handshake: %v\n", err)
		return 1
	}

	stop := make(chan struct{})
	defer close(stop)
	go func() {
		t := time.NewTicker(beatEvery)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				if send(true, msgHeartbeat) != nil {
					return
				}
			}
		}
	}()

	runner := taskRunner{cache: map[uint64]engine.Batch{}}
	// A kernel about to run for the first time may take the process down
	// (a poison operator does, every time): what is done is answered
	// first, so that the first unanswered task the driver sees is the one
	// that ran it.
	runner.eval.FirstRun = flush
	for {
		typ, body, err := readFrame(br)
		if err == io.EOF {
			return 0 // driver hung up (pool closed, driver exited): clean exit
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "procpool worker: %v\n", err)
			return 1
		}
		switch typ {
		case msgBlockData:
			id, b, perr := parseBlock(body)
			if perr != nil {
				fmt.Fprintf(os.Stderr, "procpool worker: block data: %v\n", perr)
				return 1
			}
			runner.cache[id] = b
		case msgTask:
			id, task, perr := parseTask(body)
			if perr != nil {
				fmt.Fprintf(os.Stderr, "procpool worker: %v\n", perr)
				return 1
			}
			tag, rest := runner.run(&task)
			head := taggedHead(id, tag)
			// The answer leaves now only if no frame is waiting to be
			// read (wire.go has the rule and why it cannot deadlock).
			if send(br.Buffered() == 0, msgTaskResult, head[:], rest) != nil {
				return 0
			}
		case msgClearCache:
			ids, perr := parseIDs(body)
			if perr != nil {
				fmt.Fprintf(os.Stderr, "procpool worker: clear cache: %v\n", perr)
				return 1
			}
			runner.keep(ids)
		case msgShutdown:
			return 0
		default:
			fmt.Fprintf(os.Stderr, "procpool worker: unexpected frame type %d\n", typ)
			return 1
		}
	}
}

// taskRunner is what a worker keeps between tasks: every block the driver
// pushed and has not dropped, and the kernels resolved for the operators
// seen so far in the job. The driver keeps the same set of block ids
// (workerProc.held) and pushes a block once, so shared blocks (broadcasts,
// fan-in reads) cross the wire once per worker, and a cached dataset's
// partitions once for as long as every job reads them. Ids are never
// reused by the driver, so caching by id alone is safe; msgClearCache
// bounds the runner's memory to a job's working set plus the session's
// resident blocks.
type taskRunner struct {
	cache map[uint64]engine.Batch
	eval  engine.RemoteEvaluator
}

// keep is the end of a job: the cache drops every block but the listed
// ones (an id it does not hold is ignored), and every kernel goes, since
// a kernel's argument belongs to its job.
func (r *taskRunner) keep(ids []uint64) {
	next := make(map[uint64]engine.Batch, len(ids))
	for _, id := range ids {
		if b, ok := r.cache[id]; ok {
			next[id] = b
		}
	}
	r.cache = next
	r.eval.Reset()
}

func (r *taskRunner) fetch(id uint64) (engine.Batch, error) {
	b, ok := r.cache[id]
	if !ok {
		return nil, fmt.Errorf("procpool: block %d is not in the worker's cache", id)
	}
	return b, nil
}

// run evaluates one task against the cache and returns the tag and bytes
// of its result. An input not in the cache fails the task (fetch), with
// the block named.
func (r *taskRunner) run(task *engine.RemoteTask) (tag byte, rest []byte) {
	b, err := r.eval.RunRemoteTask(task, r.fetch)
	if err == nil {
		rest, err = engine.EncodeBatch(nil, b)
	}
	if err != nil {
		return resultErr, []byte(err.Error())
	}
	return resultOK, rest
}
