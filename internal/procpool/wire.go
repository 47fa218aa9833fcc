// Package procpool is the process-pool backend: a driver-side Pool that
// spawns real worker processes (re-execs of the current binary), ships
// each its share of a portable stage (engine.RemoteStageSpec) — the input
// blocks, encoded from the driver's block store as they are pushed ahead
// of the tasks that read them — and detects worker death by heartbeat, surfacing lost
// shuffle outputs through the same cluster.FetchFailedError the
// simulator's fault injection raises, so the engine's lineage-based
// recovery handles real crashes unchanged.
//
// The Pool implements engine.Backend (wall-clock stage reports),
// engine.Residency (which worker "holds" each registered shuffle output)
// and engine.RemoteRunner (block store + remote stage dispatch). Stages
// whose operators lack a portable registration, or whose rows the codec
// refuses, run driver-local; the pool is an acceleration substrate, never
// a correctness requirement. A task that fails on a worker fails its job,
// as it would in process.
package procpool

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"time"

	"matryoshka/internal/engine"
)

// The driver/worker wire protocol: framed messages over a unix socket.
// Every frame is a u32 big-endian payload length followed by the payload;
// the payload is a message-type byte, a u32 CRC-32C checksum of the body,
// then the body itself. The framing is deliberately dumb: a body is its
// fixed fields (ids, the result tag, the handshake's numbers), big-endian
// and read after one length check, and then at most one of a batch frame,
// task rows or a failed task's error text. The frame and the rows are the
// engine codec's, little-endian, and only engine.DecodeBatch and
// engine.ReadTask parse them, both bounds-checked and refusing a count
// before they allocate for it (fuzzed in wire_test.go and the engine:
// arbitrary bytes must error, never panic). The checksum turns a flipped
// bit anywhere in a body — kernel buffer reuse, a torn write racing a
// crash, fault injection — into a loud framing error instead of a
// silently wrong batch.
//
// The data plane is push only and ordered. The driver writes a worker its
// whole share of a stage through one buffered writer: for each task, the
// blocks its steps read that this worker incarnation does not hold yet
// (msgBlockData), then the task (msgTask); one flush at the end. The worker
// never asks for anything: a block is in its cache by the time the task
// that reads it arrives, because a stream socket delivers every frame, in
// order, for as long as it stays open (a broken one kills the worker). A
// block missing all the same can only be a driver bookkeeping bug: the task
// answers resultErr naming it, and the stage and its job fail, as they do
// for any task that answers resultErr. Both sides read through a
// bufio.Reader (one read syscall serves many small frames); no frame is
// read from the bare connection.
//
// Answers are batched the same way, by the one rule that cannot deadlock:
// the worker writes a result into its buffered writer and flushes only
// when its read buffer is empty — when its next read may block for as long
// as the driver waits for that result. While frames are buffered there is
// more work to answer first, and one write (one wake-up of the driver)
// carries all of it. Two things flush regardless: the heartbeat, so no
// answer is older than one beat and TaskDeadline can tell a slow task
// from a quiet writer; and the first run of a kernel, so a process that
// dies under an operator has answered every task before it (see
// engine.RemoteEvaluator.FirstRun and runShare's blame rule).
//
// A task body is self-contained — no state outlives the frame:
//
//	task = u64 id | engine.AppendTask rows
//
// The rows are the task's steps in evaluation order, the root last, then
// all their inputs in step order, each list a u32 count and that many
// batch-codec rows. engine.ReadTask reads them and refuses what evaluation
// could not run: no steps, a count the body cannot hold, a part that is no
// partition, a step input that is not an earlier step, inputs the steps do
// not account for, and trailing bytes.
const (
	msgHello      byte = iota + 1 // worker → driver: u64 pid
	msgHelloAck                   // driver → worker: u32 index | u64 heartbeat period (ns)
	msgTask                       // driver → worker: u64 task id | engine.AppendTask rows (above)
	msgTaskResult                 // worker → driver: u64 task id | u8 result tag | see the tags
	msgBlockData                  // driver → worker: u64 block id | batch frame
	msgHeartbeat                  // worker → driver: empty
	msgClearCache                 // driver → worker: u64 block ids to keep (end of job: drop every other cached block, and all kernels)
	msgShutdown                   // driver → worker: empty (exit cleanly)
)

// The tag byte of a msgTaskResult says what follows it.
const (
	resultErr byte = iota // error string: the task failed (its compute, or an input not in the cache)
	resultOK              // batch frame: the task's output partition
)

// wireBuf sizes the bufio readers and writers on both ends of a worker
// connection: room for a hundred-odd task or result frames of a
// tiny-task stage per syscall, small next to a worker's block cache.
const wireBuf = 32 << 10

// maxWireFrame caps a declared frame length so a corrupt or hostile peer
// cannot make the reader allocate unboundedly (mirrors batchio's cap).
const maxWireFrame = 1 << 30

// frameOverhead is the payload's fixed prefix: type byte + body checksum.
const frameOverhead = 5

// wireCRC is the Castagnoli polynomial table of the wire framing
// (hardware-accelerated on amd64/arm64).
var wireCRC = crc32.MakeTable(crc32.Castagnoli)

// frameHead is a frame's fixed nine bytes: payload length, type, body
// checksum. The body may come in pieces — a short prefix and a large
// payload — so that no caller has to join them to frame them.
func frameHead(typ byte, body ...[]byte) (head [9]byte) {
	n, sum := frameOverhead, uint32(0)
	for _, b := range body {
		n += len(b)
		sum = crc32.Update(sum, wireCRC, b)
	}
	binary.BigEndian.PutUint32(head[:], uint32(n))
	head[4] = typ
	binary.BigEndian.PutUint32(head[5:], sum)
	return head
}

// appendFrame appends one encoded frame to dst: what writeFrame writes,
// as bytes, for the fault injector's torn-write path.
func appendFrame(dst []byte, typ byte, body ...[]byte) []byte {
	head := frameHead(typ, body...)
	dst = append(dst, head[:]...)
	for _, b := range body {
		dst = append(dst, b...)
	}
	return dst
}

// writeFrame writes one frame piece by piece, copying nothing itself: w is
// a connection's bufio.Writer, which joins small frames into few syscalls
// and passes a large payload straight through. Callers serialize
// concurrent writers per connection — interleaved pieces would corrupt the
// stream — and flush.
func writeFrame(w io.Writer, typ byte, body ...[]byte) error {
	head := frameHead(typ, body...)
	if _, err := w.Write(head[:]); err != nil {
		return err
	}
	for _, b := range body {
		if _, err := w.Write(b); err != nil {
			return err
		}
	}
	return nil
}

// readFrame reads one frame, verifying the body checksum. io.EOF at a
// frame boundary passes through clean (the peer hung up); a partial frame
// is a distinct error.
func readFrame(r io.Reader) (byte, []byte, error) {
	var head [9]byte
	if _, err := io.ReadFull(r, head[:4]); err != nil {
		if err == io.EOF {
			return 0, nil, io.EOF
		}
		return 0, nil, fmt.Errorf("procpool: truncated frame header: %w", err)
	}
	n := binary.BigEndian.Uint32(head[:4])
	if n == 0 {
		return 0, nil, fmt.Errorf("procpool: empty wire frame")
	}
	if n < frameOverhead {
		return 0, nil, fmt.Errorf("procpool: runt wire frame (%d bytes, need ≥%d for type+checksum)", n, frameOverhead)
	}
	if n > maxWireFrame {
		return 0, nil, fmt.Errorf("procpool: wire frame length %d exceeds cap %d", n, maxWireFrame)
	}
	if _, err := io.ReadFull(r, head[4:]); err != nil {
		return 0, nil, fmt.Errorf("procpool: truncated frame header: %w", err)
	}
	want := binary.BigEndian.Uint32(head[5:])
	// Grow the body buffer as bytes actually arrive (geometric, from
	// 1 MiB): a lying length prefix must not make the reader allocate
	// its full declared size — up to the cap above — before the stream
	// proves it has the payload.
	const grow = 1 << 20
	need := int(n - frameOverhead)
	body := make([]byte, 0, min(need, grow))
	for len(body) < need {
		if len(body) == cap(body) {
			next := make([]byte, len(body), min(need, 2*cap(body)))
			copy(next, body)
			body = next
		}
		m, err := io.ReadFull(r, body[len(body):cap(body)])
		body = body[:len(body)+m]
		if err != nil {
			return 0, nil, fmt.Errorf("procpool: truncated wire frame: %w", err)
		}
	}
	if got := crc32.Checksum(body, wireCRC); got != want {
		return 0, nil, fmt.Errorf("procpool: wire frame checksum mismatch (type %d, %d bytes: %08x != %08x)", head[4], need, got, want)
	}
	return head[4], body, nil
}

func encodeHello(pid int) []byte {
	b := make([]byte, 8)
	binary.BigEndian.PutUint64(b, uint64(pid))
	return b
}

func parseHello(body []byte) (int, error) {
	if len(body) != 8 {
		return 0, fmt.Errorf("procpool: %d-byte hello, want 8", len(body))
	}
	return int(binary.BigEndian.Uint64(body)), nil
}

func encodeHelloAck(idx int, beatEvery time.Duration) []byte {
	b := make([]byte, 12)
	binary.BigEndian.PutUint32(b, uint32(idx))
	binary.BigEndian.PutUint64(b[4:], uint64(beatEvery.Nanoseconds()))
	return b
}

func parseHelloAck(body []byte) (int, time.Duration, error) {
	if len(body) != 12 {
		return 0, 0, fmt.Errorf("procpool: %d-byte hello ack, want 12", len(body))
	}
	ns := binary.BigEndian.Uint64(body[4:])
	if ns == 0 || ns > uint64(time.Hour) {
		return 0, 0, fmt.Errorf("procpool: implausible heartbeat period %dns", ns)
	}
	return int(binary.BigEndian.Uint32(body)), time.Duration(ns), nil
}

// encodeTask appends the msgTask body of task t under id to dst. The
// driver passes one buffer for a whole share: the frame writers copy the
// body before the next task overwrites it.
func encodeTask(dst []byte, id uint64, t *engine.RemoteTask) ([]byte, error) {
	return engine.AppendTask(binary.BigEndian.AppendUint64(dst, id), t)
}

// parseTask reads a msgTask body: the id, then a task engine.ReadTask
// accepts. What it accepts, evaluation can run.
func parseTask(body []byte) (uint64, engine.RemoteTask, error) {
	if len(body) < 8 {
		return 0, engine.RemoteTask{}, fmt.Errorf("procpool: %d-byte task body has no id", len(body))
	}
	id := binary.BigEndian.Uint64(body)
	t, err := engine.ReadTask(body[8:])
	if err != nil {
		return 0, t, fmt.Errorf("procpool: task %d: %w", id, err)
	}
	return id, t, nil
}

// decodeBatchFrame decodes a body that is exactly one batch frame — a
// pushed block or a task's result. Bytes after the frame are refused, as
// they are after a task body.
func decodeBatchFrame(body []byte) (engine.Batch, error) {
	b, n, err := engine.DecodeBatch(body)
	if err != nil {
		return nil, err
	}
	if n != len(body) {
		return nil, fmt.Errorf("procpool: %d trailing bytes after a %d-byte batch frame", len(body)-n, n)
	}
	return b, nil
}

// taggedHead is the prefix of a msgTaskResult body: the task id, then the
// tag that says what the bytes after it are.
func taggedHead(id uint64, tag byte) (h [9]byte) {
	binary.BigEndian.PutUint64(h[:], id)
	h[8] = tag
	return h
}

func parseTagged(body []byte) (id uint64, tag byte, rest []byte, err error) {
	if len(body) < 9 {
		return 0, 0, nil, fmt.Errorf("procpool: %d-byte task result has no id and tag", len(body))
	}
	if tag = body[8]; tag > resultOK {
		return 0, 0, nil, fmt.Errorf("procpool: bad result tag %d", tag)
	}
	return binary.BigEndian.Uint64(body), tag, body[9:], nil
}

// blockHead is the prefix of a msgBlockData body: the block id. The batch
// frame follows it.
func blockHead(id uint64) (h [8]byte) {
	binary.BigEndian.PutUint64(h[:], id)
	return h
}

// parseBlock reads a msgBlockData body: the id, then exactly one batch
// frame.
func parseBlock(body []byte) (uint64, engine.Batch, error) {
	if len(body) < 8 {
		return 0, nil, fmt.Errorf("procpool: %d-byte block has no id", len(body))
	}
	id := binary.BigEndian.Uint64(body)
	b, err := decodeBatchFrame(body[8:])
	if err != nil {
		return 0, nil, fmt.Errorf("block %d: %w", id, err)
	}
	return id, b, nil
}

// encodeIDs and parseIDs carry the block ids of a msgClearCache.
func encodeIDs(ids []uint64) []byte {
	b := make([]byte, 0, 8*len(ids))
	for _, id := range ids {
		b = binary.BigEndian.AppendUint64(b, id)
	}
	return b
}

func parseIDs(body []byte) ([]uint64, error) {
	if len(body)%8 != 0 {
		return nil, fmt.Errorf("procpool: %d bytes of block ids is not a multiple of 8", len(body))
	}
	ids := make([]uint64, len(body)/8)
	for i := range ids {
		ids[i] = binary.BigEndian.Uint64(body[8*i:])
	}
	return ids, nil
}
