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
// whose operators lack a portable registration simply run driver-local;
// the pool is an acceleration substrate, never a correctness requirement.
package procpool

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"time"

	"matryoshka/internal/engine"
)

// The driver/worker wire protocol: framed messages over a unix socket.
// Every frame is a u32 big-endian payload length followed by the payload;
// the payload is a message-type byte, a u32 CRC-32C checksum of the body,
// then the body itself. Numbers inside bodies are big-endian. The framing
// is deliberately dumb — all structure lives in the per-type bodies, each
// parsed by a bounds-checked reader that fails loud on truncation (fuzzed
// in wire_test.go: arbitrary bytes must error, never panic). The checksum
// turns a flipped bit anywhere in a body — kernel buffer reuse, a torn
// write racing a crash, fault injection — into a loud framing error
// instead of a silently wrong batch.
//
// The data plane is push only and ordered. The driver writes a worker its
// whole share of a stage through one buffered writer: for each task, the
// blocks its tree reads that this worker incarnation does not hold yet
// (msgBlockData), then the task (msgTask); one flush at the end. The worker
// never asks for anything: a block is in its cache by the time the task
// that reads it arrives, because the stream is ordered. Only an injected
// frame drop can break that, and the task then answers resultMissing
// instead of failing, so the driver pushes the block again. Both sides
// read through a bufio.Reader (one read syscall serves many small frames);
// no frame is read from the bare connection.
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
// A task body is binary and self-contained — no state outlives the frame:
//
//	task  = u64 id | uvarint part | node
//	node  = uvarint len | op | uvarint len | arg | uvarint part | uvarint n | n × input
//	input = u8 kind: 0 empty | 1 block, uvarint block id (≠ 0) | 2 node
//
// parseTask checks it in the one pass that reads it: lengths and counts
// inside the body, known kinds, no trailing bytes, and at most
// maxTaskDepth nested operators, so a hostile body cannot recurse the
// worker off its stack.
const (
	msgHello      byte = iota + 1 // worker → driver: u64 pid
	msgHelloAck                   // driver → worker: u32 index | u64 heartbeat period (ns)
	msgTask                       // driver → worker: u64 task id | binary engine.RemoteTask (grammar above)
	msgTaskResult                 // worker → driver: u64 task id | u8 result tag | see the tags
	msgBlockData                  // driver → worker: u64 block id | u8 resultOK | batch frame
	msgHeartbeat                  // worker → driver: empty
	msgClearCache                 // driver → worker: u64 block ids to keep (end of job: drop every other cached block, and all kernels)
	msgShutdown                   // driver → worker: empty (exit cleanly)
)

// The tag byte of a msgTaskResult says what follows it.
const (
	resultErr     byte = iota // error string: the task's compute failed deterministically
	resultOK                  // batch frame: the task's output partition
	resultMissing             // u64 block ids the task reads that never reached this worker
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

// wireReader is a bounds-checked cursor over a frame body.
type wireReader struct {
	b   []byte
	off int
}

func (r *wireReader) u8() (byte, error) {
	if r.off+1 > len(r.b) {
		return 0, fmt.Errorf("procpool: frame body truncated at byte %d", r.off)
	}
	v := r.b[r.off]
	r.off++
	return v, nil
}

func (r *wireReader) u32() (uint32, error) {
	if r.off+4 > len(r.b) {
		return 0, fmt.Errorf("procpool: frame body truncated at byte %d", r.off)
	}
	v := binary.BigEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v, nil
}

func (r *wireReader) u64() (uint64, error) {
	if r.off+8 > len(r.b) {
		return 0, fmt.Errorf("procpool: frame body truncated at byte %d", r.off)
	}
	v := binary.BigEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v, nil
}

func (r *wireReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.b[r.off:])
	if n == 0 {
		return 0, fmt.Errorf("procpool: frame body truncated in a varint at byte %d", r.off)
	}
	if n < 0 {
		return 0, fmt.Errorf("procpool: varint overflows 64 bits at byte %d", r.off)
	}
	r.off += n
	return v, nil
}

// count reads a uvarint that must fit a non-negative int (a partition
// index, a number of inputs).
func (r *wireReader) count() (int, error) {
	v, err := r.uvarint()
	if err == nil && v > math.MaxInt32 {
		err = fmt.Errorf("procpool: count %d at byte %d is out of range", v, r.off)
	}
	return int(v), err
}

// bytes reads a uvarint length and that many bytes, aliasing the body; a
// zero length reads as nil.
func (r *wireReader) bytes() ([]byte, error) {
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(r.b)-r.off) {
		return nil, fmt.Errorf("procpool: length %d at byte %d runs past the body's %d bytes", n, r.off, len(r.b))
	}
	if n == 0 {
		return nil, nil
	}
	v := r.b[r.off : r.off+int(n) : r.off+int(n)]
	r.off += int(n)
	return v, nil
}

// rest returns everything after the cursor (may be empty, never nil).
func (r *wireReader) rest() []byte {
	if r.off >= len(r.b) {
		return []byte{}
	}
	return r.b[r.off:]
}

func encodeHello(pid int) []byte {
	b := make([]byte, 8)
	binary.BigEndian.PutUint64(b, uint64(pid))
	return b
}

func parseHello(body []byte) (int, error) {
	r := &wireReader{b: body}
	pid, err := r.u64()
	return int(pid), err
}

func encodeHelloAck(idx int, beatEvery time.Duration) []byte {
	b := make([]byte, 12)
	binary.BigEndian.PutUint32(b, uint32(idx))
	binary.BigEndian.PutUint64(b[4:], uint64(beatEvery.Nanoseconds()))
	return b
}

func parseHelloAck(body []byte) (int, time.Duration, error) {
	r := &wireReader{b: body}
	idx, err := r.u32()
	if err != nil {
		return 0, 0, err
	}
	ns, err := r.u64()
	if err != nil {
		return 0, 0, err
	}
	if ns == 0 || ns > uint64(time.Hour) {
		return 0, 0, fmt.Errorf("procpool: implausible heartbeat period %dns", ns)
	}
	return int(idx), time.Duration(ns), nil
}

// Input kind bytes of the binary task body. The engine names kinds by
// string in memory (engine.RemoteInput.Kind); appendNode and wireReader.input
// map between the two in one switch each.
const (
	inputEmpty byte = iota
	inputBlock
	inputNode
)

// maxTaskDepth caps how deeply a task body may nest operators. The parser
// recurses once per level, so a hostile body must not be able to nest it
// off the stack; a tree the driver builds is one stage's fused chain, far
// shallower. encodeTask refuses what parseTask would.
const maxTaskDepth = 10000

// encodeTask appends the msgTask body of task t under id to dst (see the
// grammar in the protocol header). The driver passes one buffer for a
// whole share: the frame writers copy the body before the next task
// overwrites it.
func encodeTask(dst []byte, id uint64, t *engine.RemoteTask) ([]byte, error) {
	if t.Root == nil {
		return dst, fmt.Errorf("procpool: task %d has no root operator", t.Part)
	}
	dst = binary.BigEndian.AppendUint64(dst, id)
	dst = binary.AppendUvarint(dst, uint64(t.Part))
	dst, err := appendNode(dst, t.Root, 1)
	if err != nil {
		return dst, fmt.Errorf("procpool: task %d: %w", t.Part, err)
	}
	return dst, nil
}

func appendNode(dst []byte, rn *engine.RemoteNode, depth int) ([]byte, error) {
	if depth > maxTaskDepth {
		return dst, fmt.Errorf("operator tree deeper than the depth cap of %d", maxTaskDepth)
	}
	dst = binary.AppendUvarint(dst, uint64(len(rn.Op)))
	dst = append(dst, rn.Op...)
	dst = binary.AppendUvarint(dst, uint64(len(rn.Arg)))
	dst = append(dst, rn.Arg...)
	dst = binary.AppendUvarint(dst, uint64(rn.Part))
	dst = binary.AppendUvarint(dst, uint64(len(rn.Inputs)))
	for i := range rn.Inputs {
		in := &rn.Inputs[i]
		var err error
		switch in.Kind {
		case "empty":
			dst = append(dst, inputEmpty)
		case "block":
			dst = binary.AppendUvarint(append(dst, inputBlock), in.Block)
		case "node":
			if in.Node == nil {
				return dst, fmt.Errorf("%q input %d: node input without a node", rn.Op, i)
			}
			dst, err = appendNode(append(dst, inputNode), in.Node, depth+1)
		default:
			err = fmt.Errorf("%q input %d: unknown input kind %q", rn.Op, i, in.Kind)
		}
		if err != nil {
			return dst, err
		}
	}
	return dst, nil
}

// parseTask reads a msgTask body, validating as it reads: every length
// lies inside the body, every input has a known kind and carries what
// that kind reads, the tree nests at most maxTaskDepth operators, and no
// byte is left over. What it accepts, evaluation can walk. An operator's
// argument aliases body (readFrame allocates every body fresh).
func parseTask(body []byte) (uint64, *engine.RemoteTask, error) {
	r := &wireReader{b: body}
	id, err := r.u64()
	if err != nil {
		return 0, nil, err
	}
	t := &engine.RemoteTask{}
	if t.Part, err = r.count(); err != nil {
		return 0, nil, fmt.Errorf("procpool: task %d: part: %w", id, err)
	}
	if r.off == len(r.b) {
		return 0, nil, fmt.Errorf("procpool: task %d has no root operator", id)
	}
	if t.Root, err = r.node(1); err != nil {
		return 0, nil, fmt.Errorf("procpool: task %d: %w", id, err)
	}
	if r.off != len(r.b) {
		return 0, nil, fmt.Errorf("procpool: task %d: %d trailing bytes after the operator tree", id, len(r.b)-r.off)
	}
	return id, t, nil
}

// node reads one operator and, recursively, its inputs; depth is its
// level in the tree, the root's being 1.
func (r *wireReader) node(depth int) (*engine.RemoteNode, error) {
	if depth > maxTaskDepth {
		return nil, fmt.Errorf("operator tree deeper than the depth cap of %d", maxTaskDepth)
	}
	rn := &engine.RemoteNode{}
	op, err := r.bytes()
	if err != nil {
		return nil, fmt.Errorf("op: %w", err)
	}
	rn.Op = string(op)
	if rn.Arg, err = r.bytes(); err != nil {
		return nil, fmt.Errorf("%q arg: %w", rn.Op, err)
	}
	if rn.Part, err = r.count(); err != nil {
		return nil, fmt.Errorf("%q part: %w", rn.Op, err)
	}
	n, err := r.count()
	if err != nil {
		return nil, fmt.Errorf("%q input count: %w", rn.Op, err)
	}
	if n > len(r.b)-r.off { // every input takes at least its kind byte
		return nil, fmt.Errorf("%q declares %d inputs in %d bytes", rn.Op, n, len(r.b)-r.off)
	}
	if n > 0 {
		rn.Inputs = make([]engine.RemoteInput, n)
	}
	for i := range rn.Inputs {
		if err := r.input(&rn.Inputs[i], rn.Op, i, depth); err != nil {
			return nil, err
		}
	}
	return rn, nil
}

// input reads input i of operator op. An error names the operator it
// arises under and no other: wrapping it once per enclosing level would
// cost the square of the depth.
func (r *wireReader) input(in *engine.RemoteInput, op string, i, depth int) error {
	kind, err := r.u8()
	switch {
	case err != nil:
	case kind == inputEmpty:
		in.Kind = "empty"
	case kind == inputBlock:
		in.Kind = "block"
		if in.Block, err = r.uvarint(); err == nil && in.Block == 0 {
			err = fmt.Errorf("block input without a block id")
		}
	case kind == inputNode:
		in.Kind = "node"
		if r.off == len(r.b) {
			err = fmt.Errorf("node input without a node")
		} else if in.Node, err = r.node(depth + 1); err != nil {
			return err
		}
	default:
		err = fmt.Errorf("unknown input kind %d", kind)
	}
	if err != nil {
		return fmt.Errorf("%q input %d: %w", op, i, err)
	}
	return nil
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

// eachBlock calls f with the id of every block the tree under rn reads, in
// evaluation order (an id shared by two inputs is visited twice).
func eachBlock(rn *engine.RemoteNode, f func(id uint64)) {
	if rn == nil {
		return
	}
	for i := range rn.Inputs {
		eachInputBlock(&rn.Inputs[i], f)
	}
}

func eachInputBlock(in *engine.RemoteInput, f func(id uint64)) {
	switch in.Kind {
	case "block":
		f(in.Block)
	case "node":
		eachBlock(in.Node, f)
	}
}

// taggedHead is the prefix of a msgTaskResult or msgBlockData body: the
// id, then the tag that says what the bytes after it are.
func taggedHead(id uint64, tag byte) (h [9]byte) {
	binary.BigEndian.PutUint64(h[:], id)
	h[8] = tag
	return h
}

func parseTagged(body []byte) (id uint64, tag byte, rest []byte, err error) {
	r := &wireReader{b: body}
	if id, err = r.u64(); err != nil {
		return 0, 0, nil, err
	}
	if tag, err = r.u8(); err != nil {
		return 0, 0, nil, err
	}
	if tag > resultMissing {
		return 0, 0, nil, fmt.Errorf("procpool: bad result tag %d", tag)
	}
	return id, tag, r.rest(), nil
}

// encodeIDs and parseIDs carry the block ids of a resultMissing answer
// and of a msgClearCache.
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
	r := &wireReader{b: body}
	ids := make([]uint64, len(body)/8)
	for i := range ids {
		ids[i], _ = r.u64() // cannot fail: the length was checked above
	}
	return ids, nil
}
