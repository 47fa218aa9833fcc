package procpool

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"matryoshka/internal/engine"
)

// encodeTagged is a whole msgTaskResult body.
func encodeTagged(id uint64, tag byte, rest []byte) []byte {
	head := taggedHead(id, tag)
	return append(head[:], rest...)
}

// encodeBlock is a whole msgBlockData body.
func encodeBlock(id uint64, frame []byte) []byte {
	head := blockHead(id)
	return append(head[:], frame...)
}

func TestWireFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	bodies := map[byte][]byte{
		msgHello:      encodeHello(4242),
		msgHelloAck:   encodeHelloAck(3, 250*time.Millisecond),
		msgBlockData:  encodeBlock(77, []byte("frame-bytes")),
		msgTaskResult: encodeTagged(9, resultErr, []byte("boom")),
		msgHeartbeat:  nil,
		msgClearCache: encodeIDs([]uint64{4, 1 << 33}),
		msgShutdown:   nil,
	}
	order := []byte{msgHello, msgHelloAck, msgBlockData, msgTaskResult, msgHeartbeat, msgClearCache, msgShutdown}
	for _, typ := range order {
		if err := writeFrame(&buf, typ, bodies[typ]); err != nil {
			t.Fatalf("write type %d: %v", typ, err)
		}
	}
	for _, want := range order {
		typ, body, err := readFrame(&buf)
		if err != nil {
			t.Fatalf("read type %d: %v", want, err)
		}
		if typ != want {
			t.Fatalf("got type %d, want %d", typ, want)
		}
		if wb := bodies[want]; len(wb) > 0 && !bytes.Equal(body, wb) {
			t.Fatalf("type %d body mismatch", want)
		}
	}
	if _, _, err := readFrame(&buf); err != io.EOF {
		t.Fatalf("drained stream: got %v, want io.EOF", err)
	}
}

func TestWireFieldRoundTrips(t *testing.T) {
	if pid, err := parseHello(encodeHello(911)); err != nil || pid != 911 {
		t.Fatalf("hello: pid %d err %v", pid, err)
	}
	idx, every, err := parseHelloAck(encodeHelloAck(2, 125*time.Millisecond))
	if err != nil || idx != 2 || every != 125*time.Millisecond {
		t.Fatalf("helloAck: idx %d every %v err %v", idx, every, err)
	}
	id, tag, rest, err := parseTagged(encodeTagged(31, resultOK, []byte("payload")))
	if err != nil || id != 31 || tag != resultOK || string(rest) != "payload" {
		t.Fatalf("tagged: id %d tag %d rest %q err %v", id, tag, rest, err)
	}
	frame, err := engine.EncodeBatch(nil, sliceBatch([]int{5, 6, 7}))
	if err != nil {
		t.Fatal(err)
	}
	bid, b, err := parseBlock(encodeBlock(1<<40, frame))
	if err != nil || bid != 1<<40 || !reflect.DeepEqual(rowsOf(b), []int{5, 6, 7}) {
		t.Fatalf("block: id %d batch %v err %v", bid, b, err)
	}
	task := &engine.RemoteTask{
		Steps:  []engine.RemoteStep{{Op: "identity", Part: 3, NumInputs: 1}},
		Inputs: []engine.RemoteInput{{Block: 12}},
	}
	// A long chain is only a long list: no depth bounds what a task may
	// pipeline.
	for _, want := range []*engine.RemoteTask{task, kmeansMapTask(7), chain(100000)} {
		body, err := encodeTask(nil, 55, want)
		if err != nil {
			t.Fatalf("encodeTask: %v", err)
		}
		gotID, got, err := parseTask(body)
		if err != nil || gotID != 55 || !reflect.DeepEqual(&got, want) {
			t.Fatalf("parseTask: id %d err %v\ngot  %.200v\nwant %.200v", gotID, err, got, want)
		}
	}
}

func TestWireRejectsMalformed(t *testing.T) {
	// Truncated header.
	if _, _, err := readFrame(bytes.NewReader([]byte{0, 0, 0})); err == nil || err == io.EOF {
		t.Fatalf("truncated header: got %v", err)
	}
	// Declared length zero.
	if _, _, err := readFrame(bytes.NewReader([]byte{0, 0, 0, 0})); err == nil || !strings.Contains(err.Error(), "empty") {
		t.Fatalf("empty frame: got %v", err)
	}
	// Declared length too short to hold the type byte and checksum.
	if _, _, err := readFrame(bytes.NewReader([]byte{0, 0, 0, 3, 0, 0, 0})); err == nil || !strings.Contains(err.Error(), "runt") {
		t.Fatalf("runt frame: got %v", err)
	}
	// Declared length over the cap.
	huge := []byte{0xff, 0xff, 0xff, 0xff, byte(msgTask), 0, 0, 0, 0}
	if _, _, err := readFrame(bytes.NewReader(huge)); err == nil || !strings.Contains(err.Error(), "cap") {
		t.Fatalf("oversized frame: got %v", err)
	}
	// Body shorter than declared.
	var buf bytes.Buffer
	if err := writeFrame(&buf, msgTaskResult, encodeTagged(1, resultOK, []byte("abcdef"))); err != nil {
		t.Fatal(err)
	}
	cut := buf.Bytes()[:buf.Len()-3]
	if _, _, err := readFrame(bytes.NewReader(cut)); err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("truncated body: got %v", err)
	}
	// A flipped body bit must trip the checksum, not parse.
	corrupt := append([]byte(nil), buf.Bytes()...)
	corrupt[len(corrupt)-1] ^= 0x01
	if _, _, err := readFrame(bytes.NewReader(corrupt)); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("corrupt body: got %v", err)
	}
	// A flipped type byte is part of the frame but not the checksum: the
	// body still verifies, the bogus type is the receiver's problem (the
	// read loops ignore unknown types). Flipping the stored checksum
	// itself must fail loud though.
	badsum := append([]byte(nil), buf.Bytes()...)
	badsum[6] ^= 0x80 // inside the u32 checksum at bytes 5..8
	if _, _, err := readFrame(bytes.NewReader(badsum)); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("corrupt checksum: got %v", err)
	}
	// Truncated message bodies.
	if _, err := parseHello([]byte{1, 2}); err == nil {
		t.Fatal("short hello parsed")
	}
	if _, _, err := parseHelloAck([]byte{1, 2, 3, 4, 5}); err == nil {
		t.Fatal("short helloAck parsed")
	}
	if _, _, _, err := parseTagged([]byte{9}); err == nil {
		t.Fatal("short tagged parsed")
	}
	if _, _, _, err := parseTagged(encodeTagged(1, resultOK, nil)[:8]); err == nil {
		t.Fatal("tagged without tag parsed")
	}
	if _, _, _, err := parseTagged(encodeTagged(1, resultOK+1, nil)); err == nil {
		t.Fatal("unknown result tag parsed")
	}
	if _, _, err := parseBlock([]byte{0, 0, 0, 0, 0, 0, 0}); err == nil {
		t.Fatal("block without a whole id parsed")
	}
	if _, _, err := parseBlock(encodeBlock(3, []byte("not a batch frame"))); err == nil || !strings.Contains(err.Error(), "block 3: ") {
		t.Fatalf("block that is not a batch frame: got %v, want an error naming block 3", err)
	}
	if _, err := parseIDs([]byte{0, 0, 0, 0, 0, 0, 0, 1, 2}); err == nil {
		t.Fatal("ragged block-id list parsed")
	}
	if ids, err := parseIDs(nil); err != nil || len(ids) != 0 {
		t.Fatalf("empty keep list: ids %v err %v", ids, err)
	}
	for _, tc := range malformedTasks {
		if _, _, err := parseTask(tc.body); err == nil || !strings.Contains(err.Error(), tc.says) {
			t.Errorf("malformed task %s: got %v, want an error saying %q", tc.name, err, tc.says)
		}
	}
	// The encoder refuses what the parser would: a task with no steps, a
	// step that reads itself, a later step or a negative one, a part out of
	// range, and inputs its steps do not account for.
	refs := func(s int) *engine.RemoteTask {
		return &engine.RemoteTask{
			Steps:  []engine.RemoteStep{{Op: "leaf"}, {Op: "link", NumInputs: 1}},
			Inputs: []engine.RemoteInput{{Step: s}},
		}
	}
	farPart := refs(1)
	farPart.Steps[1].Part = 1 << 31
	unread := refs(1)
	unread.Steps[1].NumInputs = 0
	for _, bad := range []*engine.RemoteTask{{}, refs(2), refs(3), refs(-1), farPart, unread} {
		if _, err := encodeTask(nil, 1, bad); err == nil {
			t.Errorf("encodeTask accepted %+v", bad)
		}
	}
	if _, err := encodeTask(nil, 1, refs(1)); err != nil {
		t.Errorf("encodeTask refused a step reading the step before it: %v", err)
	}
}

// chain is a task of n steps, each the one input of the step after it.
func chain(n int) *engine.RemoteTask {
	t := &engine.RemoteTask{Steps: make([]engine.RemoteStep, n), Inputs: make([]engine.RemoteInput, n)}
	t.Steps[0] = engine.RemoteStep{Op: "leaf", NumInputs: 1}
	t.Inputs[0] = engine.RemoteInput{Block: 1}
	for i := 1; i < n; i++ {
		t.Steps[i] = engine.RemoteStep{Op: "link", Part: i, NumInputs: 1}
		t.Inputs[i] = engine.RemoteInput{Step: i}
	}
	return t
}

// fakeDriver listens where a worker will dial, runs workerRun against it
// in this process, completes the handshake and hands the connection to
// talk. It returns workerRun's exit code and what it wrote to stderr.
func fakeDriver(t *testing.T, talk func(conn net.Conn)) (code int, stderr string) {
	t.Helper()
	sock := filepath.Join(t.TempDir(), "w.sock")
	ln, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	pr, pw, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	old := os.Stderr
	os.Stderr = pw
	exit := make(chan int, 1)
	go func() { exit <- workerRun(sock) }()
	conn, err := ln.Accept()
	if err == nil {
		if typ, _, rerr := readFrame(conn); rerr != nil || typ != msgHello {
			t.Errorf("hello: type %d err %v", typ, rerr)
		}
		writeFrame(conn, msgHelloAck, encodeHelloAck(0, time.Hour))
		talk(conn)
		conn.Close()
	}
	code = <-exit
	os.Stderr = old
	pw.Close()
	out, _ := io.ReadAll(pr)
	pr.Close()
	if err != nil {
		t.Fatalf("accept: %v", err)
	}
	return code, string(out)
}

// TestWorkerSaysWhyItExits: a worker that reads garbage — a frame that
// fails its checksum, a frame cut short, a pushed block that is not a
// batch, a task it could not run or that declares more steps than its
// body holds, a keep list that is not whole ids — exits 1 and says what it
// read; only the driver hanging up at a frame boundary is a clean exit,
// after a keep list naming blocks the worker never had too.
func TestWorkerSaysWhyItExits(t *testing.T) {
	block := appendFrame(nil, msgBlockData, encodeBlock(3, []byte("not a batch frame")))
	corrupt := append([]byte(nil), block...)
	corrupt[len(corrupt)-1] ^= 0x01
	batch, err := engine.EncodeBatch(nil, sliceBatch([]int{1, 2, 3}))
	if err != nil {
		t.Fatal(err)
	}
	trailing := appendFrame(nil, msgBlockData, encodeBlock(4, append(batch, 0xde, 0xad)))
	cases := []struct {
		name  string
		bytes []byte
		code  int
		says  string
	}{
		{"hang-up", nil, 0, ""},
		{"checksum", corrupt, 1, "checksum mismatch"},
		{"truncated", block[:len(block)-4], 1, "truncated wire frame"},
		{"bad block", block, 1, "block data"},
		{"block with trailing bytes", trailing, 1, "block 4: procpool: 2 trailing bytes after a"},
		{"bad task", appendFrame(nil, msgTask, taskBody(u32(1), stepRow("x", 0, 1), u32(1), inputRow(0, 1))), 1, `step 0 "x" input 0: step input 1 does not name a step before step 0`},
		{"task past its body", appendFrame(nil, msgTask, taskBody(u32(1000000), stepRow("x", 0, 0), u32(0))), 1, "task 0: engine: batch codec: implausible element count 1000000"},
		{"ragged keep list", appendFrame(nil, msgClearCache, make([]byte, 12)), 1, "12 bytes of block ids is not a multiple of 8"},
		{"unknown keep ids", appendFrame(nil, msgClearCache, encodeIDs([]uint64{5, 6})), 0, ""},
	}
	for _, tc := range cases {
		code, stderr := fakeDriver(t, func(conn net.Conn) { conn.Write(tc.bytes) })
		if code != tc.code || !strings.Contains(stderr, tc.says) || (tc.says == "") != (stderr == "") {
			t.Errorf("%s: exit %d saying %q, want exit %d saying %q", tc.name, code, stderr, tc.code, tc.says)
		}
	}
}

// TestResultWithTrailingBytesFailsTheStage plays a worker by hand over an
// in-memory connection. It answers its first task with a batch frame,
// which the driver takes, and its second with the same frame and two bytes
// more, which the driver refuses: the stage fails with a result error.
func TestResultWithTrailingBytesFailsTheStage(t *testing.T) {
	frame, err := engine.EncodeBatch(nil, sliceBatch([]int{1, 2, 3}))
	if err != nil {
		t.Fatal(err)
	}
	drv, wrk := net.Pipe()
	defer wrk.Close()
	go func() {
		br := bufio.NewReader(wrk)
		var extra []byte
		for {
			typ, body, err := readFrame(br)
			if err != nil {
				return
			}
			if id, _, err := parseTask(body); typ == msgTask && err == nil {
				head := taggedHead(id, resultOK)
				writeFrame(wrk, msgTaskResult, head[:], frame, extra)
				extra = []byte{0xde, 0xad}
			}
		}
	}()
	cfg := Config{RespawnBudget: -1}
	cfg.defaults()
	w := &workerProc{
		cmd: &exec.Cmd{}, conn: drv, br: bufio.NewReader(drv), bw: bufio.NewWriter(drv),
		readDone: make(chan struct{}), exited: make(chan struct{}),
		held: map[uint64]bool{}, pending: map[uint64]pendingTask{}, lastBeat: time.Now(),
	}
	p := &Pool{cfg: cfg, store: newBlockStore(), stopCh: make(chan struct{}),
		workerList: []*workerProc{w}}
	go p.readLoop(w)

	res, err := p.RunRemoteStage(context.Background(), opSpec("exact", "htest.ok", "", 1))
	if err != nil {
		t.Fatalf("a result that is exactly one frame: %v", err)
	}
	checkParts(t, res.Parts, [][]int{{1, 2, 3}})
	_, err = p.RunRemoteStage(context.Background(), opSpec("trailing", "htest.ok", "", 1))
	if want := `stage "trailing" task 0 result: procpool: 2 trailing bytes after a`; err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("result with trailing bytes: got %v, want an error saying %q", err, want)
	}
}

// kmeansMapTask is the shape of kmeans_inner_proc's remote map task: the
// map-side combine of kmeans.sum over kmeans.assign, whose argument is
// the current centroids as JSON, over one cached block of points.
func kmeansMapTask(part int) *engine.RemoteTask {
	centroids := `[{"X":0.1258413622938497,"Y":-1.3321471038541706},{"X":2.047530812310211,"Y":0.8765102946351803},` +
		`{"X":-0.6734490213947731,"Y":1.9087713359814412},{"X":1.4407211890615364,"Y":-2.0316789011294467}]`
	return &engine.RemoteTask{
		Steps: []engine.RemoteStep{
			{Op: "kmeans.assign", Arg: centroids, Part: part, NumInputs: 1},
			{Op: "kmeans.sum", Part: part, NumInputs: 1},
		},
		Inputs: []engine.RemoteInput{{Block: 4097 + uint64(part)}, {Step: 1}},
	}
}

// mixedTask has a step with a block input, an empty input and a step
// input, after a step with two inputs.
func mixedTask() *engine.RemoteTask {
	return &engine.RemoteTask{
		Steps: []engine.RemoteStep{
			{Op: "join", Part: 2, NumInputs: 2},
			{Op: "sum", Arg: `{"k":3}`, Part: 2, NumInputs: 3},
		},
		Inputs: []engine.RemoteInput{{Block: 13}, {Block: 14}, {Block: 12}, {}, {Step: 1}},
	}
}

// taskBody joins hand-written pieces of a task body after id 0; a piece
// is a byte or a []byte. The rows after the id are little-endian, as
// engine.AppendTask writes them.
func taskBody(pieces ...any) []byte {
	b := make([]byte, 8)
	for _, p := range pieces {
		switch p := p.(type) {
		case byte:
			b = append(b, p)
		case []byte:
			b = append(b, p...)
		default:
			panic(fmt.Sprintf("taskBody: piece of type %T", p))
		}
	}
	return b
}

// u32 is a row count.
func u32(n uint32) []byte { return binary.LittleEndian.AppendUint32(nil, n) }

// stepRow is a step's row without an argument: op, part and input count.
func stepRow(op string, part, inputs int64) []byte {
	b := append(append(u32(uint32(len(op))), op...), 0, 0, 0, 0)
	b = binary.LittleEndian.AppendUint64(b, uint64(part))
	return binary.LittleEndian.AppendUint64(b, uint64(inputs))
}

// inputRow is an input's row: block id and step.
func inputRow(block uint64, step int64) []byte {
	return binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(nil, block), uint64(step))
}

// malformedTasks are task bodies evaluation could not run, each with what
// the parser's error must say.
var malformedTasks = []struct {
	name string
	body []byte
	says string
}{
	{"no-id", make([]byte, 7), "7-byte task body has no id"},
	{"no-root", taskBody(), "truncated frame: need 4 bytes at offset 0 of 0"},
	{"part-no-root", taskBody(u32(1), u32(20), bytes.Repeat([]byte("x"), 20), u32(0)), "truncated frame: need 8 bytes at offset 32 of 32"},
	{"no-steps", taskBody(u32(0), u32(0)), "task has no steps"},
	{"steps-past-body", taskBody(u32(1000000), stepRow("x", 0, 0), u32(0)), "implausible element count 1000000 for 29 payload bytes"},
	{"inputs-past-body", taskBody(u32(1), stepRow("x", 0, 1000), u32(1000), inputRow(0, 0)), "implausible element count 1000 for 16 payload bytes"},
	{"inputs-past-task", taskBody(u32(1), stepRow("x", 0, 1000), u32(1), inputRow(0, 0)), `step 0 "x" reads 1000 inputs of the 1 left`},
	{"negative-inputs", taskBody(u32(1), stepRow("x", 0, -1), u32(0)), `step 0 "x" reads -1 inputs of the 0 left`},
	{"unread-inputs", taskBody(u32(1), stepRow("x", 0, 0), u32(1), inputRow(0, 0)), "task steps read 0 of its 1 inputs"},
	{"self-step", taskBody(u32(1), stepRow("x", 0, 1), u32(1), inputRow(0, 1)), "step input 1 does not name a step before step 0"},
	{"forward-step", taskBody(u32(2), stepRow("x", 0, 1), stepRow("y", 0, 0), u32(1), inputRow(0, 2)), "step input 2 does not name a step before step 0"},
	{"negative-step", taskBody(u32(2), stepRow("y", 0, 0), stepRow("x", 0, 1), u32(1), inputRow(0, -1)), `step 1 "x" input 0: step input -1 does not name a step before step 1`},
	{"part-out-of-range", taskBody(u32(1), stepRow("x", 1<<31, 0), u32(0)), `step 0 "x": part 2147483648 is out of range`},
	{"negative-part", taskBody(u32(1), stepRow("x", -1, 0), u32(0)), `step 0 "x": part -1 is out of range`},
	{"arg-past-body", taskBody(u32(1), u32(1), []byte("x"), u32(40), []byte("an argument cut short")), "truncated frame: need 40 bytes at offset 13 of 34"},
	{"no-input-count", taskBody(u32(1), stepRow("x", 0, 0)), "truncated frame: need 4 bytes at offset 29 of 29"},
	{"length-past-body", taskBody(u32(1), u32(50), []byte("shorter than fifty bytes")), "truncated frame: need 50 bytes at offset 8 of 32"},
	{"trailing-bytes", taskBody(u32(1), stepRow("x", 0, 1), u32(1), inputRow(0, 0), byte(0)), "1 trailing bytes after a task"},
}

// FuzzRemoteTask feeds arbitrary bytes through the task parser the worker
// runs on every msgTask body: it must reject what it cannot run with an
// error, everything it accepts must survive the loops made over a task
// before it is evaluated (the operator chain, each step's inputs), and
// re-encoding an accepted task must parse back to the same task. The
// checked-in corpus (testdata/fuzz/FuzzRemoteTask) holds task bodies of
// an earlier grammar, which seed the fuzzer as any other bytes do.
func FuzzRemoteTask(f *testing.F) {
	for i, task := range []*engine.RemoteTask{kmeansMapTask(3), mixedTask(), chain(3)} {
		body, err := encodeTask(nil, uint64(5+i), task)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	for _, tc := range malformedTasks {
		f.Add(tc.body)
	}
	f.Add([]byte{1, 2, 3})
	f.Fuzz(func(t *testing.T, body []byte) {
		id, task, err := parseTask(body)
		if err != nil {
			return
		}
		opChain(&task)
		// The walk evaluation makes: each step's inputs lie in Inputs and
		// read earlier steps only.
		next := 0
		for i, st := range task.Steps {
			for _, in := range task.Inputs[next : next+st.NumInputs] {
				if in.Step < 0 || in.Step > i {
					t.Fatalf("accepted step %d reading step %d: %x", i, in.Step, body)
				}
			}
			next += st.NumInputs
		}
		again, err := encodeTask(nil, id, &task)
		if err != nil {
			t.Fatalf("accepted task does not re-encode: %v", err)
		}
		id2, task2, err := parseTask(again)
		if err != nil || id2 != id || !reflect.DeepEqual(task2, task) {
			t.Fatalf("re-encoded task parsed back as id %d %+v (err %v), want id %d %+v", id2, task2, err, id, task)
		}
	})
}

// TestTaskFramePinned pins the bytes of three task bodies: the k-means
// map task, chain(3), and mixedTask's block, empty and step inputs. A
// change to the task rows, or to the codec's rows under them, shows here
// as a changed digest; each body must also parse back to its task.
func TestTaskFramePinned(t *testing.T) {
	for _, tc := range []struct {
		name string
		task *engine.RemoteTask
		sum  string
	}{
		{"kmeans-map", kmeansMapTask(3), "1d3a31199c6bbe411485a1286919c05a71a61ab6f42e59d22374c2f0f8b1ac92"},
		{"chain-3", chain(3), "b09cc265d71b8693cfd74f2e0386f5ae8720e038cd56034a1c670d87df33b5b6"},
		{"mixed", mixedTask(), "7a8e6be16f04d088ad00e20ccc36f68d91d6e242ec7f554dae0a38ee799bc7d9"},
	} {
		body, err := encodeTask(nil, 7, tc.task)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if sum := fmt.Sprintf("%x", sha256.Sum256(body)); sum != tc.sum {
			t.Errorf("%s: task body sha256 %s, want %s", tc.name, sum, tc.sum)
		}
		id, got, err := parseTask(body)
		if err != nil || id != 7 || !reflect.DeepEqual(&got, tc.task) {
			t.Errorf("%s: parsed back as id %d %+v (err %v), want %+v", tc.name, id, got, err, tc.task)
		}
	}
}

// TestTaskFrameAllocs bounds what one task frame costs on each side, on
// the k-means map task: the worker parses it in at most 6 allocations
// (five today: its steps, its inputs, two op strings and the argument),
// and the driver encodes it into a warmed buffer in none.
func TestTaskFrameAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	task := kmeansMapTask(11)
	body, err := encodeTask(nil, 99, task)
	if err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(100, func() {
		if _, _, err := parseTask(body); err != nil {
			t.Fatal(err)
		}
	}); avg > 6 {
		t.Errorf("parseTask: %.1f allocations, want ≤ 6", avg)
	}
	buf := body
	if avg := testing.AllocsPerRun(100, func() {
		if buf, err = encodeTask(buf[:0], 99, task); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("encodeTask into a reused buffer: %.1f allocations, want 0", avg)
	}
}

// FuzzWireFrame feeds arbitrary bytes through the frame reader and every
// body parser: the driver reads these off a socket from another process,
// so none of them may panic or over-allocate on garbage.
func FuzzWireFrame(f *testing.F) {
	var seed bytes.Buffer
	writeFrame(&seed, msgHello, encodeHello(123))
	writeFrame(&seed, msgHelloAck, encodeHelloAck(1, 100*time.Millisecond))
	writeFrame(&seed, msgTaskResult, encodeTagged(7, resultOK, []byte("data")))
	block, err := engine.EncodeBatch(nil, sliceBatch([]int{1, 2, 3}))
	if err != nil {
		f.Fatal(err)
	}
	writeFrame(&seed, msgBlockData, encodeBlock(9, block))
	writeFrame(&seed, msgHeartbeat, nil)
	writeFrame(&seed, msgClearCache, encodeIDs([]uint64{9, 12}))
	f.Add(seed.Bytes())
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 1, byte(msgTask)}) // runt: length below frameOverhead
	// A bare heartbeat frame (empty body checksums to 0) and the same
	// frame with a corrupted checksum.
	f.Add([]byte{0, 0, 0, 5, byte(msgHeartbeat), 0, 0, 0, 0})
	f.Add([]byte{0, 0, 0, 5, byte(msgHeartbeat), 0xde, 0xad, 0xbe, 0xef})
	// A valid frame with one body bit flipped: must die on the checksum.
	flip := append([]byte(nil), seed.Bytes()...)
	flip[len(flip)-2] ^= 0x10
	f.Add(flip)
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		for i := 0; i < 64; i++ { // bound the walk on pathological inputs
			typ, body, err := readFrame(r)
			if err != nil {
				return
			}
			switch typ {
			case msgHello:
				parseHello(body)
			case msgHelloAck:
				parseHelloAck(body)
			case msgTask:
				parseTask(body)
			case msgTaskResult:
				parseTagged(body)
			case msgBlockData:
				parseBlock(body)
			case msgClearCache:
				parseIDs(body)
			}
		}
	})
}

// TestRunnerKeepsListedBlocks: the end of a job keeps exactly the listed
// blocks the worker holds — an id it never had is ignored — and drops
// every kernel.
func TestRunnerKeepsListedBlocks(t *testing.T) {
	r := taskRunner{cache: map[uint64]engine.Batch{}}
	for id := uint64(1); id <= 3; id++ {
		r.cache[id] = sliceBatch([]int{int(id)})
	}
	task := &engine.RemoteTask{
		Steps:  []engine.RemoteStep{{Op: "identity", NumInputs: 1}},
		Inputs: []engine.RemoteInput{{Block: 2}},
	}
	if tag, _ := r.run(task); tag != resultOK {
		t.Fatalf("task over a cached block answered tag %d", tag)
	}
	r.keep([]uint64{2, 9})
	if len(r.cache) != 1 || r.cache[2] == nil {
		t.Fatalf("cache after keeping [2 9]: %v, want block 2 alone", r.cache)
	}
	fresh := false
	r.eval.FirstRun = func() { fresh = true }
	r.run(task)
	if !fresh {
		t.Fatal("a kernel survived the end of the job")
	}
}

// BenchmarkTaskFrame times both ends of the k-means map task's frame body:
// the driver's encodeTask into a reused buffer and the worker's parseTask.
func BenchmarkTaskFrame(b *testing.B) {
	task := kmeansMapTask(11)
	body, err := encodeTask(nil, 99, task)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		buf := body
		for i := 0; i < b.N; i++ {
			buf, _ = encodeTask(buf[:0], 99, task)
		}
		b.ReportMetric(float64(len(buf)), "bytes/task")
	})
	b.Run("parse", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := parseTask(body); err != nil {
				b.Fatal(err)
			}
		}
	})
}
