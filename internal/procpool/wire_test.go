package procpool

import (
	"bufio"
	"bytes"
	"context"
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

	"matryoshka/internal/cluster"
	"matryoshka/internal/engine"
)

// encodeTagged is a whole msgTaskResult or msgBlockData body.
func encodeTagged(id uint64, tag byte, rest []byte) []byte {
	head := taggedHead(id, tag)
	return append(head[:], rest...)
}

func TestWireFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	bodies := map[byte][]byte{
		msgHello:      encodeHello(4242),
		msgHelloAck:   encodeHelloAck(3, 250*time.Millisecond),
		msgBlockData:  encodeTagged(77, resultOK, []byte("frame-bytes")),
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
	_, tag, rest, err = parseTagged(encodeTagged(32, resultMissing, encodeIDs([]uint64{7, 1 << 40})))
	if ids, perr := parseIDs(rest); err != nil || perr != nil || tag != resultMissing || !reflect.DeepEqual(ids, []uint64{7, 1 << 40}) {
		t.Fatalf("missing-input result: tag %d ids %v err %v / %v", tag, ids, err, perr)
	}
	task := &engine.RemoteTask{Part: 3, Root: &engine.RemoteNode{
		Op: "identity", Part: 3,
		Inputs: []engine.RemoteInput{{Kind: "block", Block: 12}},
	}}
	for _, want := range []*engine.RemoteTask{task, kmeansMapTask(7)} {
		body, err := encodeTask(nil, 55, want)
		if err != nil {
			t.Fatalf("encodeTask: %v", err)
		}
		gotID, got, err := parseTask(body)
		if err != nil || gotID != 55 || !reflect.DeepEqual(got, want) {
			t.Fatalf("parseTask: id %d err %v\ngot  %+v\nwant %+v", gotID, err, got, want)
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
	if _, _, _, err := parseTagged(encodeTagged(1, resultMissing+1, nil)); err == nil {
		t.Fatal("unknown result tag parsed")
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
	// A narrow dep reads at most one partition: there is no fan-in kind.
	// The next kind byte after node is what a concat kind would have been.
	concat := taskBody(node("x", 1), inputNode+1, node("", 1), inputEmpty)
	if _, _, err := parseTask(concat); err == nil || !strings.Contains(err.Error(), `"x" input 0: unknown input kind 3`) {
		t.Fatalf("concat input: got %v, want an unknown input kind", err)
	}
	// The encoder refuses what the parser would: a tree it cannot walk.
	for _, bad := range []*engine.RemoteTask{
		{},
		{Root: &engine.RemoteNode{Op: "x", Inputs: []engine.RemoteInput{{Kind: "node"}}}},
		{Root: &engine.RemoteNode{Op: "x", Inputs: []engine.RemoteInput{{Kind: "concat"}}}},
		{Root: chain(maxTaskDepth + 1)},
	} {
		if _, err := encodeTask(nil, 1, bad); err == nil {
			t.Errorf("encodeTask accepted %+v", bad)
		}
	}
	if _, err := encodeTask(nil, 1, &engine.RemoteTask{Root: chain(maxTaskDepth)}); err != nil {
		t.Errorf("encodeTask refused a tree at the depth cap: %v", err)
	}
}

// chain is a tree of depth operators, each the one input of the one above.
func chain(depth int) *engine.RemoteNode {
	root := &engine.RemoteNode{Op: "leaf"}
	for i := 1; i < depth; i++ {
		root = &engine.RemoteNode{Op: "link", Inputs: []engine.RemoteInput{{Kind: "node", Node: root}}}
	}
	return root
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
// batch, a keep list that is not whole ids — exits 1 and says what it
// read; only the driver hanging up at a frame boundary is a clean exit,
// after a keep list naming blocks the worker never had too.
func TestWorkerSaysWhyItExits(t *testing.T) {
	block := appendFrame(nil, msgBlockData, encodeTagged(3, resultOK, []byte("not a batch frame")))
	corrupt := append([]byte(nil), block...)
	corrupt[len(corrupt)-1] ^= 0x01
	batch, err := engine.EncodeBatch(nil, sliceBatch([]int{1, 2, 3}))
	if err != nil {
		t.Fatal(err)
	}
	trailing := appendFrame(nil, msgBlockData, encodeTagged(4, resultOK, append(batch, 0xde, 0xad)))
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
		{"bad task", appendFrame(nil, msgTask, malformedTasks[2].body), 1, "node input without a node"},
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
	cfg := Config{DisableRespawn: true}
	cfg.defaults()
	w := &workerProc{
		cmd: &exec.Cmd{}, conn: drv, br: bufio.NewReader(drv), bw: bufio.NewWriter(drv),
		readDone: make(chan struct{}), exited: make(chan struct{}),
		held: map[uint64]bool{}, pending: map[uint64]pendingTask{}, lastBeat: time.Now(),
	}
	p := &Pool{cfg: cfg, store: newBlockStore(), stopCh: make(chan struct{}),
		workerList: []*workerProc{w}, outputs: map[cluster.OutputID]*poolOutput{}}
	go p.readLoop(w)

	res, err := p.RunRemoteStage(context.Background(), opSpec("exact", "htest.ok", nil, 1))
	if err != nil {
		t.Fatalf("a result that is exactly one frame: %v", err)
	}
	checkParts(t, res.Parts, [][]int{{1, 2, 3}})
	_, err = p.RunRemoteStage(context.Background(), opSpec("trailing", "htest.ok", nil, 1))
	if want := `stage "trailing" task 0 result: procpool: 2 trailing bytes after a`; err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("result with trailing bytes: got %v, want an error saying %q", err, want)
	}
}

// kmeansMapTask is the shape of kmeans_inner_proc's remote map task: the
// map-side combine of kmeans.sum over kmeans.assign, whose argument is
// the current centroids as JSON, over one cached block of points.
func kmeansMapTask(part int) *engine.RemoteTask {
	centroids := []byte(`[{"X":0.1258413622938497,"Y":-1.3321471038541706},{"X":2.047530812310211,"Y":0.8765102946351803},` +
		`{"X":-0.6734490213947731,"Y":1.9087713359814412},{"X":1.4407211890615364,"Y":-2.0316789011294467}]`)
	return &engine.RemoteTask{Part: part, Root: &engine.RemoteNode{
		Op: "kmeans.sum.combine", Part: part,
		Inputs: []engine.RemoteInput{{Kind: "node", Node: &engine.RemoteNode{
			Op: "kmeans.assign", Arg: centroids, Part: part,
			Inputs: []engine.RemoteInput{{Kind: "block", Block: 4097 + uint64(part)}},
		}}},
	}}
}

// taskBody joins hand-written pieces of a task body after id 0 and part 0;
// a piece is a byte or a []byte.
func taskBody(pieces ...any) []byte {
	b := make([]byte, 9)
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

// node is an operator's head without an argument: op, part 0 and the
// input count; the inputs follow it.
func node(op string, inputs uint64) []byte {
	b := binary.AppendUvarint(nil, uint64(len(op)))
	b = append(b, op...)
	return binary.AppendUvarint(append(b, 0, 0), inputs)
}

// depthBomb nests levels operators, each the one input of the one before.
func depthBomb(levels int) []byte {
	b := make([]byte, 9, 9+5*levels)
	for i := 0; i < levels; i++ {
		b = append(b, node("", 1)...)
		b = append(b, inputNode)
	}
	return b
}

// malformedTasks are task bodies evaluation could not walk, each with what
// the parser's error must say.
var malformedTasks = []struct {
	name string
	body []byte
	says string
}{
	{"no-root", taskBody(), "no root operator"},
	{"part-no-root", []byte{0, 0, 0, 0, 0, 0, 0, 0, 1}, "no root operator"},
	{"node-without-node", taskBody(node("x", 1), inputNode), "node input without a node"},
	{"block-without-id", taskBody(node("x", 1), inputBlock), `"x" input 0: procpool: frame body truncated in a varint`},
	{"block-id-zero", taskBody(node("x", 1), inputBlock, byte(0)), "block input without a block id"},
	{"unknown-kind", taskBody(node("x", 1), byte(7), byte(3)), "unknown input kind 7"},
	{"kind-255", taskBody(node("x", 1), byte(255)), "unknown input kind 255"},
	{"nested-unknown-kind", taskBody(node("x", 1), inputNode, node("y", 1), byte(9)), `task 0: "y" input 0: unknown input kind 9`},
	{"truncated-varint", []byte{0, 0, 0, 0, 0, 0, 0, 0, 0x80}, "truncated in a varint"},
	{"varint-overflow", taskBody(node("x", 1), inputBlock, bytes.Repeat([]byte{0xff}, 10), byte(1)), "overflows 64 bits"},
	{"part-out-of-range", taskBody(byte(1), byte('x'), byte(0), []byte{0xff, 0xff, 0xff, 0xff, 0x0f}, byte(0)), "out of range"},
	{"length-past-body", taskBody(byte(50), []byte("short")), "runs past the body"},
	{"inputs-past-body", taskBody(node("x", 1000), inputEmpty), "declares 1000 inputs in 1 bytes"},
	{"trailing-bytes", taskBody(node("x", 1), inputEmpty, byte(0)), "1 trailing bytes"},
	{"depth-bomb", depthBomb(100000), "depth cap of 10000"},
}

// FuzzRemoteTask feeds arbitrary bytes through the task parser the worker
// runs on every msgTask body: it must reject what it cannot walk with an
// error, everything it accepts must survive the two walks made over a
// task before it is evaluated (the operator chain, the block ids), and
// re-encoding an accepted task must parse back to the same task. Equal as
// trees, not as bytes: a uvarint has overlong spellings. The checked-in
// corpus (testdata/fuzz/FuzzRemoteTask) holds a k-means map task and each
// malformed class below; the depth bomb is seeded here, since as a corpus
// file it would be hundreds of kilobytes.
func FuzzRemoteTask(f *testing.F) {
	good, err := encodeTask(nil, 5, &engine.RemoteTask{Part: 2, Root: &engine.RemoteNode{
		Op: "sum", Part: 2, Arg: []byte(`{"k":3}`),
		Inputs: []engine.RemoteInput{
			{Kind: "block", Block: 12},
			{Kind: "empty"},
			{Kind: "node", Node: &engine.RemoteNode{Op: "identity", Inputs: []engine.RemoteInput{{Kind: "block", Block: 13}}}},
		},
	}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	kmeans, err := encodeTask(nil, 6, kmeansMapTask(3))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(kmeans)
	for _, tc := range malformedTasks {
		f.Add(tc.body)
	}
	f.Add([]byte{1, 2, 3})
	f.Fuzz(func(t *testing.T, body []byte) {
		id, task, err := parseTask(body)
		if err != nil {
			return
		}
		task.OpChain()
		eachBlock(task.Root, func(id uint64) {
			if id == 0 {
				t.Fatalf("accepted a block input without an id: %x", body)
			}
		})
		again, err := encodeTask(nil, id, task)
		if err != nil {
			t.Fatalf("accepted task does not re-encode: %v", err)
		}
		id2, task2, err := parseTask(again)
		if err != nil || id2 != id || !reflect.DeepEqual(task2, task) {
			t.Fatalf("re-encoded task parsed back as id %d %+v (err %v), want id %d %+v", id2, task2, err, id, task)
		}
	})
}

// TestTaskFrameAllocs bounds what one task frame costs on each side, on
// the k-means map task: the worker parses it in at most 8 allocations
// (the task, two nodes, their op strings and input slices — the argument
// aliases the frame), and the driver encodes it into a warmed buffer in
// none.
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
	}); avg > 8 {
		t.Errorf("parseTask: %.1f allocations, want ≤ 8", avg)
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
	writeFrame(&seed, msgBlockData, encodeTagged(9, resultOK, []byte("pushed-block")))
	writeFrame(&seed, msgTaskResult, encodeTagged(8, resultMissing, encodeIDs([]uint64{9})))
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
			case msgTaskResult, msgBlockData:
				if _, tag, rest, err := parseTagged(body); err == nil && tag == resultMissing {
					parseIDs(rest)
				}
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
	task := &engine.RemoteTask{Root: &engine.RemoteNode{Op: "identity", Inputs: []engine.RemoteInput{{Kind: "block", Block: 2}}}}
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
