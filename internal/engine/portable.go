package engine

// Portable task runtime: the self-contained, shippable representation of a
// stage, so a Backend that owns real worker processes (internal/procpool)
// can run stage tasks outside the driver.
//
// A stage ships as a RemoteStageSpec: one RemoteTask per output partition,
// each a flat list of RemoteSteps in post-order, the stage root last, and
// one flat list of their inputs in step order. A step is one operator
// application (an operator named in the portable-op registry, plus its
// serialized construction argument); each of its inputs is empty, an
// earlier step's output, or a block id — a shuffle block, a broadcast pin,
// a materialized frontier partition or a driver-evaluated source
// partition, all framed with the batchio codec. A task crosses the process
// boundary as batch-codec rows too (AppendTask, ReadTask), so the codec's
// one bounds-checked reader parses every byte a worker is sent. A spec
// lists the partitions of cached datasets it reads as Resident; the runner
// keeps those past the job and names them by the same id when they are put
// again, so a loop over a cached dataset ships it once. The worker resolves
// operator names through the same registry (populated by init-time
// registrations linked into both processes — see internal/taskreg) once
// per job (RemoteEvaluator), reads the blocks, and runs the steps in
// order: the exact unfused per-operator evaluation the driver's
// evalPartDirect would run.
// Results are bit-identical by construction: both sides run the same
// registered kernels over the same blocks in the same order.
//
// Stages containing operators with no registered portable form (ad-hoc
// closures, Ctx-charging UDFs, broadcast-join Once builds), or rows the
// codec refuses, are not shippable; the executor runs exactly those stages
// driver-local and records the reason in the optimizer decision log. A
// shipped task that fails fails its job, as it would in process.

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"sync"
	"unsafe"

	"matryoshka/internal/layout"
)

// ErrNotPortable marks a stage the backend could not carry: an operator in
// its task chain has no registered portable form, its output rows are a
// type the codec refuses, or a RemoteRunner found before any of its tasks
// ran that it cannot ship it. An error wrapping it is the one error on
// which the executor runs the stage driver-local; every other error from a
// RemoteRunner fails the stage (see RemoteRunner).
var ErrNotPortable = errors.New("engine: stage is not portable")

// QuorumLostError reports that a RemoteRunner has no live worker and
// could not restore one within its bounded wait. The executor converts it
// into a fetch-style stage failure so the lineage recovery loop and the
// bounded job retry decide the job's fate — a stage never deadlocks
// waiting for workers that will not come back.
type QuorumLostError struct {
	Stage string // stage label, for diagnostics
	Live  int    // live workers observed
}

func (e *QuorumLostError) Error() string {
	return fmt.Sprintf("engine: stage %q: worker quorum lost (no worker is live)", e.Stage)
}

// portableMark names a node's entry in the portable-op registry plus the
// serialized argument its factory rebuilds the UDF from.
type portableMark struct {
	op, arg string
}

// PortableCompute is an operator kernel as a worker runs it: one output
// partition from one input batch per dep. It is the same signature as
// node.compute — the driver-side constructors in ops.go/shuffle.go/join.go
// build their nodes from these very kernels (plus driver-only simulated
// memory charges), which is what makes remote and local results
// bit-identical.
type PortableCompute = func(tc *Ctx, p int, inputs []Batch) Batch

// PortableFactory builds a kernel from a node's serialized argument
// ("" for ops whose UDF is fixed at registration time).
type PortableFactory = func(arg string) (PortableCompute, error)

// portableOps is the process-wide by-name operator registry. Both the
// driver and the re-exec'd worker populate it through the same package
// init functions, so a name registered on one side resolves on the other.
var portableOps sync.Map // string -> PortableFactory

// RegisterPortableOp registers a named operator kernel factory. Call from
// an init function of a package linked into both the driver and the worker
// binary (they are the same binary re-exec'd, so one registration site
// covers both). Registering a name twice panics: silent replacement would
// let driver and worker disagree on what a name computes.
func RegisterPortableOp(name string, mk PortableFactory) {
	if name == "" || mk == nil {
		panic("engine: RegisterPortableOp needs a name and a factory")
	}
	if _, dup := portableOps.LoadOrStore(name, mk); dup {
		panic(fmt.Sprintf("engine: portable op %q registered twice", name))
	}
}

func init() {
	// The shuffle-only operators (Repartition, PartitionByKey) compute
	// nothing: routing happened when the driver built the blocks.
	RegisterPortableOp("identity", func(string) (PortableCompute, error) {
		return identityCompute, nil
	})
}

// RegisterBatchShape makes element type T decodable by name in this
// process. The driver and the worker must both register every element
// shape that crosses the wire; the taskreg registration helpers do it for
// their operators' input and output types.
func RegisterBatchShape[T any]() { registerBatchCodec[T]() }

// MarkPortable records that d's node computes the registered portable op
// `op` (with the given serialized argument), making stages that pipeline
// it shippable to a process-pool backend. The mark is inert on simulator
// sessions. The op must already be registered — a typo'd name would
// otherwise surface only as a remote failure at run time.
func MarkPortable[T any](d Dataset[T], op, arg string) Dataset[T] {
	if _, ok := portableOps.Load(op); !ok {
		panic(fmt.Sprintf("engine: MarkPortable: op %q is not registered", op))
	}
	d.n.port = &portableMark{op: op, arg: arg}
	return d
}

// MarkCombinePortable marks the map-side node feeding d's shuffle dep
// (e.g. the hidden combine of ReduceByKey) as the registered portable op.
// It must be called on the shuffle consumer returned by the operator
// constructor, whose first dep is the shuffle edge.
func MarkCombinePortable[T any](d Dataset[T], op, arg string) Dataset[T] {
	if _, ok := portableOps.Load(op); !ok {
		panic(fmt.Sprintf("engine: MarkCombinePortable: op %q is not registered", op))
	}
	d.n.deps[0].parent.port = &portableMark{op: op, arg: arg}
	return d
}

// RemoteStageSpec is one stage as shipped to the process pool: a task per
// output partition.
type RemoteStageSpec struct {
	Label string
	Tasks []RemoteTask
	// Resident lists the blocks the tasks read that are partitions of a
	// cached dataset: the runner keeps every block a spec of the current
	// job listed here past ReleaseBroadcasts and drops every other one
	// (see RemoteRunner). A resident block's batch is the node cache's and
	// never changes, so the runner may read it for as long as it keeps it.
	// It stays on the driver; task frames do not carry it.
	Resident []uint64
}

// RemoteTask computes one output partition of the stage root: its steps
// run in order, each reading only steps before it, and the last step is
// the root, whose Part is the partition. Inputs holds every step's inputs
// in step order: a step reads the next NumInputs of them. The driver names
// a task by its index in RemoteStageSpec.Tasks, which is the same number.
type RemoteTask struct {
	Steps  []RemoteStep
	Inputs []RemoteInput
}

// RemoteStep is one operator application in a task's chain: the portable
// op Op, built from Arg, computes partition Part from NumInputs inputs, one
// per dep of its node.
type RemoteStep struct {
	Op        string
	Arg       string
	Part      int
	NumInputs int
}

// RemoteInput is one dep's input batch: the output of step Step-1 of the
// same task if Step is set (an earlier step), else the block Block of the
// driver's store (block ids start at 1), else nothing.
type RemoteInput struct {
	Block uint64
	Step  int
}

// check holds a task to what evaluation needs: at least one step, every
// part a partition index, every step's inputs inside Inputs and together
// all of them, and every step input an earlier step.
func (t *RemoteTask) check() error {
	if len(t.Steps) == 0 {
		return errors.New("engine: task has no steps")
	}
	next := 0
	for i := range t.Steps {
		st := &t.Steps[i]
		if st.Part < 0 || st.Part > math.MaxInt32 {
			return fmt.Errorf("engine: task step %d %q: part %d is out of range", i, st.Op, st.Part)
		}
		if st.NumInputs < 0 || st.NumInputs > len(t.Inputs)-next {
			return fmt.Errorf("engine: task step %d %q reads %d inputs of the %d left", i, st.Op, st.NumInputs, len(t.Inputs)-next)
		}
		for k, in := range t.Inputs[next : next+st.NumInputs] {
			if in.Step < 0 || in.Step > i {
				return fmt.Errorf("engine: task step %d %q input %d: step input %d does not name a step before step %d", i, st.Op, k, in.Step, i)
			}
		}
		next += st.NumInputs
	}
	if next != len(t.Inputs) {
		return fmt.Errorf("engine: task steps read %d of its %d inputs", next, len(t.Inputs))
	}
	return nil
}

// AppendTask appends t to dst as batch-codec rows (batchio.go): its steps,
// then its inputs, each a u32 count and that many rows. It refuses a task
// ReadTask would.
func AppendTask(dst []byte, t *RemoteTask) ([]byte, error) {
	if err := t.check(); err != nil {
		return dst, err
	}
	return appendRows(appendRows(dst, stepRows, t.Steps), inputRows, t.Inputs), nil
}

// ReadTask reads a task AppendTask wrote, all of body. It checks each count
// against the bytes left before it allocates for it, and the task as
// AppendTask does.
func ReadTask(body []byte) (RemoteTask, error) {
	r := &batchReader{data: body}
	var t RemoteTask
	var err error
	if t.Steps, err = readRows[RemoteStep](r, stepRows); err == nil {
		t.Inputs, err = readRows[RemoteInput](r, inputRows)
	}
	if err == nil && r.pos != len(body) {
		err = codecErr("%d trailing bytes after a task", len(body)-r.pos)
	}
	if err == nil {
		err = t.check()
	}
	if err != nil {
		return RemoteTask{}, err
	}
	return t, nil
}

// The layouts of a task's two row types, looked up once.
var (
	stepRows  = layout.Of(reflect.TypeFor[RemoteStep]())
	inputRows = layout.Of(reflect.TypeFor[RemoteInput]())
)

// appendRows appends a u32 count and the rows of xs, laid out by l.
func appendRows[T any](dst []byte, l *layout.Layout, xs []T) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(xs)))
	for i := range xs {
		dst = appendRow(dst, l, unsafe.Pointer(&xs[i]))
	}
	return dst
}

// readRows reads what appendRows wrote: nil for no rows. A slice leaf read
// by readRow would cost a second allocation, reflect.MakeSlice's header.
func readRows[T any](r *batchReader, l *layout.Layout) ([]T, error) {
	n, err := r.u32()
	if err != nil || n == 0 {
		return nil, err
	}
	if err := r.count(n, minWire(l)); err != nil {
		return nil, err
	}
	xs := make([]T, n)
	for i := range xs {
		if err := r.readRow(l, unsafe.Pointer(&xs[i])); err != nil {
			return nil, err
		}
	}
	return xs, nil
}

// RemoteStageResult is what a RemoteRunner reports back for one stage.
type RemoteStageResult struct {
	// Parts holds the stage root's materialized partitions, decoded.
	Parts []Batch
	// BytesShipped counts the encoded frames that crossed process
	// boundaries for this stage (input blocks pushed plus results).
	BytesShipped int64
	// Workers is how many live worker processes ran the stage's tasks.
	Workers int
}

// RemoteRunner is the optional process-pool facet of a Backend: a backend
// that implements it receives portable stages instead of having the driver
// execute their tasks locally. PutBlock stores batch b in the backend's
// block store and returns the id tasks name it by; the backend reads
// b only while it runs a spec naming that id — for the session, when the
// block is Resident — so it may keep b itself and encode it when it ships
// it. RunRemoteStage distributes the spec's tasks over live workers,
// retrying tasks whose worker died mid-stage; ctx cancellation must stop
// dispatching promptly. An error from either means one of three things:
//   - it wraps ErrNotPortable: the backend could not carry the stage, and
//     no task of it ran to a result the job keeps. The stage runs
//     driver-local, and the decision log says why;
//   - it is a *QuorumLostError: a fetch-style stage failure, which lineage
//     recovery and the bounded job retry handle;
//   - anything else fails the stage and its job, as a task that panics
//     in process does: a task that failed on a worker is not run again
//     by the driver. The action returns an error wrapping it.
//
// A stored block lives until the backend's ReleaseBroadcasts, the
// end-of-job hook, and past it exactly when a spec passed to
// RunRemoteStage since the previous ReleaseBroadcasts listed it in
// Resident. PutBlock keys batches by identity: a batch the backend still
// holds gets the id it already has, so a cached partition kept from the
// previous job is named by the same id and not shipped again. The engine
// remembers no id across specs.
type RemoteRunner interface {
	PutBlock(b Batch) (uint64, error)
	RunRemoteStage(ctx context.Context, spec *RemoteStageSpec) (*RemoteStageResult, error)
}

// buildRemoteSpec assembles the shippable spec for the stage rooted at n
// in one walk per task: it checks each in-chain operator's portable mark
// as it appends the operator's step, so a stage with an unmarked operator
// fails with ErrNotPortable, as does a stage whose rows EncodeBatch would
// refuse to ship back (a boxed row type passes: its rows are checked one
// by one, on the worker). The mark is checked before the operator's
// inputs are built, and no portable operator reads a narrow dep after a
// block dep, so a failed walk has put no block; a block put anyway would
// be listed by no spec, and the job's end drops it. Every leaf batch is
// stored through put once per spec (batches shared across tasks —
// broadcasts, fan-in reads — dedupe on identity), and a cached node's
// partition is listed in spec.Resident, so the runner keeps it for the
// next job and names it by the same id then. It mirrors
// evalPartDirect's per-operator input assembly exactly; fusion never
// applies remotely, which the fused-vs-per-operator suites (fuse_test.go,
// TestRandomDAGFusedMatchesPerOperator) prove is invisible to results.
func (j *job) buildRemoteSpec(n *node, put func(Batch) (uint64, error)) (*RemoteStageSpec, error) {
	if len(n.deps) == 0 {
		return nil, fmt.Errorf("%w: stage root %q is a source (its partitions are driver-resident)", ErrNotPortable, n.label)
	}
	if err := refuseRows(n.rows); err != nil {
		return nil, fmt.Errorf("%w: stage root %q: %w", ErrNotPortable, n.label, err)
	}
	spec := &RemoteStageSpec{Label: n.label, Tasks: make([]RemoteTask, 0, n.parts)}
	ids := map[Batch]uint64{}
	blockInput := func(b Batch, cached bool) (RemoteInput, error) {
		if b == nil || b == zeroBatch {
			return RemoteInput{}, nil
		}
		if id, ok := ids[b]; ok {
			return RemoteInput{Block: id}, nil
		}
		id, err := put(b)
		if err != nil {
			return RemoteInput{}, err
		}
		ids[b] = id
		if cached {
			spec.Resident = append(spec.Resident, id)
		}
		return RemoteInput{Block: id}, nil
	}

	// steps and inputs are the task being built; step appends nd's step
	// for partition p after the steps of its in-chain inputs and returns 1
	// + its index. A step's inputs follow those of the steps it reads, so
	// they wait on pending while those are built.
	var steps []RemoteStep
	var inputs, pending []RemoteInput
	var step func(nd *node, p int) (int, error)
	narrowInput := func(nd *node, pp int) (RemoteInput, error) {
		if cp, ok := j.front[nd]; ok {
			return blockInput(cp.data[pp], nd.cached)
		}
		if len(nd.deps) == 0 {
			// In-chain source (Parallelize, readers): its partitions are
			// built from driver-captured state, so evaluate here and ship
			// the batch rather than the closure.
			return blockInput(nd.compute(&Ctx{}, pp, nil), false)
		}
		s, err := step(nd, pp)
		return RemoteInput{Step: s}, err
	}
	step = func(nd *node, p int) (int, error) {
		if nd.port == nil {
			return 0, fmt.Errorf("%w: operator %q has no registered portable form (see internal/taskreg)", ErrNotPortable, nd.label)
		}
		base := len(pending)
		for i := range nd.deps {
			d := &nd.deps[i]
			var in RemoteInput
			var err error
			switch d.kind {
			case depNarrow:
				if pp, ok := d.parentPart(p); ok {
					in, err = narrowInput(d.parent, pp)
				}
			case depShuffle:
				in, err = blockInput(j.blocks[d].blocks[p], false)
			case depBroadcast:
				in, err = blockInput(j.bcast[d], false)
			}
			if err != nil {
				return 0, err
			}
			pending = append(pending, in)
		}
		inputs = append(inputs, pending[base:]...)
		pending = pending[:base]
		steps = append(steps, RemoteStep{Op: nd.port.op, Arg: nd.port.arg, Part: p, NumInputs: len(nd.deps)})
		return len(steps), nil
	}

	// Every task of a stage has the same shape as a rule, so the previous
	// task's lengths size the next one's.
	for p := 0; p < n.parts; p++ {
		steps = make([]RemoteStep, 0, len(steps))
		inputs = make([]RemoteInput, 0, len(inputs))
		if _, err := step(n, p); err != nil {
			return nil, err
		}
		spec.Tasks = append(spec.Tasks, RemoteTask{Steps: steps, Inputs: inputs})
	}
	return spec, nil
}

// FetchFunc resolves a block id to its batch. The worker's implementation
// looks the id up in the cache of blocks the driver pushed ahead of the
// task.
type FetchFunc func(id uint64) (Batch, error)

// RemoteEvaluator runs shipped tasks in one process. It resolves each
// (op, arg) pair through the portable-op registry once and keeps the
// kernel until Reset, so an operator folds or joins in one pooled scratch
// across the partitions it is given — as the driver's node does — and a
// parameterized UDF decodes its argument once, not once per partition.
// The zero value is ready; it is not safe for concurrent use.
type RemoteEvaluator struct {
	// FirstRun, when set, is called before a kernel runs for the first
	// time since Reset: the moment a process is likeliest to die under an
	// operator. The pool's worker flushes its answers there, so that such
	// a death is blamed on the task that ran the kernel.
	FirstRun func()

	kernels map[kernelKey]PortableCompute
}

type kernelKey struct{ op, arg string }

// Reset forgets every resolved kernel (and the scratch it pooled). The
// worker calls it when a job ends; its cached blocks may outlive the job.
func (e *RemoteEvaluator) Reset() { e.kernels = nil }

// RunRemoteTask evaluates one shipped task: run its steps in order, each
// over fetched blocks and the outputs of earlier steps — exactly the
// unfused evaluation the driver would perform — and return the last
// step's output. A task ReadTask would refuse is an error, and so is a
// panicking kernel: neither is a worker death.
func (e *RemoteEvaluator) RunRemoteTask(t *RemoteTask, fetch FetchFunc) (b Batch, err error) {
	if err := t.check(); err != nil {
		return nil, err
	}
	outs := make([]Batch, len(t.Steps))
	ins := t.Inputs
	var st *RemoteStep
	defer func() {
		if r := recover(); r != nil {
			err = panicError(fmt.Sprintf("task %d of %s", st.Part, st.Op), r)
		}
	}()
	for i := range t.Steps {
		st = &t.Steps[i]
		compute, fresh, err := e.kernel(st)
		if err != nil {
			return nil, err
		}
		inputs := make([]Batch, st.NumInputs)
		for k, in := range ins[:st.NumInputs] {
			inputs[k] = zeroBatch
			switch {
			case in.Step != 0:
				inputs[k] = outs[in.Step-1]
			case in.Block != 0:
				b, err := fetch(in.Block)
				if err != nil {
					return nil, err
				}
				if b != nil {
					inputs[k] = b
				}
			}
		}
		ins = ins[st.NumInputs:]
		if fresh && e.FirstRun != nil {
			e.FirstRun()
		}
		outs[i] = compute(&Ctx{}, st.Part, inputs)
	}
	return outs[len(outs)-1], nil
}

// kernel returns st's kernel, resolving it if this is the first step with
// its (op, arg) since Reset — fresh says so.
func (e *RemoteEvaluator) kernel(st *RemoteStep) (compute PortableCompute, fresh bool, err error) {
	key := kernelKey{st.Op, st.Arg}
	if compute, ok := e.kernels[key]; ok {
		return compute, false, nil
	}
	mkAny, ok := portableOps.Load(st.Op)
	if !ok {
		return nil, false, fmt.Errorf("engine: portable op %q is not registered in this process", st.Op)
	}
	compute, err = mkAny.(PortableFactory)(st.Arg)
	if err != nil {
		return nil, false, fmt.Errorf("engine: portable op %q: %w", st.Op, err)
	}
	if e.kernels == nil {
		e.kernels = map[kernelKey]PortableCompute{}
	}
	e.kernels[key] = compute
	return compute, true, nil
}

// ---- Operator kernels ----
//
// These are the pure-data halves of the operator constructors: ops.go,
// shuffle.go and join.go build their node computes from them (wrapping
// driver-only simulated memory charges where the operator claims
// residency), and the taskreg registration helpers hand them to
// RegisterPortableOp so workers run literally the same loops. A kernel
// that has no rows to produce returns one typed empty batch it made up
// front — a near-empty task pays only for its rows — and none keeps its
// inputs slice (see newNode).

func identityCompute(tc *Ctx, p int, in []Batch) Batch { return in[0] }

// MapCompute is Map's kernel.
func MapCompute[A, B any](f func(A) B) PortableCompute {
	empty := batchOf[B](nil, 0)
	return func(tc *Ctx, p int, in []Batch) Batch {
		src := elems[A](in[0])
		if len(src) == 0 {
			return empty
		}
		out := make([]B, len(src))
		for i, e := range src {
			out[i] = f(e)
		}
		return batchOf(out, len(out))
	}
}

// FilterCompute is Filter's kernel.
func FilterCompute[A any](pred func(A) bool) PortableCompute {
	empty := batchOf[A](nil, 0)
	return func(tc *Ctx, p int, in []Batch) Batch {
		src := elems[A](in[0])
		if len(src) == 0 {
			return empty
		}
		out := make([]A, 0, len(src))
		for _, e := range src {
			if pred(e) {
				out = append(out, e)
			}
		}
		// The boxed loop kept the input-length capacity it pre-sized.
		return batchOf(out, len(src))
	}
}

// FlatMapCompute is FlatMap's kernel.
func FlatMapCompute[A, B any](f func(A) []B) PortableCompute {
	empty := batchOf[B](nil, 0)
	return func(tc *Ctx, p int, in []Batch) Batch {
		var out []B
		for _, e := range elems[A](in[0]) {
			out = append(out, f(e)...)
		}
		if len(out) == 0 {
			return empty
		}
		// The boxed loop grew from nil through power-of-two capacities.
		return batchOf(out, blockCap(len(out)))
	}
}

// MapPartitionsCompute is MapPartitions' kernel.
func MapPartitionsCompute[A, B any](f func([]A) []B) PortableCompute {
	return func(tc *Ctx, p int, in []Batch) Batch {
		// The UDF gets a fresh slice: elems may alias the input batch, and
		// partition-level UDFs are allowed to mutate what they receive.
		typed := make([]A, in[0].Len())
		copy(typed, elems[A](in[0]))
		res := f(typed)
		return batchOf(res, len(res))
	}
}

// MapValuesCompute is MapValues' kernel.
func MapValuesCompute[K comparable, V, W any](f func(V) W) PortableCompute {
	empty := batchOf[Pair[K, W]](nil, 0)
	return func(tc *Ctx, p int, in []Batch) Batch {
		src := elems[Pair[K, V]](in[0])
		if len(src) == 0 {
			return empty
		}
		out := make([]Pair[K, W], len(src))
		for i, kv := range src {
			out[i] = Pair[K, W]{Key: kv.Key, Val: f(kv.Val)}
		}
		return batchOf(out, len(out))
	}
}

// foldCompute is the unfused kernel of a streaming aggregate (fold.go): one
// partition through a folder from tables, the result its own exact-size
// batch.
func foldCompute[A any](tables *sync.Pool) PortableCompute {
	empty := batchOf[A](nil, 0)
	return func(tc *Ctx, p int, in []Batch) Batch {
		if in[0].Len() == 0 {
			return empty
		}
		out := foldBatch[A](tables, in[0])
		return batchOf(out, len(out))
	}
}

// ReduceByKeyCompute is ReduceByKey's kernel, on both sides of the
// shuffle: fold equal keys with f, emitting in first-seen key order (see
// reduceByKey). The hidden map-side combine runs it over the map task's
// own rows.
func ReduceByKeyCompute[K comparable, V any](f func(V, V) V) PortableCompute {
	return foldCompute[Pair[K, V]](newPairTables[K](f))
}

// GroupByKeyCompute is GroupByKey's kernel: each key's values in arrival
// order, keys in first-seen order, gathered in a pooled fold table (fold.go).
func GroupByKeyCompute[K comparable, V any]() PortableCompute {
	pool := &sync.Pool{New: func() any { return &foldTable[K, Pair[K, []V]]{keyIndex: newKeyIndex[K]()} }}
	return func(tc *Ctx, p int, in []Batch) Batch {
		t := pool.Get().(*foldTable[K, Pair[K, []V]])
		for _, kv := range elems[Pair[K, V]](in[0]) {
			i, added := t.put(kv.Key)
			if added {
				t.acc = append(t.acc, Pair[K, []V]{Key: kv.Key})
			}
			t.acc[i].Val = append(t.acc[i].Val, kv.Val)
		}
		out := t.drain()
		pool.Put(t) // not deferred: see foldBatch
		return batchOf(out, len(out))
	}
}

// joinScratch is the repartition join's per-partition working set, reused
// by a worker across the partitions of one join with the fold tables'
// discipline (fold.go): it belongs to the operator's sync.Pool, the output
// is copied out at its exact size, so nothing pooled is reachable from a
// Batch, and a scratch a panic abandoned is dropped.
type joinScratch[K comparable, A, B any] struct {
	keyIndex[K]         // the build side's distinct keys
	head        []int32 // head[j]: 1 + the position of the first build row with key j
	next        []int32 // next[i]: 1 + the position of the build row after i with i's key, 0 at the end
	out         []Pair[K, Tuple2[A, B]]
}

// join indexes the build side by key, then emits, per probe row in order,
// one pair for every build row of its key, in arrival order. Rows of one
// key are chained through their positions, so the build allocates nothing
// once the scratch is warm. It leaves the scratch empty.
func (s *joinScratch[K, A, B]) join(build []Pair[K, A], probe []Pair[K, B]) []Pair[K, Tuple2[A, B]] {
	// Backwards, so that a chain followed from its head visits the build
	// rows oldest first.
	s.next = slices.Grow(s.next[:0], len(build))[:len(build)]
	for i := len(build) - 1; i >= 0; i-- {
		j, added := s.put(build[i].Key)
		if added {
			s.head = append(s.head, 0)
		}
		s.next[i] = s.head[j]
		s.head[j] = int32(i + 1)
	}
	for _, kv := range probe {
		j := s.find(kv.Key)
		if j < 0 {
			continue
		}
		for i := s.head[j]; i > 0; i = s.next[i-1] {
			s.out = append(s.out, Pair[K, Tuple2[A, B]]{kv.Key, Tuple2[A, B]{build[i-1].Val, kv.Val}})
		}
	}
	s.reset()
	s.head = s.head[:0]
	return copyOut(&s.out)
}

// RepartitionJoinCompute is the kernel of the repartition join: dep 0 is
// the build side, dep 1 the probe side.
func RepartitionJoinCompute[K comparable, A, B any]() PortableCompute {
	pool := &sync.Pool{New: func() any { return &joinScratch[K, A, B]{keyIndex: newKeyIndex[K]()} }}
	return func(tc *Ctx, p int, in []Batch) Batch {
		s := pool.Get().(*joinScratch[K, A, B])
		out := s.join(elems[Pair[K, A]](in[0]), elems[Pair[K, B]](in[1]))
		pool.Put(s) // not deferred: see foldBatch
		return batchOf(out, blockCap(len(out)))
	}
}
