package engine

// Portable task runtime: the self-contained, shippable representation of a
// stage, so a Backend that owns real worker processes (internal/procpool)
// can run stage tasks outside the driver.
//
// A stage ships as a RemoteStageSpec: one RemoteTask per output partition,
// each a tree of RemoteNodes (operators named in the portable-op registry,
// plus their serialized construction arguments) whose leaves are block ids
// — shuffle blocks, broadcast pins, materialized frontier partitions and
// driver-evaluated source partitions, all framed with the batchio codec.
// The worker resolves operator names through the same registry (populated
// by init-time registrations linked into both processes — see
// internal/taskreg) once per job (RemoteEvaluator), reads the leaf blocks,
// and replays the exact unfused per-operator evaluation the driver's
// evalPartDirect would run.
// Results are bit-identical by construction: both sides run the same
// registered kernels over the same blocks in the same order.
//
// Stages containing operators with no registered portable form (ad-hoc
// closures, Ctx-charging UDFs, broadcast-join Once builds) are not
// shippable; the executor falls back to driver-local execution for exactly
// those stages and records the reason in the optimizer decision log.

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
)

// ErrNotPortable marks a stage that cannot be shipped to a remote worker:
// some operator in its task chain has no registered portable form. The
// executor treats it as "run this stage driver-local", never as a failure.
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

// PoisonTaskError reports a task that was quarantined: it killed (or
// deadline-timed-out) K distinct workers, so dispatching it again would
// serially destroy the fleet. The stage fails fast with the operator
// chain named; the pool itself stays live for subsequent jobs. The
// executor treats it as a hard job failure — never as a driver-local
// fallback, since a worker-killing compute would take the driver down
// with it.
type PoisonTaskError struct {
	Stage   string // stage label
	Part    int    // output partition of the quarantined task
	Ops     string // operator chain of the task's RemoteNode tree
	Workers int    // distinct workers it destroyed
}

func (e *PoisonTaskError) Error() string {
	return fmt.Sprintf("engine: stage %q task %d quarantined: operator chain [%s] killed %d distinct workers",
		e.Stage, e.Part, e.Ops, e.Workers)
}

// OpChain renders the operator names of a task tree, root-last, for
// quarantine diagnostics ("which compute is killing my workers").
func (t *RemoteTask) OpChain() string {
	var ops []string
	var walk func(rn *RemoteNode)
	walk = func(rn *RemoteNode) {
		if rn == nil {
			return
		}
		for i := range rn.Inputs {
			walk(rn.Inputs[i].Node)
		}
		ops = append(ops, rn.Op)
	}
	walk(t.Root)
	return strings.Join(ops, " → ")
}

// portableMark names a node's entry in the portable-op registry plus the
// serialized argument its factory rebuilds the UDF from.
type portableMark struct {
	op  string
	arg []byte
}

// PortableCompute is an operator kernel as a worker runs it: one output
// partition from one input batch per dep. It is the same signature as
// node.compute — the driver-side constructors in ops.go/shuffle.go/join.go
// build their nodes from these very kernels (plus driver-only simulated
// memory charges), which is what makes remote and local results
// bit-identical.
type PortableCompute = func(tc *Ctx, p int, inputs []Batch) Batch

// PortableFactory builds a kernel from a node's serialized argument
// (nil for ops whose UDF is fixed at registration time).
type PortableFactory = func(arg []byte) (PortableCompute, error)

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
	RegisterPortableOp("identity", func([]byte) (PortableCompute, error) {
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
func MarkPortable[T any](d Dataset[T], op string, arg []byte) Dataset[T] {
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
func MarkCombinePortable[T any](d Dataset[T], op string, arg []byte) Dataset[T] {
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
	// cached dataset, put once for the session: the runner keeps every
	// block a spec of the current job listed here past ReleaseBroadcasts
	// and drops every other one (see RemoteRunner). A resident block's
	// batch is the node cache's and never changes, so the runner may read
	// it for the whole session. It stays on the driver; task frames do
	// not carry it.
	Resident []uint64
}

// RemoteTask computes one output partition of the stage root.
type RemoteTask struct {
	Part int
	Root *RemoteNode
}

// RemoteNode is one operator application in a task's chain.
type RemoteNode struct {
	Op     string
	Arg    []byte
	Part   int
	Inputs []RemoteInput
}

// RemoteInput is one dep's input batch: a block from the driver's store,
// a nested in-chain operator, or nothing.
type RemoteInput struct {
	Kind  string // "block" | "node" | "empty"
	Block uint64
	Node  *RemoteNode
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
// block store and returns the id task trees name it by; the backend reads
// b only while it runs a spec naming that id — for the session, when the
// block is Resident — so it may keep b itself and encode it when it ships
// it. RunRemoteStage distributes the spec's tasks over live workers,
// retrying tasks whose worker died mid-stage; ctx cancellation must stop
// dispatching promptly. Error semantics the executor relies on:
// *QuorumLostError becomes a fetch-style stage failure (lineage recovery /
// bounded job retry), *PoisonTaskError and ctx errors fail the stage hard,
// and any other error — a shape the codec refuses among them — means "run
// this stage driver-local".
//
// A stored block lives until the backend's ReleaseBroadcasts, the
// end-of-job hook, and past it exactly when a spec passed to
// RunRemoteStage since the previous ReleaseBroadcasts listed it in
// Resident. The engine applies the same rule to the ids it remembers
// (node.cacheBlocks), so both sides agree on what survives a job without a
// call of their own.
type RemoteRunner interface {
	PutBlock(b Batch) (uint64, error)
	RunRemoteStage(ctx context.Context, spec *RemoteStageSpec) (*RemoteStageResult, error)
}

// stagePortable reports whether the stage rooted at n can ship: every
// in-chain operator down to materialized/shipped leaves must carry a
// portable mark. The walk mirrors buildRemoteSpec's recursion without
// moving any data, so a non-portable stage is rejected before any block
// is stored.
func (j *job) stagePortable(n *node) error {
	if len(n.deps) == 0 {
		return fmt.Errorf("%w: stage root %q is a source (its partitions are driver-resident)", ErrNotPortable, n.label)
	}
	var walk func(nd *node) error
	walk = func(nd *node) error {
		if nd.port == nil {
			return fmt.Errorf("%w: operator %q has no registered portable form (see internal/taskreg)", ErrNotPortable, nd.label)
		}
		for i := range nd.deps {
			d := &nd.deps[i]
			if d.kind != depNarrow {
				continue // shuffle blocks and broadcasts ship as blocks
			}
			p := d.parent
			if _, ok := j.front[p]; ok {
				continue // materialized: ships as a block
			}
			if len(p.deps) == 0 {
				continue // in-chain source: driver-evaluated, ships as a block
			}
			if err := walk(p); err != nil {
				return err
			}
		}
		return nil
	}
	return walk(n)
}

// buildRemoteSpec assembles the shippable spec for the stage rooted at n,
// storing every leaf batch through put exactly once (batches shared across
// tasks — broadcasts, fan-in reads — dedupe on identity). A cached node's
// partition is put once per session: its id is kept in cacheBlocks, reused
// by every later spec and listed in spec.Resident. It mirrors
// evalPartDirect's per-operator input assembly exactly; fusion never
// applies remotely, which the fused-vs-per-operator suites (fuse_test.go,
// TestRandomDAGFusedMatchesPerOperator) prove is invisible to results.
func (j *job) buildRemoteSpec(n *node, put func(Batch) (uint64, error)) (*RemoteStageSpec, error) {
	spec := &RemoteStageSpec{Label: n.label, Tasks: make([]RemoteTask, 0, n.parts)}
	ids := map[Batch]uint64{}
	blockInput := func(b Batch) (RemoteInput, error) {
		if b == nil || b == zeroBatch {
			return RemoteInput{Kind: "empty"}, nil
		}
		if id, ok := ids[b]; ok {
			return RemoteInput{Kind: "block", Block: id}, nil
		}
		id, err := put(b)
		if err != nil {
			return RemoteInput{}, err
		}
		ids[b] = id
		return RemoteInput{Kind: "block", Block: id}, nil
	}
	cachedInput := func(nd *node, data []Batch, pp int) (RemoteInput, error) {
		b := data[pp]
		if _, ok := ids[b]; ok || b == nil || b == zeroBatch {
			return blockInput(b)
		}
		nd.cacheMu.Lock()
		defer nd.cacheMu.Unlock()
		if pp < len(nd.cacheBlocks) && nd.cacheBlocks[pp] != 0 {
			id := nd.cacheBlocks[pp]
			ids[b] = id
			spec.Resident = append(spec.Resident, id)
			return RemoteInput{Kind: "block", Block: id}, nil
		}
		in, err := blockInput(b)
		if err != nil {
			return in, err
		}
		if nd.cacheBlocks == nil {
			nd.cacheBlocks = make([]uint64, len(data))
			if j.s.resident == nil {
				j.s.resident = map[*node]bool{}
			}
			j.s.resident[nd] = true
		}
		nd.cacheBlocks[pp] = in.Block
		spec.Resident = append(spec.Resident, in.Block)
		return in, nil
	}

	var buildNode func(nd *node, p int) (*RemoteNode, error)
	var inputFor func(nd *node, pp int) (RemoteInput, error)
	inputFor = func(nd *node, pp int) (RemoteInput, error) {
		if cp, ok := j.front[nd]; ok {
			if nd.cached {
				return cachedInput(nd, cp.data, pp)
			}
			return blockInput(cp.data[pp])
		}
		if len(nd.deps) == 0 {
			// In-chain source (Parallelize, readers): its partitions are
			// built from driver-captured state, so evaluate here and ship
			// the batch rather than the closure.
			return blockInput(nd.compute(&Ctx{}, pp, nil))
		}
		rn, err := buildNode(nd, pp)
		if err != nil {
			return RemoteInput{}, err
		}
		return RemoteInput{Kind: "node", Node: rn}, nil
	}
	buildNode = func(nd *node, p int) (*RemoteNode, error) {
		if nd.port == nil {
			return nil, fmt.Errorf("%w: operator %q has no registered portable form (see internal/taskreg)", ErrNotPortable, nd.label)
		}
		rn := &RemoteNode{Op: nd.port.op, Arg: nd.port.arg, Part: p, Inputs: make([]RemoteInput, len(nd.deps))}
		for i := range nd.deps {
			d := &nd.deps[i]
			var in RemoteInput
			var err error
			switch d.kind {
			case depNarrow:
				in = RemoteInput{Kind: "empty"}
				if pp, ok := d.parentPart(p); ok {
					in, err = inputFor(d.parent, pp)
				}
			case depShuffle:
				in, err = blockInput(j.blocks[d].blocks[p])
			case depBroadcast:
				in, err = blockInput(j.bcast[d])
			}
			if err != nil {
				return nil, err
			}
			rn.Inputs[i] = in
		}
		return rn, nil
	}

	for p := 0; p < n.parts; p++ {
		root, err := buildNode(n, p)
		if err != nil {
			return nil, err
		}
		spec.Tasks = append(spec.Tasks, RemoteTask{Part: p, Root: root})
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

// RunRemoteTask evaluates one shipped task: fetch leaf blocks and run the
// chain bottom-up — exactly the unfused evaluation the driver would
// perform. A panicking kernel is reported as an error, not a worker death.
func (e *RemoteEvaluator) RunRemoteTask(t *RemoteTask, fetch FetchFunc) (b Batch, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("engine: remote task %d panicked: %v", t.Part, r)
		}
	}()
	return e.evalNode(t.Root, fetch)
}

// kernel returns rn's kernel, resolving it if this is the first node with
// its (op, arg) since Reset — fresh says so.
func (e *RemoteEvaluator) kernel(rn *RemoteNode) (compute PortableCompute, fresh bool, err error) {
	if compute, ok := e.kernels[kernelKey{rn.Op, string(rn.Arg)}]; ok {
		return compute, false, nil
	}
	mkAny, ok := portableOps.Load(rn.Op)
	if !ok {
		return nil, false, fmt.Errorf("engine: portable op %q is not registered in this process", rn.Op)
	}
	compute, err = mkAny.(PortableFactory)(rn.Arg)
	if err != nil {
		return nil, false, fmt.Errorf("engine: portable op %q: %w", rn.Op, err)
	}
	if e.kernels == nil {
		e.kernels = map[kernelKey]PortableCompute{}
	}
	e.kernels[kernelKey{rn.Op, string(rn.Arg)}] = compute
	return compute, true, nil
}

func (e *RemoteEvaluator) evalNode(rn *RemoteNode, fetch FetchFunc) (Batch, error) {
	compute, fresh, err := e.kernel(rn)
	if err != nil {
		return nil, err
	}
	inputs := make([]Batch, len(rn.Inputs))
	for i := range rn.Inputs {
		b, err := e.evalInput(&rn.Inputs[i], fetch)
		if err != nil {
			return nil, err
		}
		inputs[i] = b
	}
	if fresh && e.FirstRun != nil {
		e.FirstRun()
	}
	return compute(&Ctx{}, rn.Part, inputs), nil
}

func (e *RemoteEvaluator) evalInput(in *RemoteInput, fetch FetchFunc) (Batch, error) {
	switch in.Kind {
	case "empty":
		return zeroBatch, nil
	case "block":
		b, err := fetch(in.Block)
		if err != nil {
			return nil, err
		}
		if b == nil {
			b = zeroBatch
		}
		return b, nil
	case "node":
		return e.evalNode(in.Node, fetch)
	default:
		return nil, fmt.Errorf("engine: unknown remote input kind %q", in.Kind)
	}
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

// CombineCompute is the kernel of ReduceByKey's hidden map-side combine:
// the same fold as the reduce side, over the map task's own rows.
func CombineCompute[K comparable, V any](f func(V, V) V) PortableCompute {
	return ReduceByKeyCompute[K](f)
}

// ReduceByKeyCompute is the reduce-side kernel of ReduceByKey: fold equal
// keys with f, emitting in first-seen key order (see reduceByKey).
func ReduceByKeyCompute[K comparable, V any](f func(V, V) V) PortableCompute {
	return foldCompute[Pair[K, V]](newPairTables[K](f))
}

// GroupByKeyCompute is GroupByKey's kernel.
func GroupByKeyCompute[K comparable, V any]() PortableCompute {
	return func(tc *Ctx, p int, in []Batch) Batch {
		src := elems[Pair[K, V]](in[0])
		m := make(map[K][]V)
		var order []K // one entry per key, not per input row
		for _, kv := range src {
			if _, ok := m[kv.Key]; !ok {
				order = append(order, kv.Key)
			}
			m[kv.Key] = append(m[kv.Key], kv.Val)
		}
		out := make([]Pair[K, []V], 0, len(order))
		for _, k := range order {
			out = append(out, Pair[K, []V]{k, m[k]})
		}
		return batchOf(out, len(order))
	}
}

// joinScratch is the repartition join's per-partition working set, reused
// by a worker across the partitions of one join with the fold tables'
// discipline (fold.go): it belongs to the operator's sync.Pool, the output
// is copied out at its exact size, so nothing pooled is reachable from a
// Batch, and a scratch a panic abandoned is dropped.
type joinScratch[K comparable, A, B any] struct {
	keyIndex[K]         // key -> 1 + the position of its first build row
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
		s.next[i] = s.idx[build[i].Key]
		s.idx[build[i].Key] = int32(i + 1)
	}
	for _, kv := range probe {
		for i := s.idx[kv.Key]; i > 0; i = s.next[i-1] {
			s.out = append(s.out, Pair[K, Tuple2[A, B]]{kv.Key, Tuple2[A, B]{build[i-1].Val, kv.Val}})
		}
	}
	s.reset(len(build), func(i int) K { return build[i].Key })
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
