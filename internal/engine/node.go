package engine

import (
	"reflect"
	"runtime"
	"sync"

	"matryoshka/internal/layout"
	"matryoshka/internal/sizeest"
)

// depKind distinguishes how a node consumes its parent.
type depKind int

const (
	// depNarrow: child partition p reads at most one parent partition, the
	// same index p unless the dep is offset (dep.off). Narrow chains are
	// pipelined into a single task, as in Spark stages.
	depNarrow depKind = iota
	// depShuffle: child partition p reads the elements of every parent
	// partition routed to p by the dep's partitioner (a stage boundary).
	depShuffle
	// depBroadcast: every child partition reads the parent in full; the
	// parent is materialized and charged as a cluster-wide broadcast.
	depBroadcast
)

func (k depKind) String() string {
	switch k {
	case depShuffle:
		return "shuffle"
	case depBroadcast:
		return "broadcast"
	}
	return "narrow"
}

// dep is an edge of the dataset DAG.
type dep struct {
	parent     *node
	kind       depKind
	childParts int // partition count of the owning node
	// off is a narrow dep's partition offset: child partition p reads parent
	// partition p-off when that index is in range, and nothing otherwise
	// (parentPart). It is 0 except on Union's second input.
	off int
	// targets is the shuffle dep's partitioner, a batch at a time: for source
	// partition src it fills tg[i] with the target of b's element i (len(tg)
	// == b.Len() > 0) and bumps ct[target]. Routing runs concurrently and
	// visits sources in any order, so it must be pure — position-dependent
	// routing (Repartition's round-robin) derives the target from (src, i),
	// never from a shared counter. The typed constructors (shuffle.go)
	// assert the one shape the dataset's batches have, *Vec[T] of its
	// element type, and hash its elements where they lie.
	targets func(src int, b Batch, nParts int, tg, ct []int32)
	// aliased marks a shuffle dep whose consumer returns the routed block
	// itself as its output (identityCompute: PartitionByKey, Repartition).
	// Every other shuffle reader must not retain its input batch or any
	// slice of it past its compute — it copies out what it keeps — because
	// the job releases a dep's blocks once the last stage that reads them
	// has succeeded and the router reuses their memory (runner.go,
	// arena.go). An aliased dep's blocks are never released or recycled.
	aliased bool
}

// node is an untyped dataset DAG vertex. Partitions flow as Batch values
// (one typed vector per partition, batch.go); the typed operator
// constructors (ops.go etc.) wrap and unwrap them.
type node struct {
	id    int64
	label string
	parts int
	deps  []dep
	// compute produces output partition p given one input batch per dep.
	compute func(tc *Ctx, p int, inputs []Batch) Batch
	// weight is how many real records one element of this node stands
	// for (cluster.Config.RecordWeight). Sources inherit the session's
	// configured scale; derived nodes take the maximum of their parents;
	// cardinality-bounded outputs (lifting tags, per-key aggregates over
	// bounded key sets) are reset to 1 via Unscaled/...Bound operators.
	weight float64
	// pkey records that this node's output is hash-partitioned by a key
	// (set by PartitionByKey and key-preserving descendants). Joins use
	// it to skip re-shuffling co-partitioned inputs — the optimization
	// that lets iterative programs keep static data in place.
	pkey *partInfo

	// children indexes the consumers of this node (every node holding a
	// dep on it), maintained by newNode. Adaptive recovery uses it to
	// splice a re-lowered replacement into the DAG and to bound which
	// nodes a partition-count change may touch.
	children []*node
	// fixedParts marks nodes whose compute is partition-count-sensitive
	// (MapPartitions UDFs, ZipWithUniqueID's captured stride): recovery
	// must not change their partitioning.
	fixedParts bool
	// fallback, when set, describes the optimizer's alternative physical
	// lowering for this operator (e.g. broadcast join -> repartition
	// join). Recovery builds it when the chosen lowering OOMs at run time.
	fallback *refallback
	// link, when set, is what this operator contributes to a fused narrow
	// chain (fuse.go): its step as a sink over the push of the operator
	// above it, and the materializer for when it ends the chain; for most
	// it is also compute, run alone (linkNode). nil for non-fusible
	// operators. Chains are found per plan (compileFusion) and composed
	// per runner (newChain).
	link *link
	// port, when set, names this operator in the portable-op registry
	// (portable.go), letting a process-pool backend reconstruct and run it
	// in a worker process. Set by MarkPortable via the taskreg helpers;
	// nil operators pin their stage to driver-local execution.
	port *portableMark
	// rows is the layout of the element type, looked up once where the
	// node's Dataset is made (fromNode), for size estimates to read per
	// partition.
	rows *layout.Layout

	cached    bool
	cacheMu   sync.Mutex
	cacheData []Batch
}

// Ctx carries per-task cost accounting. Operator UDFs that do significant
// work beyond per-element processing (e.g. the sequential inner algorithms
// of the outer-parallel workaround) report it through Charge and UseMemory
// so the simulated cluster sees realistic task costs.
//
// A Ctx is the scratch of one runner of a stage (see parallelFor), reset
// for every task the runner takes: the *Ctx a compute or MapCtx UDF is
// handed is valid only for the duration of that call and must not be kept.
type Ctx struct {
	job *job // owning job, for per-job memoization
	taskCost

	// encScratch is the boundary encoder's reusable buffer.
	encScratch []byte
	// ins is the stack evalPartDirect takes each node's input slots from, so
	// a per-operator node allocates no input slice per partition.
	ins []Batch
	// chains holds this runner's instances of the plan's fused chains, by
	// fuseInfo.slot, each built the first time the runner meets it.
	chains []*chain
}

// taskCost is what a task accumulates for the simulated cluster and the
// event spine. A fan-in memo site computes into a zeroed one and replays it
// into the consumer's (evalPart).
type taskCost struct {
	work         float64 // real element-equivalents processed by this task
	shuffleBytes float64 // real shuffle bytes read by this task
	mem          int64   // peak real bytes held by this task

	// Boundary observability (populated only when the session records
	// events): the encoded wire size of the shuffle blocks this task read
	// (batchio frames) and the element shape of the first non-empty one.
	boundaryBytes int64
	batchShape    string
}

// Charge adds n real element-equivalents of compute work to the task.
// UDFs doing heavy work over scaled data multiply their operation counts
// by the session's RecordWeight first.
func (c *Ctx) Charge(n int64) {
	if n > 0 {
		c.work += float64(n)
	}
}

// UseMemory records that the task holds at least b bytes at some point.
func (c *Ctx) UseMemory(b int64) {
	if b > c.mem {
		c.mem = b
	}
}

// estResidentBytes is estPartitionBytes scaled to real bytes by the
// dataset weight and inflated by the cluster's memory overhead factor: the
// resident footprint of engine-managed (deserialized, boxed, buffered)
// data.
func (s *Session) estResidentBytes(part Batch, rows *layout.Layout, weight float64) int64 {
	f := s.cfg.Cluster.MemoryOverheadFactor
	if f <= 0 {
		f = 1
	}
	if weight < 1 {
		weight = 1
	}
	return int64(float64(estPartitionBytes(part, rows)) * f * weight)
}

// estPartitionBytes estimates the in-memory size of a partition by sampling
// up to sampleN elements and scaling. Estimation must stay cheap because it
// runs once per node per partition.
const sampleN = 32

// sampleGrowCap is the capacity Go's append gives a full cap-sampleN []any
// that overflows by one element. The boxed estimator built its sample by
// appending into make([]any, 0, sampleN), so when the evenly-spaced walk
// yields more than sampleN positions (n not a multiple of step) the grown
// capacity — a malloc size-class artifact, not a clean doubling — was
// observable in simulated accounting. Reproduce it by performing the same
// append, whatever the running toolchain makes of it. The walk yields at
// most 2*sampleN-1 positions, so one growth always suffices.
var sampleGrowCap = cap(append(make([]any, sampleN, sampleN), nil))

func estPartitionBytes(part Batch, rows *layout.Layout) int64 {
	n := batchLen(part)
	if n == 0 {
		return 0
	}
	// Evenly spaced sample: catches a giant element in small-cardinality
	// partitions (e.g. groupByKey outputs), scales for uniform ones. A
	// partition of at most sampleN elements is its own sample. Otherwise
	// the sample's boxed capacity reproduces the boxed loop's appends into a
	// cap-sampleN []any: up to sampleN sampled elements fit as allocated,
	// beyond that the overflow append's growth was observable.
	step, bcap := 1, part.BoxedCap()
	if n > sampleN {
		step, bcap = n/sampleN, sampleN
	}
	count := (n + step - 1) / step
	if count > sampleN {
		bcap = sampleGrowCap
	}
	// Fixed-size element shapes cost a count times a per-type constant, so a
	// batch of them is charged by formula, no element looked at; the rest
	// are sized where the sampled elements lie.
	var sampled int64
	if rows.Deep >= 0 {
		sampled = sizeest.OfFixed(rows.Deep, count, bcap)
	} else {
		sampled = sizeest.OfEvery(part, step, bcap)
	}
	return sampled * int64(n) / int64(count)
}

func defaultWorkers() int {
	w := runtime.GOMAXPROCS(0)
	if w < 1 {
		w = 1
	}
	return w
}

// newNode registers a DAG vertex. Dep childParts and the node weight are
// filled in here. compute must not retain the inputs slice past its call:
// the executor reuses it for the next node. (The batches in it may outlive
// the call only as far as their dep allows; see dep.aliased.)
func (s *Session) newNode(label string, parts int, deps []dep, compute func(tc *Ctx, p int, inputs []Batch) Batch) *node {
	if parts < 1 {
		parts = 1
	}
	weight := s.cfg.Cluster.RecordWeight
	if weight < 1 {
		weight = 1
	}
	if len(deps) > 0 {
		weight = 1
		for i := range deps {
			deps[i].childParts = parts
			if w := deps[i].parent.weight; w > weight {
				weight = w
			}
		}
	}
	n := &node{id: s.newID(), label: label, parts: parts, deps: deps, compute: compute, weight: weight}
	for i := range deps {
		p := deps[i].parent
		p.cacheMu.Lock()
		p.children = append(p.children, n)
		p.cacheMu.Unlock()
	}
	return n
}

func narrowDep(parent *node) dep { return dep{parent: parent, kind: depNarrow} }

// parentPart returns the parent partition narrow dep d reads for child
// partition p, and false when it reads none.
func (d *dep) parentPart(p int) (int, bool) {
	pp := p - d.off
	return pp, pp >= 0 && pp < d.parent.parts
}

// partInfo identifies a hash partitioning: the key type and partition
// count fully determine the routing (pairShuffleDep hashes only the key,
// from a fixed seed).
type partInfo struct {
	keyType reflect.Type
	parts   int
}

func partInfoFor[K comparable](parts int) *partInfo {
	return &partInfo{keyType: reflect.TypeOf((*K)(nil)).Elem(), parts: parts}
}

func (pi *partInfo) matches(other *partInfo) bool {
	return pi != nil && other != nil && pi.keyType == other.keyType && pi.parts == other.parts
}
