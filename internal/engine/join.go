package engine

// JoinStrategy selects the physical implementation of an equi-join. The
// paper's lowering-phase optimizer picks between these at run time based on
// InnerScalar cardinalities (Sec. 8.2).
type JoinStrategy int

const (
	// JoinRepartition shuffles both sides by key (Spark's sort-merge /
	// shuffled-hash equivalent). Best when both sides are large.
	JoinRepartition JoinStrategy = iota
	// JoinBroadcastLeft replicates the left side to every task and streams
	// the right side with no shuffle. Best when the left side is small;
	// fails with OOM when it does not fit in a machine's memory.
	JoinBroadcastLeft
	// JoinBroadcastRight mirrors JoinBroadcastLeft.
	JoinBroadcastRight
)

func (s JoinStrategy) String() string {
	switch s {
	case JoinRepartition:
		return "repartition"
	case JoinBroadcastLeft:
		return "broadcast-left"
	case JoinBroadcastRight:
		return "broadcast-right"
	}
	return "unknown"
}

// Join is an inner equi-join with the repartition strategy and default
// parallelism.
func Join[K comparable, A, B any](l Dataset[Pair[K, A]], r Dataset[Pair[K, B]]) Dataset[Pair[K, Tuple2[A, B]]] {
	return JoinWith(l, r, JoinRepartition, 0)
}

// JoinWith is an inner equi-join with an explicit strategy and output
// partition count (<= 0: default for repartition, right/left side's count
// for broadcast joins).
func JoinWith[K comparable, A, B any](l Dataset[Pair[K, A]], r Dataset[Pair[K, B]], strat JoinStrategy, parts int) Dataset[Pair[K, Tuple2[A, B]]] {
	switch strat {
	case JoinBroadcastLeft:
		return broadcastJoin(l, r)
	case JoinBroadcastRight:
		swapped := broadcastJoin(r, l)
		return Map(swapped, func(p Pair[K, Tuple2[B, A]]) Pair[K, Tuple2[A, B]] {
			return Pair[K, Tuple2[A, B]]{p.Key, Tuple2[A, B]{p.Val.B, p.Val.A}}
		})
	default:
		return repartitionJoin(l, r, parts)
	}
}

func repartitionJoin[K comparable, A, B any](l Dataset[Pair[K, A]], r Dataset[Pair[K, B]], parts int) Dataset[Pair[K, Tuple2[A, B]]] {
	s := l.s
	// Adopt a pre-partitioned side's layout so it can be read narrowly.
	if parts <= 0 {
		switch {
		case l.n.pkey != nil:
			parts = l.n.pkey.parts
		case r.n.pkey != nil:
			parts = r.n.pkey.parts
		default:
			parts = s.cfg.DefaultParallelism
		}
	}
	target := partInfoFor[K](parts)
	sideDep := func(n *node, shuffled dep) dep {
		if n.pkey.matches(target) {
			return narrowDep(n) // co-partitioned: no shuffle
		}
		return shuffled
	}
	deps := []dep{
		sideDep(l.n, pairShuffleDep[K, A](l.n)),
		sideDep(r.n, pairShuffleDep[K, B](r.n)),
	}
	buildRows, buildWeight := l.n.rows, l.n.weight
	kernel := RepartitionJoinCompute[K, A, B]()
	n := s.newNode("join", parts, deps, func(tc *Ctx, p int, in []Batch) Batch {
		tc.UseMemory(s.estResidentBytes(in[0], buildRows, buildWeight)) // resident build side
		return kernel(tc, p, in)
	})
	n.pkey = target // the join output stays partitioned by K
	return fromNode[Pair[K, Tuple2[A, B]]](s, n)
}

// broadcastJoin replicates `small` (the left side of the emitted tuple)
// and probes it with each partition of `big`, with no shuffle.
func broadcastJoin[K comparable, A, B any](small Dataset[Pair[K, A]], big Dataset[Pair[K, B]]) Dataset[Pair[K, Tuple2[A, B]]] {
	s := small.s
	deps := []dep{
		{parent: small.n, kind: depBroadcast},
		{parent: big.n, kind: depNarrow},
	}
	var n *node
	n = s.newNode("broadcastJoin", big.n.parts, deps, func(tc *Ctx, p int, in []Batch) Batch {
		build := tc.job.once(n.id, func() any {
			bc := elems[Pair[K, A]](in[0])
			m := make(map[K][]A, len(bc))
			for _, kv := range bc {
				m[kv.Key] = append(m[kv.Key], kv.Val)
			}
			return m
		}).(map[K][]A)
		var out []Pair[K, Tuple2[A, B]]
		for _, kv := range elems[Pair[K, B]](in[1]) {
			for _, a := range build[kv.Key] {
				out = append(out, Pair[K, Tuple2[A, B]]{kv.Key, Tuple2[A, B]{a, kv.Val}})
			}
		}
		return batchOf(out, blockCap(len(out)))
	})
	// Adaptive recovery's demotion target: the repartition join over the
	// same inputs, at the same partition count (evaluated at demote time,
	// after any partition raises).
	n.fallback = &refallback{
		rule: "join", choice: "broadcast", alt: "repartition",
		build: func() *node { return repartitionJoin(small, big, big.n.parts).n },
	}
	return fromNode[Pair[K, Tuple2[A, B]]](s, n)
}

// CrossWithBroadcast forms the cross product of every element of small with
// every element of big, broadcasting small. It implements the half-lifted
// mapWithClosure (Sec. 8.3), where e.g. each current K-means centroid set
// (an InnerScalar) must meet every point of the shared input bag.
func CrossWithBroadcast[A, B, C any](small Dataset[A], big Dataset[B], f func(A, B) C) Dataset[C] {
	n := crossNode("crossBroadcastSmall", small, big, func(b B, a A) C { return f(a, b) })
	// Demotion target: the mirrored half-lifted choice, repartitioned back
	// to this operator's layout. introRule/introChoice stop recovery from
	// bouncing between the two mirrors.
	n.fallback = &refallback{
		rule: "half-lifted", choice: "broadcast-scalar", alt: "broadcast-primary",
		introRule: "half-lifted", introChoice: "broadcast-primary",
		build: func() *node {
			return Repartition(CrossBroadcastBig(small, big, f), big.n.parts).n
		},
	}
	return fromNode[C](small.s, n)
}

// CrossBroadcastBig is the mirrored physical choice: broadcast big and keep
// small partitioned. The optimizer picks between the two using size
// estimates (Sec. 8.3); benchmarks exercise both to show the gap.
func CrossBroadcastBig[A, B, C any](small Dataset[A], big Dataset[B], f func(A, B) C) Dataset[C] {
	n := crossNode("crossBroadcastBig", big, small, f)
	n.fallback = &refallback{
		rule: "half-lifted", choice: "broadcast-primary", alt: "broadcast-scalar",
		introRule: "half-lifted", introChoice: "broadcast-scalar",
		build: func() *node {
			return Repartition(CrossWithBroadcast(small, big, f), small.n.parts).n
		},
	}
	return fromNode[C](small.s, n)
}

// crossNode is the operator both cross products are: bcast is broadcast
// (dep 0), streamed keeps its partitioning (dep 1), and every streamed row
// meets the broadcast rows in order. It is a chain link (linkCross), so in
// a fused chain the product is never materialized.
func crossNode[R, S, C any](label string, bcast Dataset[R], streamed Dataset[S], g func(S, R) C) *node {
	deps := []dep{
		{parent: bcast.n, kind: depBroadcast},
		{parent: streamed.n, kind: depNarrow},
	}
	n := streamed.s.newNode(label, streamed.n.parts, deps, func(tc *Ctx, p int, in []Batch) Batch {
		rs := elems[R](in[0])
		out := make([]C, 0, len(rs)*in[1].Len())
		for _, x := range elems[S](in[1]) {
			for _, r := range rs {
				out = append(out, g(x, r))
			}
		}
		return batchOf(out, cap(out))
	})
	n.link = linkCross(n, g)
	return n
}
