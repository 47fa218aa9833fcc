package engine

// Map applies f to every element.
func Map[A, B any](d Dataset[A], f func(A) B) Dataset[B] {
	return fromNode[B](d.s, d.s.linkNode("map", d.n, linkMap(f)))
}

// MapCtx is Map with access to the task context, so UDFs that do heavy
// per-element work (e.g. the outer-parallel workaround running a whole
// inner algorithm sequentially inside one UDF call) can report their true
// compute and memory costs to the simulated cluster. The *Ctx is the
// runner's scratch, valid only for the duration of the call: f must not
// keep it or hand it to another goroutine.
func MapCtx[A, B any](d Dataset[A], f func(*Ctx, A) B) Dataset[B] {
	n := d.s.newNode("mapCtx", d.n.parts, []dep{narrowDep(d.n)}, func(tc *Ctx, p int, in []Batch) Batch {
		src := elems[A](in[0])
		out := make([]B, len(src))
		for i, e := range src {
			out[i] = f(tc, e)
		}
		return batchOf(out, len(out))
	})
	// Deliberately not fused: the UDF's Ctx charges interleave with the
	// loop, and replaying them in the unfused order from inside a fused
	// chain is impossible (see fuse.go). MapCtx nodes break chains.
	return fromNode[B](d.s, n)
}

// Filter keeps the elements for which pred is true.
func Filter[A any](d Dataset[A], pred func(A) bool) Dataset[A] {
	n := d.s.linkNode("filter", d.n, linkFilter(pred))
	n.pkey = d.n.pkey // filtering preserves the partitioning
	return fromNode[A](d.s, n)
}

// FlatMap applies f and concatenates the results.
func FlatMap[A, B any](d Dataset[A], f func(A) []B) Dataset[B] {
	return fromNode[B](d.s, d.s.linkNode("flatMap", d.n, linkFlatMap(f)))
}

// MapPartitions applies f to each whole partition.
func MapPartitions[A, B any](d Dataset[A], f func([]A) []B) Dataset[B] {
	n := d.s.newNode("mapPartitions", d.n.parts, []dep{narrowDep(d.n)}, MapPartitionsCompute(f))
	// Partition-level UDFs see whole partitions; recovery must not change
	// how the data is split under them.
	n.fixedParts = true
	n.link = linkMapPartitions(f)
	return fromNode[B](d.s, n)
}

// Union concatenates two datasets (bag union, duplicates preserved). It is
// a narrow operation: output partitions are the partitions of both inputs.
func Union[A any](a, b Dataset[A]) Dataset[A] {
	aParts := a.n.parts
	deps := []dep{narrowDep(a.n), {parent: b.n, kind: depNarrow, off: aParts}}
	n := a.s.newNode("union", aParts+b.n.parts, deps, func(tc *Ctx, p int, in []Batch) Batch {
		if p < aParts {
			return in[0]
		}
		return in[1]
	})
	return fromNode[A](a.s, n)
}

// ZipWithUniqueID pairs every element with a cluster-wide unique uint64,
// without launching a job: element k of partition p receives id p + k*parts
// (the same scheme as Spark's zipWithUniqueId). The paper uses it to mint
// lifting tags for UDF invocations (Sec. 4.3).
func ZipWithUniqueID[A any](d Dataset[A]) Dataset[Pair[uint64, A]] {
	n := d.s.linkNode("zipWithUniqueID", d.n, linkZip[A](d.n.parts))
	// The ID stride captures the partition count at construction time.
	n.fixedParts = true
	return fromNode[Pair[uint64, A]](d.s, n)
}

// Keys projects the keys of a pair dataset.
func Keys[K comparable, V any](d Dataset[Pair[K, V]]) Dataset[K] {
	return Map(d, func(p Pair[K, V]) K { return p.Key })
}

// Values projects the values of a pair dataset.
func Values[K comparable, V any](d Dataset[Pair[K, V]]) Dataset[V] {
	return Map(d, func(p Pair[K, V]) V { return p.Val })
}

// MapValues transforms only the value component; keys are untouched, so
// any existing hash partitioning is preserved on the result.
func MapValues[K comparable, V, W any](d Dataset[Pair[K, V]], f func(V) W) Dataset[Pair[K, W]] {
	n := d.s.linkNode("mapValues", d.n, linkMapValues[K](f))
	n.pkey = d.n.pkey
	return fromNode[Pair[K, W]](d.s, n)
}

// linkNode makes the node of a fusible operator over parent: l, its link,
// is both its kernel run alone (linkKernel) and its step in a fused chain,
// so the operator has one loop in either evaluation.
func (s *Session) linkNode(label string, parent *node, l *link) *node {
	n := s.newNode(label, parent.parts, []dep{narrowDep(parent)}, linkKernel(l))
	n.link = l
	return n
}
