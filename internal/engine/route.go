package engine

// Map-side shuffle routing. The partitioned parent of a shuffle dep is
// routed into the child's partitions here; this is the hottest structural
// loop in the engine (every shuffled element passes through it once per
// stage boundary). One counting-pass core runs with inline loops or on
// the worker pool — the identical algorithm with different loop dispatch,
// so the blocks are equal by construction. Typed batches route without
// boxing: the dep's batchTargets hashes a whole batch monomorphically in
// the counting pass, and scatter moves elements between typed blocks in
// the write pass. Partitioners must be pure: routing runs concurrently and
// may evaluate sources in any order.

// routeCore routes every element of every parent partition into its
// target block. A counting pass records each element's target (the
// partitioner hash runs exactly once per element — targets are cached for
// the write pass), the per-(source, target) counts are prefix-summed into
// exact offsets, and a second pass writes every element directly into its
// final slot. Output block order is deterministic regardless of worker
// count: sources in order, elements in source order.
//
// When every non-empty source shares one batch shape, blocks are
// allocated in that shape and filled by typed scatter; mixed shapes fall
// back to boxed blocks. Either way a block's boxed capacity is
// blockCap(len), reproducing the append-grown []any blocks the simulator
// observed before batches existed.
func routeCore(d *dep, parent []Batch, pool *workerPool, workers int) []Batch {
	nsrc := len(parent)
	nt := d.childParts
	blocks := make([]Batch, nt)
	if nsrc == 0 {
		return blocks
	}
	// Counting pass: counts[src*nt+t] = elements of source src bound for
	// target t; targets[src][idx] caches each element's target.
	targets := make([][]int32, nsrc)
	counts := make([]int32, nsrc*nt)
	countSrc := func(src int) {
		part := parent[src]
		n := batchLen(part)
		tg := make([]int32, n)
		ct := counts[src*nt : (src+1)*nt]
		switch {
		case n == 0:
		case d.posPartitioner != nil:
			for idx := 0; idx < n; idx++ {
				t := d.posPartitioner(src, idx, nt)
				tg[idx] = int32(t)
				ct[t]++
			}
		case d.batchTargets != nil && d.batchTargets(part, nt, tg, ct):
			// Typed fast path: one dispatch per batch, no boxing.
		default:
			for idx := 0; idx < n; idx++ {
				t := d.partitioner(part.At(idx), nt)
				tg[idx] = int32(t)
				ct[t]++
			}
		}
		targets[src] = tg
	}
	if workers <= 1 {
		for src := 0; src < nsrc; src++ {
			countSrc(src)
		}
	} else {
		pool.parallelForSafe(workers, nsrc, countSrc)
	}

	// Block representation: typed when every non-empty source agrees.
	proto, homogeneous := routeProto(parent)

	// Prefix-sum counts into write offsets (per target, sources in order)
	// and allocate each block exactly once at its final size.
	for t := 0; t < nt; t++ {
		var run int32
		for src := 0; src < nsrc; src++ {
			c := counts[src*nt+t]
			counts[src*nt+t] = run
			run += c
		}
		if run > 0 { // keep empty blocks nil, as the boxed reference did
			if homogeneous {
				blocks[t] = proto.newLike(int(run), blockCap(int(run)))
			} else {
				blocks[t] = &Vec[any]{xs: make([]any, run), bcap: blockCap(int(run))}
			}
		}
	}

	// Write pass: each source owns its offset row, so writes to a shared
	// block land in disjoint slots.
	writeSrc := func(src int) {
		part := parent[src]
		n := batchLen(part)
		if n == 0 {
			return
		}
		off := counts[src*nt : (src+1)*nt]
		tg := targets[src]
		if homogeneous {
			part.scatter(tg, off, blocks)
			return
		}
		for idx := 0; idx < n; idx++ {
			t := tg[idx]
			blocks[t].setAny(int(off[t]), part.At(idx))
			off[t]++
		}
	}
	if workers <= 1 {
		for src := 0; src < nsrc; src++ {
			writeSrc(src)
		}
	} else {
		pool.parallelForSafe(workers, nsrc, writeSrc)
	}
	return blocks
}

// routeProto scans the non-empty sources for a shared batch shape. It
// returns the first non-empty batch as the prototype and whether every
// other non-empty source matches it.
func routeProto(parent []Batch) (Batch, bool) {
	var proto Batch
	for _, part := range parent {
		if batchLen(part) == 0 {
			continue
		}
		if proto == nil {
			proto = part
		} else if !sameBatchShape(proto, part) {
			return proto, false
		}
	}
	if proto == nil {
		return zeroBatch, true
	}
	return proto, true
}

// route routes source partitions concurrently on the session's worker
// pool. A single-worker pool takes the serial path outright — the
// dispatch would be pure overhead with no one to overlap it with (the
// same 1-core audit flatten got).
func (s *Session) route(d *dep, parent []Batch) []Batch {
	if s.workers == 1 {
		return routeCore(d, parent, nil, 1)
	}
	return routeCore(d, parent, s.pool, s.workers)
}

// blockCap returns the boxed-equivalent capacity of a block of n elements.
// Capacity is observable in simulated accounting: sizeest charges
// BoxedCap, and estPartitionBytes hands whole blocks of up to sampleN
// elements to it directly. The original append-based router grew such
// small blocks through the power-of-two capacities of one-at-a-time
// appends, so blocks keep reporting that capacity to keep simulated
// numbers bit-identical. Larger blocks go through position sampling,
// where capacity is never observed, and get exactly n.
func blockCap(n int) int {
	if n > sampleN {
		return n
	}
	if n == 0 {
		return 0 // never-appended nil slice
	}
	c := 1
	for c < n {
		c <<= 1
	}
	return c
}

// flattenCore copies every parent partition into its pre-computed region
// of one exactly-sized batch. Same-shaped sources flatten typed; mixed
// shapes fall back to a boxed batch. Both report boxed capacity == total,
// matching the boxed flatten's exact pre-size.
func flattenCore(parent []Batch, pool *workerPool, workers int) Batch {
	offsets := make([]int, len(parent)+1)
	for i, part := range parent {
		offsets[i+1] = offsets[i] + batchLen(part)
	}
	total := offsets[len(parent)]
	proto, homogeneous := routeProto(parent)
	var flat Batch
	if homogeneous {
		flat = proto.newLike(total, total)
	} else {
		flat = &Vec[any]{xs: make([]any, total), bcap: total}
	}
	copySrc := func(src int) {
		part := parent[src]
		n := batchLen(part)
		if n == 0 {
			return
		}
		off := offsets[src]
		if flat.copyFrom(off, part) {
			return
		}
		for idx := 0; idx < n; idx++ {
			flat.setAny(off+idx, part.At(idx))
		}
	}
	if workers <= 1 {
		for src := range parent {
			copySrc(src)
		}
	} else {
		pool.parallelForSafe(workers, len(parent), copySrc)
	}
	return flat
}

// flattenCutoff is the total element count below which flatten routes to
// the serial copy: a broadcast flatten is a pure memcpy sweep, and for
// small inputs the pool dispatch and per-partition goroutine
// handoff cost as much as the copy itself (BenchmarkBroadcastFlatten
// measured ~131k elements finishing in identical time either way). Both
// paths produce a batch of identical length, order, and boxed capacity,
// so the routing choice is invisible to simulated accounting.
const flattenCutoff = 1 << 18

// flatten copies partitions concurrently; inputs below flattenCutoff, and
// single-worker pools, take the serial copy instead.
func (s *Session) flatten(parent []Batch) Batch {
	var total int
	for _, part := range parent {
		total += batchLen(part)
	}
	// A single-worker pool can never win a memcpy sweep: the dispatch is
	// pure overhead with no one to overlap it with.
	if total < flattenCutoff || s.workers == 1 {
		return flattenCore(parent, nil, 1)
	}
	return flattenCore(parent, s.pool, s.workers)
}
