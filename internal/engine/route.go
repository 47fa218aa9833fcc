package engine

// Map-side shuffle routing. The partitioned parent of a shuffle dep is
// routed into the child's partitions here; this is the hottest structural
// loop in the engine (every shuffled element passes through it once per
// stage boundary). It is one parallel counting sort: the sources are cut
// into a few contiguous chunks per worker, each chunk counts into its own
// histogram row of one entry per target, the rows are prefix-summed into
// write offsets, and each chunk writes its elements into their final
// slots. The cost is O(elements + chunks × targets) — no term in sources ×
// targets, which at the paper's 1200 × 1200 shuffle width used to dwarf
// the ~2000 records of an inner job. A one-worker session is the same
// code with one chunk, so the blocks are equal by construction. Batches
// route without boxing: the dep's targets hashes a whole batch
// monomorphically in the counting pass, and scatter moves elements between
// blocks of the sources' shape in the write pass. Partitioners must be
// pure: routing runs concurrently and may evaluate sources in any order.

// routeChunksPerWorker is how many chunks each worker gets to claim: more
// than one, so a chunk that happens to hold the slow sources does not set
// the pass's time alone; few, so the histogram stays a handful of rows.
const routeChunksPerWorker = 4

// partStarts returns, for each source partition, the number of elements
// before it, and the total in the extra last entry.
func partStarts(parent []Batch) []int {
	starts := make([]int, len(parent)+1)
	for src, part := range parent {
		starts[src+1] = starts[src] + batchLen(part)
	}
	return starts
}

// routeChunks cuts the sources into contiguous runs of roughly equal
// element count — one on a single worker, otherwise at most
// routeChunksPerWorker per worker and never more than there are sources —
// and returns their bounds: chunk c covers sources [bounds[c],
// bounds[c+1]). starts is partStarts of the sources and must count at
// least one element. Cuts fall on source boundaries only (a giant source
// is one chunk's work) and every chunk holds at least one element.
func routeChunks(starts []int, workers int) []int {
	nsrc := len(starts) - 1
	total := starts[nsrc]
	maxChunks := 1
	if workers > 1 {
		maxChunks = min(nsrc, routeChunksPerWorker*workers)
	}
	bounds := make([]int, 1, maxChunks+1)
	// share is the next equal share of the elements a cut is waiting for.
	share := 1
	for src := 1; src < nsrc && starts[src] < total; src++ {
		if starts[src]*maxChunks >= share*total {
			bounds = append(bounds, src)
			share = starts[src]*maxChunks/total + 1
		}
	}
	return append(bounds, nsrc)
}

// routed is what routing one shuffle dep leaves behind: the child's blocks
// and the arenas the pointer-free ones were cut from, to be put back on the
// free list when the blocks are dead.
type routed struct {
	blocks []Batch
	arenas [][]uint64
}

// routeCore routes every element of every parent partition into its
// target block. A counting pass records each element's target (the
// partitioner hash runs exactly once per element — targets are cached for
// the write pass) and counts per (chunk, target); the counts are
// prefix-summed into exact offsets, and a second pass writes every element
// directly into its final slot. Output block order is deterministic
// regardless of worker count: sources in order, elements in source order.
//
// Every non-empty source of a dataset has its one shape (batch.go), so
// blocks are allocated in that shape and filled by scatter. A block's boxed
// capacity is blockCap(len), reproducing the append-grown []any blocks the
// simulator observed before batches existed.
//
// Memory comes from the free list: the pass's own scratch, which goes back
// before routeCore returns, and the blocks of a pointer-free shape
// (newBlocks). A nil list allocates everything on the heap.
func routeCore(d *dep, parent []Batch, pool *workerPool, workers int, from *arenaList) routed {
	nt := d.childParts
	blocks := make([]Batch, nt)
	starts := partStarts(parent)
	total := starts[len(parent)]
	if total == 0 {
		return routed{blocks: blocks}
	}
	bounds := routeChunks(starts, workers)
	nch := len(bounds) - 1

	// Scratch, dead when the write pass ends: targets caches each element's
	// target, sources back to back; counts[c*nt+t] = elements of chunk c
	// bound for target t; lens[t] = elements bound for target t. Not put
	// back when a partitioner panics: a pass may still be writing to it.
	var scratch []uint64
	var ints []int32
	if n := total + (nch+1)*nt; from != nil {
		scratch = from.take(wordsFor(4*n), wordsFor(4*n), wordsFor(4*n))
		ints = carve[int32](scratch)[:n]
		clear(ints[total:])
	} else {
		ints = make([]int32, n)
	}
	targets, counts, lens := ints[:total], ints[total:total+nch*nt], ints[total+nch*nt:]

	// Counting pass. A lone chunk runs on the caller: there is no one to
	// overlap the dispatch with.
	pool.parallelFor(workers, nch, func(_, c int) {
		ct := counts[c*nt : (c+1)*nt]
		for src := bounds[c]; src < bounds[c+1]; src++ {
			if tg := targets[starts[src]:starts[src+1]]; len(tg) > 0 {
				d.targets(src, parent[src], nt, tg, ct)
			}
		}
	})

	// Prefix-sum counts into write offsets (per target, chunks in order).
	for t := 0; t < nt; t++ {
		var run int32
		for i := t; i < len(counts); i += nt {
			c := counts[i]
			counts[i] = run
			run += c
		}
		lens[t] = run
	}
	// Allocate each block exactly once at its final size — empty blocks stay
	// nil, as the boxed reference kept them.
	blockMem := from
	if d.aliased {
		blockMem = nil // the blocks are the consumer's output and outlive their readers
	}
	arenas := newBlocks(routeProto(parent), lens, blocks, blockMem)

	// Write pass: each chunk owns its offset row and advances it through
	// its sources in order, so writes to a shared block land in disjoint
	// slots.
	pool.parallelFor(workers, nch, func(_, c int) {
		off := counts[c*nt : (c+1)*nt]
		for src := bounds[c]; src < bounds[c+1]; src++ {
			if tg := targets[starts[src]:starts[src+1]]; len(tg) > 0 {
				parent[src].scatter(tg, off, blocks)
			}
		}
	})
	if scratch != nil {
		from.put(scratch)
	}
	return routed{blocks, arenas}
}

// routeProto returns the first non-empty source, whose shape every other
// non-empty source shares, or zeroBatch when there is none.
func routeProto(parent []Batch) Batch {
	for _, part := range parent {
		if batchLen(part) > 0 {
			return part
		}
	}
	return zeroBatch
}

// route routes source partitions on the session's worker pool. A
// single-worker session routes as one chunk on the caller and never
// touches the pool — the dispatch would be pure overhead with no one to
// overlap it with.
func (s *Session) route(d *dep, parent []Batch) routed {
	return routeCore(d, parent, s.pool, s.workers, &s.arenas)
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

// flatten copies every parent partition, in order, into one exactly-sized
// batch of their shape, whose boxed capacity is its length (the boxed
// flatten's exact pre-size). It runs on the caller: a broadcast is the
// small side of its operator, and the copy is a memcpy sweep that pool
// dispatch would only add to.
func flatten(parent []Batch) Batch {
	offsets := partStarts(parent)
	total := offsets[len(parent)]
	flat := routeProto(parent).newLike(total, total)
	for src, part := range parent {
		if batchLen(part) > 0 {
			flat.copyFrom(offsets[src], part)
		}
	}
	return flat
}
