package engine

// Recycled shuffle memory. A routed block lives only as long as the stages
// that read it (runner.go), and a lifted loop routes the same shapes again
// on its next step, so the memory of a released block goes back to the
// session and into the next shuffle instead of to the collector. What is
// recycled is raw words: an arena is a []uint64 the router lays pointer-free
// element types over (newBlocks, carve), so one list serves every such
// shape — the five shuffles of one flattened job share it although no two
// share a row type — and nothing on it is ever scanned, cleared or typed.
// Shapes with pointers stay on the heap: memory the collector must scan
// would have to be cleared and typed on every reuse.

import "slices"

// arenaList is a session's free list of arenas. Only the goroutine that
// holds Session.mu touches it: jobs route on the driver, one job at a time.
type arenaList struct {
	free [][]uint64
	// stale counts the arenas at the front of free that the running job
	// has not taken: what endJob drops.
	stale int
	// poison is a test seam: put overwrites what it gets back, so a reader
	// that kept a released block sees garbage instead of plausible rows.
	// Nothing outside tests sets it.
	poison bool
}

// poisonWord is what the poison seam fills released arenas with.
const poisonWord = 0xA5A5A5A5A5A5A5A5

// wordsFor is the number of arena words that hold n bytes.
func wordsFor(n int) int { return (n + 7) / 8 }

// take removes and returns an arena of at least least words: the smallest
// on the list that holds want — all its caller still has to place — or, when
// none does, the largest, so that only the shortfall is allocated after it.
// An arena more than half of which would go unused is left for a caller it
// fits: a small shuffle must not occupy the arena a large one is about to
// need. With nothing suitable listed it allocates fresh words.
func (l *arenaList) take(least, want, fresh int) []uint64 {
	best := -1
	for i, a := range l.free {
		if len(a) < least || len(a) > 2*want {
			continue
		}
		if best < 0 {
			best = i
		} else if b := len(l.free[best]); min(len(a), b) >= want {
			if len(a) < b {
				best = i
			}
		} else if len(a) > b {
			best = i
		}
	}
	if best < 0 {
		return make([]uint64, fresh)
	}
	a := l.free[best]
	l.free = slices.Delete(l.free, best, best+1)
	if best < l.stale {
		l.stale--
	}
	return a
}

// put gives arenas whose blocks are dead back to the list.
func (l *arenaList) put(arenas ...[]uint64) {
	if l.poison {
		for _, a := range arenas {
			for i := range a {
				a[i] = poisonWord
			}
		}
	}
	l.free = append(l.free, arenas...)
}

// endJob drops the arenas the finished job never took, so a long-lived
// session holds at most what its last job used.
func (l *arenaList) endJob() {
	l.free = slices.Delete(l.free, 0, l.stale)
	l.stale = len(l.free)
}
