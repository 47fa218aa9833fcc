package procpool

import (
	"sync"

	"matryoshka/internal/engine"
)

// blockStore holds the batches workers read by id: shuffle blocks,
// broadcasts, materialized frontier partitions, cached partitions. It
// keeps the batch the engine put, not an encoding of it: every one is
// already held by the driver (the job's frontier, its routed shuffle
// blocks, a node cache), and pushBlock encodes one only as it sends it.
// That is safe for as long as a spec naming the block can run: a block
// that is not resident is named by the one spec it was put for, whose
// pushes all happen inside its RunRemoteStage, before the engine releases
// the stage's shuffle blocks; a resident block is a cached partition,
// which never changes. At each job end retain drops every block but the
// cached partitions the job listed as resident, which stay for the
// session. Ids are monotonic for the life of the store, so a worker-side
// cache can never alias two different blocks across jobs.
type blockStore struct {
	mu     sync.Mutex
	next   uint64
	blocks map[uint64]engine.Batch
}

func newBlockStore() *blockStore {
	return &blockStore{blocks: map[uint64]engine.Batch{}}
}

// put stores b and returns its id.
func (s *blockStore) put(b engine.Batch) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.next++
	s.blocks[s.next] = b
	return s.next
}

// get returns the batch stored under id.
func (s *blockStore) get(id uint64) (engine.Batch, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.blocks[id]
	return b, ok
}

// retain keeps the blocks whose ids are in keep, drops every other block
// and returns the ids it kept. retain(nil) empties the store. Ids keep
// counting up.
func (s *blockStore) retain(keep map[uint64]bool) map[uint64]bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	kept := map[uint64]bool{}
	for id := range s.blocks {
		if keep[id] {
			kept[id] = true
		} else {
			delete(s.blocks, id)
		}
	}
	return kept
}
