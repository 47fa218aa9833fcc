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
// A batch is keyed by identity: putting one the store already holds
// returns the id it has, so a cached partition kept from an earlier job
// is named by the same id, and workers that hold it are not sent it again.
// That is safe for as long as a spec naming the block can run: a block
// that is not resident is named only by specs of the job it was put in,
// whose pushes all happen inside their RunRemoteStage, before the engine
// releases the stage's shuffle blocks; a resident block is a cached
// partition, which never changes. At each job end retain drops every
// block but the ones the job listed as resident, which stay for the next
// job. Ids are monotonic for the life of the store, so a worker-side cache
// can never alias two different blocks across jobs.
type blockStore struct {
	mu     sync.Mutex
	next   uint64
	blocks map[uint64]engine.Batch
	ids    map[engine.Batch]uint64
}

func newBlockStore() *blockStore {
	return &blockStore{blocks: map[uint64]engine.Batch{}, ids: map[engine.Batch]uint64{}}
}

// put stores b and returns its id: the one b already has if the store
// holds it, else the next.
func (s *blockStore) put(b engine.Batch) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if id, ok := s.ids[b]; ok {
		return id
	}
	s.next++
	s.blocks[s.next] = b
	s.ids[b] = s.next
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
// counting up, so a dropped batch put again gets a fresh one.
func (s *blockStore) retain(keep map[uint64]bool) map[uint64]bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	kept := map[uint64]bool{}
	for id, b := range s.blocks {
		if keep[id] {
			kept[id] = true
		} else {
			delete(s.blocks, id)
			delete(s.ids, b)
		}
	}
	return kept
}
