package procpool

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"

	"matryoshka/internal/engine"
)

// blockStore holds the encoded batch frames workers fetch by id: shuffle
// blocks, broadcast pins, materialized frontier partitions, cached
// partitions. Frames live in memory up to a byte budget; past it the
// oldest frames spill to per-block temp files (oldest-first: a stage's own
// inputs were put most recently and are the ones about to be fetched).
// At each job end retain drops every block but the cached partitions the
// job listed as resident, which stay for the session — as the batch the
// driver already holds in its node cache, not as a second copy in frame
// form, and encoded again when one is pushed. Ids are monotonic for the
// life of the store, so a worker-side cache can never alias two different
// blocks across jobs.
//
// Spill files are integrity-checked: each is a u32 big-endian CRC-32C of
// the frame followed by the frame bytes. A read that fails the checksum —
// disk corruption, a truncated write, fault injection — comes back as
// engine.BlockLostError, which the driver surfaces as a lost shuffle
// output so lineage recomputation rebuilds the data; corrupt bytes are
// never served.
type blockStore struct {
	mu     sync.Mutex
	dir    string
	budget int64

	next     uint64
	mem      map[uint64][]byte
	order    []uint64 // in-memory ids, insertion order (spill candidates)
	memBytes int64
	disk     map[uint64]string // spilled id -> file path
	// src holds the batch behind every block put since the last retain,
	// and the batch of every block a retain kept. A block retain kept is
	// served from it; any other is served from its frame, so a spill
	// file that fails its checksum is a lost block even though its batch
	// is here.
	src map[uint64]engine.Batch

	spilledBlocks int
	spilledBytes  int64

	// damage, when non-nil, is invoked after every spill write with the
	// file path and the 1-based spill sequence number — the FaultPlan's
	// hook for deterministic corruption/truncation (tests and -procchaos).
	damage func(path string, seq int)
}

func newBlockStore(dir string, budget int64) *blockStore {
	return &blockStore{
		dir:    dir,
		budget: budget,
		mem:    map[uint64][]byte{},
		disk:   map[uint64]string{},
		src:    map[uint64]engine.Batch{},
	}
}

// put stores b, encoded as frame, and returns its id, spilling oldest
// in-memory frames to disk while the budget is exceeded. The store serves
// b itself only once retain has kept it, so b may change until then (the
// engine recycles shuffle blocks) but not after (a resident block is a
// cached partition, which never changes).
func (s *blockStore) put(b engine.Batch, frame []byte) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.next++
	id := s.next
	s.src[id] = b
	s.mem[id] = frame
	s.order = append(s.order, id)
	s.memBytes += int64(len(frame))
	for s.memBytes > s.budget && len(s.order) > 0 {
		old := s.order[0]
		s.order = s.order[1:]
		data, ok := s.mem[old]
		if !ok {
			continue
		}
		path := filepath.Join(s.dir, fmt.Sprintf("blk-%d", old))
		buf := make([]byte, 4+len(data))
		binary.BigEndian.PutUint32(buf, crc32.Checksum(data, wireCRC))
		copy(buf[4:], data)
		if err := os.WriteFile(path, buf, 0o600); err != nil {
			return 0, fmt.Errorf("procpool: spill block %d: %w", old, err)
		}
		delete(s.mem, old)
		s.memBytes -= int64(len(data))
		s.disk[old] = path
		s.spilledBlocks++
		s.spilledBytes += int64(len(data))
		if s.damage != nil {
			s.damage(path, s.spilledBlocks)
		}
	}
	return id, nil
}

// get returns the encoded frame for id, reading it back from its spill
// file if it left memory (without re-admitting it: a spilled block is
// usually fetched once per worker and cached there), or encoding the batch
// of a block retain kept. A spill file that is missing, truncated, or
// fails its checksum is reported as engine.BlockLostError — a lost block
// for lineage to recompute — never as data.
func (s *blockStore) get(id uint64) ([]byte, error) {
	s.mu.Lock()
	if data, ok := s.mem[id]; ok {
		s.mu.Unlock()
		return data, nil
	}
	path, ok := s.disk[id]
	b, held := s.src[id]
	s.mu.Unlock()
	if !ok && held {
		return engine.EncodeBatch(nil, b)
	}
	if !ok {
		return nil, fmt.Errorf("procpool: unknown block %d", id)
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, &engine.BlockLostError{Block: id, Reason: fmt.Sprintf("spill file unreadable: %v", err)}
	}
	if len(buf) < 4 {
		return nil, &engine.BlockLostError{Block: id, Reason: fmt.Sprintf("spill file truncated to %d bytes", len(buf))}
	}
	want := binary.BigEndian.Uint32(buf)
	data := buf[4:]
	if got := crc32.Checksum(data, wireCRC); got != want {
		return nil, &engine.BlockLostError{Block: id, Reason: fmt.Sprintf("spill checksum mismatch over %d bytes (%08x != %08x)", len(data), got, want)}
	}
	return data, nil
}

// retain keeps the blocks whose ids are in keep as their batches, drops
// every other block, deletes every spill file and returns the ids it
// kept. retain(nil) empties the store. Ids keep counting up.
func (s *blockStore) retain(keep map[uint64]bool) map[uint64]bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, path := range s.disk {
		os.Remove(path)
	}
	kept := map[uint64]bool{}
	for id := range s.src {
		if keep[id] {
			kept[id] = true
		} else {
			delete(s.src, id)
		}
	}
	s.mem = map[uint64][]byte{}
	s.disk = map[uint64]string{}
	s.order = nil
	s.memBytes = 0
	return kept
}

// spillStats reports how many blocks (and bytes) have ever spilled.
func (s *blockStore) spillStats() (int, int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.spilledBlocks, s.spilledBytes
}
