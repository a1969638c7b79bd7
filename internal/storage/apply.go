package storage

import (
	"fmt"

	"scidb/internal/array"
	"scidb/internal/bufcache"
)

// Batch is one write to a store (Store.Apply).
type Batch struct {
	// Clear, when set, drops the buffer's cells inside it and the pool
	// entries of the buckets it meets (they stay on disk) before any chunk
	// lands: a store taking back a region it once owned may buffer leftovers
	// of that stint there, and the buffer outranks every bucket on reads.
	Clear  array.Box
	Chunks []*array.Chunk // of the store's grid; the store takes ownership
	// Raw, optional, holds the EncodeChunk bytes of each chunk. The store
	// only reads them while Apply runs — an adopted chunk is sealed into a
	// bucket of its own — so they may be views of a buffer the caller reuses.
	Raw [][]byte
}

// DecodeBatch decodes EncodeChunk payloads into a Batch that carries them as
// its Raw bytes.
func DecodeBatch(s *array.Schema, payloads [][]byte) (Batch, error) {
	b := Batch{Chunks: make([]*array.Chunk, len(payloads)), Raw: payloads}
	for i, p := range payloads {
		ch, err := DecodeChunk(s, p)
		if err != nil {
			return Batch{}, err
		}
		b.Chunks[i] = ch
	}
	return b, nil
}

// Apply is the store's one batch write, under one hold of the store lock:
// the Clear, then each chunk as the newest version of its cells. A chunk
// with Raw bytes whose origin the buffer does not hold is installed from
// them as a bucket, its sections put in the pool — no encode; every other
// chunk is unioned into the buffer's chunk at its origin (MergeChunk). The
// buffer flushes if the batch leaves it at MemLimit. A chunk off the grid
// fails the batch with ErrOffGrid before anything is written: every chunk
// must have its grid cell's whole shape, clipped at High. added counts the
// cells the store did not hold, including those of chunks written before a
// failure. No manifest is saved until a flush.
func (s *Store) Apply(b Batch) (added int64, err error) {
	for _, ch := range b.Chunks {
		if !s.onGrid(ch.Box()) {
			return 0, fmt.Errorf("storage: Apply: chunk %v: %w", ch.Box(), ErrOffGrid)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(b.Clear.Lo) > 0 {
		s.clearLocked(b.Clear)
	}
	for i, ch := range b.Chunks {
		if ch.CellsPresent() == 0 {
			continue
		}
		n, err := s.newCellsLocked(ch)
		if err != nil {
			return added, err
		}
		old, buffered := s.mem.ChunkAt(ch.Origin)
		if i < len(b.Raw) && b.Raw[i] != nil && !buffered {
			err = s.adoptLocked(b.Raw[i], ch)
		} else if err = s.mem.MergeChunk(ch); err == nil {
			if buffered {
				s.memBytes -= old.ByteSize()
			}
			now, _ := s.mem.ChunkAt(ch.Origin)
			s.memBytes += now.ByteSize()
		}
		if err != nil {
			return added, err
		}
		added += n
	}
	if s.memBytes >= s.opts.MemLimit {
		return added, s.flushLocked()
	}
	return added, nil
}

// newCellsLocked counts the present cells of ch held neither by the
// buffer's chunk at its origin nor by a bucket version there, whose frames
// it reads: a write's bookkeeping, which the heat hook does not see.
func (s *Store) newCellsLocked(ch *array.Chunk) (int64, error) {
	srcs := s.index[ch.Origin.Key()]
	mem, buffered := s.mem.ChunkAt(ch.Origin)
	if !buffered && len(srcs) == 0 {
		return ch.CellsPresent(), nil
	}
	// Every version at an origin has the grid cell's shape (onGrid), so one
	// masks another a word at a time.
	fresh := ch.Present.Clone()
	if buffered {
		fresh.AndNot(mem.Present)
	}
	for _, m := range srcs {
		frame, release, err := s.pinBucket(m, []int{})
		if err != nil {
			return 0, err
		}
		fresh.AndNot(frame.Present)
		release()
	}
	return fresh.Count(), nil
}

// adoptLocked installs raw, the EncodeChunk bytes of ch, as the newest
// bucket at ch's origin, its zone maps from ch's columns, and puts ch's
// sections in the pool: fresh data is the likeliest next read.
func (s *Store) adoptLocked(raw []byte, ch *array.Chunk) error {
	zones := make([]*array.ZoneMap, len(ch.Cols))
	for i, col := range ch.Cols {
		zones[i] = col.Zone
	}
	id, err := s.installLocked(raw, ch, zones)
	if err != nil || s.cache == nil {
		return err
	}
	s.cache.Put(s.cacheKey(id, bufcache.Frame), &array.Chunk{Origin: ch.Origin, Shape: ch.Shape, Present: ch.Present})
	for a, col := range ch.Cols {
		s.cache.Put(s.cacheKey(id, a), col)
	}
	return nil
}

// clearLocked drops the buffer's cells inside box — a chunk left with none
// goes whole, one the box cuts keeps the rest (Select) — and the pool
// entries of the buckets the box meets.
func (s *Store) clearLocked(box array.Box) {
	for _, ch := range s.mem.Chunks() {
		inter, ok := ch.Box().Intersect(box)
		if !ok {
			continue
		}
		live := ch.Present.Clone()
		ch.Rows(inter, func(start, n int64, _ array.Coord) { live.ClearRange(start, start+n) })
		if live.Count() == ch.CellsPresent() {
			continue
		}
		s.memBytes -= ch.ByteSize()
		if rest := ch.Select(live); rest == nil {
			s.mem.DropChunk(ch.Origin)
		} else {
			s.mem.PutChunk(rest)
			s.memBytes += rest.ByteSize()
		}
	}
	for _, m := range s.searchMetasLocked(box) {
		s.uncache(m.id)
	}
}
