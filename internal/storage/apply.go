package storage

import (
	"fmt"
	"os"

	"scidb/internal/array"
	"scidb/internal/bufcache"
)

// Batch is one write to a store (Store.Apply).
type Batch struct {
	// Clear, when set, is one chunk of the store's grid, which the batch
	// removes before any chunk lands: its buffered cells, and every bucket
	// version there — index and pool entries, and the files once a manifest
	// without them is saved. A store that gives a chunk away keeps no copy to
	// answer after a restart, and one that takes a chunk back installs it
	// over nothing an earlier stint left.
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
// buffer flushes if the batch leaves it at MemLimit. A Clear or a chunk off
// the grid fails the batch with ErrOffGrid before anything is written: each
// must have its grid cell's whole shape, clipped at High. held is the change
// in the cells the store holds: those it did not hold, including the cells of
// chunks written before a failure, less those the Clear removed. A batch with
// a Clear saves the manifest — after the new bucket files are written and
// before the removed ones are deleted —, any other waits for a flush. A batch
// that fails after its Clear puts the cleared chunk back as it was (restore),
// so the store holds what its saved manifest names.
func (s *Store) Apply(b Batch) (held int64, err error) {
	clear := len(b.Clear.Lo) > 0
	if clear && !s.onGrid(b.Clear) {
		return 0, fmt.Errorf("storage: Apply: clear %v: %w", b.Clear, ErrOffGrid)
	}
	for _, ch := range b.Chunks {
		if !s.onGrid(ch.Box()) {
			return 0, fmt.Errorf("storage: Apply: chunk %v: %w", ch.Box(), ErrOffGrid)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var cut cleared
	if clear {
		if cut, err = s.clearLocked(b.Clear.Lo); err != nil {
			return 0, err
		}
		held = -cut.cells
		defer func() {
			if err != nil {
				held += s.restoreLocked(cut)
			}
		}()
	}
	for i, ch := range b.Chunks {
		if ch.CellsPresent() == 0 {
			continue
		}
		n, err := s.newCellsLocked(ch)
		if err != nil {
			return held, err
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
			return held, err
		}
		held += n
		if clear && ch.Origin.Equal(cut.origin) {
			cut.written += n
		}
	}
	switch {
	case s.memBytes >= s.opts.MemLimit:
		err = s.flushLocked()
	case clear:
		err = s.saveManifestLocked()
	}
	if err != nil {
		return held, err
	}
	for _, m := range cut.gone {
		if m.path != "" {
			_ = os.Remove(m.path)
		}
	}
	return held, nil
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

// cleared is what clearLocked took out at origin: the buffer's chunk there
// (nil if none) and the bucket versions, whose files stay until a manifest
// without them is saved, the cells they held, and the cells the batch has
// written there since.
type cleared struct {
	origin  array.Coord
	mem     *array.Chunk
	gone    []*bucketMeta
	cells   int64
	written int64
}

// clearLocked removes the chunk at origin: its buffered cells, and its
// bucket versions from the index and the pool. It counts the cells the chunk
// held off the versions' frames, and changes nothing if a read fails.
func (s *Store) clearLocked(origin array.Coord) (cut cleared, err error) {
	cut = cleared{origin: origin, gone: s.index[origin.Key()]}
	var held *array.Bitmap
	mem, buffered := s.mem.ChunkAt(origin)
	if buffered {
		cut.mem, held = mem, mem.Present.Clone()
	}
	for _, m := range cut.gone {
		frame, release, err := s.pinBucket(m, []int{})
		if err != nil {
			return cleared{}, err
		}
		if held == nil {
			held = frame.Present.Clone()
		} else {
			held.OrRange(frame.Present, 0, held.Len())
		}
		release()
	}
	if held == nil {
		return cut, nil
	}
	if buffered {
		s.memBytes -= mem.ByteSize()
		s.mem.DropChunk(origin)
	}
	delete(s.index, origin.Key())
	for _, m := range cut.gone {
		s.uncache(m.id)
	}
	cut.cells = held.Count()
	return cut, nil
}

// restoreLocked undoes clearLocked's cut in a batch that failed: whatever the
// batch wrote at the origin since goes — its buckets, files included, and
// its buffered cells — and the chunk as it was comes back. It returns the
// change this makes in the cells held.
func (s *Store) restoreLocked(cut cleared) int64 {
	key := cut.origin.Key()
	for _, m := range s.index[key] {
		s.uncache(m.id)
		if m.path != "" {
			_ = os.Remove(m.path)
		}
	}
	if now, ok := s.mem.ChunkAt(cut.origin); ok {
		s.memBytes -= now.ByteSize()
		s.mem.DropChunk(cut.origin)
	}
	if cut.mem != nil {
		s.mem.PutChunk(cut.mem)
		s.memBytes += cut.mem.ByteSize()
	}
	delete(s.index, key)
	if len(cut.gone) > 0 {
		s.index[key] = cut.gone
	}
	return cut.cells - cut.written
}
