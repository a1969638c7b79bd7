package storage

import (
	"scidb/internal/array"
)

// ExportRegion re-chunks every cell the store holds inside box onto the
// store's grid and returns the encoded chunk payloads
// (EncodeChunkZones bytes) plus the total cell count. The payloads are the
// migration/replication wire unit: a receiving store adopts them verbatim
// via AdoptEncoded, so the copy is bit-identical to what a local encode
// would have produced. Scanning (rather than shipping raw buckets) folds
// newest-bucket shadowing and the memory buffer into one canonical copy,
// so the export is correct even when the region holds several versions of
// a chunk or unflushed writes.
func (s *Store) ExportRegion(box array.Box) ([][]byte, int64, error) {
	buf, err := array.New(s.schema.Clone())
	if err != nil {
		return nil, 0, err
	}
	if err := s.ScanChunks(box, nil, nil).Each(func(lc LiveChunk) error {
		return buf.MergeMasked(lc.Chunk, lc.Live)
	}); err != nil {
		return nil, 0, err
	}
	var payloads [][]byte
	var cells int64
	for _, ch := range buf.Chunks() {
		if ch.CellsPresent() == 0 {
			continue
		}
		raw, _, err := EncodeChunkZones(s.schema, ch)
		if err != nil {
			return nil, 0, err
		}
		payloads = append(payloads, raw)
		cells += ch.CellsPresent()
	}
	return payloads, cells, nil
}

// ClearRegion erases the memory buffer's cells inside box, returning how
// many were dropped. A store that adopts a canonical copy of a region
// (migration/replication install) must clear its own buffered cells first:
// they are leftovers from an earlier ownership stint — the coordinator's
// write fence guarantees every live write was flushed to the then-owner and
// folded into the copy being adopted — and Scan folds the memory buffer
// over all buckets, so a stale buffered cell would otherwise shadow the
// newer adopted content (and poison the next export of the region).
func (s *Store) ClearRegion(box array.Box) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	var stale []array.Coord
	s.mem.IterBoxReuse(box, func(c array.Coord, _ array.Cell) bool {
		stale = append(stale, c.Clone())
		return true
	})
	for _, c := range stale {
		s.mem.Erase(c)
	}
	return len(stale)
}

// ReleaseRegion drops the buffer-pool entries of every bucket intersecting
// box, returning how many were released. A migration source calls it after
// cutover: the stale copy stops occupying pool budget immediately, while
// the on-disk buckets stay untouched — in-flight queries that still hold
// pins finish unharmed, and any late read simply reloads from disk.
func (s *Store) ReleaseRegion(box array.Box) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cache == nil {
		return 0
	}
	n := 0
	for _, m := range s.searchMetasLocked(box) {
		s.uncache(m.id)
		n++
	}
	return n
}
