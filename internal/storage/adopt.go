package storage

import (
	"fmt"

	"scidb/internal/array"
	"scidb/internal/bufcache"
)

// AdoptEncoded installs a pre-encoded chunk payload as a new bucket without
// re-encoding it: raw must be the EncodeChunk/EncodeChunkZones wire bytes and
// ch their decoded form (schema-validated by the caller's DecodeChunk), one
// chunk of the store's grid — an origin that is not a grid origin, or a box
// that leaves its origin's grid cell, fails with ErrOffGrid. This
// is the bulk-load fast path — the loader encodes chunks once at parse time,
// ships the bytes, and the owning worker adopts them verbatim, paying only
// the bucket codec over each section instead of a per-cell Put storm plus a
// second encode.
//
// The store takes ownership of ch (it may be installed read-only in the
// buffer pool); callers must not mutate it afterwards. Zone maps travel on
// the decoded chunk's column views, so pruned scans work on adopted buckets
// exactly as on locally written ones. Like writeBucketLocked, adoption does
// not save the manifest — callers finish a load with Flush, which does.
//
// Adopting a chunk the store already holds is safe: the adopted bucket is
// the newest version at its origin, and Scan/Get resolve versions
// newest-first with absent cells falling through to older ones. Reads
// consult the memory buffer ahead of every bucket, so a non-empty buffer is
// spilled to buckets first; a load into an empty buffer pays nothing for it.
func (s *Store) AdoptEncoded(raw []byte, ch *array.Chunk) error {
	if ch == nil {
		return fmt.Errorf("storage: AdoptEncoded: nil chunk")
	}
	if len(ch.Origin) != len(s.schema.Dims) {
		return fmt.Errorf("storage: AdoptEncoded: chunk has %d dims, schema %d",
			len(ch.Origin), len(s.schema.Dims))
	}
	if !s.onGrid(ch.Box()) {
		return fmt.Errorf("storage: AdoptEncoded: chunk %v: %w", ch.Box(), ErrOffGrid)
	}
	if ch.CellsPresent() == 0 {
		return nil
	}
	var zones []*array.ZoneMap
	for i, col := range ch.Cols {
		if col.Zone == nil {
			continue
		}
		if zones == nil {
			zones = make([]*array.ZoneMap, len(ch.Cols))
		}
		zones[i] = col.Zone
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.memBytes > 0 {
		if err := s.flushLocked(); err != nil {
			return err
		}
	}
	id, err := s.installLocked(raw, ch, zones)
	if err != nil {
		return err
	}
	if s.cache != nil {
		// Freshly loaded data is the likeliest next read: install the decoded
		// sections directly instead of leaving the slots empty.
		s.cache.Put(s.cacheKey(id, bufcache.Frame), &array.Chunk{Origin: ch.Origin, Shape: ch.Shape, Present: ch.Present})
		for a, col := range ch.Cols {
			s.cache.Put(s.cacheKey(id, a), col)
		}
	}
	return nil
}

// AdoptPayloads decodes a batch of EncodeChunk payloads against the store's
// schema and adopts each as a bucket (AdoptEncoded). It returns the cells of
// the payloads it adopted — when it fails part way, those before the failure,
// which stay in the store.
func (s *Store) AdoptPayloads(payloads [][]byte) (int64, error) {
	var cells int64
	for _, p := range payloads {
		ch, err := DecodeChunk(s.schema, p)
		if err != nil {
			return cells, err
		}
		if err := s.AdoptEncoded(p, ch); err != nil {
			return cells, err
		}
		cells += ch.CellsPresent()
	}
	return cells, nil
}
