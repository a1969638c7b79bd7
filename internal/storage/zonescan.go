package storage

import "scidb/internal/array"

// This file implements zone-map pruning for chunk scans: ScanChunks consults
// the per-bucket zone maps captured at encode time and skips buckets whose
// value ranges prove that no cell can satisfy the caller's predicates.
// Skipped buckets are never read from disk or decoded — the I/O-level
// half of compressed execution (§2.8's "amenable to dramatic compression"
// turned into avoided reads).

// prunable reports whether bucket m can be skipped for preds: its zone
// maps must prove no cell matches, and skipping must not unshadow older
// data. In Scan semantics a newer bucket's cells shadow older buckets'
// cells at the same coordinate; dropping m would let an older overlapping
// bucket's (possibly matching) cells through where the full scan would
// have delivered m's non-matching ones. m is therefore only prunable when
// no older candidate bucket overlaps m's box inside the query.
func prunable(m *bucketMeta, q array.Box, preds []array.ZonePred, metas []*bucketMeta) bool {
	if len(preds) == 0 || m.zones == nil {
		return false
	}
	if array.CanMatchAll(m.zones, preds) {
		return false
	}
	minter, ok := m.box.Intersect(q)
	if !ok {
		return true // nothing inside the query anyway
	}
	for _, o := range metas {
		if o.id >= m.id {
			continue
		}
		if _, overlap := o.box.Intersect(minter); overlap {
			return false
		}
	}
	return true
}

// ZoneSummary returns the merged zone maps across every bucket
// intersecting q (element-wise union), or nil when no bucket carries
// zones. Planners use it to estimate selectivity without any I/O.
func (s *Store) ZoneSummary(q array.Box) []*array.ZoneMap {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []*array.ZoneMap
	for _, m := range s.searchMetasLocked(q) {
		if m.zones == nil {
			continue
		}
		if out == nil {
			out = make([]*array.ZoneMap, len(m.zones))
			for i, z := range m.zones {
				out[i] = z.Clone()
			}
			continue
		}
		for i := range out {
			if i < len(m.zones) {
				out[i] = out[i].Union(m.zones[i])
			}
		}
	}
	return out
}

// EstimateSkip reports how many buckets intersecting q a pruned scan
// with preds would skip versus visit, using only in-memory metadata.
// The cost model uses it to decide whether the pruned path is worth
// taking before issuing any reads.
func (s *Store) EstimateSkip(q array.Box, preds []array.ZonePred) (skip, visit int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	metas := s.searchMetasLocked(q)
	for _, m := range metas {
		if prunable(m, q, preds, metas) {
			skip++
		} else {
			visit++
		}
	}
	return skip, visit
}
