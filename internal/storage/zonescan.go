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
