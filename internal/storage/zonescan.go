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
// data. A newer version of a chunk shadows the older versions' cells at the
// same coordinate; dropping m would let an older version's (possibly
// matching) cells through where the full scan would have delivered m's
// non-matching ones. m is therefore only prunable as the oldest of its
// chunk's versions (newest first).
func prunable(m *bucketMeta, preds []array.ZonePred, versions []*bucketMeta) bool {
	if len(preds) == 0 || m.zones == nil || array.CanMatchAll(m.zones, preds) {
		return false
	}
	return versions[len(versions)-1] == m
}
