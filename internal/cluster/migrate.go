package cluster

// Worker-side halves of online rebalancing (live migration and hot-chunk
// replication). Two wire ops of their own:
//
//	"heat"          — report the node's decayed per-chunk access scores.
//	"migratechunks" — export a chunk-box region of a partition's store as
//	                  encoded chunk payloads (the migration wire unit);
//	                  with Release set, skip the export and just drop the
//	                  region's buffer-pool entries and buffered cells
//	                  (post-cutover source release).
//
// The target installs the exported payloads with the loader's "loadchunks"
// (Worker.loadChunks, insitu.go), which adopts them verbatim — the copy is
// bit-identical — and remembers the routing-table version it belongs to.
//
// The source never deletes its on-disk buckets: after cutover the routing
// table permanently excludes the stale copy from queries, so deletion is
// pure space reclamation and can wait for a future compaction. What must
// not wait is pool budget — Release frees it immediately.

import (
	"fmt"

	"scidb/internal/array"
	"scidb/internal/storage"
)

// heatOp reports the node's chunk heat snapshot.
func (w *Worker) heatOp(req *Message) (*Message, error) {
	return &Message{Op: "heat", Heat: w.heat.Snapshot()}, nil
}

// migrateChunks exports the encoded chunks of req.Array inside the request
// box.
func (w *Worker) migrateChunks(req *Message) (*Message, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	st, err := w.storeLocked(req.Array)
	if err != nil {
		return nil, err
	}
	if len(req.BoxLo) == 0 {
		return nil, fmt.Errorf("cluster: migratechunks without a chunk box")
	}
	box := array.Box{Lo: req.BoxLo, Hi: req.BoxHi}
	if req.Release {
		// Post-cutover source release: pool entries go immediately, and any
		// cells still sitting in the memory buffer are cleared so a later
		// spill cannot resurrect route-excluded data as a newest bucket.
		// The caller discards payloads on this path, so skip the export —
		// re-encoding a just-migrated (recently hot) region only to throw
		// it away is pure wasted CPU on the source.
		if _, err := st.Apply(storage.Batch{Clear: box}); err != nil {
			return nil, err
		}
		return &Message{Op: "migratechunks"}, nil
	}
	payloads, cells, err := st.ExportRegion(box)
	if err != nil {
		return nil, err
	}
	w.stats.bytesOut.Add(payloadBytes(payloads))
	return &Message{Op: "migratechunks", Chunks: payloads, Cells: cells}, nil
}

// RouteVersion returns the newest routing-table version a loadchunks
// install on this node has carried for the named array (0 = none).
func (w *Worker) RouteVersion(name string) int64 {
	w.mu.RLock()
	defer w.mu.RUnlock()
	return w.routeVersion[name]
}
