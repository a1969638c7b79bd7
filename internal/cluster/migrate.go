package cluster

// Worker-side halves of online rebalancing (live migration and hot-chunk
// replication). Three wire ops:
//
//	"heat"          — report the node's decayed per-chunk access scores.
//	"migratechunks" — export a chunk-box region of a store-backed partition
//	                  as encoded chunk payloads (the migration wire unit);
//	                  with Release set, skip the export and just drop the
//	                  region's buffer-pool entries and buffered cells
//	                  (post-cutover source release).
//	"replicachunk"  — adopt exported payloads verbatim into the local store
//	                  (storage.AdoptEncoded: the copy is bit-identical) and
//	                  remember the routing-table version it belongs to.
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
// box. Only store-backed partitions migrate — they are the ones with
// bucket-grained placement worth moving.
func (w *Worker) migrateChunks(req *Message) (*Message, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	st, ok := w.stores[req.Array]
	if !ok {
		return nil, fmt.Errorf("cluster: node %d: migratechunks needs a store-backed partition %q", w.ID, req.Array)
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
		st.ReleaseRegion(box)
		st.ClearRegion(box)
		return &Message{Op: "migratechunks"}, nil
	}
	payloads, cells, err := st.ExportRegion(box)
	if err != nil {
		return nil, err
	}
	var bytes int64
	for _, p := range payloads {
		bytes += int64(len(p))
	}
	w.stats.bytesOut.Add(bytes)
	return &Message{Op: "migratechunks", Chunks: payloads, Cells: cells}, nil
}

// replicaChunk adopts exported chunk payloads verbatim as local buckets.
func (w *Worker) replicaChunk(req *Message) (*Message, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	st, ok := w.stores[req.Array]
	if !ok {
		return nil, fmt.Errorf("cluster: node %d: replicachunk needs a store-backed partition %q", w.ID, req.Array)
	}
	// The payloads are the region's canonical newest state (the
	// coordinator's write fence flushed and folded every live write before
	// exporting). Clear any buffered cells left over from an earlier
	// ownership stint first — the memory buffer outranks every bucket on
	// reads, so a stale cell would shadow the adopted copy; the request box
	// covers sub-chunks the canonical copy holds no cells for.
	if len(req.BoxLo) > 0 {
		st.ClearRegion(array.Box{Lo: req.BoxLo, Hi: req.BoxHi})
	}
	var cells, bytesIn int64
	for _, payload := range req.Chunks {
		ch, err := storage.DecodeChunk(st.Schema(), payload)
		if err != nil {
			return nil, err
		}
		if len(req.BoxLo) == 0 {
			st.ClearRegion(ch.Box())
		}
		if err := st.AdoptEncoded(payload, ch); err != nil {
			return nil, err
		}
		cells += ch.CellsPresent()
		bytesIn += int64(len(payload))
	}
	if w.routeVersion == nil {
		w.routeVersion = map[string]int64{}
	}
	if req.RouteVersion > w.routeVersion[req.Array] {
		w.routeVersion[req.Array] = req.RouteVersion
	}
	w.stats.cellsHeld.Add(cells)
	w.stats.bytesIn.Add(bytesIn)
	return &Message{Op: "replicachunk", Cells: cells, RouteVersion: w.routeVersion[req.Array]}, nil
}

// RouteVersion returns the newest routing-table version a replicachunk
// install on this node has carried for the named array (0 = none).
func (w *Worker) RouteVersion(name string) int64 {
	w.mu.RLock()
	defer w.mu.RUnlock()
	return w.routeVersion[name]
}
