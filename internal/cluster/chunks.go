package cluster

// The worker's chunk-at-a-time read path. read — whichever sink its fragment
// asks for — pulls (chunk, live-slot mask) pairs from the partition's store
// scan, and works on typed columns under the mask (a fold through ops.Fold, the one aggregation engine).
// Nothing here boxes a cell, keys a coordinate, or allocates per cell.

import (
	"context"
	"fmt"

	"scidb/internal/array"
	"scidb/internal/exec"
	"scidb/internal/ops"
	"scidb/internal/storage"
)

// foldChunks drains src, running fn over its chunks on the exec pool: it
// pulls a window of chunks (the pool's width), maps fn over the window,
// releases the pins, and repeats, so at most that many chunks are pinned at
// once and the scan's own readahead keeps working ahead of the window.
// Results come back in delivery order, whatever the parallelism — callers
// that merge them in that order get the same float fold at parallelism 1
// and N. src is closed on return. The pool runs under a background context:
// worker ops are not cancellable, and its scheduling counters stay out of
// the request's span, whose size is part of a traced response.
func foldChunks[T any](src *storage.ChunkScan, fn func(storage.LiveChunk) (T, error)) ([]T, error) {
	defer src.Close()
	pool := exec.Default()
	window := make([]storage.LiveChunk, 0, pool.Parallelism())
	var out []T
	for {
		window = window[:0]
		var err error
		for len(window) < cap(window) && err == nil {
			var lc storage.LiveChunk
			var ok bool
			if lc, ok, err = src.Next(); !ok {
				break
			}
			window = append(window, lc)
		}
		base := len(out)
		out = append(out, make([]T, len(window))...)
		if err == nil {
			err = pool.Map(context.Background(), len(window), func(i int) error {
				var ferr error
				out[base+i], ferr = fn(window[i])
				return ferr
			})
		}
		for _, lc := range window {
			lc.Release()
		}
		pool.NoteChunks(int64(len(window)))
		if err != nil {
			return nil, err
		}
		if len(window) < cap(window) {
			return out, nil
		}
	}
}

// withoutExcluded returns live minus the slots inside any exclude box
// (chunks another replica answers this query). live is never modified: the
// result is live itself when no exclusion touches the chunk, else a copy.
func withoutExcluded(ch *array.Chunk, live *array.Bitmap, excl []array.Box) *array.Bitmap {
	own := false
	box := ch.Box()
	for _, b := range excl {
		if !box.Intersects(b) {
			continue
		}
		if !own {
			live, own = live.Clone(), true
		}
		ch.ClearBox(live, b)
	}
	return live
}

// joinLocked answers a "read" that names a right-hand array (req.Join): the
// join of the node's two partitions on every dimension in order, under
// ops.PairedSchema, each chunk pair of one origin joined where it lies
// (ops.JoinChunks) and shipped as the sealed joined chunk. The right-hand
// partition is held whole (drainSide) while the left one streams through
// foldChunks a window at a time, each delivery joined with the right chunk
// at its origin and released. A version of a left origin that is not
// Alone joins under its own live mask: the versions' masks are disjoint, so
// their joined chunks are too, and the gather unions them. Both scans are
// open at once, taken in array-name order, since a scan holds its store's
// lock until it closes; a self-join scans once, each delivery joined with
// itself.
func (w *Worker) joinLocked(req *Message) (*Message, error) {
	if len(req.BoxLo) > 0 || len(req.Preds) > 0 || req.Fold != nil || len(req.ExclLo) > 0 {
		return nil, fmt.Errorf("cluster: a join read takes no box, predicates, fold or exclusions")
	}
	lst, err := w.partLocked(req.Array)
	if err != nil {
		return nil, err
	}
	rst, err := w.partLocked(req.Join)
	if err != nil {
		return nil, err
	}
	ls, rs := lst.Schema(), rst.Schema()
	for d := range ls.Dims {
		if d >= len(rs.Dims) || ls.Dims[d].High != rs.Dims[d].High || ls.Dims[d].GridLen() != rs.Dims[d].GridLen() {
			return nil, fmt.Errorf("cluster: %q and %q are not on one grid", req.Array, req.Join)
		}
	}
	out, err := ops.PairedSchema(ls, rs)
	if err != nil {
		return nil, err
	}
	whole := func(st *storage.Store) *storage.ChunkScan {
		return st.ScanChunks(array.WholeBox(st.Schema()), nil, nil)
	}
	resp := &Message{Op: "read"}
	var parts []joinedPart
	if lst == rst {
		parts, err = foldChunks(whole(lst), func(lc storage.LiveChunk) (joinedPart, error) {
			return joinPart(out, lc.Chunk, lc.Live, lc.Chunk, lc.Live)
		})
	} else {
		var lscan, rscan *storage.ChunkScan
		if req.Join < req.Array {
			rscan, lscan = whole(rst), whole(lst)
		} else {
			lscan, rscan = whole(lst), whole(rst)
		}
		r, release, derr := drainSide(rscan, rs, &resp.Seen)
		defer rscan.Close()
		defer release()
		if derr != nil {
			lscan.Close()
			return nil, derr
		}
		parts, err = foldChunks(lscan, func(lc storage.LiveChunk) (joinedPart, error) {
			b, ok := r.ChunkAt(lc.Chunk.Origin)
			if !ok {
				return joinedPart{seen: lc.Live.Count()}, nil
			}
			return joinPart(out, lc.Chunk, lc.Live, b, b.Present)
		})
	}
	if err != nil {
		return nil, err
	}
	for _, p := range parts {
		resp.Seen += p.seen
		if p.payload != nil {
			resp.Chunks = append(resp.Chunks, p.payload)
			resp.Cells += p.cells
		}
	}
	w.stats.cellsScanned.Add(resp.Seen)
	w.stats.bytesOut.Add(payloadBytes(resp.Chunks))
	return resp, nil
}

// joinedPart is one left delivery's share of a join read: the encoded
// joined chunk (nil if no slot joined), its cells, and the live cells the
// delivery held.
type joinedPart struct {
	payload     []byte
	cells, seen int64
}

// joinPart joins a, live at aLive, with b, live at bLive, the chunk of the
// same origin, and encodes the joined chunk under out.
func joinPart(out *array.Schema, a *array.Chunk, aLive *array.Bitmap, b *array.Chunk, bLive *array.Bitmap) (p joinedPart, err error) {
	p.seen = aLive.Count()
	if ch := ops.JoinChunks(out, a, aLive, b, bLive); ch != nil {
		p.cells = ch.CellsPresent()
		p.payload, err = storage.EncodeChunk(out, ch)
	}
	return p, err
}

// drainSide reads all of cs, a scan of a whole partition, into an array
// under s, its store's schema, counting the live cells into seen: a chunk
// that is its origin's one version, live in full, as the scan delivered it,
// pinned until the caller runs release; the versions of any other origin
// unioned by MergeChunk, as readLocked does. release is never nil, and must
// run before cs closes.
func drainSide(cs *storage.ChunkScan, s *array.Schema, seen *int64) (side *array.Array, release func(), err error) {
	var pins []func()
	release = func() {
		for _, unpin := range pins {
			unpin()
		}
	}
	side, err = array.New(s.Clone())
	for err == nil {
		lc, ok, nerr := cs.Next()
		if nerr != nil || !ok {
			return side, release, nerr
		}
		*seen += lc.Live.Count()
		if lc.Alone && lc.Live == lc.Chunk.Present {
			side.PutChunk(lc.Chunk)
			pins = append(pins, lc.Release)
			continue
		}
		err = side.MergeChunk(lc.Chunk.Select(lc.Live))
		lc.Release()
	}
	return side, release, err
}
