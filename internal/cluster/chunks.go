package cluster

// The worker's chunk-at-a-time read path. read — whichever sink its fragment
// asks for — pulls (chunk, live-slot mask) pairs from the partition's store
// scan, and works on typed columns under the mask (a fold through ops.Fold, the one aggregation engine).
// Nothing here boxes a cell, keys a coordinate, or allocates per cell.

import (
	"context"

	"scidb/internal/array"
	"scidb/internal/exec"
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
