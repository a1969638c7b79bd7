package cluster

// The worker's chunk-at-a-time read path. read — whichever sink its fragment
// asks for — and the materialization behind sjoin pull (chunk, live-slot
// mask) pairs from one chunkSource, whether a store or an in-situ file holds
// the partition, and work on typed columns under the mask (a fold through
// ops.Fold, the one aggregation engine). Nothing here boxes a cell, keys a
// coordinate, or allocates per cell.

import (
	"context"

	"scidb/internal/array"
	"scidb/internal/exec"
	"scidb/internal/ops"
	"scidb/internal/storage"
)

// chunkSource is an open chunk-at-a-time read of one partition over a box:
// Next delivers chunks with their live masks (storage.LiveChunk's contract),
// Skipped counts buckets pruned by zone map, and Close ends the read. A
// *storage.ChunkScan is one; a file-backed partition gets the small source
// below.
type chunkSource interface {
	Next() (storage.LiveChunk, bool, error)
	Skipped() int64
	Close()
}

// insituSource reads a file-backed partition: an odometer over the grid
// origins covering the box, each chunk materialized (or fetched from the
// pool) on demand.
type insituSource struct {
	w      *Worker
	p      *insituPart
	q      array.Box   // the part's slab ∩ the query box
	first  array.Coord // grid origin of q.Lo, where each dimension restarts
	origin array.Coord // next grid origin; nil when exhausted
}

func (w *Worker) newInsituSource(p *insituPart, box array.Box) *insituSource {
	s := &insituSource{w: w, p: p}
	if !p.empty {
		if q, ok := p.box.Intersect(box); ok {
			s.q, s.first, s.origin = q, p.gridOrigin(q.Lo), p.gridOrigin(q.Lo)
		}
	}
	return s
}

func (s *insituSource) Next() (storage.LiveChunk, bool, error) {
	for s.origin != nil {
		ch, release, err := s.p.chunkAt(s.w, s.origin)
		if err != nil {
			return storage.LiveChunk{}, false, err
		}
		// Advance the odometer, last dimension fastest.
		d := len(s.origin) - 1
		for ; d >= 0; d-- {
			s.origin[d] += s.p.stride[d]
			if s.origin[d] <= s.q.Hi[d] {
				break
			}
			s.origin[d] = s.first[d]
		}
		if d < 0 {
			s.origin = nil
		}
		if ch.CellsPresent() > 0 {
			return storage.LiveChunk{Chunk: ch, Live: ch.MaskIn(s.q), Alone: true, Release: release}, true, nil
		}
		release()
	}
	return storage.LiveChunk{}, false, nil
}

func (s *insituSource) Skipped() int64 { return 0 }
func (s *insituSource) Close()         {}

// foldChunks drains src, running fn over its chunks on the exec pool: it
// pulls a window of chunks (the pool's width), maps fn over the window,
// releases the pins, and repeats, so at most that many chunks are pinned at
// once and the source's own readahead keeps working ahead of the window.
// Results come back in delivery order, whatever the parallelism — callers
// that merge them in that order get the same float fold at parallelism 1
// and N. src is closed on return. The pool runs under a background context:
// worker ops are not cancellable, and its scheduling counters stay out of
// the request's span, whose size is part of a traced response.
func foldChunks[T any](src chunkSource, fn func(storage.LiveChunk) (T, error)) ([]T, error) {
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

// withoutUnmatched returns live minus the slots whose cell fails any of
// preds, with withoutExcluded's copy-on-first-clear contract.
func withoutUnmatched(ch *array.Chunk, live *array.Bitmap, preds []array.ZonePred, s *array.Schema) *array.Bitmap {
	if len(preds) == 0 {
		return live
	}
	match := ops.PredMatcher(preds, s, ch)
	out := live
	for i := live.NextSet(0); i < ch.Slots(); i = live.NextSet(i + 1) {
		if match(i) {
			continue
		}
		if out == live {
			out = live.Clone()
		}
		out.Clear(i)
	}
	return out
}
