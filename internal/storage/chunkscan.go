package storage

import (
	"errors"
	"sort"

	"scidb/internal/array"
	"scidb/internal/rtree"
)

// This file is the store's one read path for ranges: a chunk-at-a-time
// scan. Every range reader — the cell adapters Scan and ScanPruned below,
// region export, the cluster worker's aggregate/scan/count kernels, the
// planner's store materialization — consumes whole decoded chunks plus a
// mask of the slots it may read, so the per-cell costs of a scan (boxing a
// cell, keying its coordinate, a "seen" set for shadowing) exist only in
// the adapters that still promise cells.

// LiveChunk is one delivery of a chunk scan: a decoded chunk and the mask
// of its live slots — present, inside the query box, and not shadowed by a
// newer write. The chunk is assembled from shared buffer-pool sections (or
// is a memory-buffer chunk) and must be treated as read-only; it stays
// pinned until Release.
type LiveChunk struct {
	// Chunk's columns outside the scan's projection are nil.
	Chunk *array.Chunk
	// Live is Chunk.Present itself (same pointer, nothing allocated) when
	// the chunk lies wholly inside the query box and nothing shadows it.
	Live *array.Bitmap
	// Alone reports that no other chunk of this scan overlaps this one's
	// region: a consumer assembling output on the same grid may take the
	// chunk whole, because nothing else will contribute to its cells.
	Alone bool
	// Release unpins the chunk. The consumer may hold several deliveries
	// at once (to fan them out on a worker pool) but must release each
	// before closing the scan.
	Release func()
}

// scanSrc is one chunk a scan will deliver: a memory-buffer chunk or a
// bucket, with the overlap structure that decides its live mask.
type scanSrc struct {
	box, clip array.Box    // the chunk's box, and its part inside the query
	meta      *bucketMeta  // nil for a memory-buffer chunk
	mem       *array.Chunk // set for a memory-buffer chunk
	ord       int          // index among the scan's buckets (prefetch order)
	// newer lists the earlier-delivered sources overlapping clip; shadows
	// marks a source some later one overlaps, whose presence bitmap is
	// therefore kept (origin/shape/present) after its pin is released.
	newer   []int
	shadows bool
	origin  array.Coord
	shape   []int64
	present *array.Bitmap
}

// ChunkScan is an open chunk scan: a cursor over the chunks intersecting a
// box, newest first. It holds the store lock from ScanChunks to Close, which
// freezes the bucket index and the memory buffer for the scan's duration
// (and lets the readahead pipeline run lock-free beside it), so a scan must
// be closed, and must not call back into the store.
type ChunkScan struct {
	s       *Store
	attrs   []int
	srcs    []scanSrc
	next    int
	pf      *prefetcher
	skipped int64
}

// ScanChunks opens a chunk scan over q. Sources are delivered newest first:
// memory-buffer chunks, then buckets by descending id, with upcoming buckets
// read ahead into the pool. Newest-write-wins is resolved per chunk, and
// only where chunks actually overlap: an older chunk's mask loses the slots
// a newer overlapping chunk has present, so disjoint data — the common
// case — costs no shadow bookkeeping at all.
//
// Non-empty preds prune buckets whose zone maps prove no cell can satisfy
// every predicate, when that is shadow-safe (see prunable); pruned buckets
// are never read. Surviving chunks are not filtered — pruning only removes
// cells guaranteed not to match. Memory-buffer chunks carry no zone maps
// and are always delivered.
//
// attrs is the projection: the attribute indexes the consumer will read,
// nil for all of them (an empty non-nil slice reads presence alone). Only
// those columns are read from disk, inflated, decoded and pinned; the
// delivered chunks have nil for the rest.
func (s *Store) ScanChunks(q array.Box, preds []array.ZonePred, attrs []int) *ChunkScan {
	s.mu.Lock()
	cs := &ChunkScan{s: s, attrs: attrs}
	for _, ch := range s.mem.Chunks() {
		box := ch.Box()
		if clip, ok := box.Intersect(q); ok && ch.CellsPresent() > 0 {
			cs.srcs = append(cs.srcs, scanSrc{box: box, clip: clip, mem: ch})
		}
	}
	metas := s.searchMetasLocked(q)
	var live []*bucketMeta
	for _, m := range metas {
		clip, ok := m.box.Intersect(q)
		if !ok {
			continue
		}
		if prunable(m, q, preds, metas) {
			cs.skipped++
			continue
		}
		cs.srcs = append(cs.srcs, scanSrc{box: m.box, clip: clip, meta: m, ord: len(live)})
		live = append(live, m)
	}
	if len(preds) > 0 {
		s.stats.chunksSkipped.Add(cs.skipped)
		s.stats.chunksVisited.Add(int64(len(live)))
	}
	for i := range cs.srcs {
		for j := 0; j < i; j++ {
			if cs.srcs[j].box.Intersects(cs.srcs[i].clip) {
				cs.srcs[i].newer = append(cs.srcs[i].newer, j)
				cs.srcs[j].shadows = true
			}
		}
	}
	// Readahead: load upcoming buckets (in the scan's consumption order,
	// at its projection) while the consumer works on the current one, so
	// disk read + decode overlap its compute.
	cs.pf = s.newPrefetcher(live, attrs)
	return cs
}

// Next delivers the scan's next chunk; ok is false when it is exhausted.
func (cs *ChunkScan) Next() (lc LiveChunk, ok bool, err error) {
	if cs.next >= len(cs.srcs) {
		return LiveChunk{}, false, nil
	}
	src := &cs.srcs[cs.next]
	cs.next++
	ch, release := src.mem, func() {}
	if src.meta == nil {
		ch = projectChunk(ch, cs.attrs)
	} else {
		cs.s.consultLocked(src.meta)
		cs.pf.advance(src.ord)
		// A bucket the readahead already loaded comes with its pin; any
		// other is loaded here. Either way it is read once.
		if p := cs.pf.take(src.ord); p != nil {
			ch, release, err = p.ch, p.release, p.err
		} else {
			ch, release, err = cs.s.pinBucket(src.meta, cs.attrs)
		}
		if err != nil {
			return LiveChunk{}, false, err
		}
	}
	live := ch.MaskIn(src.clip)
	if len(src.newer) > 0 {
		if live == ch.Present {
			live = live.Clone()
		}
		for _, j := range src.newer {
			n := &cs.srcs[j]
			ch.ClearShadowed(live, src.clip, n.origin, n.shape, n.present)
		}
	}
	if src.shadows {
		src.origin, src.shape, src.present = ch.Origin, ch.Shape, ch.Present
	}
	return LiveChunk{Chunk: ch, Live: live, Alone: len(src.newer) == 0 && !src.shadows, Release: release}, true, nil
}

// projectChunk returns ch with the columns outside attrs (nil: keep all)
// dropped, sharing everything it keeps.
func projectChunk(ch *array.Chunk, attrs []int) *array.Chunk {
	if attrs == nil {
		return ch
	}
	out := &array.Chunk{Origin: ch.Origin, Shape: ch.Shape, Present: ch.Present, Cols: make([]*array.Column, len(ch.Cols))}
	for _, a := range attrs {
		out.Cols[a] = ch.Cols[a]
	}
	return out
}

// Skipped returns the number of buckets the zone maps pruned.
func (cs *ChunkScan) Skipped() int64 { return cs.skipped }

// Close ends the scan: in-flight readahead is waited out (its pins dropped
// and charged as wasted if the scan stopped early) and the store lock is
// released.
func (cs *ChunkScan) Close() {
	cs.pf.stop()
	cs.s.mu.Unlock()
}

// Each hands every remaining chunk to fn in turn, releasing it when fn
// returns, and closes the scan: the form for consumers that read one chunk
// at a time. It stops at fn's first error and returns it.
func (cs *ChunkScan) Each(fn func(LiveChunk) error) error {
	defer cs.Close()
	for {
		lc, ok, err := cs.Next()
		if err != nil || !ok {
			return err
		}
		err = fn(lc)
		lc.Release()
		if err != nil {
			return err
		}
	}
}

// searchMetasLocked collects the buckets intersecting q, newest first.
func (s *Store) searchMetasLocked(q array.Box) []*bucketMeta {
	var metas []*bucketMeta
	s.rt.Search(q, func(e rtree.Entry) bool {
		metas = append(metas, s.buckets[e.ID])
		return true
	})
	sort.Slice(metas, func(i, j int) bool { return metas[i].id > metas[j].id })
	return metas
}

// Scan calls fn for every stored cell intersecting the box, newest bucket
// winning for duplicated coordinates. Memory-buffer cells win over disk.
// The Coord passed to fn is reused between calls.
func (s *Store) Scan(q array.Box, fn func(array.Coord, array.Cell) bool) error {
	_, err := s.ScanPruned(q, nil, fn)
	return err
}

// ScanPruned is Scan with zone-map bucket pruning (see ScanChunks). Cells
// from surviving buckets are NOT filtered — fn sees them all, so the
// caller must still apply its predicate. Returns the number of buckets
// skipped.
func (s *Store) ScanPruned(q array.Box, preds []array.ZonePred, fn func(array.Coord, array.Cell) bool) (int64, error) {
	cs := s.ScanChunks(q, preds, nil)
	c := make(array.Coord, len(q.Lo))
	err := cs.Each(func(lc LiveChunk) error {
		ch := lc.Chunk
		for i := lc.Live.NextSet(0); i < ch.Slots(); i = lc.Live.NextSet(i + 1) {
			rest := i
			for d := len(c) - 1; d >= 0; d-- {
				c[d] = ch.Origin[d] + rest%ch.Shape[d]
				rest /= ch.Shape[d]
			}
			cell := make(array.Cell, len(ch.Cols))
			for a, col := range ch.Cols {
				cell[a] = col.Get(i)
			}
			if !fn(c, cell) {
				return errStopScan
			}
		}
		return nil
	})
	if err == errStopScan {
		err = nil
	}
	return cs.Skipped(), err
}

// errStopScan carries a cell callback's early stop out of Each.
var errStopScan = errors.New("storage: scan stopped")
