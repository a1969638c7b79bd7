package storage

import (
	"errors"
	"sort"

	"scidb/internal/array"
)

// This file is the store's one read path for ranges: a chunk-at-a-time
// scan. Every range reader — the cell adapters Scan and ScanPruned below,
// the cluster worker's read (its folds, and the cells it ships, a migrating
// chunk's copy among them), the planner's store materialization — consumes
// whole decoded chunks plus a mask of the slots it may read, so the per-cell
// costs of a scan (boxing a cell, keying its coordinate, a "seen" set for
// shadowing) exist only in the adapters that still promise cells.

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
	// Alone reports that this is the scan's one source at its chunk origin:
	// a consumer assembling output on the same grid may take the chunk
	// whole, because nothing else will contribute to its cells.
	Alone bool
	// Release unpins the chunk. The consumer may hold several deliveries
	// at once (to fan them out on a worker pool) but must release each
	// before closing the scan.
	Release func()
}

// scanSrc is one chunk a scan will deliver: a memory-buffer chunk or a
// bucket, with the versions of its chunk that decide its live mask.
type scanSrc struct {
	key  string       // the chunk origin's Coord.Key
	clip array.Box    // the chunk's part inside the query
	meta *bucketMeta  // nil for a memory-buffer chunk
	mem  *array.Chunk // set for a memory-buffer chunk
	ord  int          // index among the scan's buckets (prefetch order)
	// newer lists the earlier-delivered sources at the same origin: newer
	// versions of the chunk, each of the same box. shadows marks a source
	// some later one lists, whose presence bitmap is therefore kept after its
	// pin is released.
	newer   []int
	shadows bool
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
// read ahead into the pool. Newest-write-wins is resolved between the
// versions of one chunk origin, the only chunks that can overlap: an older
// version's mask loses the slots a newer one has present, so a chunk with
// one version — the common case — costs no shadow bookkeeping at all.
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
		if clip, ok := ch.Box().Intersect(q); ok && ch.CellsPresent() > 0 {
			cs.srcs = append(cs.srcs, scanSrc{key: ch.Origin.Key(), clip: clip, mem: ch})
		}
	}
	var live []*bucketMeta
	for _, m := range s.searchMetasLocked(q) {
		if prunable(m, preds, s.index[m.key]) {
			cs.skipped++
			continue
		}
		clip, _ := m.box.Intersect(q)
		cs.srcs = append(cs.srcs, scanSrc{key: m.key, clip: clip, meta: m, ord: len(live)})
		live = append(live, m)
	}
	if len(preds) > 0 {
		s.stats.chunksSkipped.Add(cs.skipped)
		s.stats.chunksVisited.Add(int64(len(live)))
	}
	if len(cs.srcs) > 1 {
		at := make(map[string][]int, len(cs.srcs)) // origin -> its sources so far
		for i := range cs.srcs {
			src := &cs.srcs[i]
			src.newer = at[src.key]
			for _, j := range src.newer {
				cs.srcs[j].shadows = true
			}
			at[src.key] = append(src.newer, i)
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
	// Every version at an origin is the chunk of the grid there, so a newer
	// one shadows the slots its presence bitmap marks, a word at a time.
	live := ch.MaskIn(src.clip)
	if len(src.newer) > 0 {
		if live == ch.Present {
			live = live.Clone()
		}
		for _, j := range src.newer {
			live.AndNot(cs.srcs[j].present)
		}
	}
	if src.shadows {
		src.present = ch.Present
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

// searchMetasLocked collects the buckets intersecting q, newest first. It
// looks up the grid cells q covers when they are fewer than the indexed
// origins — a point is one lookup — and walks the index otherwise.
func (s *Store) searchMetasLocked(q array.Box) []*bucketMeta {
	var metas []*bucketMeta
	visit := func(vs []*bucketMeta) {
		for _, m := range vs {
			if m.box.Intersects(q) {
				metas = append(metas, m)
			}
		}
	}
	if !s.eachGridCell(q, len(s.index), func(origin array.Coord) { visit(s.index[origin.Key()]) }) {
		for _, vs := range s.index {
			visit(vs)
		}
	}
	sort.Slice(metas, func(i, j int) bool { return metas[i].id > metas[j].id })
	return metas
}

// eachGridCell calls fn with the origin of every grid cell q touches inside
// the schema's bounds (the Coord is reused) and reports true — unless there
// are limit or more of them, when it calls nothing and reports false.
func (s *Store) eachGridCell(q array.Box, limit int, fn func(array.Coord)) bool {
	dims := s.schema.Dims
	if len(q.Lo) != len(dims) || len(q.Hi) != len(dims) {
		return false
	}
	lo, hi := make(array.Coord, len(dims)), make(array.Coord, len(dims))
	cells := int64(1)
	for i, d := range dims {
		cl := d.GridLen()
		lo[i], hi[i] = max(q.Lo[i], 1), q.Hi[i]
		if d.Bounded() {
			hi[i] = min(hi[i], d.High)
		}
		if lo[i] > hi[i] {
			return true // q holds no cell
		}
		lo[i] = (lo[i]-1)/cl*cl + 1
		n := (hi[i]-lo[i])/cl + 1
		if n >= int64(limit) || cells*n >= int64(limit) {
			return false
		}
		cells *= n
	}
	c := lo.Clone()
	for {
		fn(c)
		d := len(c) - 1
		for ; d >= 0; d-- {
			if c[d] += dims[d].GridLen(); c[d] <= hi[d] {
				break
			}
			c[d] = lo[d]
		}
		if d < 0 {
			return true
		}
	}
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
