package cluster

// The worker's chunk-at-a-time read path. Every read op — agg, scan, count,
// and the materialization behind sjoin — pulls (chunk, live-slot mask) pairs
// from one chunkSource, whichever of the three backings holds the partition,
// and folds typed columns under the mask. Nothing here boxes a cell, keys a
// coordinate, or allocates per cell.

import (
	"context"
	"math"
	"math/bits"
	"sort"

	"scidb/internal/array"
	"scidb/internal/exec"
	"scidb/internal/ops"
	"scidb/internal/storage"
)

// chunkSource is an open chunk-at-a-time read of one partition over a box:
// Next delivers chunks with their live masks (storage.LiveChunk's contract),
// Skipped counts buckets pruned by zone map, and Close ends the read. A
// *storage.ChunkScan is one; array- and file-backed partitions get the two
// small sources below.
type chunkSource interface {
	Next() (storage.LiveChunk, bool, error)
	Skipped() int64
	Close()
}

// arraySource reads a plain in-memory partition: its grid chunks are
// disjoint, so each is delivered alone and only the box can trim it.
type arraySource struct {
	chunks []*array.Chunk
	box    array.Box
}

func (s *arraySource) Next() (storage.LiveChunk, bool, error) {
	for len(s.chunks) > 0 {
		ch := s.chunks[0]
		s.chunks = s.chunks[1:]
		if ch.Box().Intersects(s.box) {
			return storage.LiveChunk{Chunk: ch, Live: ch.MaskIn(s.box), Alone: true, Release: func() {}}, true, nil
		}
	}
	return storage.LiveChunk{}, false, nil
}

func (s *arraySource) Skipped() int64 { return 0 }
func (s *arraySource) Close()         {}

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

// chunkAgg is one chunk's share of an aggregate: the cells it visited and
// its per-group partials in key order.
type chunkAgg struct {
	cells int64
	parts []Partial
}

// aggChunk folds one chunk's live cells of column attr into per-group
// partials. Groups are indexed densely by the chunk-local coordinates of
// the grouping dimensions gidx, so the inner loop is an array index, not a
// map lookup; only groups that hold a live cell are emitted.
func aggChunk(ch *array.Chunk, live *array.Bitmap, attr int, gidx []int) chunkAgg {
	out := chunkAgg{cells: live.Count()}
	if out.cells == 0 {
		return out
	}
	// gstride[k] is the dense-index stride of grouping dimension k.
	gstride := make([]int64, len(gidx))
	groups := int64(1)
	for k := len(gidx) - 1; k >= 0; k-- {
		gstride[k] = groups
		groups *= ch.Shape[gidx[k]]
	}
	accs := make([]Partial, groups)
	for g := range accs {
		accs[g].Min, accs[g].Max = math.Inf(1), math.Inf(-1)
	}
	col := ch.Cols[attr]
	ints, floats := col.Ints, col.Floats
	if ints == nil && floats == nil {
		// Non-numeric column: only its non-null count is meaningful; the
		// values fold as Value.AsFloat gives them.
		floats = make([]float64, ch.Slots())
		for i := live.NextSet(0); i < ch.Slots(); i = live.NextSet(i + 1) {
			floats[i] = col.Get(i).AsFloat()
		}
	}
	fold := func(start, n, g, gstep int64) {
		if ints != nil {
			foldRun(ints, accs, live.Words(), col.Nulls.Words(), start, n, g, gstep)
		} else {
			foldRun(floats, accs, live.Words(), col.Nulls.Words(), start, n, g, gstep)
		}
	}
	last := len(ch.Shape) - 1
	if len(gidx) == 0 {
		fold(0, ch.Slots(), 0, 0)
	} else {
		ch.Rows(ch.Box(), func(start, n int64, c array.Coord) {
			var g, gstep int64
			for k, d := range gidx {
				if d == last {
					gstep += gstride[k]
				}
				g += (c[d] - ch.Origin[d]) * gstride[k]
			}
			fold(start, n, g, gstep)
		})
	}
	// A group whose live cells are all NULL folded nothing yet exists: the
	// local Aggregate gives it a row (NULL sum, zero count), so it is emitted
	// with Count 0. Finding those takes a pass over the NULL cells only.
	var nullOnly []bool
	lw, nw := live.Words(), col.Nulls.Words()
	for wi := range lw {
		for m := lw[wi] & nw[wi]; m != 0; m &= m - 1 {
			rest, g := int64(wi)<<6+int64(bits.TrailingZeros64(m)), int64(0)
			for d := last; d >= 0; d-- {
				for k, gd := range gidx {
					if gd == d {
						g += rest % ch.Shape[d] * gstride[k]
					}
				}
				rest /= ch.Shape[d]
			}
			if nullOnly == nil {
				nullOnly = make([]bool, groups)
			}
			nullOnly[g] = true
		}
	}
	for g := range accs {
		if accs[g].Count == 0 && (nullOnly == nil || !nullOnly[g]) {
			continue
		}
		key := make([]int64, len(gidx))
		for k, d := range gidx {
			key[k] = ch.Origin[d] + int64(g)/gstride[k]%ch.Shape[d]
		}
		accs[g].Key = key
		out.parts = append(out.parts, accs[g])
	}
	return out
}

// foldRun accumulates slots [start, start+n) of the column vector vals —
// those set in live and clear in nulls — into accs, slot start+j going to
// accs[g+j*gstep].
func foldRun[T int64 | float64](vals []T, accs []Partial, live, nulls []uint64, start, n, g, gstep int64) {
	for i := start; i < start+n; i++ {
		w := (live[i>>6] &^ nulls[i>>6]) >> uint(i&63)
		if w&1 == 0 {
			if w == 0 {
				i |= 63 // nothing left in this word
			}
			continue
		}
		x := float64(vals[i])
		p := &accs[g+(i-start)*gstep]
		p.Sum += x
		p.SumSq += x * x
		p.Count++
		if x < p.Min {
			p.Min = x
		}
		if x > p.Max {
			p.Max = x
		}
	}
}

// mergePartials folds lists of partials into one partial per group key, in
// key order. Partials of one group are folded in list order (the sort is
// stable), so the floating-point result depends only on the order of the
// lists — chunk delivery order on a worker, node order on the coordinator.
func mergePartials(lists ...[]Partial) []Partial {
	var all []Partial
	for _, l := range lists {
		all = append(all, l...)
	}
	sort.SliceStable(all, func(i, j int) bool { return keyCompare(all[i].Key, all[j].Key) < 0 })
	out := all[:0]
	for _, p := range all {
		if n := len(out); n > 0 && keyCompare(out[n-1].Key, p.Key) == 0 {
			out[n-1].merge(p)
		} else {
			out = append(out, p)
		}
	}
	return out
}

// keyCompare orders group keys lexicographically.
func keyCompare(a, b []int64) int {
	for i := range a {
		if i >= len(b) {
			return 1
		}
		if a[i] != b[i] {
			if a[i] < b[i] {
				return -1
			}
			return 1
		}
	}
	if len(a) < len(b) {
		return -1
	}
	return 0
}
