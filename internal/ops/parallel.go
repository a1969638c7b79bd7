package ops

// Chunk execution: the one body of every operator. The paper's premise
// (§2.4, §2.10) is that array operators are per-chunk kernels over a regular
// chunked layout: each task processes one whole chunk and either writes one
// disjoint output chunk, installed with PutChunk after the barrier — no
// locking on the output — or folds the chunk into a partial accumulator
// table. Operators that are special cases share a kernel: gather
// (structural.go) places input cells by a coordinate map for Subsample,
// Reshape, AddDim, RemoveDim and Concat; join runs Sjoin and, with no
// dimension pairs, CrossProduct; filter runs Filter and Cjoin, a filter over
// the cross product. Apply, Project and Window have a task of their own and
// Aggregate/Regrid run on the fold engine (fold.go).
// exec.Pool.Map schedules the tasks: inline and in index order on the caller
// when the pool's parallelism is 1 or there is a single task, spread over
// recruited workers otherwise. There is no second path to select.
//
// Three invariants make the result independent of that schedule:
//
//   - Input arrays are strictly read-only during a run. Tasks use PeekAt /
//     peeker (never At, whose last-chunk cache mutates) and never call
//     CellsPresent on shared chunks (Bitmap.Count trims in place);
//     liveChunks warms Chunks() and presence counts before the fan-out.
//   - Aggregate/Regrid partials are one table per chunk, merged at the
//     barrier in chunk order whichever worker produced them (fold.go).
//   - Each task compiles its own expression evaluators (compile, expr.go),
//     so no evaluator is shared between workers.
//
// Output schemas pin the effective chunk stride explicitly (dimsWithHwm) so
// per-input-chunk tasks land on the output's own grid.

import (
	"context"

	"scidb/internal/array"
	"scidb/internal/exec"
)

// liveChunks returns a's non-empty chunks in origin order, warming the
// array's lazy caches (sorted chunk list, presence counts) so tasks only
// ever read.
func liveChunks(a *array.Array) []*array.Chunk {
	var work []*array.Chunk
	for _, ch := range a.Chunks() {
		if ch.CellsPresent() > 0 {
			work = append(work, ch)
		}
	}
	return work
}

// mapChunks runs task(0..n-1) on the process pool and installs the chunks
// they return (nil for none) into res, in task order.
func mapChunks(ctx context.Context, res *array.Array, n int, task func(i int) (*array.Chunk, error)) error {
	pool := exec.Default()
	outCh := make([]*array.Chunk, n)
	err := pool.Map(ctx, n, func(i int) (err error) {
		outCh[i], err = task(i)
		return err
	})
	if err != nil {
		return err
	}
	pool.NoteChunks(int64(n))
	for _, oc := range outCh {
		if oc != nil {
			res.PutChunk(oc)
		}
	}
	return nil
}

// effChunkLen is the stride dimension d of a actually chunks on: the
// declared ChunkLen, the default stride for unbounded dimensions, or 0 for
// bounded dimensions stored as one span.
func effChunkLen(d array.Dimension) int64 {
	if d.ChunkLen > 0 {
		return d.ChunkLen
	}
	if d.High == array.Unbounded {
		return array.DefaultChunkLen
	}
	return 0
}

// dimsWithHwm is boundedDims under a's current high-water marks.
func dimsWithHwm(a *array.Array) []array.Dimension { return boundedDims(a.Schema, a.Bounds()) }

// boundedDims is the one output-dimensions rule: s's dimensions with each
// pinned to its high-water mark in hwm (at least 1), so operator outputs are
// bounded, and with the effective chunk stride pinned too, so the output
// grid coincides with the input's and a task over one input chunk emits one
// aligned output chunk.
func boundedDims(s *array.Schema, hwm []int64) []array.Dimension {
	out := make([]array.Dimension, len(s.Dims))
	for i, d := range s.Dims {
		out[i] = array.Dimension{Name: d.Name, High: max(hwm[i], 1), ChunkLen: effChunkLen(d)}
	}
	return out
}

func shapeEq(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// eachPresent walks ch's present slots in row-major order, passing the slot
// index and the coordinate (reused between calls).
func eachPresent(ch *array.Chunk, fn func(idx int64, c array.Coord) error) error {
	nd := len(ch.Origin)
	c := ch.Origin.Clone()
	slots := ch.Slots()
	for idx := int64(0); idx < slots; idx++ {
		if ch.Present.Get(idx) {
			if err := fn(idx, c); err != nil {
				return err
			}
		}
		for d := nd - 1; d >= 0; d-- {
			c[d]++
			if c[d] < ch.Origin[d]+ch.Shape[d] {
				break
			}
			c[d] = ch.Origin[d]
		}
	}
	return nil
}

// peeker reads cells of a shared input array through a task-private
// last-chunk cache, so concurrent tasks never touch the array's own mutable
// cache (Array.At is not safe for concurrent use; PeekAt and this are).
type peeker struct {
	a    *array.Array
	last *array.Chunk
	box  array.Box
}

// get resolves c to its chunk and slot; ok is false for absent cells.
func (p *peeker) get(c array.Coord) (*array.Chunk, int64, bool) {
	if p.last == nil || !p.box.Contains(c) {
		if !p.a.CoordInside(c) {
			return nil, 0, false
		}
		ch, ok := p.a.ChunkAt(c)
		if !ok {
			return nil, 0, false
		}
		// The box kept is cut to the array's declared bounds, so a
		// coordinate inside it is a legal address but for the shape function.
		p.last, p.box = ch, ch.Box()
		for d, dim := range p.a.Schema.Dims {
			p.box.Lo[d] = max(p.box.Lo[d], 1)
			if dim.High != array.Unbounded {
				p.box.Hi[d] = min(p.box.Hi[d], dim.High)
			}
		}
	} else if p.a.Shape != nil && !p.a.Shape.Contains(c) {
		return nil, 0, false
	}
	idx := p.last.Index(c)
	if !p.last.Present.Get(idx) {
		return nil, 0, false
	}
	return p.last, idx, true
}

// gridOrigins enumerates, in origin order, the chunk origins of a's grid
// that meet box, which must lie within a's bounded dimensions.
func gridOrigins(a *array.Array, box array.Box) []array.Coord {
	dims := a.Schema.Dims
	nd := len(dims)
	steps := make([]int64, nd)
	for i, d := range dims {
		steps[i] = effChunkLen(d)
		if steps[i] <= 0 {
			steps[i] = d.High
		}
	}
	lo := a.GridOrigin(box.Lo)
	var out []array.Coord
	cur := lo.Clone()
	for {
		out = append(out, cur.Clone())
		d := nd - 1
		for d >= 0 {
			cur[d] += steps[d]
			if cur[d] <= box.Hi[d] {
				break
			}
			cur[d] = lo[d]
			d--
		}
		if d < 0 {
			break
		}
	}
	return out
}
