package ops

import (
	"context"
	"fmt"

	"scidb/internal/array"
	"scidb/internal/udf"
)

// Window is the moving-window aggregate, the other regridding-family
// operation science users ask for alongside Regrid (§2.3 extensibility —
// smoothing, local background estimation, neighborhood statistics). Each
// output cell aggregates the input cells within ±radius[d] of it along
// every dimension; the output has the same dimensions as the input.
// Absent input cells contribute nothing; output cells are produced only
// where the input cell is present (matching Filter's shape-preservation).
func Window(a *array.Array, radius []int64, spec AggSpec, reg *udf.Registry) (*array.Array, error) {
	return WindowCtx(context.Background(), a, radius, spec, reg)
}

// WindowCtx is Window under a context (cancellation + span counters). It
// runs on the fold engine: each input chunk is a pool task that folds every
// present cell's window into a table with a row per slot of its output
// chunk, a row of the window at a time (Fold.foldRun: typed state for the
// six built-ins, a boxed accumulator for the rest), and terminates each row
// into its slot. A window visits the input chunks in Chunks() order and
// their slots in row-major order — the order a cell-at-a-time walk of the
// window steps them in — so the result is that walk's, to the bit.
func WindowCtx(ctx context.Context, a *array.Array, radius []int64, spec AggSpec, reg *udf.Registry) (*array.Array, error) {
	s := a.Schema
	if len(radius) != len(s.Dims) {
		return nil, fmt.Errorf("ops: window needs one radius per dimension")
	}
	for _, r := range radius {
		if r < 0 {
			return nil, fmt.Errorf("ops: window radii must be >= 0")
		}
	}
	f, err := NewFold(s, FoldSpec{Aggs: []AggSpec{spec}}, reg)
	if err != nil {
		return nil, err
	}
	res, err := array.New(&array.Schema{Name: s.Name + "_window", Dims: dimsWithHwm(a), Attrs: f.out.Attrs})
	if err != nil {
		return nil, err
	}
	work := liveChunks(a)
	spanChunks(ctx, work)
	boxes := make([]array.Box, len(work))
	for i, ch := range work {
		boxes[i] = ch.Box()
	}
	nd := len(s.Dims)
	err = mapChunks(ctx, res, len(work), func(i int) (*array.Chunk, error) {
		ch := work[i]
		shape := res.GridShape(ch.Origin)
		same := shapeEq(ch.Shape, shape)
		b := array.NewChunkBuilder(res.Schema, ch.Origin, shape, ch.CellsPresent())
		slots := int64(1)
		for _, e := range shape {
			slots *= e
		}
		t := f.newTable([]int64{0}, []int64{slots})
		// The input chunks some window of this chunk's cells reaches.
		var near []int
		for j, b := range boxes {
			reach := true
			for d := 0; d < nd && reach; d++ {
				reach = b.Lo[d] <= boxes[i].Hi[d]+radius[d] && b.Hi[d] >= boxes[i].Lo[d]-radius[d]
			}
			if reach {
				near = append(near, j)
			}
		}
		lo, hi, c := make(array.Coord, nd), make(array.Coord, nd), make(array.Coord, nd)
		err := eachPresent(ch, func(idx int64, at array.Coord) error {
			row := idx
			if !same {
				row = array.RowMajorIndex(ch.Origin, shape, at)
			}
			for _, j := range near {
				// The window's part of input chunk j, walked a row of its
				// innermost dimension at a time.
				in, b, empty := work[j], boxes[j], false
				for d := 0; d < nd && !empty; d++ {
					lo[d] = max(at[d]-radius[d], b.Lo[d])
					hi[d] = min(at[d]+radius[d], b.Hi[d])
					empty = lo[d] > hi[d]
				}
				if empty {
					continue
				}
				copy(c, lo)
				n := hi[nd-1] - lo[nd-1] + 1
				for {
					f.foldRun(t, 0, in, in.Present, oneRow(in.Index(c), n, row))
					d := nd - 2
					for ; d >= 0; d-- {
						if c[d]++; c[d] <= hi[d] {
							break
						}
						c[d] = lo[d]
					}
					if d < 0 {
						break
					}
				}
			}
			b.Add(row)
			f.terminate(t, row, b.Cols(), row)
			return nil
		})
		if err != nil {
			return nil, err
		}
		return b.Chunk(), nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}
