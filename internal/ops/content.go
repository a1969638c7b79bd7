package ops

import (
	"context"
	"fmt"
	"sync/atomic"

	"scidb/internal/array"
	"scidb/internal/udf"
)

// Filter (§2.2.2) takes an array and a predicate over the data values in its
// cells and returns an array with the same dimensions: where the predicate
// holds the cell keeps its value, otherwise the result "will contain NULL".
// Absent cells stay absent.
func Filter(a *array.Array, pred Expr, reg *udf.Registry) (*array.Array, error) {
	return FilterCtx(context.Background(), a, pred, reg)
}

// FilterCtx is Filter under a context: cancellation stops the chunk fan-out
// and, when the query is traced, the operator's footprint lands on the
// context's span.
func FilterCtx(ctx context.Context, a *array.Array, pred Expr, reg *udf.Registry) (*array.Array, error) {
	return filter(ctx, a, &array.Schema{Name: a.Schema.Name + "_filter", Dims: dimsWithHwm(a), Attrs: a.Schema.Attrs}, pred, reg)
}

// filter is the one body of Filter and Cjoin: a task per live chunk of a
// writes the chunk's cells into an array of schema out (a's attributes, on
// a's grid), each kept or NULLed by one keep mask per chunk — empty when the
// chunk's zone maps refute pure conjuncts of pred, PredMask's when the
// conjuncts are all of pred, and otherwise the compiled predicate's, NULL
// counting as false.
func filter(ctx context.Context, a *array.Array, out *array.Schema, pred Expr, reg *udf.Registry) (*array.Array, error) {
	res, err := array.New(out)
	if err != nil {
		return nil, err
	}
	pred = resolve(pred, a.Schema)
	work := liveChunks(a)
	spanChunks(ctx, work)
	preds, exact := zonePreds(pred, a.Schema)
	pure := predPure(pred, a.Schema)
	var skipped atomic.Int64
	err = mapChunks(ctx, res, len(work), func(i int) (*array.Chunk, error) {
		ch := work[i]
		var keep *array.Bitmap
		switch zones := chunkZones(ch); {
		case pure && len(preds) > 0 && zones != nil && !array.CanMatchAll(zones, preds):
			keep = array.NewBitmap(ch.Slots())
			skipped.Add(1)
		case exact:
			keep = PredMask(preds, ch, ch.Present)
		default:
			keep = array.NewBitmap(ch.Slots())
			eval := compile(pred, a.Schema, ch, reg)
			err := eachPresent(ch, func(idx int64, c array.Coord) error {
				v, err := eval(idx, c)
				if err == nil && !v.Null && v.Bool {
					keep.Set(idx)
				}
				return err
			})
			if err != nil {
				return nil, err
			}
		}
		shape := res.GridShape(ch.Origin)
		if shapeEq(ch.Shape, shape) {
			// The output's cells are the input's: copy the columns and NULL
			// the present cells keep drops, a presence word at a time.
			oc := &array.Chunk{Origin: ch.Origin.Clone(), Shape: shape, Present: ch.Present.Clone(), Cols: make([]*array.Column, len(ch.Cols))}
			pw, kw := ch.Present.Words(), keep.Words()
			for ai, c := range ch.Cols {
				col := c.Clone()
				col.Zone = nil
				nulls := col.Nulls.Words()
				for w := range nulls {
					nulls[w] |= pw[w] &^ kw[w]
				}
				oc.Cols[ai] = col
			}
			oc.Seal()
			return oc, nil
		}
		// A chunk of an unbounded dimension reaches past the output's
		// bound, so its slots re-index.
		b := array.NewChunkBuilder(res.Schema, ch.Origin, shape, ch.CellsPresent())
		cols := b.Cols()
		_ = eachPresent(ch, func(idx int64, c array.Coord) error {
			oidx := array.RowMajorIndex(ch.Origin, shape, c)
			b.Add(oidx)
			if keep.Get(idx) {
				for ai, col := range cols {
					col.AppendFrom(ch.Cols[ai], oidx, idx)
				}
			} else {
				for _, col := range cols {
					col.AppendNull(oidx)
				}
			}
			return nil
		})
		return b.Chunk(), nil
	})
	if err != nil {
		return nil, err
	}
	NoteEncChunksSkipped(ctx, skipped.Load())
	return res, nil
}

// AggSpec names one aggregate to compute: Agg over attribute Attr
// ("*" aggregates the first attribute, matching the paper's Sum(*)).
type AggSpec struct {
	Agg  string
	Attr string
	As   string // output attribute name; default "agg_attr"
}

// Aggregate (§2.2.2, Figure 2) groups an n-dimensional array on k grouping
// dimensions and applies aggregate functions to the remaining (n−k)-
// dimensional subarrays, one per combination of grouping-dimension values.
// The output is a k-dimensional array whose dimensions retain the grouping
// dimensions' index values. Data attributes cannot be used for grouping.
func Aggregate(a *array.Array, groupDims []string, specs []AggSpec, reg *udf.Registry) (*array.Array, error) {
	return AggregateCtx(context.Background(), a, groupDims, specs, reg)
}

// AggregateCtx is Aggregate under a context (cancellation + span counters).
func AggregateCtx(ctx context.Context, a *array.Array, groupDims []string, specs []AggSpec, reg *udf.Registry) (*array.Array, error) {
	return FoldArray(ctx, a, array.WholeBox(a.Schema), FoldSpec{Dims: groupDims, Aggs: specs}, reg)
}

// Cjoin (§2.2.2, Figure 3) is the content-based join: its predicate is over
// data values only. Joining an m-dimensional and an n-dimensional array
// yields an (m+n)-dimensional array with concatenated cell tuples wherever
// the predicate is true and NULL where it is false. Cells where either
// input is absent stay absent. It is Filter over the cross product, whose
// schema (named a's name, "_cjoin_", b's name) the predicate evaluates over.
func Cjoin(ctx context.Context, a, b *array.Array, pred Expr, reg *udf.Registry) (*array.Array, error) {
	cross, err := join(ctx, a, b, nil, "_cjoin_")
	if err != nil {
		return nil, err
	}
	return filter(ctx, cross, cross.Schema, pred, reg)
}

// ApplySpec names one computed attribute: Name := Expr.
type ApplySpec struct {
	Name string
	Expr Expr
}

// Apply (§2.2.2) computes new attributes per cell from expressions over the
// existing record (and the coordinate), appending them to the cell.
func Apply(a *array.Array, specs []ApplySpec, reg *udf.Registry) (*array.Array, error) {
	return ApplyCtx(context.Background(), a, specs, reg)
}

// ApplyCtx is Apply under a context (cancellation + span counters).
func ApplyCtx(ctx context.Context, a *array.Array, specs []ApplySpec, reg *udf.Registry) (*array.Array, error) {
	s := a.Schema
	out := &array.Schema{Name: s.Name + "_apply", Dims: dimsWithHwm(a)}
	out.Attrs = append([]array.Attribute(nil), s.Attrs...)
	// Computed attributes default to float and are marked Uncertain so error
	// bars propagated by the expression arithmetic survive storage (§2.13).
	for _, sp := range specs {
		out.Attrs = append(out.Attrs, array.Attribute{Name: sp.Name, Type: array.TFloat64, Uncertain: true})
	}
	res, err := array.New(out)
	if err != nil {
		return nil, err
	}
	exprs := make([]Expr, len(specs))
	for k, sp := range specs {
		exprs[k] = resolve(sp.Expr, s)
	}
	work := liveChunks(a)
	spanChunks(ctx, work)
	base := len(s.Attrs)
	if len(work) > 0 {
		// Fix the computed attributes' declared types from the first present
		// cell's concrete values, before any output chunk is allocated
		// (expressions are assumed pure; the cell is evaluated again by its
		// chunk's task).
		ch := work[0]
		idx := ch.Present.NextSet(0)
		c := array.CoordAt(ch.Origin, ch.Shape, idx)
		for k, e := range exprs {
			v, err := compile(e, s, ch, reg)(idx, c)
			if err != nil {
				return nil, err
			}
			if !v.Null {
				res.Schema.Attrs[base+k].Type = v.Type
			}
		}
	}
	err = mapChunks(ctx, res, len(work), func(i int) (*array.Chunk, error) {
		ch := work[i]
		shape := res.GridShape(ch.Origin)
		compiled := make([]colEval, len(exprs))
		for k, e := range exprs {
			compiled[k] = compile(e, s, ch, reg)
		}
		if shapeEq(ch.Shape, shape) {
			// As Project: the input's columns and presence, sealed, and each
			// computed column appended packed, in slot order, under the
			// chunk's rank directory.
			n := ch.CellsPresent()
			oc := &array.Chunk{Origin: ch.Origin.Clone(), Shape: shape, Present: ch.Present.Clone(), Cols: make([]*array.Column, len(res.Schema.Attrs))}
			for ai := range base {
				oc.Cols[ai] = ch.Cols[ai].Clone()
			}
			oc.Seal()
			for k := range compiled {
				oc.Cols[base+k] = array.NewPackedColumn(res.Schema.Attrs[base+k], ch.Slots(), n, oc.Cols[0].Rank())
			}
			werr := eachPresent(ch, func(idx int64, c array.Coord) error {
				for k, eval := range compiled {
					v, err := eval(idx, c)
					if err != nil {
						return err
					}
					oc.Cols[base+k].Append(idx, v)
				}
				return nil
			})
			if werr != nil {
				return nil, werr
			}
			return oc, nil
		}
		// A chunk of an unbounded dimension reaches past the output's
		// bound, so its slots re-index.
		b := array.NewChunkBuilder(res.Schema, ch.Origin, shape, ch.CellsPresent())
		cols := b.Cols()
		werr := eachPresent(ch, func(idx int64, c array.Coord) error {
			oidx := array.RowMajorIndex(ch.Origin, shape, c)
			b.Add(oidx)
			for ai := 0; ai < base; ai++ {
				cols[ai].AppendFrom(ch.Cols[ai], oidx, idx)
			}
			for k, eval := range compiled {
				v, err := eval(idx, c)
				if err != nil {
					return err
				}
				cols[base+k].Append(oidx, v)
			}
			return nil
		})
		if werr != nil {
			return nil, werr
		}
		return b.Chunk(), nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Project (§2.2.2) keeps only the named attributes: a task per live chunk
// copies the kept columns and the presence bitmap, sealed.
func Project(ctx context.Context, a *array.Array, attrs []string) (*array.Array, error) {
	s := a.Schema
	keep := make([]int, len(attrs))
	out := &array.Schema{Name: s.Name + "_project", Dims: dimsWithHwm(a)}
	for i, name := range attrs {
		if keep[i] = s.AttrIndex(name); keep[i] < 0 {
			return nil, fmt.Errorf("ops: unknown attribute %q", name)
		}
		out.Attrs = append(out.Attrs, s.Attrs[keep[i]])
	}
	res, err := array.New(out)
	if err != nil {
		return nil, err
	}
	work := liveChunks(a)
	spanChunks(ctx, work)
	err = mapChunks(ctx, res, len(work), func(i int) (*array.Chunk, error) {
		ch := work[i]
		shape := res.GridShape(ch.Origin)
		if shapeEq(ch.Shape, shape) {
			oc := &array.Chunk{Origin: ch.Origin.Clone(), Shape: shape, Present: ch.Present.Clone(), Cols: make([]*array.Column, len(keep))}
			for k, j := range keep {
				oc.Cols[k] = ch.Cols[j].Clone()
			}
			oc.Seal()
			return oc, nil
		}
		// A chunk of an unbounded dimension reaches past the output's
		// bound, so its slots re-index.
		b := array.NewChunkBuilder(out, ch.Origin, shape, ch.CellsPresent())
		cols := b.Cols()
		_ = eachPresent(ch, func(idx int64, c array.Coord) error {
			oidx := array.RowMajorIndex(ch.Origin, shape, c)
			b.Add(oidx)
			for k, j := range keep {
				cols[k].AppendFrom(ch.Cols[j], oidx, idx)
			}
			return nil
		})
		return b.Chunk(), nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Regrid is the science operation the paper calls out in §2.3 ("science
// users wish to regrid arrays"): it coarsens the array by an integer stride
// per dimension, aggregating each block into one output cell.
func Regrid(a *array.Array, strides []int64, spec AggSpec, reg *udf.Registry) (*array.Array, error) {
	return RegridCtx(context.Background(), a, strides, spec, reg)
}

// RegridCtx is Regrid under a context (cancellation + span counters).
func RegridCtx(ctx context.Context, a *array.Array, strides []int64, spec AggSpec, reg *udf.Registry) (*array.Array, error) {
	return FoldArray(ctx, a, array.WholeBox(a.Schema), FoldSpec{Strides: strides, Aggs: []AggSpec{spec}}, reg)
}
