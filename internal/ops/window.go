package ops

import (
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
	s := a.Schema
	if len(radius) != len(s.Dims) {
		return nil, fmt.Errorf("ops: window needs one radius per dimension")
	}
	for _, r := range radius {
		if r < 0 {
			return nil, fmt.Errorf("ops: window radii must be >= 0")
		}
	}
	attr, at, err := resolveAgg(s, spec)
	if err != nil {
		return nil, err
	}
	fac, err := reg.Aggregate(spec.Agg)
	if err != nil {
		return nil, err
	}
	out := &array.Schema{Name: s.Name + "_window", Dims: dimsWithHwm(a), Attrs: []array.Attribute{at}}
	res, err := array.New(out)
	if err != nil {
		return nil, err
	}
	lo := make(array.Coord, len(s.Dims))
	hi := make(array.Coord, len(s.Dims))
	var werr error
	a.IterReuse(func(c array.Coord, _ array.Cell) bool {
		for d := range c {
			lo[d] = c[d] - radius[d]
			if lo[d] < 1 {
				lo[d] = 1
			}
			hi[d] = c[d] + radius[d]
		}
		acc := fac()
		a.IterBoxReuse(array.Box{Lo: lo, Hi: hi}, func(_ array.Coord, cell array.Cell) bool {
			acc.Step(cell[attr])
			return true
		})
		if err := res.Set(c.Clone(), array.Cell{acc.Result()}); err != nil {
			werr = err
			return false
		}
		return true
	})
	if werr != nil {
		return nil, werr
	}
	return res, nil
}
