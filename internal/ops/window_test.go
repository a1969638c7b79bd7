package ops

import (
	"fmt"
	"math/rand"
	"testing"

	"scidb/internal/array"
	"scidb/internal/udf"
)

func TestWindowSmoothing(t *testing.T) {
	// 1-D window average with radius 1.
	a := vec1D(t, "W", "x", 1, 2, 3, 4, 5)
	res, err := Window(a, []int64{1}, AggSpec{Agg: "avg", Attr: "val"}, udf.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	// Interior cell 3: mean(2,3,4) = 3; edge cell 1: mean(1,2) = 1.5.
	cell, _ := res.At(array.Coord{3})
	if cell[0].AsFloat() != 3 {
		t.Errorf("window[3] = %v, want 3", cell[0])
	}
	cell, _ = res.At(array.Coord{1})
	if cell[0].AsFloat() != 1.5 {
		t.Errorf("window[1] = %v, want 1.5", cell[0])
	}
	// Same dimensionality and cell count.
	if res.Count() != a.Count() || len(res.Schema.Dims) != 1 {
		t.Errorf("shape changed: %d cells, %d dims", res.Count(), len(res.Schema.Dims))
	}
}

func TestWindow2DSumAndCount(t *testing.T) {
	g := grid2D(t, "W2", 3, 3, []int64{
		1, 1, 1,
		1, 1, 1,
		1, 1, 1,
	})
	res, err := Window(g, []int64{1, 1}, AggSpec{Agg: "sum", Attr: "val"}, udf.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	// Center: full 3x3 neighborhood = 9; corner: 2x2 = 4; edge: 2x3 = 6.
	wantInt(t, res, array.Coord{2, 2}, 0, 9)
	wantInt(t, res, array.Coord{1, 1}, 0, 4)
	wantInt(t, res, array.Coord{1, 2}, 0, 6)
}

func TestWindowRadiusZeroIsIdentity(t *testing.T) {
	a := vec1D(t, "W", "x", 7, 8, 9)
	res, err := Window(a, []int64{0}, AggSpec{Agg: "sum", Attr: "val"}, udf.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 3; i++ {
		want, _ := a.At(array.Coord{i})
		got, _ := res.At(array.Coord{i})
		if got[0].AsInt() != want[0].Int {
			t.Errorf("identity window differs at %d", i)
		}
	}
}

func TestWindowSparseSkipsAbsent(t *testing.T) {
	s := &array.Schema{
		Name:  "SP",
		Dims:  []array.Dimension{{Name: "x", High: 5}},
		Attrs: []array.Attribute{{Name: "val", Type: array.TInt64}},
	}
	a := array.MustNew(s)
	_ = a.Set(array.Coord{1}, array.Cell{array.Int64(10)})
	_ = a.Set(array.Coord{3}, array.Cell{array.Int64(20)})
	res, err := Window(a, []int64{1}, AggSpec{Agg: "count", Attr: "val"}, udf.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	// Output only where input present.
	if res.Count() != 2 {
		t.Errorf("output cells = %d, want 2", res.Count())
	}
	// Cell 3's neighborhood {2,3,4} holds only itself.
	wantInt(t, res, array.Coord{3}, 0, 1)
}

func TestWindowErrors(t *testing.T) {
	a := vec1D(t, "W", "x", 1)
	reg := udf.NewRegistry()
	if _, err := Window(a, []int64{1, 1}, AggSpec{Agg: "sum"}, reg); err == nil {
		t.Error("radius arity mismatch accepted")
	}
	if _, err := Window(a, []int64{-1}, AggSpec{Agg: "sum"}, reg); err == nil {
		t.Error("negative radius accepted")
	}
	if _, err := Window(a, []int64{1}, AggSpec{Agg: "frob"}, reg); err == nil {
		t.Error("unknown aggregate accepted")
	}
	if _, err := Window(a, []int64{1}, AggSpec{Agg: "sum", Attr: "zzz"}, reg); err == nil {
		t.Error("unknown attribute accepted")
	}
}

// windowCells is Window as it was before it ran on the fold kernels — a
// box scan and a fresh accumulator per output cell, every neighbour boxed
// into a Value — kept as the oracle the chunk body is held to.
func windowCells(a *array.Array, radius []int64, spec AggSpec, reg *udf.Registry) (*array.Array, error) {
	s := a.Schema
	attr, at, err := resolveAgg(s, spec)
	if err != nil {
		return nil, err
	}
	fac, err := reg.Aggregate(spec.Agg)
	if err != nil {
		return nil, err
	}
	res, err := array.New(&array.Schema{Name: s.Name + "_window", Dims: dimsWithHwm(a), Attrs: []array.Attribute{at}})
	if err != nil {
		return nil, err
	}
	lo := make(array.Coord, len(s.Dims))
	hi := make(array.Coord, len(s.Dims))
	var werr error
	a.IterReuse(func(c array.Coord, _ array.Cell) bool {
		for d := range c {
			lo[d] = max(c[d]-radius[d], 1)
			hi[d] = c[d] + radius[d]
		}
		acc := fac()
		a.IterBoxReuse(array.Box{Lo: lo, Hi: hi}, func(_ array.Coord, cell array.Cell) bool {
			acc.Step(cell[attr])
			return true
		})
		if werr = res.Set(c.Clone(), array.Cell{acc.Result()}); werr != nil {
			return false
		}
		return true
	})
	return res, werr
}

// TestOracleWindowMatchesCells holds Window to windowCells over the oracle
// arrays (1–3 dimensions, chunks of 2–5 cells so windows cross chunk edges,
// absent cells, NULLs and NaNs, empty and unbounded arrays, and each one's
// storage-decoded twin), with radii 0, 1, 2 and mixed, for every built-in
// aggregate over int and float columns, min over strings and a UDF without
// Merge, at parallelism 1 and 4: the same schema, chunk layout and cells, to
// the bit.
func TestOracleWindowMatchesCells(t *testing.T) {
	reg := udf.NewRegistry()
	reg.RegisterAggregate("last", func() udf.Aggregate { return &lastAgg{} })
	specs := []AggSpec{
		{Agg: "count", Attr: "f"}, {Agg: "sum", Attr: "i"}, {Agg: "sum", Attr: "f"}, {Agg: "avg", Attr: "i"},
		{Agg: "avg", Attr: "f"}, {Agg: "min", Attr: "i"}, {Agg: "min", Attr: "f"}, {Agg: "max", Attr: "i"},
		{Agg: "max", Attr: "f"}, {Agg: "stdev", Attr: "i"}, {Agg: "stdev", Attr: "f"}, {Agg: "min", Attr: "s"},
		{Agg: "last", Attr: "f"},
	}
	k := 0
	forEachOracleArray(t, func(t *testing.T, rng *rand.Rand, a *array.Array) {
		nd := len(a.Schema.Dims)
		radii := [][]int64{make([]int64, nd), make([]int64, nd), make([]int64, nd), make([]int64, nd)}
		for d := 0; d < nd; d++ {
			radii[1][d], radii[2][d], radii[3][d] = 1, 2, rng.Int63n(3)
		}
		for name, in := range oracleInputs(t, a) {
			for _, r := range radii {
				// Two aggregates per case, rotating, so every one meets every shape.
				for _, spec := range []AggSpec{specs[k%len(specs)], specs[(k+5)%len(specs)]} {
					label := fmt.Sprintf("%s %s(%s) radius %v", name, spec.Agg, spec.Attr, r)
					want, err := windowCells(in, r, spec, reg)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					got := atBothParallelisms(t, label, func() (*array.Array, error) { return Window(in, r, spec, reg) })
					if fmt.Sprint(got.Schema) != fmt.Sprint(want.Schema) {
						t.Fatalf("%s: schema %v, want %v", label, got.Schema, want.Schema)
					}
					gc, wc := got.Chunks(), want.Chunks()
					if len(gc) != len(wc) {
						t.Fatalf("%s: %d chunks, want %d", label, len(gc), len(wc))
					}
					for c := range gc {
						if !gc[c].Origin.Equal(wc[c].Origin) || !shapeEq(gc[c].Shape, wc[c].Shape) {
							t.Fatalf("%s: chunk %d is %v+%v, want %v+%v", label, c, gc[c].Origin, gc[c].Shape, wc[c].Origin, wc[c].Shape)
						}
					}
					requireCellsEqual(t, label, want, got)
				}
				k++
			}
		}
	})
}
