package ops

import (
	"context"
	"math"
	"testing"

	"scidb/internal/array"
	"scidb/internal/udf"
)

func reg() *udf.Registry { return udf.NewRegistry() }

// vec1D builds a 1-D array with one int attribute named "val" and the given
// values at indices 1..n.
func vec1D(t *testing.T, name, dim string, vals ...int64) *array.Array {
	t.Helper()
	s := &array.Schema{
		Name:  name,
		Dims:  []array.Dimension{{Name: dim, High: int64(len(vals))}},
		Attrs: []array.Attribute{{Name: "val", Type: array.TInt64}},
	}
	a := array.MustNew(s)
	for i, v := range vals {
		if err := a.Set(array.Coord{int64(i + 1)}, array.Cell{array.Int64(v)}); err != nil {
			t.Fatal(err)
		}
	}
	return a
}

// grid2D builds a 2-D int array from row-major values.
func grid2D(t *testing.T, name string, rows, cols int64, vals []int64) *array.Array {
	t.Helper()
	s := &array.Schema{
		Name:  name,
		Dims:  []array.Dimension{{Name: "x", High: rows}, {Name: "y", High: cols}},
		Attrs: []array.Attribute{{Name: "val", Type: array.TInt64}},
	}
	a := array.MustNew(s)
	for i := int64(0); i < rows; i++ {
		for j := int64(0); j < cols; j++ {
			if err := a.Set(array.Coord{i + 1, j + 1}, array.Cell{array.Int64(vals[i*cols+j])}); err != nil {
				t.Fatal(err)
			}
		}
	}
	return a
}

func wantInt(t *testing.T, a *array.Array, c array.Coord, attr int, want int64) {
	t.Helper()
	cell, ok := a.At(c)
	if !ok {
		t.Fatalf("cell %v absent, want %d", c, want)
	}
	if cell[attr].Null {
		t.Fatalf("cell %v attr %d NULL, want %d", c, attr, want)
	}
	if got := cell[attr].AsInt(); got != want {
		t.Fatalf("cell %v attr %d = %d, want %d", c, attr, got, want)
	}
}

func wantNullCell(t *testing.T, a *array.Array, c array.Coord) {
	t.Helper()
	cell, ok := a.At(c)
	if !ok {
		t.Fatalf("cell %v absent, want present NULL", c)
	}
	for i, v := range cell {
		if !v.Null {
			t.Fatalf("cell %v attr %d = %v, want NULL", c, i, v)
		}
	}
}

// TestFigure1Sjoin reproduces Figure 1 exactly: two 1-D arrays A = [1, 2]
// and B = [1, 2] joined with Sjoin(A, B, A.x = B.x) yield a 1-D array with
// concatenated data values in the matching index positions.
func TestFigure1Sjoin(t *testing.T) {
	a := vec1D(t, "A", "x", 1, 2)
	b := vec1D(t, "B", "x", 1, 2)
	res, err := Sjoin(a, b, []DimPair{{LDim: "x", RDim: "x"}})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res.Schema.Dims); got != 1 { // m + n − k = 1 + 1 − 1
		t.Fatalf("result dimensionality = %d, want 1", got)
	}
	wantInt(t, res, array.Coord{1}, 0, 1)
	wantInt(t, res, array.Coord{1}, 1, 1)
	wantInt(t, res, array.Coord{2}, 0, 2)
	wantInt(t, res, array.Coord{2}, 1, 2)
	if res.Count() != 2 {
		t.Errorf("result has %d cells, want 2", res.Count())
	}
}

// TestFigure2Aggregate reproduces Figure 2: a 2-D array H grouped on Y with
// Sum(*) produces the 1-D array [4, 7].
func TestFigure2Aggregate(t *testing.T) {
	// H: (1,1)=1 (1,2)=3 / (2,1)=3 (2,2)=4; column sums 4 and 7.
	h := grid2D(t, "H", 2, 2, []int64{1, 3, 3, 4})
	res, err := Aggregate(h, []string{"y"}, []AggSpec{{Agg: "sum", Attr: "*"}}, reg())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Schema.Dims) != 1 || res.Schema.Dims[0].Name != "y" {
		t.Fatalf("result dims = %v, want [y]", res.Schema.Dims)
	}
	wantInt(t, res, array.Coord{1}, 0, 4)
	wantInt(t, res, array.Coord{2}, 0, 7)
}

// TestFigure3Cjoin reproduces Figure 3: Cjoin(A, B, A.val = B.val) over the
// Figure 1 inputs yields a 2-D array with concatenated tuples where the
// predicate holds and NULL elsewhere.
func TestFigure3Cjoin(t *testing.T) {
	a := vec1D(t, "A", "x", 1, 2)
	b := vec1D(t, "B", "y", 1, 2)
	pred := Binary{Op: OpEq, L: AttrRef{Name: "val"}, R: AttrRef{Name: "B_val"}}
	res, err := Cjoin(context.Background(), a, b, pred, reg())
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res.Schema.Dims); got != 2 { // m + n
		t.Fatalf("result dimensionality = %d, want 2", got)
	}
	wantInt(t, res, array.Coord{1, 1}, 0, 1)
	wantInt(t, res, array.Coord{1, 1}, 1, 1)
	wantInt(t, res, array.Coord{2, 2}, 0, 2)
	wantInt(t, res, array.Coord{2, 2}, 1, 2)
	wantNullCell(t, res, array.Coord{1, 2})
	wantNullCell(t, res, array.Coord{2, 1})
}

func TestSubsampleEven(t *testing.T) {
	// Subsample(F, even(X)) keeps slices with even X, re-indexed, with the
	// original index values retained as pseudo-coordinates.
	f := grid2D(t, "F", 4, 3, []int64{
		11, 12, 13,
		21, 22, 23,
		31, 32, 33,
		41, 42, 43,
	})
	res, err := Subsample(f, []DimCond{DimEven("x")})
	if err != nil {
		t.Fatal(err)
	}
	if res.Hwm(0) != 2 || res.Hwm(1) != 3 {
		t.Fatalf("result bounds = %d x %d, want 2 x 3", res.Hwm(0), res.Hwm(1))
	}
	wantInt(t, res, array.Coord{1, 2}, 0, 22)
	wantInt(t, res, array.Coord{2, 3}, 0, 43)
	// Original index values are retained.
	cell, ok := res.AtEnhanced("subsample_origin", []array.Value{array.Int64(4), array.Int64(1)})
	if !ok || cell[0].Int != 41 {
		t.Errorf("original-index addressing = %v,%v", cell, ok)
	}
	e := res.Enhancements[0]
	orig := e.Map(array.Coord{2, 3})
	if orig[0].Int != 4 || orig[1].Int != 3 {
		t.Errorf("retained indices for [2,3] = %v, want [4 3]", orig)
	}
}

func TestSubsampleConjunction(t *testing.T) {
	// "X = 3 and Y < 4" is legal.
	f := grid2D(t, "F", 4, 4, make([]int64, 16))
	for i := int64(1); i <= 4; i++ {
		for j := int64(1); j <= 4; j++ {
			_ = f.Set(array.Coord{i, j}, array.Cell{array.Int64(i*10 + j)})
		}
	}
	lt, err := DimCmp("y", "<", 4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Subsample(f, []DimCond{DimEq("x", 3), lt})
	if err != nil {
		t.Fatal(err)
	}
	if res.Hwm(0) != 1 || res.Hwm(1) != 3 {
		t.Fatalf("bounds = %d x %d, want 1 x 3", res.Hwm(0), res.Hwm(1))
	}
	wantInt(t, res, array.Coord{1, 2}, 0, 32)
	// The output always has the same number of dimensions as the input.
	if len(res.Schema.Dims) != 2 {
		t.Error("subsample changed dimensionality")
	}
}

func TestSubsampleCrossDimensionPredicateInexpressible(t *testing.T) {
	// The paper outlaws "X = Y". The DimCond API makes it inexpressible:
	// every conjunct names exactly one dimension. This test documents the
	// enforcement point: an unknown-dimension reference errors.
	f := grid2D(t, "F", 2, 2, []int64{1, 2, 3, 4})
	if _, err := Subsample(f, []DimCond{DimEq("z", 1)}); err == nil {
		t.Error("condition on unknown dimension accepted")
	}
}

func TestSubsampleEmptyResult(t *testing.T) {
	f := grid2D(t, "F", 2, 2, []int64{1, 2, 3, 4})
	res, err := Subsample(f, []DimCond{DimEq("x", 99)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Count() != 0 {
		t.Errorf("empty subsample has %d cells", res.Count())
	}
}

func TestReshapePaperExample(t *testing.T) {
	// "if G is a 2x3x4 array with dimensions X, Y and Z, we can get an 8x3
	// array as Reshape(G, [X, Z, Y], [U = 1:8, V = 1:3])".
	s := &array.Schema{
		Name: "G",
		Dims: []array.Dimension{
			{Name: "X", High: 2}, {Name: "Y", High: 3}, {Name: "Z", High: 4},
		},
		Attrs: []array.Attribute{{Name: "v", Type: array.TInt64}},
	}
	g := array.MustNew(s)
	n := int64(0)
	// Fill so that the value records the linearization order X slowest,
	// Z middle, Y fastest.
	for x := int64(1); x <= 2; x++ {
		for z := int64(1); z <= 4; z++ {
			for y := int64(1); y <= 3; y++ {
				n++
				_ = g.Set(array.Coord{x, y, z}, array.Cell{array.Int64(n)})
			}
		}
	}
	res, err := Reshape(context.Background(), g, []string{"X", "Z", "Y"},
		[]array.Dimension{{Name: "U", High: 8}, {Name: "V", High: 3}})
	if err != nil {
		t.Fatal(err)
	}
	// The linearized sequence 1..24 should fill U row-major: cell [u,v]
	// holds (u-1)*3 + v.
	for u := int64(1); u <= 8; u++ {
		for v := int64(1); v <= 3; v++ {
			wantInt(t, res, array.Coord{u, v}, 0, (u-1)*3+v)
		}
	}
}

func TestReshapeTo1D(t *testing.T) {
	// "a 2x3x4 array can become ... a 1-dimensional array of length 24".
	s := &array.Schema{
		Name: "G",
		Dims: []array.Dimension{
			{Name: "X", High: 2}, {Name: "Y", High: 3}, {Name: "Z", High: 4},
		},
		Attrs: []array.Attribute{{Name: "v", Type: array.TInt64}},
	}
	g := array.MustNew(s)
	_ = g.Fill(func(c array.Coord) array.Cell { return array.Cell{array.Int64(c[0])} })
	res, err := Reshape(context.Background(), g, []string{"X", "Y", "Z"}, []array.Dimension{{Name: "i", High: 24}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Count() != 24 {
		t.Errorf("cells = %d, want 24", res.Count())
	}
}

func TestReshapeErrors(t *testing.T) {
	g := grid2D(t, "G", 2, 3, make([]int64, 6))
	if _, err := Reshape(context.Background(), g, []string{"x"}, []array.Dimension{{Name: "u", High: 6}}); err == nil {
		t.Error("short order accepted")
	}
	if _, err := Reshape(context.Background(), g, []string{"x", "x"}, []array.Dimension{{Name: "u", High: 6}}); err == nil {
		t.Error("repeated order accepted")
	}
	if _, err := Reshape(context.Background(), g, []string{"x", "q"}, []array.Dimension{{Name: "u", High: 6}}); err == nil {
		t.Error("unknown dim accepted")
	}
	if _, err := Reshape(context.Background(), g, []string{"x", "y"}, []array.Dimension{{Name: "u", High: 5}}); err == nil {
		t.Error("cell-count mismatch accepted")
	}
	if _, err := Reshape(context.Background(), g, []string{"x", "y"}, []array.Dimension{{Name: "u", High: array.Unbounded}}); err == nil {
		t.Error("unbounded target accepted")
	}
}

func TestSjoinPartialOverlap(t *testing.T) {
	// Arrays of different lengths: join only where both present.
	a := vec1D(t, "A", "x", 10, 20, 30)
	b := vec1D(t, "B", "x", 5, 6)
	res, err := Sjoin(a, b, []DimPair{{LDim: "x", RDim: "x"}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Count() != 2 {
		t.Errorf("count = %d, want 2", res.Count())
	}
	wantInt(t, res, array.Coord{2}, 0, 20)
	wantInt(t, res, array.Coord{2}, 1, 6)
	if res.Exists(array.Coord{3}) {
		t.Error("unmatched index present")
	}
}

func TestSjoin2DOn1Dim(t *testing.T) {
	// m=2, n=2, k=1 -> 3-D result.
	a := grid2D(t, "A", 2, 2, []int64{1, 2, 3, 4})
	b := grid2D(t, "B", 2, 2, []int64{10, 20, 30, 40})
	res, err := Sjoin(a, b, []DimPair{{LDim: "x", RDim: "x"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Schema.Dims) != 3 {
		t.Fatalf("dims = %d, want 3", len(res.Schema.Dims))
	}
	// Cell [x=2, y=1, B.y=2]: A(2,1)=3 concat B(2,2)=40.
	wantInt(t, res, array.Coord{2, 1, 2}, 0, 3)
	wantInt(t, res, array.Coord{2, 1, 2}, 1, 40)
	if res.Count() != 8 {
		t.Errorf("count = %d, want 8", res.Count())
	}
}

func TestSjoinErrors(t *testing.T) {
	a := vec1D(t, "A", "x", 1)
	b := vec1D(t, "B", "y", 1)
	if _, err := Sjoin(a, b, nil); err == nil {
		t.Error("empty predicate accepted")
	}
	if _, err := Sjoin(a, b, []DimPair{{LDim: "q", RDim: "y"}}); err == nil {
		t.Error("unknown dimension accepted")
	}
}

func TestAddRemoveDim(t *testing.T) {
	a := vec1D(t, "A", "x", 7, 8)
	up, err := AddDim(context.Background(), a, "layer")
	if err != nil {
		t.Fatal(err)
	}
	if len(up.Schema.Dims) != 2 || up.Schema.Dims[0].Name != "layer" {
		t.Fatalf("dims after AddDim = %v", up.Schema.Dims)
	}
	wantInt(t, up, array.Coord{1, 2}, 0, 8)
	down, err := RemoveDim(context.Background(), up, "layer")
	if err != nil {
		t.Fatal(err)
	}
	wantInt(t, down, array.Coord{2}, 0, 8)
	if _, err := RemoveDim(context.Background(), a, "x"); err == nil {
		t.Error("removing the last dimension accepted")
	}
	if _, err := AddDim(context.Background(), a, "x"); err == nil {
		t.Error("duplicate dimension accepted")
	}
	if _, err := RemoveDim(context.Background(), up, "q"); err == nil {
		t.Error("unknown dimension accepted")
	}
	wide := grid2D(t, "W", 2, 2, []int64{1, 2, 3, 4})
	if _, err := RemoveDim(context.Background(), wide, "x"); err == nil {
		t.Error("removing extent-2 dimension accepted")
	}
}

func TestConcat(t *testing.T) {
	a := vec1D(t, "A", "x", 1, 2)
	b := vec1D(t, "B", "x", 3, 4, 5)
	res, err := Concat(context.Background(), a, b, "x")
	if err != nil {
		t.Fatal(err)
	}
	if res.Hwm(0) != 5 {
		t.Fatalf("length = %d, want 5", res.Hwm(0))
	}
	for i := int64(1); i <= 5; i++ {
		wantInt(t, res, array.Coord{i}, 0, i)
	}
	// Mismatched other-dimension extents are rejected.
	g1 := grid2D(t, "G1", 2, 2, []int64{1, 2, 3, 4})
	g2 := grid2D(t, "G2", 2, 3, []int64{1, 2, 3, 4, 5, 6})
	if _, err := Concat(context.Background(), g1, g2, "x"); err == nil {
		t.Error("extent mismatch accepted")
	}
	if _, err := Concat(context.Background(), g1, g2, "q"); err == nil {
		t.Error("unknown dimension accepted")
	}
}

func TestCrossProduct(t *testing.T) {
	a := vec1D(t, "A", "x", 1, 2)
	b := vec1D(t, "B", "y", 10, 20, 30)
	res, err := CrossProduct(context.Background(), a, b)
	if err != nil {
		t.Fatal(err)
	}
	if res.Count() != 6 {
		t.Errorf("count = %d, want 6", res.Count())
	}
	wantInt(t, res, array.Coord{2, 3}, 0, 2)
	wantInt(t, res, array.Coord{2, 3}, 1, 30)
}

func TestFilter(t *testing.T) {
	a := grid2D(t, "A", 2, 2, []int64{1, 5, 3, 8})
	res, err := Filter(a, Binary{Op: OpGt, L: AttrRef{Name: "val"}, R: Const{V: array.Int64(3)}}, reg())
	if err != nil {
		t.Fatal(err)
	}
	// Same dimensions; failing cells contain NULL.
	if len(res.Schema.Dims) != 2 {
		t.Error("filter changed dimensionality")
	}
	wantNullCell(t, res, array.Coord{1, 1})
	wantInt(t, res, array.Coord{1, 2}, 0, 5)
	wantNullCell(t, res, array.Coord{2, 1})
	wantInt(t, res, array.Coord{2, 2}, 0, 8)
}

func TestFilterAbsentStaysAbsent(t *testing.T) {
	s := &array.Schema{
		Name:  "S",
		Dims:  []array.Dimension{{Name: "x", High: 3}},
		Attrs: []array.Attribute{{Name: "val", Type: array.TInt64}},
	}
	a := array.MustNew(s)
	_ = a.Set(array.Coord{2}, array.Cell{array.Int64(5)})
	res, err := Filter(a, Binary{Op: OpGt, L: AttrRef{Name: "val"}, R: Const{V: array.Int64(0)}}, reg())
	if err != nil {
		t.Fatal(err)
	}
	if res.Exists(array.Coord{1}) || res.Exists(array.Coord{3}) {
		t.Error("absent cells materialized by Filter")
	}
	wantInt(t, res, array.Coord{2}, 0, 5)
}

func TestFilterOnDimensions(t *testing.T) {
	a := grid2D(t, "A", 2, 2, []int64{1, 2, 3, 4})
	// Predicate may mention dimensions too: x = y (legal for Filter,
	// illegal for Subsample).
	res, err := Filter(a, Binary{Op: OpEq, L: DimRef{Name: "x"}, R: DimRef{Name: "y"}}, reg())
	if err != nil {
		t.Fatal(err)
	}
	wantInt(t, res, array.Coord{1, 1}, 0, 1)
	wantNullCell(t, res, array.Coord{1, 2})
}

func TestAggregateGrandTotal(t *testing.T) {
	a := grid2D(t, "A", 2, 2, []int64{1, 2, 3, 4})
	res, err := Aggregate(a, nil, []AggSpec{{Agg: "sum", Attr: "val"}, {Agg: "count", Attr: "val"}}, reg())
	if err != nil {
		t.Fatal(err)
	}
	wantInt(t, res, array.Coord{1}, 0, 10)
	wantInt(t, res, array.Coord{1}, 1, 4)
}

func TestAggregateRejectsAttributeGrouping(t *testing.T) {
	a := grid2D(t, "A", 2, 2, []int64{1, 2, 3, 4})
	// "data attributes cannot be used for grouping".
	if _, err := Aggregate(a, []string{"val"}, []AggSpec{{Agg: "sum"}}, reg()); err == nil {
		t.Error("grouping on a data attribute accepted")
	}
	if _, err := Aggregate(a, []string{"zzz"}, []AggSpec{{Agg: "sum"}}, reg()); err == nil {
		t.Error("unknown grouping dimension accepted")
	}
	if _, err := Aggregate(a, []string{"x"}, nil, reg()); err == nil {
		t.Error("no aggregate specs accepted")
	}
	if _, err := Aggregate(a, []string{"x"}, []AggSpec{{Agg: "frobnicate"}}, reg()); err == nil {
		t.Error("unknown aggregate accepted")
	}
}

func TestAggregateMultiDimGroup(t *testing.T) {
	// 3-D array grouped on two dims.
	s := &array.Schema{
		Name: "T",
		Dims: []array.Dimension{
			{Name: "a", High: 2}, {Name: "b", High: 2}, {Name: "c", High: 3},
		},
		Attrs: []array.Attribute{{Name: "v", Type: array.TInt64}},
	}
	arr := array.MustNew(s)
	_ = arr.Fill(func(c array.Coord) array.Cell { return array.Cell{array.Int64(c[2])} })
	res, err := Aggregate(arr, []string{"a", "b"}, []AggSpec{{Agg: "sum", Attr: "v"}}, reg())
	if err != nil {
		t.Fatal(err)
	}
	// Each (a,b) group sums c=1+2+3=6.
	for _, c := range []array.Coord{{1, 1}, {1, 2}, {2, 1}, {2, 2}} {
		wantInt(t, res, c, 0, 6)
	}
}

func TestApplyAndProject(t *testing.T) {
	a := grid2D(t, "A", 2, 2, []int64{1, 2, 3, 4})
	res, err := Apply(a, []ApplySpec{
		{Name: "double", Expr: Binary{Op: OpMul, L: AttrRef{Name: "val"}, R: Const{V: array.Int64(2)}}},
		{Name: "xcoord", Expr: DimRef{Name: "x"}},
	}, reg())
	if err != nil {
		t.Fatal(err)
	}
	wantInt(t, res, array.Coord{2, 1}, 1, 6)
	wantInt(t, res, array.Coord{2, 1}, 2, 2)
	proj, err := Project(context.Background(), res, []string{"double"})
	if err != nil {
		t.Fatal(err)
	}
	if len(proj.Schema.Attrs) != 1 {
		t.Fatalf("projected attrs = %d", len(proj.Schema.Attrs))
	}
	wantInt(t, proj, array.Coord{2, 2}, 0, 8)
	if _, err := Project(context.Background(), res, []string{"nope"}); err == nil {
		t.Error("unknown attribute accepted")
	}
}

func TestApplyUDFCall(t *testing.T) {
	r := reg()
	_ = r.RegisterFunc(&udf.Func{
		Name: "plus100",
		In:   []array.Type{array.TInt64},
		Out:  []array.Type{array.TInt64},
		Body: func(args []array.Value) ([]array.Value, error) {
			return []array.Value{array.Int64(args[0].Int + 100)}, nil
		},
	})
	a := vec1D(t, "A", "x", 1, 2)
	res, err := Apply(a, []ApplySpec{{Name: "p", Expr: Call{Name: "plus100", Args: []Expr{AttrRef{Name: "val"}}}}}, r)
	if err != nil {
		t.Fatal(err)
	}
	wantInt(t, res, array.Coord{2}, 1, 102)
	// Unknown UDF surfaces an error.
	if _, err := Apply(a, []ApplySpec{{Name: "q", Expr: Call{Name: "ghost", Args: nil}}}, r); err == nil {
		t.Error("unknown UDF accepted")
	}
}

func TestRegrid(t *testing.T) {
	a := grid2D(t, "A", 4, 4, []int64{
		1, 1, 2, 2,
		1, 1, 2, 2,
		3, 3, 4, 4,
		3, 3, 4, 4,
	})
	res, err := Regrid(a, []int64{2, 2}, AggSpec{Agg: "sum", Attr: "val"}, reg())
	if err != nil {
		t.Fatal(err)
	}
	if res.Hwm(0) != 2 || res.Hwm(1) != 2 {
		t.Fatalf("regrid bounds = %dx%d", res.Hwm(0), res.Hwm(1))
	}
	wantInt(t, res, array.Coord{1, 1}, 0, 4)
	wantInt(t, res, array.Coord{1, 2}, 0, 8)
	wantInt(t, res, array.Coord{2, 1}, 0, 12)
	wantInt(t, res, array.Coord{2, 2}, 0, 16)
}

func TestRegridUnevenEdge(t *testing.T) {
	a := vec1D(t, "A", "x", 1, 2, 3, 4, 5)
	res, err := Regrid(a, []int64{2}, AggSpec{Agg: "sum", Attr: "val"}, reg())
	if err != nil {
		t.Fatal(err)
	}
	if res.Hwm(0) != 3 {
		t.Fatalf("bounds = %d, want 3", res.Hwm(0))
	}
	wantInt(t, res, array.Coord{3}, 0, 5) // lone edge cell
	if _, err := Regrid(a, []int64{0}, AggSpec{Agg: "sum"}, reg()); err == nil {
		t.Error("zero stride accepted")
	}
	if _, err := Regrid(a, []int64{2, 2}, AggSpec{Agg: "sum"}, reg()); err == nil {
		t.Error("stride arity mismatch accepted")
	}
}

// evalCell evaluates e on one cell through the compiler: a one-slot chunk
// of s at coordinate c holds cell.
func evalCell(e Expr, s *array.Schema, c array.Coord, cell array.Cell, reg *udf.Registry) (array.Value, error) {
	shape := make([]int64, len(c))
	for i := range shape {
		shape[i] = 1
	}
	ch := array.NewChunk(s, c, shape)
	if err := ch.Set(c, cell); err != nil {
		return array.Value{}, err
	}
	return compile(resolve(e, s), s, ch, reg)(0, c)
}

func TestExprArithmeticAndLogic(t *testing.T) {
	s := &array.Schema{
		Name:  "E",
		Dims:  []array.Dimension{{Name: "i", High: 1}},
		Attrs: []array.Attribute{{Name: "a", Type: array.TInt64}, {Name: "b", Type: array.TFloat64}},
	}
	cell := array.Cell{array.Int64(7), array.Float64(2.5)}
	eval := func(e Expr) (array.Value, error) { return evalCell(e, s, array.Coord{1}, cell, nil) }
	cases := []struct {
		e    Expr
		want float64
	}{
		{Binary{Op: OpAdd, L: AttrRef{Name: "a"}, R: AttrRef{Name: "b"}}, 9.5},
		{Binary{Op: OpSub, L: AttrRef{Name: "a"}, R: Const{V: array.Int64(2)}}, 5},
		{Binary{Op: OpMul, L: AttrRef{Name: "a"}, R: Const{V: array.Int64(3)}}, 21},
		{Binary{Op: OpDiv, L: AttrRef{Name: "a"}, R: Const{V: array.Int64(2)}}, 3}, // int div
		{Binary{Op: OpMod, L: AttrRef{Name: "a"}, R: Const{V: array.Int64(4)}}, 3},
	}
	for _, c := range cases {
		v, err := eval(c.e)
		if err != nil {
			t.Fatalf("%s: %v", c.e, err)
		}
		if v.AsFloat() != c.want {
			t.Errorf("%s = %v, want %v", c.e, v, c.want)
		}
	}
	// Logic with NULLs: NULL and false = false; NULL or true = true.
	null := Const{V: array.NullValue(array.TBool)}
	tru := Const{V: array.Bool64(true)}
	fls := Const{V: array.Bool64(false)}
	if v, _ := eval(Binary{Op: OpAnd, L: null, R: fls}); v.Null || v.Bool {
		t.Error("NULL and false != false")
	}
	if v, _ := eval(Binary{Op: OpOr, L: null, R: tru}); v.Null || !v.Bool {
		t.Error("NULL or true != true")
	}
	if v, _ := eval(Binary{Op: OpAnd, L: null, R: tru}); !v.Null {
		t.Error("NULL and true should be NULL")
	}
	if v, _ := eval(Not{E: tru}); v.Bool {
		t.Error("not true != false")
	}
	if v, _ := eval(Not{E: null}); !v.Null {
		t.Error("not NULL should be NULL")
	}
	// Division by zero -> NULL, not panic.
	if v, _ := eval(Binary{Op: OpDiv, L: Const{V: array.Int64(1)}, R: Const{V: array.Int64(0)}}); !v.Null {
		t.Error("int div by zero should be NULL")
	}
	if v, _ := eval(Binary{Op: OpMod, L: Const{V: array.Int64(1)}, R: Const{V: array.Int64(0)}}); !v.Null {
		t.Error("mod by zero should be NULL")
	}
	// Unknown attribute errors.
	if _, err := eval(AttrRef{Name: "zzz"}); err == nil {
		t.Error("unknown attribute accepted")
	}
	if _, err := eval(DimRef{Name: "zzz"}); err == nil {
		t.Error("unknown dimension accepted")
	}
}

func TestExprUncertainPropagation(t *testing.T) {
	s := &array.Schema{
		Name:  "E",
		Dims:  []array.Dimension{{Name: "i", High: 1}},
		Attrs: []array.Attribute{{Name: "u", Type: array.TFloat64, Uncertain: true}},
	}
	e := Binary{Op: OpAdd, L: AttrRef{Name: "u"}, R: Const{V: array.UncertainFloat(20, 4)}}
	v, err := evalCell(e, s, array.Coord{1}, array.Cell{array.UncertainFloat(10, 3)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v.Float != 30 || v.Sigma != 5 {
		t.Errorf("uncertain add = %v±%v, want 30±5", v.Float, v.Sigma)
	}
}

func TestExprStrings(t *testing.T) {
	e := Binary{Op: OpAnd,
		L: Binary{Op: OpEq, L: DimRef{Name: "X"}, R: Const{V: array.Int64(3)}},
		R: Binary{Op: OpLt, L: DimRef{Name: "Y"}, R: Const{V: array.Int64(4)}}}
	if got := e.String(); got != "((X = 3) and (Y < 4))" {
		t.Errorf("String = %q", got)
	}
	c := Call{Name: "f", Args: []Expr{AttrRef{Name: "a"}, Const{V: array.Int64(1)}}}
	if got := c.String(); got != "f(a, 1)" {
		t.Errorf("String = %q", got)
	}
	if got := (Not{E: AttrRef{Name: "p"}}).String(); got != "not p" {
		t.Errorf("String = %q", got)
	}
}

func TestDimCmpOps(t *testing.T) {
	for _, op := range []string{"<", "<=", ">", ">=", "=", "!="} {
		if _, err := DimCmp("x", op, 5); err != nil {
			t.Errorf("DimCmp(%q) failed: %v", op, err)
		}
	}
	if _, err := DimCmp("x", "~", 5); err == nil {
		t.Error("bad operator accepted")
	}
	odd := DimOdd("x")
	if !odd.Pred(3) || odd.Pred(4) {
		t.Error("odd predicate wrong")
	}
	rng := DimRange("x", 2, 4)
	if rng.Pred(1) || !rng.Pred(2) || !rng.Pred(4) || rng.Pred(5) {
		t.Error("range predicate wrong")
	}
}

// TestZonePredsExact: the zone conjuncts may stand in for a filter's
// predicate only when they are all of it. Every shape of predicate reports
// whether a leaf was left out, and where none was, the conjuncts decide each
// cell — NULLs and NaNs included — as the predicate itself does.
func TestZonePredsExact(t *testing.T) {
	s := &array.Schema{
		Name:  "P",
		Dims:  []array.Dimension{{Name: "x", High: 8}},
		Attrs: []array.Attribute{{Name: "v", Type: array.TInt64}, {Name: "w", Type: array.TFloat64}},
	}
	cmp := func(op BinOp, l, r Expr) Expr { return Binary{Op: op, L: l, R: r} }
	v, w, x := AttrRef{Name: "v"}, AttrRef{Name: "w"}, DimRef{Name: "x"}
	num := func(n int64) Expr { return Const{V: array.Int64(n)} }
	vGt3, wLt2 := cmp(OpGt, v, num(3)), cmp(OpLt, w, Const{V: array.Float64(2.5)})
	cells := []array.Cell{
		{array.Int64(5), array.Float64(1)},
		{array.Int64(5), array.Float64(9)},
		{array.Int64(1), array.Float64(1)},
		{array.NullValue(array.TInt64), array.Float64(1)},
		{array.Int64(5), array.NullValue(array.TFloat64)},
		{array.Int64(5), array.Float64(math.NaN())},
		{array.Int64(3), array.Float64(2.5)},
	}
	for _, c := range []struct {
		name  string
		pred  Expr
		preds int
		exact bool
	}{
		{"v > 3", vGt3, 1, true},
		{"3 < v", cmp(OpLt, num(3), v), 1, true},
		{"v > 3 and w < 2.5", cmp(OpAnd, vGt3, wLt2), 2, true},
		{"(v > 3 and w < 2.5) and v != 7", cmp(OpAnd, cmp(OpAnd, vGt3, wLt2), cmp(OpNe, v, num(7))), 3, true},
		{"w >= 2.5", cmp(OpGe, w, Const{V: array.Float64(2.5)}), 1, true}, // a NaN satisfies >=
		{"v > NULL", cmp(OpGt, v, Const{V: array.NullValue(array.TInt64)}), 1, true},
		{"v > 3 or w < 2.5", cmp(OpOr, vGt3, wLt2), 0, false},
		{"v > 3 and (v > 9 or w < 2.5)", cmp(OpAnd, vGt3, cmp(OpOr, cmp(OpGt, v, num(9)), wLt2)), 1, false},
		{"x > 3", cmp(OpGt, x, num(3)), 0, false},
		{"v > 3 and x > 3", cmp(OpAnd, vGt3, cmp(OpGt, x, num(3))), 1, false},
		{"v + 1 > 3", cmp(OpGt, cmp(OpAdd, v, num(1)), num(3)), 0, false},
		{"v > w", cmp(OpGt, v, w), 0, false},
		{"not v > 3", Not{E: vGt3}, 0, false},
		{"v > 3 and f(w)", cmp(OpAnd, vGt3, Call{Name: "f", Args: []Expr{w}}), 1, false},
		{"missing > 3", cmp(OpGt, AttrRef{Name: "missing"}, num(3)), 0, false},
	} {
		preds, exact := ZonePredsExact(c.pred, s)
		if len(preds) != c.preds || exact != c.exact {
			t.Errorf("%s: %d conjuncts, exact %v; want %d, %v", c.name, len(preds), exact, c.preds, c.exact)
		}
		if got := ZonePreds(c.pred, s); len(got) != len(preds) {
			t.Errorf("%s: ZonePreds gives %d conjuncts, ZonePredsExact %d", c.name, len(got), len(preds))
		}
		if !exact {
			continue
		}
		for _, cell := range cells {
			v, err := evalCell(c.pred, s, array.Coord{1}, cell, reg())
			if err != nil {
				t.Fatalf("%s over %v: %v", c.name, cell, err)
			}
			want := !v.Null && v.Bool
			if got := CellMatchesPreds(preds, cell); got != want {
				t.Errorf("%s over %v: the conjuncts say %v, the predicate %v", c.name, cell, got, want)
			}
		}
	}
}
