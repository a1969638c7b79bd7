package ops

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"scidb/internal/array"
	"scidb/internal/exec"
	"scidb/internal/udf"
)

// withParallelism runs fn at the given process-wide parallelism, restoring
// the previous setting afterwards.
func withParallelism(t *testing.T, n int, fn func()) {
	t.Helper()
	old := exec.Parallelism()
	exec.SetParallelism(n)
	defer exec.SetParallelism(old)
	fn()
}

// chunkedRand builds a chunked 2-D array with an int64 and a float64
// attribute, ~10% absent cells and ~10% NULLs. Float values are
// integer-valued so parallel partial sums are exact and the serial/parallel
// comparison can demand bit identity.
func chunkedRand(seed, rows, cols, clx, cly int64) *array.Array {
	s := &array.Schema{
		Name: "T",
		Dims: []array.Dimension{
			{Name: "x", High: rows, ChunkLen: clx},
			{Name: "y", High: cols, ChunkLen: cly},
		},
		Attrs: []array.Attribute{
			{Name: "v", Type: array.TInt64},
			{Name: "f", Type: array.TFloat64},
		},
	}
	a := array.MustNew(s)
	r := rand.New(rand.NewSource(seed))
	for i := int64(1); i <= rows; i++ {
		for j := int64(1); j <= cols; j++ {
			if r.Float64() < 0.1 {
				continue
			}
			cell := array.Cell{
				array.Int64(r.Int63n(1000) - 500),
				array.Float64(float64(r.Int63n(1000) - 500)),
			}
			if r.Float64() < 0.1 {
				cell[0] = array.NullValue(array.TInt64)
			}
			if r.Float64() < 0.1 {
				cell[1] = array.NullValue(array.TFloat64)
			}
			if err := a.Set(array.Coord{i, j}, cell); err != nil {
				panic(err)
			}
		}
	}
	return a
}

func valEq(x, y array.Value) bool {
	if x.Type != y.Type || x.Null != y.Null {
		return false
	}
	if x.Null {
		return true
	}
	return x.Int == y.Int && x.Bool == y.Bool && x.Str == y.Str &&
		math.Float64bits(x.Float) == math.Float64bits(y.Float) &&
		math.Float64bits(x.Sigma) == math.Float64bits(y.Sigma)
}

// requireCellsEqual asserts two arrays hold the identical cell set —
// coordinates, presence, and bit-exact values — ignoring physical chunking.
func requireCellsEqual(t *testing.T, label string, serial, parallel *array.Array) {
	t.Helper()
	if sc, pc := serial.Count(), parallel.Count(); sc != pc {
		t.Fatalf("%s: serial has %d cells, parallel %d", label, sc, pc)
	}
	serial.Iter(func(c array.Coord, cell array.Cell) bool {
		got, ok := parallel.PeekAt(c)
		if !ok {
			t.Fatalf("%s: cell %v present serially, absent in parallel", label, c)
		}
		if len(got) != len(cell) {
			t.Fatalf("%s: cell %v has %d attrs serially, %d in parallel", label, c, len(cell), len(got))
		}
		for i := range cell {
			if !valEq(cell[i], got[i]) {
				t.Fatalf("%s: cell %v attr %d: serial %v, parallel %v", label, c, i, cell[i], got[i])
			}
		}
		return true
	})
}

// runBoth evaluates op at parallelism 1 and parallelism 4 and requires
// cell-identical results.
func runBoth(t *testing.T, label string, op func() (*array.Array, error)) {
	t.Helper()
	var serial, parallel *array.Array
	var serr, perr error
	withParallelism(t, 1, func() { serial, serr = op() })
	withParallelism(t, 4, func() { parallel, perr = op() })
	if serr != nil || perr != nil {
		t.Fatalf("%s: serial err %v, parallel err %v", label, serr, perr)
	}
	requireCellsEqual(t, label, serial, parallel)
}

func TestParallelFilterMatchesSerial(t *testing.T) {
	reg := udf.NewRegistry()
	_ = reg.RegisterFunc(&udf.Func{
		Name: "half",
		In:   []array.Type{array.TInt64},
		Out:  []array.Type{array.TInt64},
		Body: func(args []array.Value) ([]array.Value, error) {
			return []array.Value{array.Int64(args[0].AsInt() / 2)}, nil
		},
	})
	preds := map[string]Expr{
		// Vectorized column kernel shape.
		"vec-int": Binary{Op: OpGt, L: AttrRef{Name: "v"}, R: Const{V: array.Int64(0)}},
		"vec-flt": Binary{Op: OpLe, L: AttrRef{Name: "f"}, R: Const{V: array.Float64(100)}},
		// Compiled columnar closure shape.
		"compiled": Binary{Op: OpAnd,
			L: Binary{Op: OpLt, L: Binary{Op: OpMul, L: AttrRef{Name: "v"}, R: Const{V: array.Int64(2)}}, R: AttrRef{Name: "f"}},
			R: Binary{Op: OpGt, L: DimRef{Name: "x"}, R: Const{V: array.Int64(2)}}},
		// UDF call runs the compiled Call.
		"generic": Binary{Op: OpGe, L: Call{Name: "half", Args: []Expr{AttrRef{Name: "v"}}}, R: Const{V: array.Int64(10)}},
	}
	for seed := int64(1); seed <= 4; seed++ {
		a := chunkedRand(seed, 23, 17, 7, 5)
		for name, pred := range preds {
			pred := pred
			runBoth(t, fmt.Sprintf("filter/%s/seed%d", name, seed), func() (*array.Array, error) {
				return Filter(a, pred, reg)
			})
		}
	}
}

func TestParallelApplyMatchesSerial(t *testing.T) {
	reg := udf.NewRegistry()
	_ = reg.RegisterFunc(&udf.Func{
		Name: "neg",
		In:   []array.Type{array.TFloat64},
		Out:  []array.Type{array.TFloat64},
		Body: func(args []array.Value) ([]array.Value, error) {
			return []array.Value{array.Float64(-args[0].AsFloat())}, nil
		},
	})
	specs := []ApplySpec{
		{Name: "c1", Expr: Binary{Op: OpAdd, L: AttrRef{Name: "v"}, R: Const{V: array.Int64(7)}}},
		{Name: "c2", Expr: Binary{Op: OpMul, L: AttrRef{Name: "f"}, R: DimRef{Name: "y"}}},
		{Name: "c3", Expr: Call{Name: "neg", Args: []Expr{AttrRef{Name: "f"}}}},
	}
	for seed := int64(1); seed <= 4; seed++ {
		a := chunkedRand(seed, 19, 21, 6, 8)
		runBoth(t, fmt.Sprintf("apply/seed%d", seed), func() (*array.Array, error) {
			return Apply(a, specs, reg)
		})
	}
}

func TestParallelAggregateMatchesSerial(t *testing.T) {
	reg := udf.NewRegistry()
	specs := []AggSpec{
		{Agg: "sum", Attr: "v"},
		{Agg: "count", Attr: "v"},
		{Agg: "avg", Attr: "f"},
		{Agg: "min", Attr: "v"},
		{Agg: "max", Attr: "f"},
	}
	groupings := [][]string{nil, {"x"}, {"y"}, {"x", "y"}}
	for seed := int64(1); seed <= 4; seed++ {
		a := chunkedRand(seed, 25, 15, 7, 4)
		for gi, groupDims := range groupings {
			groupDims := groupDims
			runBoth(t, fmt.Sprintf("aggregate/g%d/seed%d", gi, seed), func() (*array.Array, error) {
				return Aggregate(a, groupDims, specs, reg)
			})
		}
	}
}

// Stdev merges one Welford state per chunk, in chunk order, whatever the
// pool's parallelism, so the result is the same to the bit.
func TestParallelStdevClose(t *testing.T) {
	reg := udf.NewRegistry()
	a := chunkedRand(11, 30, 20, 8, 6)
	runBoth(t, "stdev", func() (*array.Array, error) {
		return Aggregate(a, []string{"x"}, []AggSpec{{Agg: "stdev", Attr: "f"}}, reg)
	})
}

func TestParallelRegridMatchesSerial(t *testing.T) {
	reg := udf.NewRegistry()
	for seed := int64(1); seed <= 4; seed++ {
		a := chunkedRand(seed, 27, 18, 9, 5)
		for _, agg := range []string{"sum", "avg", "min", "count"} {
			agg := agg
			runBoth(t, fmt.Sprintf("regrid/%s/seed%d", agg, seed), func() (*array.Array, error) {
				return Regrid(a, []int64{4, 3}, AggSpec{Agg: agg, Attr: "f"}, reg)
			})
		}
	}
}

func TestParallelSubsampleMatchesSerial(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		a := chunkedRand(seed, 40, 24, 7, 6)
		conds := [][]DimCond{
			{DimEven("x")},
			{DimOdd("y"), DimRange("x", 3, 35)},
			{DimCond{Dim: "x", Desc: "all", Pred: func(int64) bool { return true }}},
		}
		for ci, cs := range conds {
			cs := cs
			runBoth(t, fmt.Sprintf("subsample/c%d/seed%d", ci, seed), func() (*array.Array, error) {
				return Subsample(a, cs)
			})
		}
	}
}

func TestParallelSjoinMatchesSerial(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		a := chunkedRand(seed, 22, 14, 6, 5)
		b := chunkedRand(seed+100, 14, 9, 5, 4)
		// Join A's y against B's x; B's y stays free.
		runBoth(t, fmt.Sprintf("sjoin/seed%d", seed), func() (*array.Array, error) {
			return Sjoin(a, b, []DimPair{{LDim: "y", RDim: "x"}})
		})
	}
}

// Parallel operators must leave their inputs untouched so a shared array can
// feed concurrent queries.
func TestParallelInputUnchanged(t *testing.T) {
	reg := udf.NewRegistry()
	a := chunkedRand(5, 23, 17, 7, 5)
	before := a.Clone()
	withParallelism(t, 4, func() {
		if _, err := Filter(a, Binary{Op: OpGt, L: AttrRef{Name: "v"}, R: Const{V: array.Int64(0)}}, reg); err != nil {
			t.Fatal(err)
		}
		if _, err := Aggregate(a, []string{"x"}, []AggSpec{{Agg: "sum", Attr: "v"}}, reg); err != nil {
			t.Fatal(err)
		}
	})
	requireCellsEqual(t, "input", before, a)
}
