package ops

// Differential tests of the chunk body against references that share none of
// its code: tablesim (an array flattened to rows; GroupBy / Select /
// HashJoin) for Aggregate, Filter and Sjoin, and cell-at-a-time oracles
// written here for Apply, Regrid and Subsample. Every operator runs at
// parallelism 1 and 4 over seeded random arrays — NULLs, NaNs, empty chunks,
// a single chunk, no cells at all, unbounded dimensions, and storage-decoded
// twins carrying zone-map / dictionary / RLE views — and the two runs must
// agree to the bit, output schema and chunk layout included.

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"scidb/internal/array"
	"scidb/internal/storage"
	"scidb/internal/tablesim"
	"scidb/internal/udf"
)

// oracleKinds are the array shapes the generator covers.
var oracleKinds = []string{"empty", "onechunk", "sparse", "dense", "unbounded"}

// genOracleArray builds a seeded random array of attributes (i int64,
// f float, s string) over nd dimensions named x, y, z.
func genOracleArray(rng *rand.Rand, name string, nd int, kind string) *array.Array {
	dims := make([]array.Dimension, nd)
	extent := make(array.Coord, nd)
	lo := make(array.Coord, nd)
	for d := range dims {
		lo[d] = 1
		extent[d] = 3 + rng.Int63n(9)
		dims[d] = array.Dimension{Name: "xyz"[d : d+1], High: extent[d], ChunkLen: 2 + rng.Int63n(4)}
		switch kind {
		case "onechunk":
			dims[d].ChunkLen = 0
		case "unbounded":
			dims[d].High = array.Unbounded
			if nd == 1 {
				// Long enough to span several default-stride chunks.
				extent[d], dims[d].ChunkLen = 150, 0
			}
		}
	}
	a := array.MustNew(&array.Schema{Name: name, Dims: dims, Attrs: []array.Attribute{
		{Name: "i", Type: array.TInt64}, {Name: "f", Type: array.TFloat64}, {Name: "s", Type: array.TString},
	}})
	density := map[string]float64{"empty": 0, "onechunk": 0.7, "sparse": 0.15, "dense": 0.9, "unbounded": 0.5}[kind]
	holes := map[string]bool{} // grid chunks left without a cell
	array.IterBox(array.Box{Lo: lo, Hi: extent}, func(c array.Coord) bool {
		key := a.GridOrigin(c).Key()
		if _, ok := holes[key]; !ok {
			holes[key] = kind == "sparse" && rng.Float64() < 0.3
		}
		if holes[key] || rng.Float64() >= density {
			return true
		}
		cell := array.Cell{
			array.Int64(rng.Int63n(21) - 10),
			array.Float64(rng.NormFloat64() * 10),
			array.String64([]string{"aa", "bb", "cc"}[rng.Intn(3)]),
		}
		if rng.Float64() < 0.05 {
			cell[1] = array.Float64(math.NaN())
		}
		for k := range cell {
			if rng.Float64() < 0.1 {
				cell[k] = array.NullValue(cell[k].Type)
			}
		}
		if err := a.Set(c.Clone(), cell); err != nil {
			panic(err)
		}
		return true
	})
	return a
}

// oracleInputs returns a and, when it holds cells, its storage-decoded twin
// (same cells, chunks carrying zone-map and encoded-structure views).
func oracleInputs(t *testing.T, a *array.Array) map[string]*array.Array {
	t.Helper()
	in := map[string]*array.Array{"plain": a}
	if a.Count() > 0 {
		enc, err := encodedTwin(a)
		if err != nil {
			t.Fatal(err)
		}
		in["encoded"] = enc
	}
	return in
}

// atBothParallelisms runs op at parallelism 1 and 4, requires the two
// results to be indistinguishable — schema, physical chunk layout, and
// every cell to the bit — and returns one of them.
func atBothParallelisms(t *testing.T, label string, op func() (*array.Array, error)) *array.Array {
	t.Helper()
	var r1, r4 *array.Array
	var err1, err4 error
	withParallelism(t, 1, func() { r1, err1 = op() })
	withParallelism(t, 4, func() { r4, err4 = op() })
	if err1 != nil || err4 != nil {
		t.Fatalf("%s: parallelism 1 err %v, parallelism 4 err %v", label, err1, err4)
	}
	s1, s4 := r1.Schema, r4.Schema
	if fmt.Sprint(s1.Dims) != fmt.Sprint(s4.Dims) || fmt.Sprint(s1.Attrs) != fmt.Sprint(s4.Attrs) {
		t.Fatalf("%s: output schemas differ:\n par 1: %v %v\n par 4: %v %v", label, s1.Dims, s1.Attrs, s4.Dims, s4.Attrs)
	}
	c1, c4 := r1.Chunks(), r4.Chunks()
	if len(c1) != len(c4) {
		t.Fatalf("%s: %d chunks at parallelism 1, %d at 4", label, len(c1), len(c4))
	}
	for k := range c1 {
		if !c1[k].Origin.Equal(c4[k].Origin) || !shapeEq(c1[k].Shape, c4[k].Shape) {
			t.Fatalf("%s: chunk %d is %v+%v at parallelism 1, %v+%v at 4", label, k, c1[k].Origin, c1[k].Shape, c4[k].Origin, c4[k].Shape)
		}
	}
	requireCellsEqual(t, label, r1, r4)
	requireZonesHold(t, label, r1)
	requireZonesHold(t, label, r4)
	return r1
}

// requireZonesHold holds every zone map the storage encoder writes for a's
// chunks — the one a column carries, where an operator passed one through —
// to what array.ComputeZone makes of the column: the encoder trusts a carried
// view, so no operator may write to a column and leave one behind.
func requireZonesHold(t *testing.T, label string, a *array.Array) {
	t.Helper()
	for _, ch := range a.Chunks() {
		_, zones, err := storage.EncodeChunkZones(a.Schema, ch)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		for i, col := range ch.Cols {
			if want := array.ComputeZone(col, ch.Present); !reflect.DeepEqual(zones[i], want) {
				t.Fatalf("%s: chunk %v column %d is encoded with zone map %+v (carried: %v), the column's is %+v",
					label, ch.Origin, i, zones[i], col.Zone != nil, want)
			}
		}
	}
}

// oracleCmp is the engine's value ordering, restated: numbers compare as
// floats and a NaN ties with everything, so <= and >= hold for it while <
// and > do not. (= and != are IEEE equality: a NaN equals nothing.)
func oracleCmp(a, b float64) int {
	switch {
	case math.IsNaN(a) || math.IsNaN(b):
		return 0
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

func floatsClose(got, want float64) bool {
	if math.IsNaN(want) || math.IsNaN(got) {
		return math.IsNaN(want) && math.IsNaN(got)
	}
	return math.Abs(got-want) <= 1e-9*(1+math.Abs(want))
}

// rowCoord reads the first nd columns of a tablesim row (FromArray puts the
// coordinates there) as a coordinate.
func rowCoord(r tablesim.Row, nd int) array.Coord {
	c := make(array.Coord, nd)
	for d := range c {
		c[d] = r[d].AsInt()
	}
	return c
}

func forEachOracleArray(t *testing.T, fn func(t *testing.T, rng *rand.Rand, a *array.Array)) {
	for _, kind := range oracleKinds {
		for nd := 1; nd <= 3; nd++ {
			for seed := int64(1); seed <= 3; seed++ {
				rng := rand.New(rand.NewSource(seed*100 + int64(nd)))
				a := genOracleArray(rng, "A", nd, kind)
				t.Run(fmt.Sprintf("%s/%dd/seed%d", kind, nd, seed), func(t *testing.T) { fn(t, rng, a) })
			}
		}
	}
}

func TestOracleAggregateMatchesTablesim(t *testing.T) {
	reg := udf.NewRegistry()
	specs := []AggSpec{
		{Agg: "count", Attr: "i"}, {Agg: "sum", Attr: "i"}, {Agg: "sum", Attr: "f"},
		{Agg: "avg", Attr: "f"}, {Agg: "min", Attr: "f"}, {Agg: "max", Attr: "f"}, {Agg: "stdev", Attr: "f"},
	}
	forEachOracleArray(t, func(t *testing.T, rng *rand.Rand, a *array.Array) {
		nd := len(a.Schema.Dims)
		groupings := [][]string{nil, {"x"}}
		if nd > 1 {
			groupings = append(groupings, []string{"y"}, []string{"y", "x"})
		}
		for name, in := range oracleInputs(t, a) {
			tab, err := tablesim.FromArray(in, "")
			if err != nil {
				t.Fatal(err)
			}
			for _, groupDims := range groupings {
				label := fmt.Sprintf("%s/group%v", name, groupDims)
				res := atBothParallelisms(t, label, func() (*array.Array, error) {
					return Aggregate(in, groupDims, specs, reg)
				})
				keyOf := func(r tablesim.Row) array.Coord {
					if len(groupDims) == 0 {
						return array.Coord{1}
					}
					return rowCoord(r, len(groupDims))
				}
				nonNull := map[string]map[string]int64{} // attr → group → non-null count
				for _, attr := range []string{"i", "f"} {
					counts, err := tab.GroupBy(groupDims, "count", attr)
					if err != nil {
						t.Fatal(err)
					}
					if int64(counts.NumRows()) != res.Count() {
						t.Fatalf("%s: %d groups, tablesim has %d", label, res.Count(), counts.NumRows())
					}
					nonNull[attr] = map[string]int64{}
					counts.Scan(func(_ int64, r tablesim.Row) bool {
						nonNull[attr][keyOf(r).Key()] = r[len(r)-1].Int
						return true
					})
				}
				for k, sp := range specs {
					if sp.Agg == "stdev" {
						continue // no table equivalent; checked against cells below
					}
					want, err := tab.GroupBy(groupDims, sp.Agg, sp.Attr)
					if err != nil {
						t.Fatal(err)
					}
					want.Scan(func(_ int64, r tablesim.Row) bool {
						c := keyOf(r)
						cell, ok := res.At(c)
						if !ok {
							t.Fatalf("%s: group %v missing", label, c)
						}
						got, w := cell[k], r[len(r)-1]
						switch {
						case sp.Agg == "count":
							if got.Null || got.Int != w.Int {
								t.Fatalf("%s: count at %v = %v, tablesim %v", label, c, got, w)
							}
						case nonNull[sp.Attr][c.Key()] == 0:
							if !got.Null {
								t.Fatalf("%s: %s(%s) at %v = %v over no values, want NULL", label, sp.Agg, sp.Attr, c, got)
							}
						case sp.Agg == "min" || sp.Agg == "max":
							// NaNs are passed over like NULLs; a group of
							// nothing but NaNs answers NaN.
							if got.Null || (got.Float != w.Float && !(math.IsNaN(got.Float) && math.IsNaN(w.Float))) {
								t.Fatalf("%s: %s at %v = %v, tablesim %v", label, sp.Agg, c, got, w)
							}
						default:
							if got.Null || !floatsClose(got.AsFloat(), w.Float) {
								t.Fatalf("%s: %s(%s) at %v = %v, tablesim %v", label, sp.Agg, sp.Attr, c, got, w)
							}
						}
						return true
					})
				}
				checkBoxedTwin(t, label, in, groupDims, res, reg)
				// stdev against a two-pass computation over the group's cells.
				vals := map[string][]float64{}
				in.Iter(func(c array.Coord, cell array.Cell) bool {
					g := array.Coord{1}
					if len(groupDims) > 0 {
						g = make(array.Coord, len(groupDims))
						for k, name := range groupDims {
							g[k] = c[in.Schema.DimIndex(name)]
						}
					}
					if !cell[1].Null {
						vals[g.Key()] = append(vals[g.Key()], cell[1].Float)
					}
					return true
				})
				res.Iter(func(c array.Coord, cell array.Cell) bool {
					xs, got := vals[c.Key()], cell[len(specs)-1]
					if len(xs) < 2 {
						if !got.Null {
							t.Fatalf("%s: stdev at %v = %v over %d values, want NULL", label, c, got, len(xs))
						}
						return true
					}
					var mean, ss float64
					for _, x := range xs {
						mean += x / float64(len(xs))
					}
					for _, x := range xs {
						ss += (x - mean) * (x - mean)
					}
					if want := math.Sqrt(ss / float64(len(xs)-1)); got.Null || !floatsClose(got.Float, want) {
						t.Fatalf("%s: stdev at %v = %v, two-pass %v", label, c, got, want)
					}
					return true
				})
			}
		}
	})
}

// checkBoxedTwin folds in's f once more as an uncertain attribute (every
// value ± 0.5), which takes the boxed udf.Aggregate row instead of typed
// state, and holds it to typed — columns 2..5 of the typed result are sum,
// avg, min and max of f. The two define the same arithmetic in the same
// order, so means agree to the bit; the boxed row also carries the error bar.
func checkBoxedTwin(t *testing.T, label string, in *array.Array, groupDims []string, typed *array.Array, reg *udf.Registry) {
	t.Helper()
	s := in.Schema.Clone()
	s.Attrs[1].Uncertain = true
	unc := array.MustNew(s)
	in.Iter(func(c array.Coord, cell array.Cell) bool {
		if !cell[1].Null {
			cell[1].Sigma = 0.5
		}
		if err := unc.Set(c.Clone(), cell); err != nil {
			t.Fatal(err)
		}
		return true
	})
	specs := []AggSpec{{Agg: "count", Attr: "f"}, {Agg: "sum", Attr: "f"}, {Agg: "avg", Attr: "f"}, {Agg: "min", Attr: "f"}, {Agg: "max", Attr: "f"}}
	boxed := atBothParallelisms(t, label+"/uncertain", func() (*array.Array, error) { return Aggregate(unc, groupDims, specs, reg) })
	if boxed.Count() != typed.Count() {
		t.Fatalf("%s: %d groups over the uncertain twin, %d typed", label, boxed.Count(), typed.Count())
	}
	boxed.Iter(func(c array.Coord, cell array.Cell) bool {
		want, _ := typed.At(c)
		n := float64(cell[0].Int)
		for k, v := range cell[1:] {
			w := want[2+k]
			if v.Null != w.Null || (!v.Null && math.Float64bits(v.Float) != math.Float64bits(w.Float) && !(math.IsNaN(v.Float) && math.IsNaN(w.Float))) {
				t.Fatalf("%s: %s(f) at %v is %v boxed, %v typed", label, specs[1+k].Agg, c, v, w)
			}
		}
		if n > 0 && (!floatsClose(cell[1].Sigma, 0.5*math.Sqrt(n)) || !floatsClose(cell[2].Sigma, 0.5/math.Sqrt(n))) {
			t.Fatalf("%s: error bars at %v over %v values: sum ±%v, avg ±%v", label, c, n, cell[1].Sigma, cell[2].Sigma)
		}
		return true
	})
}

func TestOracleFilterMatchesTablesim(t *testing.T) {
	reg := udf.NewRegistry()
	_ = reg.RegisterFunc(&udf.Func{
		Name: "half", In: []array.Type{array.TInt64}, Out: []array.Type{array.TInt64},
		Body: func(args []array.Value) ([]array.Value, error) {
			return []array.Value{array.Int64(args[0].AsInt() / 2)}, nil
		},
	})
	forEachOracleArray(t, func(t *testing.T, rng *rand.Rand, a *array.Array) {
		nd := len(a.Schema.Dims)
		iCol, fCol, sCol := nd, nd+1, nd+2
		threshold := rng.NormFloat64() * 5
		// Each predicate with the row test tablesim selects by. A NULL
		// operand makes the comparison NULL, which Filter treats as false.
		preds := []struct {
			name string
			expr Expr
			row  func(r tablesim.Row) bool
		}{
			{"int-gt", Binary{Op: OpGt, L: AttrRef{Name: "i"}, R: Const{V: array.Int64(0)}},
				func(r tablesim.Row) bool { return !r[iCol].Null && r[iCol].Int > 0 }},
			{"float-le", Binary{Op: OpLe, L: AttrRef{Name: "f"}, R: Const{V: array.Float64(threshold)}},
				func(r tablesim.Row) bool { return !r[fCol].Null && oracleCmp(r[fCol].Float, threshold) <= 0 }},
			{"float-ne", Binary{Op: OpNe, L: AttrRef{Name: "f"}, R: Const{V: array.Float64(threshold)}},
				func(r tablesim.Row) bool { return !r[fCol].Null && r[fCol].Float != threshold }},
			{"string-eq", Binary{Op: OpEq, L: AttrRef{Name: "s"}, R: Const{V: array.String64("bb")}},
				func(r tablesim.Row) bool { return !r[sCol].Null && r[sCol].Str == "bb" }},
			{"compiled", Binary{Op: OpAnd,
				L: Binary{Op: OpLt, L: Binary{Op: OpMul, L: AttrRef{Name: "i"}, R: Const{V: array.Int64(2)}}, R: AttrRef{Name: "f"}},
				R: Binary{Op: OpGt, L: DimRef{Name: "x"}, R: Const{V: array.Int64(2)}}},
				func(r tablesim.Row) bool {
					return !r[iCol].Null && !r[fCol].Null && oracleCmp(float64(r[iCol].Int*2), r[fCol].Float) < 0 && r[0].Int > 2
				}},
			{"udf", Binary{Op: OpGe, L: Call{Name: "half", Args: []Expr{AttrRef{Name: "i"}}}, R: Const{V: array.Int64(2)}},
				func(r tablesim.Row) bool { return !r[iCol].Null && r[iCol].Int/2 >= 2 }},
		}
		for name, in := range oracleInputs(t, a) {
			tab, err := tablesim.FromArray(in, "")
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range preds {
				label := name + "/" + p.name
				res := atBothParallelisms(t, label, func() (*array.Array, error) { return Filter(in, p.expr, reg) })
				kept, err := tab.Select(p.row, nil)
				if err != nil {
					t.Fatal(err)
				}
				keep := map[string]bool{}
				kept.Scan(func(_ int64, r tablesim.Row) bool { keep[rowCoord(r, nd).Key()] = true; return true })
				if res.Count() != in.Count() {
					t.Fatalf("%s: %d cells out, %d in; absent must stay absent and present stay present", label, res.Count(), in.Count())
				}
				in.Iter(func(c array.Coord, cell array.Cell) bool {
					got, ok := res.At(c)
					if !ok {
						t.Fatalf("%s: cell %v dropped", label, c)
					}
					for k := range cell {
						want := array.NullValue(cell[k].Type)
						if keep[c.Key()] {
							want = cell[k]
						}
						if !valEq(got[k], want) {
							t.Fatalf("%s: cell %v attr %d = %v, want %v (selected by tablesim: %v)", label, c, k, got[k], want, keep[c.Key()])
						}
					}
					return true
				})
			}
		}
	})
}

func TestOracleSjoinMatchesTablesim(t *testing.T) {
	for _, kind := range oracleKinds {
		for seed := int64(1); seed <= 4; seed++ {
			rng := rand.New(rand.NewSource(seed))
			a := genOracleArray(rng, "L", 2, kind)
			b := genOracleArray(rng, "R", 2, oracleKinds[rng.Intn(len(oracleKinds))])
			for name, in := range oracleInputs(t, a) {
				label := fmt.Sprintf("%s/seed%d/%s", kind, seed, name)
				// L.y = R.x; R's y stays free: output dims (x, y, R's y).
				res := atBothParallelisms(t, label, func() (*array.Array, error) {
					return Sjoin(in, b, []DimPair{{LDim: "y", RDim: "x"}})
				})
				ta, err := tablesim.FromArray(in, "")
				if err != nil {
					t.Fatal(err)
				}
				tb, err := tablesim.FromArray(b, "")
				if err != nil {
					t.Fatal(err)
				}
				joined, err := tablesim.HashJoin(ta, tb, "y", "x")
				if err != nil {
					t.Fatal(err)
				}
				if int64(joined.NumRows()) != res.Count() {
					t.Fatalf("%s: %d cells, tablesim joins %d rows", label, res.Count(), joined.NumRows())
				}
				// A joined row is L's (x, y, i, f, s) then R's (x, y, i, f, s).
				joined.Scan(func(_ int64, r tablesim.Row) bool {
					c := array.Coord{r[0].Int, r[1].Int, r[6].Int}
					got, ok := res.At(c)
					if !ok {
						t.Fatalf("%s: joined cell %v missing", label, c)
					}
					want := append(append(array.Cell(nil), r[2:5]...), r[7:10]...)
					for k := range want {
						if !valEq(got[k], want[k]) {
							t.Fatalf("%s: cell %v attr %d = %v, tablesim %v", label, c, k, got[k], want[k])
						}
					}
					return true
				})
			}
		}
	}
}

func TestOracleApplyMatchesCells(t *testing.T) {
	reg := udf.NewRegistry()
	_ = reg.RegisterFunc(&udf.Func{
		Name: "neg", In: []array.Type{array.TFloat64}, Out: []array.Type{array.TFloat64},
		Body: func(args []array.Value) ([]array.Value, error) {
			if args[0].Null {
				return []array.Value{array.NullValue(array.TFloat64)}, nil
			}
			return []array.Value{array.Float64(-args[0].AsFloat())}, nil
		},
	})
	specs := []ApplySpec{
		{Name: "c1", Expr: Binary{Op: OpAdd, L: AttrRef{Name: "i"}, R: Const{V: array.Int64(7)}}},
		{Name: "c2", Expr: Binary{Op: OpMul, L: AttrRef{Name: "f"}, R: DimRef{Name: "x"}}},
		{Name: "c3", Expr: Call{Name: "neg", Args: []Expr{AttrRef{Name: "f"}}}},
	}
	forEachOracleArray(t, func(t *testing.T, _ *rand.Rand, a *array.Array) {
		for name, in := range oracleInputs(t, a) {
			res := atBothParallelisms(t, name, func() (*array.Array, error) { return Apply(in, specs, reg) })
			if res.Count() != in.Count() {
				t.Fatalf("%s: %d cells out, %d in", name, res.Count(), in.Count())
			}
			in.Iter(func(c array.Coord, cell array.Cell) bool {
				got, ok := res.At(c)
				if !ok {
					t.Fatalf("%s: cell %v dropped", name, c)
				}
				for k := range cell {
					if !valEq(got[k], cell[k]) {
						t.Fatalf("%s: cell %v attr %d = %v, want the input's %v", name, c, k, got[k], cell[k])
					}
				}
				// Computed attributes are stored in the type their first
				// concrete value fixed, so compare numerically.
				want := []array.Value{array.NullValue(array.TFloat64), array.NullValue(array.TFloat64), array.NullValue(array.TFloat64)}
				if !cell[0].Null {
					want[0] = array.Int64(cell[0].Int + 7)
				}
				if !cell[1].Null {
					want[1] = array.Float64(cell[1].Float * float64(c[0]))
					want[2] = array.Float64(-cell[1].Float)
				}
				for k, w := range want {
					g := got[len(cell)+k]
					if g.Null != w.Null || (!w.Null && !floatsClose(g.AsFloat(), w.AsFloat())) {
						t.Fatalf("%s: cell %v computed attr %d = %v, want %v", name, c, k, g, w)
					}
				}
				return true
			})
		}
	})
}

func TestOracleRegridMatchesCells(t *testing.T) {
	reg := udf.NewRegistry()
	forEachOracleArray(t, func(t *testing.T, rng *rand.Rand, a *array.Array) {
		strides := make([]int64, len(a.Schema.Dims))
		for d := range strides {
			strides[d] = 1 + rng.Int63n(4)
		}
		for name, in := range oracleInputs(t, a) {
			// One pass over the cells: each block's non-null f values.
			blocks := map[string][]float64{}
			cells := map[string]bool{}
			in.Iter(func(c array.Coord, cell array.Cell) bool {
				b := make(array.Coord, len(c))
				for d := range c {
					b[d] = (c[d]-1)/strides[d] + 1
				}
				cells[b.Key()] = true
				if !cell[1].Null {
					blocks[b.Key()] = append(blocks[b.Key()], cell[1].Float)
				}
				return true
			})
			for _, agg := range []string{"count", "sum", "avg", "min", "max", "stdev"} {
				label := fmt.Sprintf("%s/%s%v", name, agg, strides)
				res := atBothParallelisms(t, label, func() (*array.Array, error) {
					return Regrid(in, strides, AggSpec{Agg: agg, Attr: "f"}, reg)
				})
				if res.Count() != int64(len(cells)) {
					t.Fatalf("%s: %d blocks out, cells fall in %d", label, res.Count(), len(cells))
				}
				res.Iter(func(c array.Coord, cell array.Cell) bool {
					xs, got := blocks[c.Key()], cell[0]
					// min and max pass over NaNs; with nothing else they are NaN.
					var sum float64
					lo, hi := math.NaN(), math.NaN()
					for _, x := range xs {
						sum += x
						if !math.IsNaN(x) && !(lo <= x) {
							lo = x
						}
						if !math.IsNaN(x) && !(hi >= x) {
							hi = x
						}
					}
					differs := func(got, want float64) bool {
						return got != want && !(math.IsNaN(got) && math.IsNaN(want))
					}
					switch {
					case agg == "count":
						if got.Int != int64(len(xs)) {
							t.Fatalf("%s: count at %v = %v, want %d", label, c, got, len(xs))
						}
					case len(xs) == 0 || (agg == "stdev" && len(xs) < 2):
						if !got.Null {
							t.Fatalf("%s: block %v = %v over %d values, want NULL", label, c, got, len(xs))
						}
					case agg == "sum" && !floatsClose(got.Float, sum),
						agg == "avg" && !floatsClose(got.Float, sum/float64(len(xs))),
						agg == "min" && differs(got.Float, lo),
						agg == "max" && differs(got.Float, hi):
						t.Fatalf("%s: block %v = %v over %v", label, c, got, xs)
					}
					return true
				})
			}
		}
	})
}

func TestOracleSubsampleMatchesCells(t *testing.T) {
	forEachOracleArray(t, func(t *testing.T, rng *rand.Rand, a *array.Array) {
		lo, hi := 1+rng.Int63n(3), 4+rng.Int63n(8)
		conds := []DimCond{DimRange("x", lo, hi)}
		keep := []func(int64) bool{func(v int64) bool { return v >= lo && v <= hi }}
		for d := 1; d < len(a.Schema.Dims); d++ {
			keep = append(keep, func(int64) bool { return true })
		}
		if len(a.Schema.Dims) > 1 {
			conds = append(conds, DimEven("y"))
			keep[1] = func(v int64) bool { return v%2 == 0 }
		}
		for name, in := range oracleInputs(t, a) {
			res := atBothParallelisms(t, name, func() (*array.Array, error) { return Subsample(in, conds) })
			// rank[d][v] is the compacted index of original index v.
			rank := make([]map[int64]int64, len(keep))
			for d := range keep {
				rank[d] = map[int64]int64{}
				for v := int64(1); v <= in.Hwm(d); v++ {
					if keep[d](v) {
						rank[d][v] = int64(len(rank[d]) + 1)
					}
				}
			}
			var want int64
			in.Iter(func(c array.Coord, cell array.Cell) bool {
				dst := make(array.Coord, len(c))
				for d := range c {
					r, ok := rank[d][c[d]]
					if !ok {
						return true
					}
					dst[d] = r
				}
				want++
				got, ok := res.At(dst)
				if !ok {
					t.Fatalf("%s: cell %v (from %v) missing", name, dst, c)
				}
				for k := range cell {
					if !valEq(got[k], cell[k]) {
						t.Fatalf("%s: cell %v attr %d = %v, want %v", name, dst, k, got[k], cell[k])
					}
				}
				return true
			})
			if res.Count() != want {
				t.Fatalf("%s: %d cells out, %d selected", name, res.Count(), want)
			}
		}
	})
}

// lastAgg keeps the last non-null value it was stepped with: an aggregate
// with no Merge, whose answer depends on the order cells arrive in.
type lastAgg struct{ v array.Value }

func (a *lastAgg) Step(v array.Value) {
	if !v.Null {
		a.v = v
	}
}

func (a *lastAgg) Result() array.Value {
	if a.v.Type == array.TInvalid {
		return array.NullValue(array.TFloat64)
	}
	return a.v
}

// A non-mergeable UDF aggregate runs the same per-chunk kernel with chunks
// visited in order on the caller: every group sees its cells in the array's
// iteration order at any parallelism.
func TestOracleNonMergeableAggregate(t *testing.T) {
	reg := udf.NewRegistry()
	reg.RegisterAggregate("last", func() udf.Aggregate { return &lastAgg{} })
	forEachOracleArray(t, func(t *testing.T, rng *rand.Rand, a *array.Array) {
		strides := make([]int64, len(a.Schema.Dims))
		for d := range strides {
			strides[d] = 1 + rng.Int63n(4)
		}
		wantGroup, wantBlock := map[string]array.Value{}, map[string]array.Value{}
		a.Iter(func(c array.Coord, cell array.Cell) bool {
			b := make(array.Coord, len(c))
			for d := range c {
				b[d] = (c[d]-1)/strides[d] + 1
			}
			note := func(m map[string]array.Value, key string) {
				if _, ok := m[key]; !ok || !cell[1].Null {
					m[key] = cell[1]
				}
			}
			note(wantGroup, array.Coord{c[0]}.Key())
			note(wantBlock, b.Key())
			return true
		})
		check := func(label string, res *array.Array, want map[string]array.Value) {
			if res.Count() != int64(len(want)) {
				t.Fatalf("%s: %d groups, want %d", label, res.Count(), len(want))
			}
			res.Iter(func(c array.Coord, cell array.Cell) bool {
				if w := want[c.Key()]; cell[0].Null != w.Null || (!w.Null && !valEq(cell[0], w)) {
					t.Fatalf("%s: group %v = %v, last value in iteration order is %v", label, c, cell[0], w)
				}
				return true
			})
		}
		check("aggregate", atBothParallelisms(t, "aggregate", func() (*array.Array, error) {
			return Aggregate(a, []string{"x"}, []AggSpec{{Agg: "last", Attr: "f"}}, reg)
		}), wantGroup)
		check("regrid", atBothParallelisms(t, "regrid", func() (*array.Array, error) {
			return Regrid(a, strides, AggSpec{Agg: "last", Attr: "f"}, reg)
		}), wantBlock)
	})
}
