package ops

import (
	"context"
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"scidb/internal/array"
	"scidb/internal/exec"
	"scidb/internal/storage"
	"scidb/internal/udf"
)

// randomGrid materializes a deterministic 2-D array from a value seed
// slice; size and sparsity derive from the generator input.
func randomGrid(vals []int16, rows, cols int64) *array.Array {
	s := &array.Schema{
		Name:  "P",
		Dims:  []array.Dimension{{Name: "x", High: rows}, {Name: "y", High: cols}},
		Attrs: []array.Attribute{{Name: "v", Type: array.TInt64}},
	}
	a := array.MustNew(s)
	k := 0
	for i := int64(1); i <= rows; i++ {
		for j := int64(1); j <= cols; j++ {
			if len(vals) == 0 {
				continue
			}
			v := vals[k%len(vals)]
			k++
			if v%5 == 0 {
				continue // leave some cells absent
			}
			_ = a.Set(array.Coord{i, j}, array.Cell{array.Int64(int64(v))})
		}
	}
	return a
}

func dims(vals []int16) (int64, int64) {
	rows := int64(len(vals)%5) + 2
	cols := int64(len(vals)%7) + 2
	return rows, cols
}

// Regrid with sum preserves the total of the input.
func TestPropertyRegridPreservesSum(t *testing.T) {
	reg := udf.NewRegistry()
	f := func(vals []int16, strideSeed uint8) bool {
		rows, cols := dims(vals)
		a := randomGrid(vals, rows, cols)
		stride := int64(strideSeed%3) + 1
		rg, err := Regrid(a, []int64{stride, stride}, AggSpec{Agg: "sum", Attr: "v"}, reg)
		if err != nil {
			return false
		}
		var inSum, outSum int64
		a.Iter(func(_ array.Coord, c array.Cell) bool { inSum += c[0].Int; return true })
		rg.Iter(func(_ array.Coord, c array.Cell) bool { outSum += c[0].AsInt(); return true })
		return inSum == outSum
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Aggregate on all dims at once equals the grand total.
func TestPropertyAggregateGrandTotal(t *testing.T) {
	reg := udf.NewRegistry()
	f := func(vals []int16) bool {
		rows, cols := dims(vals)
		a := randomGrid(vals, rows, cols)
		total, err := Aggregate(a, nil, []AggSpec{{Agg: "sum", Attr: "v"}, {Agg: "count", Attr: "v"}}, reg)
		if err != nil {
			return false
		}
		cell, ok := total.At(array.Coord{1})
		if !ok {
			return a.Count() == 0
		}
		var wantSum, wantCount int64
		a.Iter(func(_ array.Coord, c array.Cell) bool {
			wantSum += c[0].Int
			wantCount++
			return true
		})
		if wantCount == 0 {
			return cell[0].Null
		}
		return cell[0].AsInt() == wantSum && cell[1].AsInt() == wantCount
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Grouped aggregates partition the grand total: per-group sums add up.
func TestPropertyGroupedSumsPartitionTotal(t *testing.T) {
	reg := udf.NewRegistry()
	f := func(vals []int16) bool {
		rows, cols := dims(vals)
		a := randomGrid(vals, rows, cols)
		grouped, err := Aggregate(a, []string{"x"}, []AggSpec{{Agg: "sum", Attr: "v"}}, reg)
		if err != nil {
			return false
		}
		var groupedTotal, direct int64
		grouped.Iter(func(_ array.Coord, c array.Cell) bool {
			if !c[0].Null {
				groupedTotal += c[0].AsInt()
			}
			return true
		})
		a.Iter(func(_ array.Coord, c array.Cell) bool { direct += c[0].Int; return true })
		return groupedTotal == direct
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Reshape preserves the multiset of values (paper: "the same number of
// cells").
func TestPropertyReshapePreservesValues(t *testing.T) {
	f := func(vals []int16) bool {
		rows, cols := dims(vals)
		a := randomGrid(vals, rows, cols)
		r, err := Reshape(context.Background(), a, []string{"x", "y"}, []array.Dimension{{Name: "i", High: rows * cols}})
		if err != nil {
			return false
		}
		if r.Count() != a.Count() {
			return false
		}
		counts := map[int64]int{}
		a.Iter(func(_ array.Coord, c array.Cell) bool { counts[c[0].Int]++; return true })
		r.Iter(func(_ array.Coord, c array.Cell) bool { counts[c[0].Int]--; return true })
		for _, n := range counts {
			if n != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Subsample keeps dimensionality and never invents cells.
func TestPropertySubsampleShrinks(t *testing.T) {
	f := func(vals []int16, pick uint8) bool {
		rows, cols := dims(vals)
		a := randomGrid(vals, rows, cols)
		var cond DimCond
		switch pick % 3 {
		case 0:
			cond = DimEven("x")
		case 1:
			cond = DimOdd("y")
		default:
			cond = DimRange("x", 1, rows/2+1)
		}
		sub, err := Subsample(a, []DimCond{cond})
		if err != nil {
			return false
		}
		if len(sub.Schema.Dims) != len(a.Schema.Dims) {
			return false
		}
		if sub.Count() > a.Count() {
			return false
		}
		// Every retained cell maps back to an identical original cell.
		okAll := true
		e := sub.Enhancements[0]
		sub.Iter(func(c array.Coord, cell array.Cell) bool {
			orig := e.Map(c)
			oc := array.Coord{orig[0].AsInt(), orig[1].AsInt()}
			srcCell, ok := a.At(oc)
			if !ok || srcCell[0].Int != cell[0].Int {
				okAll = false
				return false
			}
			return true
		})
		return okAll
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Filter never changes shape, and keep+null partition the present cells.
func TestPropertyFilterPartition(t *testing.T) {
	reg := udf.NewRegistry()
	f := func(vals []int16, threshold int16) bool {
		rows, cols := dims(vals)
		a := randomGrid(vals, rows, cols)
		pred := Binary{Op: OpGt, L: AttrRef{Name: "v"}, R: Const{V: array.Int64(int64(threshold))}}
		res, err := Filter(a, pred, reg)
		if err != nil {
			return false
		}
		if res.Count() != a.Count() {
			return false
		}
		ok := true
		res.Iter(func(c array.Coord, cell array.Cell) bool {
			src, present := a.At(c)
			if !present {
				ok = false
				return false
			}
			if cell[0].Null {
				if src[0].Int > int64(threshold) {
					ok = false
				}
			} else if cell[0].Int != src[0].Int || src[0].Int <= int64(threshold) {
				ok = false
			}
			return ok
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// encParityGrid builds a plain array whose columns compress well: v carries
// the raw seed stream (delta- and zone-friendly), level repeats per row
// (run-length-friendly), and tag draws from two values (dictionary-friendly),
// so its store-backed twin exercises every value encoding.
func encParityGrid(vals []int16, rows, cols int64) *array.Array {
	s := &array.Schema{
		Name: "EP",
		Dims: []array.Dimension{{Name: "x", High: rows}, {Name: "y", High: cols}},
		Attrs: []array.Attribute{
			{Name: "v", Type: array.TInt64},
			{Name: "level", Type: array.TFloat64},
			{Name: "tag", Type: array.TString},
		},
	}
	a := array.MustNew(s)
	k := 0
	for i := int64(1); i <= rows; i++ {
		for j := int64(1); j <= cols; j++ {
			if len(vals) == 0 {
				continue
			}
			v := vals[k%len(vals)]
			k++
			if v%5 == 0 {
				continue // keep some cells absent
			}
			_ = a.Set(array.Coord{i, j}, array.Cell{
				array.Int64(int64(v)),
				array.Float64(float64(i)),
				array.String64([]string{"aa", "bb"}[(i+j)%2]),
			})
		}
	}
	return a
}

// encodedTwin round-trips every chunk of a through the storage codec so the
// copy carries zone maps while the original stays plain. A non-empty twin
// with no zone map would make the parity check vacuous, so that is an error.
func encodedTwin(a *array.Array) (*array.Array, error) {
	b := array.MustNew(a.Schema.Clone())
	viewed := false
	for _, ch := range a.Chunks() {
		data, err := storage.EncodeChunk(a.Schema, ch)
		if err != nil {
			return nil, err
		}
		dec, err := storage.DecodeChunk(a.Schema, data)
		if err != nil {
			return nil, err
		}
		for _, col := range dec.Cols {
			if col.Zone != nil {
				viewed = true
			}
		}
		b.PutChunk(dec)
	}
	if a.Count() > 0 && !viewed {
		return nil, fmt.Errorf("storage round trip attached no zone maps")
	}
	return b, nil
}

// sameCells reports whether two arrays hold bit-identical cells at identical
// coordinates (types, null bits, and float bit patterns included).
func sameCells(x, y *array.Array) bool {
	if x.Count() != y.Count() {
		return false
	}
	same := true
	x.Iter(func(c array.Coord, cell array.Cell) bool {
		other, ok := y.At(c)
		if !ok || len(cell) != len(other) {
			same = false
			return false
		}
		for i := range cell {
			a, b := cell[i], other[i]
			if a.Type != b.Type || a.Null != b.Null {
				same = false
				return false
			}
			if a.Null {
				continue
			}
			if a.Int != b.Int || a.Str != b.Str || a.Bool != b.Bool ||
				math.Float64bits(a.Float) != math.Float64bits(b.Float) ||
				math.Float64bits(a.Sigma) != math.Float64bits(b.Sigma) {
				same = false
				return false
			}
		}
		return true
	})
	return same
}

// Decoding must be invisible: Filter (numeric and dictionary-encoded string
// predicates), grand-total Aggregate, and Regrid produce bit-identical
// results on a store-decoded array, zone maps attached, and its plain twin,
// serial and chunk-parallel alike.
func TestPropertyEncodedDecodedParity(t *testing.T) {
	reg := udf.NewRegistry()
	for _, par := range []int{1, 4} {
		par := par
		t.Run(fmt.Sprintf("parallelism=%d", par), func(t *testing.T) {
			exec.SetParallelism(par)
			defer exec.SetParallelism(0)
			f := func(vals []int16, threshold int16, strideSeed uint8) bool {
				rows, cols := dims(vals)
				plain := encParityGrid(vals, rows, cols)
				enc, err := encodedTwin(plain)
				if err != nil {
					return false
				}
				preds := []Expr{
					Binary{Op: OpGt, L: AttrRef{Name: "v"}, R: Const{V: array.Int64(int64(threshold))}},
					Binary{Op: OpEq, L: AttrRef{Name: "tag"}, R: Const{V: array.String64("aa")}},
				}
				for _, pred := range preds {
					fp, err1 := Filter(plain, pred, reg)
					fe, err2 := Filter(enc, pred, reg)
					if err1 != nil || err2 != nil || !sameCells(fp, fe) {
						return false
					}
				}
				specs := []AggSpec{{Agg: "sum", Attr: "v"}, {Agg: "count", Attr: "v"},
					{Agg: "min", Attr: "level"}, {Agg: "max", Attr: "level"}}
				gp, err1 := Aggregate(plain, nil, specs, reg)
				ge, err2 := Aggregate(enc, nil, specs, reg)
				if err1 != nil || err2 != nil || !sameCells(gp, ge) {
					return false
				}
				stride := int64(strideSeed%3) + 1
				rp, err1 := Regrid(plain, []int64{stride, stride}, AggSpec{Agg: "sum", Attr: "v"}, reg)
				re, err2 := Regrid(enc, []int64{stride, stride}, AggSpec{Agg: "sum", Attr: "v"}, reg)
				return err1 == nil && err2 == nil && sameCells(rp, re)
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
				t.Error(err)
			}
		})
	}
}

// Concat's cell count is the sum of its inputs'.
func TestPropertyConcatCounts(t *testing.T) {
	f := func(vals1, vals2 []int16) bool {
		rows, cols := dims(vals1)
		a := randomGrid(vals1, rows, cols)
		b := randomGrid(vals2, rows, cols) // same shape
		// Force identical bounds: randomGrid uses the same rows/cols.
		res, err := Concat(context.Background(), a, b, "x")
		if err != nil {
			return false
		}
		return res.Count() == a.Count()+b.Count()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// CrossProduct's cell count is the product of its inputs'.
func TestPropertyCrossCounts(t *testing.T) {
	f := func(vals1, vals2 []int16) bool {
		a := randomGrid(vals1, 3, 2)
		b := randomGrid(vals2, 2, 3)
		res, err := CrossProduct(context.Background(), a, b)
		if err != nil {
			return false
		}
		return res.Count() == a.Count()*b.Count()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
