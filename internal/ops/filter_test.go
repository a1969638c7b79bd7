package ops

// Filter against the per-cell definition of §2.2.2: every present cell is
// evaluated on its own, a NULL answer counts as false, and a dropped cell
// keeps its place with every attribute NULL.

import (
	"math"
	"math/rand"
	"testing"

	"scidb/internal/array"
	"scidb/internal/udf"
)

// FuzzFilter holds Filter to evalCell, one present cell at a time, over
// random 1-D arrays of float, int and string attributes cut into 64-slot
// chunks: NULLs, any NaN payload and ints near 2^53 in the values; holed or
// full chunks; with or without zone maps on every column; and predicates
// that are exactly their attr-cmp-const conjuncts (PredMask's masks, zone
// skips included) or are not (the compiled predicate: OR, NOT, a dimension,
// arithmetic, and a % that errors on floats).
func FuzzFilter(f *testing.F) {
	f.Add(uint16(200), int64(1), uint8(0), uint8(4), uint8(0), 13.0, int64(1<<53+1), false, false, false)
	f.Add(uint16(64), int64(2), uint8(1), uint8(2), uint8(1), math.NaN(), int64(3), true, true, true)
	f.Add(uint16(300), int64(3), uint8(4), uint8(5), uint8(0), 1e300, int64(-(1 << 53)), true, false, true)
	f.Add(uint16(129), int64(4), uint8(7), uint8(0), uint8(2), 0.5, int64(0), false, true, true)
	f.Fuzz(func(t *testing.T, slots uint16, seed int64, shape, op, attr uint8, cf float64, ci int64, intConst, holed, zoned bool) {
		n := int64(slots%300) + 1
		rng := rand.New(rand.NewSource(seed))
		s := &array.Schema{
			Name: "F",
			Dims: []array.Dimension{{Name: "x", High: n, ChunkLen: 64}},
			Attrs: []array.Attribute{
				{Name: "f", Type: array.TFloat64}, {Name: "i", Type: array.TInt64}, {Name: "s", Type: array.TString},
			},
		}
		a := array.MustNew(s)
		floats := []float64{math.NaN(), 0, math.Copysign(0, -1), math.Inf(1), -1, 0.5, 1 << 53, 1<<53 + 2, cf}
		ints := []int64{0, 1, -1, 1<<53 - 1, 1 << 53, 1<<53 + 1, -(1 << 53), math.MaxInt64, ci}
		for x := int64(1); x <= n; x++ {
			if holed && rng.Intn(3) == 0 {
				continue
			}
			cell := array.Cell{array.Float64(floats[rng.Intn(len(floats))]), array.Int64(ints[rng.Intn(len(ints))]),
				array.String64(string(rune('a' + rng.Intn(3))))}
			if rng.Intn(4) == 0 {
				cell[0].Float = math.Float64frombits(rng.Uint64())
			}
			if rng.Intn(6) == 0 {
				k := rng.Intn(3)
				cell[k] = array.NullValue(s.Attrs[k].Type)
			}
			if err := a.Set(array.Coord{x}, cell); err != nil {
				t.Fatal(err)
			}
		}
		if zoned {
			for _, ch := range a.Chunks() {
				for _, col := range ch.Cols {
					col.Zone = array.ComputeZone(col, ch.Present)
				}
			}
		}
		cv := array.Float64(cf)
		if intConst {
			cv = array.Int64(ci)
		}
		if op%8 == 7 {
			cv = array.NullValue(cv.Type)
		}
		names := []string{"f", "i", "s"}
		cmp := Binary{Op: []BinOp{OpEq, OpNe, OpLt, OpLe, OpGt, OpGe, OpGt}[op%7], L: AttrRef{Name: names[attr%3]}, R: Const{V: cv}}
		if attr%3 == 2 {
			cmp.R = Const{V: array.String64("b")}
		}
		var pred Expr
		switch shape % 8 {
		case 0: // exact: one conjunct
			pred = cmp
		case 1: // exact: two conjuncts
			pred = Binary{Op: OpAnd, L: cmp, R: Binary{Op: OpLe, L: AttrRef{Name: "i"}, R: Const{V: array.Int64(ci)}}}
		case 2: // pure, not exact: OR
			pred = Binary{Op: OpOr, L: cmp, R: Binary{Op: OpGt, L: AttrRef{Name: "i"}, R: Const{V: array.Int64(ci)}}}
		case 3: // pure, not exact: NOT
			pred = Not{E: cmp}
		case 4: // pure, not exact: a conjunct on a dimension beside one the zone maps read
			pred = Binary{Op: OpAnd, L: cmp, R: Binary{Op: OpGt, L: DimRef{Name: "x"}, R: Const{V: array.Int64(n / 2)}}}
		case 5: // impure: % beside a conjunct the zone maps read
			pred = Binary{Op: OpAnd, L: Binary{Op: OpEq, L: Binary{Op: OpMod, L: AttrRef{Name: "i"}, R: Const{V: array.Int64(3)}},
				R: Const{V: array.Int64(0)}}, R: cmp}
		case 6: // arithmetic
			pred = Binary{Op: cmp.Op, L: Binary{Op: OpAdd, L: AttrRef{Name: "f"}, R: Const{V: array.Int64(1)}}, R: Const{V: cv}}
		default: // errors on every non-NULL float
			pred = Binary{Op: OpAnd, L: cmp, R: Binary{Op: OpEq, L: Binary{Op: OpMod, L: AttrRef{Name: "f"}, R: Const{V: array.Int64(3)}},
				R: Const{V: array.Int64(0)}}}
		}
		var wantErr bool
		a.Iter(func(c array.Coord, cell array.Cell) bool {
			_, err := evalCell(pred, s, c, cell, nil)
			wantErr = err != nil
			return !wantErr
		})
		res, err := Filter(a, pred, udf.NewRegistry())
		if wantErr || err != nil {
			if wantErr != (err != nil) {
				t.Fatalf("%v: Filter error %v, cell definition errs %v", pred, err, wantErr)
			}
			return
		}
		for x := int64(1); x <= n; x++ {
			c := array.Coord{x}
			in, present := a.At(c)
			out, kept := res.At(c)
			if present != kept {
				t.Fatalf("%v at %v: present %v in, %v out", pred, c, present, kept)
			}
			if !present {
				continue
			}
			v, _ := evalCell(pred, s, c, in, nil)
			keep := !v.Null && v.Bool
			for k := range in {
				want := in[k]
				if !keep {
					want = array.NullValue(s.Attrs[k].Type)
				}
				if !valEq(out[k], want) {
					t.Fatalf("%v at %v on %v: attribute %d is %v, want %v (keep %v)", pred, c, in, k, out[k], want, keep)
				}
			}
		}
	})
}
