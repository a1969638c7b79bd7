package ops

// The word-at-a-time kernels against slot-at-a-time definitions: PredMask
// against CellMatchesPreds, and Fold.Chunk's sum, min/max and Welford
// kernels against a fold written here one slot at a time.

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"scidb/internal/array"
)

var (
	negZero = math.Copysign(0, -1)
	nan     = math.NaN()
	inf     = math.Inf(1)
)

// liveMasks returns, over n slots, a full mask, a holed one, and one whose
// words alternate between empty and holed.
func liveMasks(n int64, rng *rand.Rand) map[string]*array.Bitmap {
	full, holed, sparse := array.NewBitmap(n), array.NewBitmap(n), array.NewBitmap(n)
	full.SetAll()
	for i := int64(0); i < n; i++ {
		if rng.Intn(5) != 0 {
			holed.Set(i)
		}
		if (i>>6)%2 == 1 && rng.Intn(3) != 0 {
			sparse.Set(i)
		}
	}
	return map[string]*array.Bitmap{"full": full, "holed": holed, "empty words": sparse}
}

// predCells fills a chunk of n slots from the special values, a NULL now and
// then under any attribute, and returns it with its cells.
func predCells(t testing.TB, n int64, rng *rand.Rand) (*array.Chunk, []array.Cell) {
	floats := []float64{nan, 0, negZero, inf, -inf, 1, -1, 0.5, 1 << 53, 1<<53 + 2, -(1 << 53)}
	ints := []int64{0, 1, -1, 1<<53 - 1, 1 << 53, 1<<53 + 1, -(1<<53 + 1), -(1 << 53), -(1<<53 - 1), math.MinInt64, math.MaxInt64, 2}
	s := &array.Schema{
		Name: "K",
		Dims: []array.Dimension{{Name: "x", High: n}},
		Attrs: []array.Attribute{
			{Name: "f", Type: array.TFloat64}, {Name: "i", Type: array.TInt64}, {Name: "s", Type: array.TString},
		},
	}
	ch := array.NewChunk(s, array.Coord{1}, []int64{n})
	cells := make([]array.Cell, n)
	for x := range n {
		cell := array.Cell{array.Float64(floats[rng.Intn(len(floats))]), array.Int64(ints[rng.Intn(len(ints))]),
			array.String64(string(rune('a' + rng.Intn(3))))}
		if rng.Intn(7) == 0 {
			cell[rng.Intn(3)].Null = true
		}
		if err := ch.Set(array.Coord{x + 1}, cell); err != nil {
			t.Fatal(err)
		}
		cells[x] = cell
	}
	return ch, cells
}

// The mask kernel against the boxed definition it stands in for, on Filter
// and on the worker scan path: every comparison operator; int and float
// columns at the float-rounding edges and the int64 limits, NaN, ±0 and ±Inf
// against int and float constants; a NULL constant, a string column (the
// evalCmp fallback) and an out-of-range attribute; slot counts around a
// word; full, holed and empty-word live masks with NULLs under live slots.
func TestPropertyPredMaskMatchesCellMatchesPreds(t *testing.T) {
	consts := []array.Value{array.Float64(nan), array.Float64(0), array.Float64(negZero), array.Float64(inf),
		array.Float64(-inf), array.Float64(0.5), array.Float64(1 << 53), array.Int64(1<<53 + 1), array.Int64(-(1<<53 + 1)),
		array.Int64(math.MinInt64), array.Int64(math.MaxInt64), array.Int64(0), array.Int64(-1),
		array.NullValue(array.TFloat64), array.NullValue(array.TInt64), array.String64("b")}
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int64{1, 63, 64, 65, 100, 4096} {
		ch, cells := predCells(t, n, rng)
		for name, live := range liveMasks(n, rng) {
			before := slices.Clone(live.Words())
			for attr := -1; attr <= 3; attr++ {
				for _, op := range []string{"=", "!=", "<", "<=", ">", ">="} {
					for _, cv := range consts {
						for _, preds := range [][]array.ZonePred{
							{{Attr: attr, Op: op, Val: cv}},
							{{Attr: attr, Op: op, Val: cv}, {Attr: 1, Op: ">=", Val: array.Int64(-1)}},
						} {
							out := PredMask(preds, ch, live)
							if out.Len() != n {
								t.Fatalf("%d slots: mask of %d", n, out.Len())
							}
							for x := range n {
								if got, want := out.Get(x), live.Get(x) && CellMatchesPreds(preds, cells[x]); got != want {
									t.Fatalf("%d slots, %s live, %v at slot %d on %v: mask %v, cell definition %v",
										n, name, preds, x, cells[x], got, want)
								}
							}
						}
					}
				}
			}
			if !slices.Equal(before, live.Words()) {
				t.Fatalf("%d slots, %s live: PredMask wrote into live", n, name)
			}
		}
	}
}

// A mask that clears nothing is live itself, unallocated.
func TestPredMaskKeepsLiveWhenAllMatch(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ch, cells := predCells(t, 4096, rng)
	live := array.NewBitmap(4096)
	for x, cell := range cells {
		if !cell[0].Null && !cell[1].Null {
			live.Set(int64(x))
		}
	}
	// A NaN passes <= and !=; every int is >= MinInt64 through AsFloat.
	preds := []array.ZonePred{{Attr: 0, Op: "<=", Val: array.Float64(inf)}, {Attr: 0, Op: "!=", Val: array.Float64(2)},
		{Attr: 1, Op: ">=", Val: array.Int64(math.MinInt64)}}
	if allocs := testing.AllocsPerRun(20, func() {
		if PredMask(preds, ch, live) != live {
			t.Fatal("a mask that clears nothing is not live")
		}
	}); allocs != 0 {
		t.Fatalf("PredMask allocated %v times clearing nothing", allocs)
	}
}

// FuzzPredMask checks the mask kernel against CellMatchesPreds on random
// values (NaN and NULL bits included), operator, constant, live words and
// slot count.
func FuzzPredMask(f *testing.F) {
	f.Add(uint16(64), int64(3), uint8(4), uint8(0), 13.0, int64(0), false, uint64(1<<63|1))
	f.Add(uint16(100), int64(7), uint8(0), uint8(1), nan, int64(1<<53+1), true, ^uint64(0))
	f.Add(uint16(1), int64(1), uint8(3), uint8(2), negZero, int64(math.MinInt64), false, uint64(0))
	f.Fuzz(func(t *testing.T, slots uint16, seed int64, op, kind uint8, cf float64, ci int64, intConst bool, liveWord uint64) {
		n := int64(slots%300) + 1
		rng := rand.New(rand.NewSource(seed))
		ch, cells := predCells(t, n, rng)
		for x := range n {
			// Raw bits: any NaN payload, any int.
			ch.Cols[0].Floats[x] = math.Float64frombits(rng.Uint64())
			if rng.Intn(4) == 0 {
				ch.Cols[0].Floats[x] = cf
			}
			ch.Cols[1].Ints[x] = int64(rng.Uint64())
			if rng.Intn(4) == 0 {
				ch.Cols[1].Ints[x] = ci
			}
			cells[x][0].Float, cells[x][1].Int = ch.Cols[0].Floats[x], ch.Cols[1].Ints[x]
		}
		live := array.NewBitmap(n)
		for x := range n {
			if liveWord>>(uint(x)&63)&1 != 0 || rng.Intn(3) == 0 {
				live.Set(x)
			}
		}
		cv := array.Float64(cf)
		if intConst {
			cv = array.Int64(ci)
		}
		if kind%5 == 4 {
			cv = array.NullValue(cv.Type)
		}
		preds := []array.ZonePred{{Attr: int(kind%4) - 1 + int(kind/4%2), Op: []string{"=", "!=", "<", "<=", ">", ">=", "~"}[op%7], Val: cv}}
		out := PredMask(preds, ch, live)
		for x := range n {
			if got, want := out.Get(x), live.Get(x) && CellMatchesPreds(preds, cells[x]); got != want {
				t.Fatalf("%v at slot %d on %v: mask %v, cell definition %v", preds, x, cells[x], got, want)
			}
		}
	})
}

// slotFold is the fold a slot at a time, written out here as the reference
// for Fold.Chunk's word kernels: every live slot in slot order, into the row
// of its group in t's box; aggs are f's columns, over float column 0 or int
// column 1.
func slotFold(t *FoldTable, f *Fold, ch *array.Chunk, live *array.Bitmap) {
	rstride := make([]int64, len(t.Shape))
	rows := int64(1)
	for k := len(t.Shape) - 1; k >= 0; k-- {
		rstride[k] = rows
		rows *= t.Shape[k]
	}
	for idx := range ch.Slots() {
		if !live.Get(idx) {
			continue
		}
		c, row := array.CoordAt(ch.Origin, ch.Shape, idx), int64(0)
		for k, g := range f.gdims {
			row += ((c[g.dim]-1)/g.stride - t.Lo[k]) * rstride[k]
		}
		t.Cells[row]++
		for k, fc := range f.cols {
			col, st := ch.Cols[fc.attr], &t.Cols[k]
			if col.Nulls.Get(idx) {
				continue
			}
			x := col.Get(idx).AsFloat()
			st.N[row]++
			switch fc.agg {
			case "sum", "avg":
				if fc.ints() {
					st.I[row] += col.Ints[idx]
				} else {
					st.F[row] += x
				}
			case "min", "max":
				if fc.isInt {
					v, b := col.Ints[idx], st.I[row]
					if st.N[row] == 1 || fc.agg == "max" && v > b || fc.agg == "min" && v < b {
						st.I[row] = v
					}
				} else if b := st.F[row]; st.N[row] == 1 || b != b || fc.agg == "max" && x > b || fc.agg == "min" && x < b {
					st.F[row] = x
				}
			case "stdev":
				d := x - st.F[row]
				st.F[row] += d / float64(st.N[row])
				st.M2[row] += d * (x - st.F[row])
			}
		}
	}
}

// foldChunkCase builds a chunk of the given shape (origin one chunk in from
// the grid's corner) with a float column f and an int column i. "dense"
// holds numbers and an occasional NaN, with a NaN in slot 0 — the first
// live value of a full word — and one mid-word in slot 100. The two "zeros"
// cases hold only -0, +0 and NaN, so a min or max is the first zero of its
// group, and start with NaNs up to a planted first zero: -0 then +0 inside
// word 0 (slots 20, 21), or +0 then -0 across the boundary of words 0 and 1
// (slots 63, 64).
func foldChunkCase(shape []int64, values string, rng *rand.Rand) (*array.Chunk, *array.Schema) {
	s := &array.Schema{Name: "F", Attrs: []array.Attribute{{Name: "f", Type: array.TFloat64}, {Name: "i", Type: array.TInt64}}}
	origin := make(array.Coord, len(shape))
	for d, n := range shape {
		s.Dims = append(s.Dims, array.Dimension{Name: string(rune('a' + d)), High: 3 * n, ChunkLen: n})
		origin[d] = n + 1
	}
	ch := array.NewChunk(s, origin, shape)
	ch.Present.SetAll()
	fs, is := ch.Cols[0].Floats, ch.Cols[1].Ints
	first, planted := map[string]int{"zeros inside a word": 20, "zeros across words": 63}[values], []float64{negZero, 0}
	if first == 63 {
		planted = []float64{0, negZero}
	}
	for x := range fs {
		switch {
		case values == "dense":
			if fs[x] = rng.NormFloat64() * 1e3; rng.Intn(16) == 0 || x == 0 || x == 100 {
				fs[x] = nan
			}
		case x < first:
			fs[x] = nan
		case x < first+2:
			fs[x] = planted[x-first]
		default:
			fs[x] = []float64{negZero, 0, nan}[rng.Intn(3)]
		}
		is[x] = rng.Int63n(2001) - 1000
	}
	return ch, s
}

// Fold.Chunk's word paths (a full word as a plain loop, a partial one along
// its bits, a block of outer-group slots as one run) against the slot fold
// above, compared to the bit: every built-in over both column types, dense,
// holed, NULL-bearing and box-cut chunks, grouped by an outer dimension in
// blocks of 64, 4 096 and 600 slots, by the inner one (the row path) and by
// none.
func TestFoldWordPathsMatchSlotReference(t *testing.T) {
	var aggs []AggSpec
	for _, agg := range []string{"count", "sum", "avg", "min", "max", "stdev"} {
		aggs = append(aggs, AggSpec{Agg: agg, Attr: "f"}, AggSpec{Agg: agg, Attr: "i"})
	}
	rng := rand.New(rand.NewSource(11))
	for _, g := range []struct {
		name  string
		shape []int64
		dims  []string
	}{
		{"outer 4096", []int64{4, 64, 64}, []string{"a"}},
		{"outer 64", []int64{4, 64, 64}, []string{"a", "b"}},
		{"outer 600", []int64{4, 20, 30}, []string{"a"}},
		{"inner", []int64{4, 20, 30}, []string{"c"}},
		{"inner and outer", []int64{4, 64, 64}, []string{"a", "c"}},
		{"total", []int64{4, 20, 30}, nil},
	} {
		for _, values := range []string{"dense", "zeros inside a word", "zeros across words"} {
			ch, s := foldChunkCase(g.shape, values, rng)
			f, err := NewFold(s, FoldSpec{Dims: g.dims, Aggs: aggs}, nil)
			if err != nil {
				t.Fatal(err)
			}
			n := ch.Slots()
			holed := array.NewBitmap(n)
			for x := range n {
				if rng.Intn(9) != 0 {
					holed.Set(x)
				}
			}
			cut := array.Box{Lo: ch.Origin.Clone(), Hi: ch.Box().Hi}
			cut.Lo[len(cut.Lo)-1] += 7 // every row starts mid-word
			cut.Hi[0]--
			nullCh, _ := foldChunkCase(g.shape, values, rand.New(rand.NewSource(int64(n))))
			for x := range n {
				if rng.Intn(11) == 0 {
					nullCh.Cols[rng.Intn(2)].Nulls.Set(x)
				}
			}
			for _, c := range []struct {
				name string
				ch   *array.Chunk
				live *array.Bitmap
			}{
				{"dense", ch, ch.Present},
				{"holed", ch, holed},
				{"null-bearing", nullCh, nullCh.Present},
				{"boundary", ch, ch.BoxMask(cut)},
			} {
				got := f.Chunk(c.ch, c.live)
				want := f.newTable(got.Lo, got.Shape)
				slotFold(want, f, c.ch, c.live)
				if !slices.Equal(got.Cells, want.Cells) {
					t.Fatalf("%s, %s, %s: cells %v, slot fold %v", g.name, values, c.name, got.Cells, want.Cells)
				}
				for k, sp := range aggs {
					gs, ws := got.Cols[k], want.Cols[k]
					if !slices.Equal(gs.N, ws.N) || !slices.Equal(gs.I, ws.I) ||
						!slices.Equal(floatBits(gs.F), floatBits(ws.F)) || !slices.Equal(floatBits(gs.M2), floatBits(ws.M2)) {
						t.Fatalf("%s, %s, %s: %s(%s) = %+v, slot fold %+v", g.name, values, c.name, sp.Agg, sp.Attr, gs, ws)
					}
				}
			}
		}
	}
}

func floatBits(fs []float64) []uint64 {
	out := make([]uint64, len(fs))
	for i, f := range fs {
		out[i] = math.Float64bits(f)
	}
	return out
}
