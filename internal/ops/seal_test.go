package ops

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"scidb/internal/array"
	"scidb/internal/storage"
)

// sealSchema is a rows x cols chunk's schema with a column of every type: an
// int, a float, a string, a bool, a nested array and, with sigma, an
// uncertain float.
func sealSchema(rows, cols int64, sigma bool) *array.Schema {
	nested := &array.Schema{Name: "N", Dims: []array.Dimension{{Name: "k", High: 2}}, Attrs: []array.Attribute{{Name: "w", Type: array.TInt64}}}
	s := &array.Schema{Name: "S",
		Dims: []array.Dimension{{Name: "x", High: rows, ChunkLen: rows}, {Name: "y", High: cols, ChunkLen: cols}},
		Attrs: []array.Attribute{{Name: "i", Type: array.TInt64}, {Name: "f", Type: array.TFloat64},
			{Name: "s", Type: array.TString}, {Name: "b", Type: array.TBool}, {Name: "n", Type: array.TArray, Nested: nested}}}
	if sigma {
		s.Attrs = append(s.Attrs, array.Attribute{Name: "u", Type: array.TFloat64, Uncertain: true})
	}
	return s
}

// openCase writes a random open chunk of s: each slot present with
// probability density/256, a present cell NULL in an attribute one time in
// seven, ints around ±2^53, floats with NaNs, signed zeros and infinities,
// and — shared set — one error bar for the whole float column.
func openCase(s *array.Schema, rng *rand.Rand, density int, shared bool) *array.Chunk {
	ch := array.NewChunk(s, array.Coord{1, 1}, []int64{s.Dims[0].High, s.Dims[1].High})
	specials := []float64{math.NaN(), math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1)}
	for i := range ch.Slots() {
		if rng.Intn(256) >= density {
			continue
		}
		ch.Present.Set(i)
		for a, col := range ch.Cols {
			if rng.Intn(7) == 0 {
				col.SetNull(i)
				continue
			}
			switch s.Attrs[a].Type {
			case array.TInt64:
				col.SetInt(i, []int64{1 << 53, -(1 << 53), 1<<53 + 1, math.MaxInt64, math.MinInt64}[rng.Intn(5)]+int64(rng.Intn(5))-2)
			case array.TFloat64:
				v := rng.NormFloat64() * 100
				if rng.Intn(4) == 0 {
					v = specials[rng.Intn(len(specials))]
				}
				col.SetFloat(i, v, float64(rng.Intn(8))/4)
			case array.TString:
				col.SetString(i, []string{"", "east", "west", "n"}[rng.Intn(4)])
			case array.TBool:
				col.SetBool(i, rng.Intn(2) == 0)
			case array.TArray:
				n := array.MustNew(s.Attrs[a].Nested)
				if err := n.Set(array.Coord{1 + rng.Int63n(2)}, array.Cell{array.Int64(rng.Int63())}); err != nil {
					panic(err)
				}
				col.Set(i, array.Nested(n))
			}
		}
	}
	if shared {
		ch.Cols[1].HasShared, ch.Cols[1].SharedSigma = true, 0.5
	}
	return ch
}

// sameCell reports whether two values are one value: floats and error bars
// bit for bit, nested arrays the same array.
func sameCell(x, y array.Value) bool {
	return valEq(x, y) && x.Arr == y.Arr
}

// requireSameArrays fails t unless a and b hold the same cells, visited in
// the same order by IterReuse.
func requireSameArrays(t *testing.T, label string, a, b *array.Array) {
	t.Helper()
	var cells []string
	a.IterReuse(func(c array.Coord, cell array.Cell) bool {
		cells = append(cells, fmt.Sprint(c, cell))
		return true
	})
	k := 0
	b.IterReuse(func(c array.Coord, cell array.Cell) bool {
		if k >= len(cells) || fmt.Sprint(c, cell) != cells[k] {
			t.Fatalf("%s: cell %d is %v %v, its twin's %v", label, k, c, cell, cells[min(k, len(cells)-1)])
		}
		k++
		return true
	})
	if k != len(cells) {
		t.Fatalf("%s: %d cells, its twin %d", label, k, len(cells))
	}
	a.Iter(func(c array.Coord, cell array.Cell) bool {
		other, ok := b.PeekAt(c)
		for i := range cell {
			if !ok || !sameCell(cell[i], other[i]) {
				t.Fatalf("%s: cell %v attr %d: %v, its twin's %v", label, c, i, cell, other)
			}
		}
		return true
	})
}

// arrayOf is an array of s holding ch alone.
func arrayOf(s *array.Schema, ch *array.Chunk) *array.Array {
	a := array.MustNew(s)
	a.PutChunk(ch)
	return a
}

// FuzzChunkSeal holds a sealed chunk to its open twin — the same cells, one
// value per slot — through every reader of a chunk: Get and IterReuse,
// Select (and MergeChunk of one from a second part at the same origin),
// PredMask, a grand-total and a grouped Fold, and the bytes EncodeChunk
// writes.
func FuzzChunkSeal(f *testing.F) {
	f.Add(int64(1), uint8(64), uint8(64), uint8(70), true, false)
	f.Add(int64(2), uint8(3), uint8(100), uint8(255), false, true)
	f.Add(int64(3), uint8(1), uint8(1), uint8(0), true, true)
	f.Add(int64(4), uint8(9), uint8(130), uint8(250), true, false)
	f.Fuzz(func(t *testing.T, seed int64, rows, cols, density uint8, sigma, shared bool) {
		rng := rand.New(rand.NewSource(seed))
		s := sealSchema(int64(rows%40)+1, int64(cols%130)+1, sigma)
		open := openCase(s, rng, int(density)+1, shared)
		sealed := open.Clone()
		sealed.Seal()
		n := open.CellsPresent()
		if sealed.Sealed() != (n < open.Slots()) {
			t.Fatalf("%d of %d slots present: sealed %v", n, open.Slots(), sealed.Sealed())
		}
		for _, col := range sealed.Cols {
			if l := int64(len(col.Ints) + len(col.Floats) + len(col.Strs) + len(col.Bools) + len(col.Arrs)); l != n {
				t.Fatalf("a sealed %v column holds %d values for %d present slots", col.Type, l, n)
			}
		}

		// Get, cell by cell, and IterReuse over each as an array.
		for i := open.Present.NextSet(0); i < open.Slots(); i = open.Present.NextSet(i + 1) {
			for a := range open.Cols {
				if x, y := open.Cols[a].Get(i), sealed.Cols[a].Get(i); !sameCell(x, y) {
					t.Fatalf("slot %d attr %d: open %v, sealed %v", i, a, x, y)
				}
			}
		}
		requireSameArrays(t, "IterReuse", arrayOf(s, open), arrayOf(s, sealed))

		// Select of a random live subset, from the chunk and from its twin:
		// the live cells and no other, equal cell for cell and in the bytes
		// stored.
		live := open.Present.Clone()
		for i := live.NextSet(0); i < live.Len(); i = live.NextSet(i + 1) {
			if rng.Intn(3) == 0 {
				live.Clear(i)
			}
		}
		sx, sy := open.Select(live), sealed.Select(live)
		if sx == nil || sy == nil {
			if sx != sy || live.Count() > 0 {
				t.Fatalf("Select of %d cells: from open %v, from sealed %v", live.Count(), sx, sy)
			}
		} else {
			for i := range open.Slots() {
				if sx.Present.Get(i) != live.Get(i) || sy.Present.Get(i) != live.Get(i) {
					t.Fatalf("Select slot %d: live %v, present from open %v, from sealed %v", i, live.Get(i), sx.Present.Get(i), sy.Present.Get(i))
				}
				if !live.Get(i) {
					continue
				}
				for a := range open.Cols {
					if want := open.Cols[a].Get(i); !sameCell(sx.Cols[a].Get(i), want) || !sameCell(sy.Cols[a].Get(i), want) {
						t.Fatalf("Select attr %d slot %d: from open %v, from sealed %v, want %v", a, i, sx.Cols[a].Get(i), sy.Cols[a].Get(i), want)
					}
				}
			}
			xb, err := storage.EncodeChunk(s, sx)
			if err != nil {
				t.Fatal(err)
			}
			yb, err := storage.EncodeChunk(s, sy)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(xb, yb) {
				t.Fatalf("Select from the sealed chunk encodes to %d bytes unlike that from its open twin's %d", len(yb), len(xb))
			}
		}

		// MergeChunk of a random selection of a second part at the same
		// origin, open or sealed, into an array holding either twin, against
		// the part's live cells written one at a time; and MergeChunk of the
		// whole part.
		part := openCase(s, rng, int(density)/2+1, false)
		partSealed := part.Clone()
		partSealed.Seal()
		partLive := part.Present.Clone()
		for i := partLive.NextSet(0); i < partLive.Len(); i = partLive.NextSet(i + 1) {
			if rng.Intn(3) == 0 {
				partLive.Clear(i)
			}
		}
		setCells := func(a *array.Array, ch *array.Chunk, live *array.Bitmap) *array.Array {
			array.IterBox(ch.Box(), func(c array.Coord) bool {
				if live.Get(ch.Index(c)) {
					cell, _ := ch.Get(c)
					if err := a.Set(c, cell); err != nil {
						t.Fatal(err)
					}
				}
				return true
			})
			return a
		}
		want := setCells(arrayOf(s, open.Clone()), part, partLive)
		for _, base := range []*array.Chunk{open, sealed} {
			for _, p := range []*array.Chunk{part, partSealed} {
				got := arrayOf(s, base.Clone())
				if err := got.MergeChunk(p.Select(partLive)); err != nil {
					t.Fatal(err)
				}
				requireSameArrays(t, "MergeChunk of a Select", want, got)
			}
		}
		wantAll := setCells(arrayOf(s, open.Clone()), part, part.Present)
		for _, base := range []*array.Chunk{open, sealed} {
			got := arrayOf(s, base)
			if err := got.MergeChunk(partSealed); err != nil {
				t.Fatal(err)
			}
			requireSameArrays(t, "MergeChunk", wantAll, got)
		}

		// PredMask over the int and the float column.
		for _, p := range []array.ZonePred{
			{Attr: 0, Op: []string{"=", "!=", "<", "<=", ">", ">="}[rng.Intn(6)], Val: array.Int64(1<<53 + int64(rng.Intn(5)) - 2)},
			{Attr: 1, Op: []string{"=", "!=", "<", "<=", ">", ">="}[rng.Intn(6)], Val: array.Float64(rng.NormFloat64() * 50)},
		} {
			x, y := PredMask([]array.ZonePred{p}, open, live), PredMask([]array.ZonePred{p}, sealed, live)
			if !slices.Equal(x.Words(), y.Words()) {
				t.Fatalf("PredMask %v: open %x, sealed %x", p, x.Words(), y.Words())
			}
		}

		// A grand total and a fold grouped by x, over every typed aggregate
		// and a boxed one (the string column's count is typed; its max is
		// boxed).
		aggs := []AggSpec{{Agg: "count", Attr: "s"}, {Agg: "max", Attr: "s"}}
		for _, attr := range []string{"i", "f"} {
			for _, agg := range []string{"sum", "avg", "min", "max", "stdev"} {
				aggs = append(aggs, AggSpec{Agg: agg, Attr: attr})
			}
		}
		if sigma {
			aggs = append(aggs, AggSpec{Agg: "sum", Attr: "u"})
		}
		for _, dims := range [][]string{nil, {"x"}} {
			fold, err := NewFold(s, FoldSpec{Dims: dims, Aggs: aggs}, reg())
			if err != nil {
				t.Fatal(err)
			}
			x, err := fold.Result([]*FoldTable{fold.Chunk(open, live)})
			if err != nil {
				t.Fatal(err)
			}
			y, err := fold.Result([]*FoldTable{fold.Chunk(sealed, live)})
			if err != nil {
				t.Fatal(err)
			}
			requireSameArrays(t, fmt.Sprintf("fold by %v", dims), x, y)
		}

		// The bytes stored.
		x, err := storage.EncodeChunk(s, open)
		if err != nil {
			t.Fatal(err)
		}
		y, err := storage.EncodeChunk(s, sealed)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(x, y) {
			t.Fatalf("the sealed chunk encodes to %d bytes unlike its open twin's %d", len(y), len(x))
		}
	})
}
