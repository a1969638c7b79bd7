package array

import (
	"errors"
	"math/rand"
	"testing"
)

// The bitmap range helpers against a bit-at-a-time model, on lengths that
// do and do not end on a word boundary.
func TestBitmapRangeOps(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int64{1, 63, 64, 65, 200, 256} {
		for trial := 0; trial < 50; trial++ {
			src, dst := NewBitmap(n), NewBitmap(n)
			model := make([]bool, n)
			for i := int64(0); i < n; i++ {
				if rng.Intn(2) == 0 {
					src.Set(i)
				}
				if rng.Intn(3) == 0 {
					dst.Set(i)
					model[i] = true
				}
			}
			lo := rng.Int63n(n + 1)
			hi := lo + rng.Int63n(n-lo+1)
			if rng.Intn(2) == 0 {
				dst.OrRange(src, lo, hi)
				for i := lo; i < hi; i++ {
					model[i] = model[i] || src.Get(i)
				}
			} else {
				dst.ClearRange(lo, hi)
				for i := lo; i < hi; i++ {
					model[i] = false
				}
			}
			var want []int64
			for i, set := range model {
				if set != dst.Get(int64(i)) {
					t.Fatalf("n=%d [%d,%d): bit %d = %v, want %v", n, lo, hi, i, dst.Get(int64(i)), set)
				}
				if set {
					want = append(want, int64(i))
				}
			}
			var got []int64
			for i := dst.NextSet(0); i < n; i = dst.NextSet(i + 1) {
				got = append(got, i)
			}
			if len(got) != len(want) || dst.Count() != int64(len(want)) {
				t.Fatalf("n=%d: NextSet visited %v, Count %d, want %v", n, got, dst.Count(), want)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("n=%d: NextSet visited %v, want %v", n, got, want)
				}
			}
		}
	}
}

func maskTestSchema() *Schema {
	return &Schema{
		Name: "m",
		Dims: []Dimension{{Name: "x", High: Unbounded, ChunkLen: 9}, {Name: "y", High: Unbounded, ChunkLen: 11}},
		Attrs: []Attribute{
			{Name: "f", Type: TFloat64, Uncertain: true}, {Name: "i", Type: TInt64},
			{Name: "s", Type: TString}, {Name: "b", Type: TBool},
		},
	}
}

// Mask building, shadow clearing, Select and MergeChunk against per-cell
// Get/Set: a chunk of the array's grid is cut by a box and shadowed by a
// newer version of the same chunk — one word loop, AndNot over its presence
// — and what is left of it is selected and merged into an array; a chunk off
// that grid is refused.
func TestChunkMasksMatchCellModel(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	s := maskTestSchema()
	randChunk := func(origin Coord, shape []int64) *Chunk {
		ch := NewChunk(s, origin, shape)
		IterBox(ch.Box(), func(c Coord) bool {
			if rng.Intn(3) > 0 {
				cell := Cell{UncertainFloat(rng.Float64(), rng.Float64()), Int64(rng.Int63n(100)),
					String64(string(rune('a' + rng.Intn(26)))), Bool64(rng.Intn(2) == 0)}
				if rng.Intn(5) == 0 {
					cell[rng.Intn(4)].Null = true
				}
				if err := ch.Set(c, cell); err != nil {
					t.Fatal(err)
				}
			}
			return true
		})
		return ch
	}
	for trial := 0; trial < 40; trial++ {
		older := randChunk(Coord{1, 1}, []int64{9, 11})
		newer := randChunk(Coord{1, 1}, []int64{9, 11})
		offGrid := randChunk(Coord{1 + rng.Int63n(8), 1 + rng.Int63n(10)}, []int64{6, 6})
		box := Box{Lo: Coord{2 + rng.Int63n(5), 3 + rng.Int63n(5)}, Hi: Coord{8 + rng.Int63n(6), 9 + rng.Int63n(8)}}

		live := older.MaskIn(box)
		if live == older.Present {
			live = live.Clone()
		}
		live.AndNot(newer.Present)
		stripe := Box{Lo: Coord{5, 5}, Hi: Coord{5, 20}} // an excluded region
		older.ClearBox(live, stripe)

		want, got := MustNew(s), MustNew(s)
		IterBox(older.Box(), func(c Coord) bool {
			cell, ok := older.Get(c)
			_, shadowed := newer.Get(c)
			keep := ok && box.Contains(c) && !shadowed && !stripe.Contains(c)
			if keep != live.Get(older.Index(c)) {
				t.Fatalf("trial %d: mask at %v = %v, want %v", trial, c, !keep, keep)
			}
			if keep {
				if err := want.Set(c.Clone(), cell); err != nil {
					t.Fatal(err)
				}
			}
			return true
		})
		if err := got.MergeChunk(older.Select(live)); err != nil {
			t.Fatal(err)
		}
		if err := got.MergeChunk(offGrid); !errors.Is(err, ErrOffGrid) {
			t.Fatalf("trial %d: MergeChunk of a chunk at %v shape %v = %v, want ErrOffGrid", trial, offGrid.Origin, offGrid.Shape, err)
		}
		if got.Count() != want.Count() || got.Hwm(0) != want.Hwm(0) || got.Hwm(1) != want.Hwm(1) {
			t.Fatalf("trial %d: merged %d cells hwm %v, want %d cells hwm %v", trial, got.Count(), got.Bounds(), want.Count(), want.Bounds())
		}
		want.Iter(func(c Coord, cell Cell) bool {
			g, ok := got.At(c)
			if !ok {
				t.Fatalf("trial %d: cell %v missing after MergeChunk", trial, c)
			}
			for a := range cell {
				if g[a].Null != cell[a].Null || (!cell[a].Null && (g[a] != cell[a])) {
					t.Fatalf("trial %d: cell %v attr %d = %+v, want %+v", trial, c, a, g[a], cell[a])
				}
			}
			return true
		})
	}
}
