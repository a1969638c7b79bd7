package array

import (
	"fmt"
	"testing"
)

// sealedCase is a 10×10 chunk of an int and an uncertain float column with
// every third slot present, sealed, and an array it entered sealed, as a
// decoded or operator-built chunk does.
func sealedCase(t *testing.T) (*Array, *Chunk) {
	t.Helper()
	s := &Schema{Name: "R", Dims: []Dimension{{Name: "x", High: 10}, {Name: "y", High: 10}},
		Attrs: []Attribute{{Name: "i", Type: TInt64}, {Name: "f", Type: TFloat64, Uncertain: true}}}
	a := MustNew(s)
	for k := int64(0); k < 100; k += 3 {
		if err := a.Set(Coord{k/10 + 1, k%10 + 1}, Cell{Int64(k), UncertainFloat(float64(k)/2, 0.5)}); err != nil {
			t.Fatal(err)
		}
	}
	ch := a.Chunks()[0]
	ch.Seal()
	a = MustNew(s)
	a.PutChunk(ch)
	if !ch.Sealed() || int64(len(ch.Cols[0].Ints)) != ch.CellsPresent() || int64(len(ch.Cols[1].Sigma)) != ch.CellsPresent() {
		t.Fatalf("a sealed chunk of %d cells holds %d values", ch.CellsPresent(), len(ch.Cols[0].Ints))
	}
	return a, ch
}

// cellsOf renders every present cell of ch, in slot order.
func cellsOf(ch *Chunk) string {
	out := ""
	IterBox(ch.Box(), func(c Coord) bool {
		if cell, ok := ch.Get(c); ok {
			out += fmt.Sprint(c, cell)
		}
		return true
	})
	return out
}

// TestWriteOpensSealedChunkOnce: a Set through the array into a sealed
// partial chunk opens it and lands; a clone taken while it was sealed, whose
// columns share its rank directory, still reads what it held, because Open
// gave the chunk a fresh presence bitmap instead of writing the shared one.
func TestWriteOpensSealedChunkOnce(t *testing.T) {
	a, ch := sealedCase(t)
	twin := ch.Clone()
	want := cellsOf(twin)
	if err := a.Set(Coord{1, 2}, Cell{Int64(-1), UncertainFloat(-1, 0.25)}); err != nil {
		t.Fatal(err)
	}
	if ch.Sealed() {
		t.Fatal("the chunk written is still sealed")
	}
	if got, ok := a.At(Coord{1, 2}); !ok || got[0].Int != -1 || got[1].Sigma != 0.25 {
		t.Fatalf("the cell written reads %v", got)
	}
	a.Erase(Coord{1, 1})
	if got := cellsOf(twin); got != want {
		t.Fatalf("the sealed twin reads\n%s\nafter its original was written, want\n%s", got, want)
	}
	if ch.CellsPresent() != twin.CellsPresent() {
		t.Fatalf("%d cells after one set and one erase, the twin holds %d", ch.CellsPresent(), twin.CellsPresent())
	}
}

// TestSetterOnSealedColumnPanics: a typed setter never indexes a packed
// vector by slot.
func TestSetterOnSealedColumnPanics(t *testing.T) {
	_, ch := sealedCase(t)
	defer func() {
		if recover() == nil {
			t.Fatal("SetInt on a sealed column did not panic")
		}
	}()
	ch.Cols[0].SetInt(0, 7)
}

// TestChunkBuilderRejectsOutOfOrder: slots added out of order, or a column
// that missed a value, panic when the chunk is sealed.
func TestChunkBuilderRejectsOutOfOrder(t *testing.T) {
	s := &Schema{Name: "B", Dims: []Dimension{{Name: "x", High: 8}}, Attrs: []Attribute{{Name: "i", Type: TInt64}}}
	for name, build := range map[string]func(b *ChunkBuilder){
		"out of order": func(b *ChunkBuilder) {
			b.Add(3)
			b.Cols()[0].AppendInt(3, 1)
			b.Add(2)
			b.Cols()[0].AppendInt(2, 1)
		},
		"missed value": func(b *ChunkBuilder) {
			b.Add(1)
			b.Add(2)
			b.Cols()[0].AppendInt(2, 1)
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Chunk did not panic", name)
				}
			}()
			b := NewChunkBuilder(s, Coord{1}, []int64{8}, 2)
			build(b)
			b.Chunk()
		}()
	}
}

// TestMergeChunkKeepsSharedSigma: merging a part into a chunk whose error
// bars are one shared value, as a decoded chunk's are, adds no per-cell
// error bars when the part's cells carry that value: the merge takes the
// form of the older part's. A cell carrying another keeps it.
func TestMergeChunkKeepsSharedSigma(t *testing.T) {
	a, older := sealedCase(t)
	older.Cols[1].Sigma, older.Cols[1].HasShared, older.Cols[1].SharedSigma = nil, true, 0.5
	newer := NewChunk(a.Schema, older.Origin, older.Shape)
	if err := newer.Set(Coord{1, 2}, Cell{Int64(-1), UncertainFloat(-1, 0.5)}); err != nil {
		t.Fatal(err)
	}
	newer.Seal()
	if err := a.MergeChunk(newer); err != nil {
		t.Fatal(err)
	}
	merged, _ := a.ChunkAt(Coord{1, 1})
	if c := merged.Cols[1]; c.Sigma != nil || !c.HasShared || c.SharedSigma != 0.5 {
		t.Fatalf("merged column: %d per-cell error bars, shared %v (%v)", len(c.Sigma), c.HasShared, c.SharedSigma)
	}
	if cell, ok := a.At(Coord{1, 2}); !ok || cell[0].Int != -1 || cell[1].Float != -1 || cell[1].Sigma != 0.5 {
		t.Fatalf("the merged cell reads %v", cell)
	}
	if n := merged.CellsPresent(); n != 35 {
		t.Fatalf("%d cells after merging one into 34", n)
	}

	// A cell whose error bar is not the shared one keeps its own, in a merge
	// and in a write; the other cells keep the shared one.
	shared := func(a *Array) *Chunk {
		ch, _ := a.ChunkAt(Coord{1, 1})
		ch.Cols[1].Sigma, ch.Cols[1].HasShared, ch.Cols[1].SharedSigma = nil, true, 0.25
		return ch
	}
	a, _ = sealedCase(t)
	shared(a)
	newer = NewChunk(a.Schema, older.Origin, older.Shape)
	if err := newer.Set(Coord{1, 3}, Cell{Int64(-2), UncertainFloat(2, 0.75)}); err != nil {
		t.Fatal(err)
	}
	newer.Seal()
	if err := a.MergeChunk(newer); err != nil {
		t.Fatal(err)
	}
	written, _ := sealedCase(t)
	shared(written).Open()
	if err := written.Set(Coord{1, 3}, Cell{Int64(-2), UncertainFloat(2, 0.75)}); err != nil {
		t.Fatal(err)
	}
	for how, a := range map[string]*Array{"merged": a, "written": written} {
		if cell, ok := a.At(Coord{1, 3}); !ok || cell[1].Float != 2 || cell[1].Sigma != 0.75 {
			t.Errorf("%s 2±0.75 over a chunk sharing 0.25 reads %v", how, cell)
		}
		if cell, ok := a.At(Coord{1, 4}); !ok || cell[1].Sigma != 0.25 {
			t.Errorf("%s: a cell of the chunk sharing 0.25 reads %v", how, cell)
		}
	}
}

// TestKeptPayloadDroppedOnWrite: a chunk's kept payload (KeepEncoded) lives
// only as long as the chunk is as decoded. Every write path opens the chunk
// and so forgets it, a merge at an occupied origin builds a chunk without
// one, and a clone or a selection never carries it.
func TestKeptPayloadDroppedOnWrite(t *testing.T) {
	payload := []byte("as decoded")
	kept := func(t *testing.T) (*Array, *Chunk) {
		t.Helper()
		a, ch := sealedCase(t)
		ch.KeepEncoded(a.Schema, payload)
		if s, b := ch.Encoded(); s != a.Schema || string(b) != string(payload) {
			t.Fatalf("Encoded = %v, %q; want the schema and payload kept", s, b)
		}
		return a, ch
	}
	cell := Cell{Int64(-1), UncertainFloat(-1, 0.25)}
	for name, write := range map[string]func(*testing.T, *Array, *Chunk) *Chunk{
		"Open":        func(_ *testing.T, _ *Array, ch *Chunk) *Chunk { ch.Open(); return ch },
		"Chunk.Set":   func(_ *testing.T, _ *Array, ch *Chunk) *Chunk { _ = ch.Set(Coord{1, 2}, cell); return ch },
		"Chunk.Erase": func(_ *testing.T, _ *Array, ch *Chunk) *Chunk { ch.Erase(Coord{1, 1}); return ch },
		"Array.Set":   func(_ *testing.T, a *Array, ch *Chunk) *Chunk { _ = a.Set(Coord{1, 2}, cell); return ch },
		"Array.Slot": func(_ *testing.T, a *Array, ch *Chunk) *Chunk {
			_, _, _ = a.Slot(Coord{1, 2})
			return ch
		},
		"MergeChunk": func(t *testing.T, a *Array, _ *Chunk) *Chunk {
			_, newer := sealedCase(t)
			newer.KeepEncoded(a.Schema, payload)
			if err := a.MergeChunk(newer); err != nil {
				t.Fatal(err)
			}
			return a.Chunks()[0]
		},
		"Clone":  func(_ *testing.T, _ *Array, ch *Chunk) *Chunk { return ch.Clone() },
		"Select": func(_ *testing.T, _ *Array, ch *Chunk) *Chunk { return ch.Select(ch.Present) },
	} {
		t.Run(name, func(t *testing.T) {
			a, ch := kept(t)
			if s, b := write(t, a, ch).Encoded(); s != nil || b != nil {
				t.Errorf("after %s the chunk still has a kept payload of %d bytes", name, len(b))
			}
		})
	}
	// Reading leaves it.
	a, ch := kept(t)
	a.At(Coord{1, 1})
	_ = cellsOf(ch)
	if _, b := ch.Encoded(); b == nil {
		t.Error("a read dropped the kept payload")
	}
}
