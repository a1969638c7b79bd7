package storage

import (
	"errors"
	"fmt"
	"maps"
	"testing"

	"scidb/internal/array"
	"scidb/internal/compress"
)

// encodedChunk builds an 8x8 chunk at origin with v = base + x + y on every
// cell and returns its EncodeChunkZones wire bytes plus the decoded form —
// exactly what a worker receives over the loadchunks op.
func encodedChunk(t *testing.T, s *array.Schema, origin array.Coord, base float64) ([]byte, *array.Chunk) {
	t.Helper()
	ch := array.NewChunk(s, origin, []int64{8, 8})
	for i := int64(0); i < 8; i++ {
		for j := int64(0); j < 8; j++ {
			c := array.Coord{origin[0] + i, origin[1] + j}
			if err := ch.Set(c, array.Cell{array.Float64(base + float64(i+j)), array.String64("t")}); err != nil {
				t.Fatal(err)
			}
		}
	}
	raw, _, err := EncodeChunkZones(s, ch)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeChunk(s, raw)
	if err != nil {
		t.Fatal(err)
	}
	return raw, dec
}

// applyRaw writes one chunk with its EncodeChunk bytes: a loadchunks batch
// of one payload.
func applyRaw(st *Store, raw []byte, ch *array.Chunk) error {
	_, err := st.Apply(Batch{Chunks: []*array.Chunk{ch}, Raw: [][]byte{raw}})
	return err
}

func TestAdoptEncodedScanAndReopen(t *testing.T) {
	s := schema2D(32)
	dir := t.TempDir()
	st, err := NewStore(s, Options{Dir: dir, Codec: compress.None{}})
	if err != nil {
		t.Fatal(err)
	}
	raw, dec := encodedChunk(t, s, array.Coord{1, 1}, 0)
	if err := applyRaw(st, raw, dec); err != nil {
		t.Fatal(err)
	}
	if got := st.NumBuckets(); got != 1 {
		t.Fatalf("NumBuckets = %d, want 1", got)
	}
	count := 0
	err = st.Scan(array.NewBox(array.Coord{1, 1}, array.Coord{32, 32}), func(c array.Coord, cell array.Cell) bool {
		count++
		if want := float64(c[0] - 1 + c[1] - 1); cell[0].Float != want {
			t.Fatalf("cell %v = %v, want %v", c, cell[0].Float, want)
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != 64 {
		t.Fatalf("scanned %d cells, want 64", count)
	}
	// Flush persists the manifest; a reopened store must still see the
	// adopted bucket.
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := NewStore(s, Options{Dir: dir, Codec: compress.None{}})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	cell, ok, err := st2.Get(array.Coord{3, 4})
	if err != nil || !ok {
		t.Fatalf("Get after reopen: ok=%v err=%v", ok, err)
	}
	if cell[0].Float != 5 {
		t.Fatalf("reopened cell = %v, want 5", cell[0].Float)
	}
}

func TestAdoptEncodedZonesPrune(t *testing.T) {
	s := schema2D(32)
	st, err := NewStore(s, Options{Codec: compress.None{}})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for k := int64(0); k < 4; k++ {
		raw, dec := encodedChunk(t, s, array.Coord{k*8 + 1, 1}, float64(k)*100)
		if err := applyRaw(st, raw, dec); err != nil {
			t.Fatal(err)
		}
	}
	q := array.NewBox(array.Coord{1, 1}, array.Coord{32, 32})
	preds := []array.ZonePred{{Attr: 0, Op: ">", Val: array.Float64(250)}}
	got := 0
	skipped, err := st.ScanPruned(q, preds, func(array.Coord, array.Cell) bool {
		got++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	// Only the base-300 bucket can exceed 250; the adopted zone maps must
	// prove that for the other three without reading them.
	if skipped != 3 {
		t.Fatalf("skipped = %d, want 3 (zones lost in adoption?)", skipped)
	}
	if got != 64 {
		t.Fatalf("visited cells = %d, want 64", got)
	}
}

func TestAdoptEncodedShadowsOlderBuckets(t *testing.T) {
	s := schema2D(32)
	st, err := NewStore(s, Options{Codec: compress.None{}})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	// Older, locally written data: a cell inside the adopted box and one
	// outside it.
	if err := st.Put(array.Coord{2, 2}, array.Cell{array.Float64(-1), array.String64("old")}); err != nil {
		t.Fatal(err)
	}
	if err := st.Put(array.Coord{20, 20}, array.Cell{array.Float64(-2), array.String64("old")}); err != nil {
		t.Fatal(err)
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	raw, dec := encodedChunk(t, s, array.Coord{1, 1}, 0)
	if err := applyRaw(st, raw, dec); err != nil {
		t.Fatal(err)
	}
	cell, ok, err := st.Get(array.Coord{2, 2})
	if err != nil || !ok {
		t.Fatalf("Get(2,2): ok=%v err=%v", ok, err)
	}
	if cell[0].Float != 2 {
		t.Fatalf("adopted bucket did not shadow older cell: got %v, want 2", cell[0].Float)
	}
	cell, ok, err = st.Get(array.Coord{20, 20})
	if err != nil || !ok {
		t.Fatalf("Get(20,20): ok=%v err=%v", ok, err)
	}
	if cell[0].Float != -2 {
		t.Fatalf("cell outside adopted box changed: got %v, want -2", cell[0].Float)
	}
}

// TestAdoptAfterBufferedPutWins: writes apply in the order they were
// acknowledged. A cell still in the memory buffer is older than a chunk
// applied after it, which the buffer's chunk at that origin takes in, so
// the applied value is what Get and Scan return; a buffered cell outside the
// applied chunk survives, and an adopt into an empty buffer flushes nothing.
func TestAdoptAfterBufferedPutWins(t *testing.T) {
	s := schema2D(32)
	st, err := NewStore(s, Options{Codec: compress.None{}})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	raw, dec := encodedChunk(t, s, array.Coord{9, 9}, 0)
	if err := applyRaw(st, raw, dec); err != nil {
		t.Fatal(err)
	}
	if got := st.Stats().Flushes; got != 0 {
		t.Errorf("adopt into an empty buffer flushed %d times, want 0", got)
	}
	for c, v := range map[[2]int64]float64{{2, 2}: 1, {20, 20}: -2} {
		if err := st.Put(array.Coord{c[0], c[1]}, array.Cell{array.Float64(v), array.String64("old")}); err != nil {
			t.Fatal(err)
		}
	}
	raw, dec = encodedChunk(t, s, array.Coord{1, 1}, 0)
	if err := applyRaw(st, raw, dec); err != nil {
		t.Fatal(err)
	}
	if cell, ok, err := st.Get(array.Coord{2, 2}); err != nil || !ok || cell[0].Float != 2 {
		t.Errorf("Get(2,2) = %v, %v, %v; want the adopted 2", cell, ok, err)
	}
	if cell, ok, err := st.Get(array.Coord{20, 20}); err != nil || !ok || cell[0].Float != -2 {
		t.Errorf("Get(20,20) = %v, %v, %v; want the buffered -2", cell, ok, err)
	}
	err = st.Scan(array.NewBox(array.Coord{2, 2}, array.Coord{2, 2}), func(_ array.Coord, cell array.Cell) bool {
		if cell[0].Float != 2 {
			t.Errorf("Scan(2,2) = %v, want the adopted 2", cell[0].Float)
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestAdoptEncodedRefusesOffGrid: a bucket is one chunk of the store's grid.
// A chunk at an origin off the grid, with a box that leaves its grid cell,
// or with one narrower than the cell, is refused with ErrOffGrid and leaves
// the store as it was; a chunk clipped at a dimension's High is on the grid.
func TestAdoptEncodedRefusesOffGrid(t *testing.T) {
	s := schema2D(20)
	st, err := NewStore(s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	adopt := func(origin array.Coord, shape []int64) error {
		ch := array.NewChunk(s, origin, shape)
		if err := ch.Set(origin, array.Cell{array.Float64(1), array.String64("t")}); err != nil {
			t.Fatal(err)
		}
		raw, _, err := EncodeChunkZones(s, ch)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := DecodeChunk(s, raw)
		if err != nil {
			t.Fatal(err)
		}
		return applyRaw(st, raw, dec)
	}
	for _, c := range []struct {
		origin array.Coord
		shape  []int64
	}{
		{array.Coord{3, 1}, []int64{8, 8}},   // not a grid origin
		{array.Coord{1, 1}, []int64{16, 8}},  // spans two cells
		{array.Coord{17, 17}, []int64{8, 8}}, // past High
		{array.Coord{9, 1}, []int64{2, 8}},   // inside its cell, narrower
	} {
		if err := adopt(c.origin, c.shape); !errors.Is(err, ErrOffGrid) {
			t.Errorf("adopt at %v shape %v = %v, want ErrOffGrid", c.origin, c.shape, err)
		}
	}
	if n := st.NumBuckets(); n != 0 {
		t.Fatalf("refused chunks left %d buckets", n)
	}
	for _, c := range []struct {
		origin array.Coord
		shape  []int64
	}{
		{array.Coord{17, 17}, []int64{4, 4}}, // the cell clipped at High
	} {
		if err := adopt(c.origin, c.shape); err != nil {
			t.Errorf("adopt at %v shape %v: %v", c.origin, c.shape, err)
		}
	}
}

// TestNarrowChunkRefused: a chunk narrower than its grid cell is refused,
// not adopted beside the cell-shaped buffer chunk a later Put makes at its
// origin. A scan masks one version at an origin with another's presence a
// word at a time, which reads a narrower chunk's slots as the wrong cells:
// adopted, an 8×2 chunk at (1, 9) served (2, 9) twice and lost (5, 9).
func TestNarrowChunkRefused(t *testing.T) {
	s := schema2D(32)
	st, err := NewStore(s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	want := map[string]float64{}
	narrow := array.NewChunk(s, array.Coord{1, 9}, []int64{8, 2})
	array.IterBox(narrow.Box(), func(c array.Coord) bool {
		v := float64(c[0]*100 + c[1])
		if err := narrow.Set(c, array.Cell{array.Float64(v), array.String64("n")}); err != nil {
			t.Fatal(err)
		}
		want[fmt.Sprint(c)] = v
		return true
	})
	raw, _, err := EncodeChunkZones(s, narrow)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeChunk(s, raw)
	if err != nil {
		t.Fatal(err)
	}
	if err := applyRaw(st, raw, dec); err == nil {
		t.Error("an 8×2 chunk in an 8×8 grid cell was adopted")
	} else if errors.Is(err, ErrOffGrid) {
		clear(want)
	} else {
		t.Fatalf("adopting the narrow chunk: %v, want ErrOffGrid", err)
	}
	if err := st.Put(array.Coord{2, 9}, array.Cell{array.Float64(-1), array.String64("p")}); err != nil {
		t.Fatal(err)
	}
	want[fmt.Sprint(array.Coord{2, 9})] = -1
	got := map[string]float64{}
	if err := st.Scan(array.NewBox(array.Coord{1, 1}, array.Coord{32, 32}), func(c array.Coord, cell array.Cell) bool {
		k := fmt.Sprint(c)
		if _, dup := got[k]; dup {
			t.Errorf("%s served twice", k)
		}
		got[k] = cell[0].AsFloat()
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if !maps.Equal(got, want) {
		t.Errorf("scan served %v, want %v", got, want)
	}
}

// TestOffGridManifestAndStride: a store refuses to open over buckets that
// are not chunks of its grid, and a Stride option that does not restate the
// grid.
func TestOffGridManifestAndStride(t *testing.T) {
	dir := t.TempDir()
	st, err := NewStore(schema2D(32), Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put(array.Coord{9, 1}, array.Cell{array.Float64(1), array.String64("")}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	coarse := schema2D(32)
	coarse.Dims[0].ChunkLen = 16
	if _, err := NewStore(coarse, Options{Dir: dir}); !errors.Is(err, ErrOffGrid) {
		t.Errorf("open over a bucket at x 9 on a 16-wide grid = %v, want ErrOffGrid", err)
	}
	if _, err := NewStore(schema2D(32), Options{Stride: []int64{8, 16}}); !errors.Is(err, ErrOffGrid) {
		t.Errorf("stride 8x16 on an 8x8 grid = %v, want ErrOffGrid", err)
	}
	if _, err := NewStore(schema2D(32), Options{Stride: []int64{8, 0, 64}}); err != nil {
		t.Errorf("stride restating the grid: %v", err)
	}
}
