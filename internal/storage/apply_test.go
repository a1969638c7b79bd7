package storage

import (
	"errors"
	"fmt"
	"maps"
	"testing"

	"scidb/internal/array"
	"scidb/internal/bufcache"
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

// scanPayloads encodes the cells st holds inside box a chunk of the grid at a
// time, every version at an origin merged into one: the payloads a worker's
// read of the box ships, and a migration installs.
func scanPayloads(t *testing.T, st *Store, box array.Box) [][]byte {
	t.Helper()
	buf := array.MustNew(st.Schema().Clone())
	if err := st.ScanChunks(box, nil, nil).Each(func(lc LiveChunk) error {
		return buf.MergeChunk(lc.Chunk.Select(lc.Live))
	}); err != nil {
		t.Fatal(err)
	}
	var payloads [][]byte
	for _, ch := range buf.Chunks() {
		raw, err := EncodeChunk(st.Schema(), ch)
		if err != nil {
			t.Fatal(err)
		}
		payloads = append(payloads, raw)
	}
	return payloads
}

// TestApplyClearUnshadowsAdoptedCopy pins the migration staleness rule:
// a store re-adopting a region it once owned may still hold that region's
// cells in its memory buffer from the earlier stint, and the buffer outranks
// every bucket on reads — so without the batch's Clear the stale cells shadow
// the newer adopted copy (and poison the next copy read from it). This is the
// storage-level half of cluster.TestWriteFenceDuringMigration.
func TestApplyClearUnshadowsAdoptedCopy(t *testing.T) {
	schema := &array.Schema{
		Name:      "c",
		Updatable: true,
		Dims:      []array.Dimension{{Name: "x", High: 16, ChunkLen: 4}},
		Attrs:     []array.Attribute{{Name: "v", Type: array.TFloat64}},
	}
	// old once owned x[1,8]: round-1 values sit unflushed in its buffer.
	old, err := NewStore(schema, Options{Stride: []int64{4}})
	if err != nil {
		t.Fatal(err)
	}
	for x := int64(1); x <= 8; x++ {
		if err := old.Put(array.Coord{x}, array.Cell{array.Float64(float64(1000 + x))}); err != nil {
			t.Fatal(err)
		}
	}
	// cur took the region over and accumulated newer writes.
	cur, err := NewStore(schema, Options{Stride: []int64{4}})
	if err != nil {
		t.Fatal(err)
	}
	for x := int64(1); x <= 8; x++ {
		if err := cur.Put(array.Coord{x}, array.Cell{array.Float64(float64(2000 + x))}); err != nil {
			t.Fatal(err)
		}
	}
	box := array.Box{Lo: array.Coord{1}, Hi: array.Coord{8}}
	payloads := scanPayloads(t, cur, box)
	// Migrating back: one batch per chunk clears the old stint's buffered
	// cells there, then adopts. The store holds as many cells as before: the
	// 4 stale ones go, the 4 adopted ones come.
	for i, payload := range payloads {
		b, err := DecodeBatch(schema, [][]byte{payload})
		if err != nil {
			t.Fatal(err)
		}
		b.Clear = b.Chunks[0].Box()
		if held, err := old.Apply(b); err != nil || held != 0 {
			t.Fatalf("chunk %d: Apply with Clear changed the cells held by %d (%v), want 0", i, held, err)
		}
	}
	if n := old.mem.Count(); n != 0 {
		t.Fatalf("%d stale cells still buffered", n)
	}
	got := map[int64]float64{}
	scan := func() {
		t.Helper()
		got = map[int64]float64{}
		if err := old.Scan(box, func(c array.Coord, cell array.Cell) bool {
			got[c[0]] = cell[0].Float
			return true
		}); err != nil {
			t.Fatal(err)
		}
	}
	scan()
	if len(got) != 8 {
		t.Fatalf("re-adopted region holds %d cells, want 8: %v", len(got), got)
	}
	for x := int64(1); x <= 8; x++ {
		if got[x] != float64(2000+x) {
			t.Errorf("cell %d = %v, want %v (stale buffer must not shadow the adopted copy)", x, got[x], float64(2000+x))
		}
	}
	// Clearing an untouched chunk is a no-op, and a box of two chunks is no
	// chunk to clear.
	if held, err := old.Apply(Batch{Clear: array.Box{Lo: array.Coord{9}, Hi: array.Coord{12}}}); err != nil || held != 0 {
		t.Fatalf("Apply clearing an empty chunk: held %d, %v", held, err)
	}
	if held, err := old.Apply(Batch{Clear: box}); !errors.Is(err, ErrOffGrid) || held != 0 {
		t.Fatalf("Apply clearing two chunks: held %d, %v; want ErrOffGrid", held, err)
	}
	if scan(); len(got) != 8 {
		t.Fatalf("the clears left %d cells, want 8", len(got))
	}
}

// TestApplyClearDropsPoolEntries: after a read warms the pool, a batch
// clearing one chunk removes it — its cells, and the pool entries of its
// buckets, and only theirs — while a later read of the rest still hits.
func TestApplyClearDropsPoolEntries(t *testing.T) {
	schema := &array.Schema{
		Name:  "r",
		Dims:  []array.Dimension{{Name: "x", High: 16, ChunkLen: 4}},
		Attrs: []array.Attribute{{Name: "v", Type: array.TFloat64}},
	}
	st, err := NewStore(schema, Options{Stride: []int64{4}, CacheBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	for x := int64(1); x <= 16; x++ {
		if err := st.Put(array.Coord{x}, array.Cell{array.Float64(float64(x))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	full := array.Box{Lo: array.Coord{1}, Hi: array.Coord{16}}
	count := func() int64 {
		t.Helper()
		var n int64
		if err := st.Scan(full, func(array.Coord, array.Cell) bool { n++; return true }); err != nil {
			t.Fatal(err)
		}
		return n
	}
	region, rest := array.Box{Lo: array.Coord{1}, Hi: array.Coord{4}}, array.Box{Lo: array.Coord{5}, Hi: array.Coord{16}}
	cached := func(metas []*bucketMeta) (n int) {
		for _, m := range metas {
			if st.cache.Contains(st.cacheKey(m.id, bufcache.Frame)) {
				n++
			}
		}
		return n
	}
	if n := count(); n != 16 {
		t.Fatalf("warmup scan saw %d cells", n)
	}
	gone, kept := st.searchMetasLocked(region), st.searchMetasLocked(rest)
	if held, err := st.Apply(Batch{Clear: region}); err != nil || held != -4 {
		t.Fatalf("clearing a chunk of 4 cells changed the cells held by %d (%v), want -4", held, err)
	}
	if n, m := cached(gone), cached(kept); n != 0 || m != 3 {
		t.Fatalf("after the clear %d of the chunk's 1 bucket and %d of the other 3 are cached, want 0 and 3", n, m)
	}
	if n := st.NumBuckets(); n != 3 {
		t.Fatalf("%d buckets after the clear, want 3", n)
	}
	if n := count(); n != 12 {
		t.Fatalf("post-release scan saw %d cells, want the 12 outside the cleared chunk", n)
	}
}

// TestApplyFailureRestoresClearedChunk: a batch that fails after its Clear —
// here at a later chunk, whose new cells are counted against a torn bucket —
// puts the cleared chunk back as it was, its buffered cell and its bucket
// alike, and drops what the batch wrote there: the store holds what its
// manifest names, and the cells it holds are unchanged.
func TestApplyFailureRestoresClearedChunk(t *testing.T) {
	schema := &array.Schema{
		Name:  "r",
		Dims:  []array.Dimension{{Name: "x", High: 16, ChunkLen: 4}},
		Attrs: []array.Attribute{{Name: "v", Type: array.TFloat64}},
	}
	st, err := NewStore(schema, Options{Stride: []int64{4}})
	if err != nil {
		t.Fatal(err)
	}
	for x := int64(1); x <= 16; x++ {
		if err := st.Put(array.Coord{x}, array.Cell{array.Float64(float64(x))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := st.Put(array.Coord{2}, array.Cell{array.Float64(-2)}); err != nil {
		t.Fatal(err)
	}
	torn := st.index[array.Coord{9}.Key()][0]
	torn.data = torn.data[:len(torn.data)/2]
	batch, err := array.New(schema.Clone())
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []int64{1, 9} {
		if err := batch.Set(array.Coord{x}, array.Cell{array.Float64(float64(100 * x))}); err != nil {
			t.Fatal(err)
		}
	}
	held, err := st.Apply(Batch{Clear: array.Box{Lo: array.Coord{1}, Hi: array.Coord{4}}, Chunks: batch.Chunks()})
	if !errors.Is(err, ErrCorrupt) || held != 0 {
		t.Fatalf("Apply over a torn bucket: held %d, %v; want 0 and ErrCorrupt", held, err)
	}
	got := map[int64]float64{}
	if err := st.Scan(array.Box{Lo: array.Coord{1}, Hi: array.Coord{4}}, func(c array.Coord, cell array.Cell) bool {
		got[c[0]] = cell[0].Float
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if want := map[int64]float64{1: 1, 2: -2, 3: 3, 4: 4}; !maps.Equal(got, want) {
		t.Errorf("after the failed batch the cleared chunk reads %v, want %v", got, want)
	}
	if n := st.NumBuckets(); n != 4 {
		t.Errorf("%d buckets after the failed batch, want 4", n)
	}
}
