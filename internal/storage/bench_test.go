package storage

import (
	"bytes"
	"math/rand"
	"testing"

	"scidb/internal/array"
	"scidb/internal/compress"
	"scidb/internal/ssdb"
)

// benchScanStore fills a 256×256 two-attribute store in 64-stride buckets
// with a pool that keeps every decoded bucket resident. With shadowed set,
// every other row is then rewritten and flushed, so each tile holds an older
// bucket overlapped by a newer one and every scan has shadow masks to build.
func benchScanStore(b *testing.B, shadowed bool) (st *Store, cells int64) {
	b.Helper()
	const n = 256
	s := &array.Schema{
		Name:  "bench",
		Dims:  []array.Dimension{{Name: "x", High: n, ChunkLen: 64}, {Name: "y", High: n, ChunkLen: 64}},
		Attrs: []array.Attribute{{Name: "v", Type: array.TFloat64}, {Name: "k", Type: array.TInt64}},
	}
	st, err := NewStore(s, Options{Stride: []int64{64, 64}, CacheBytes: 64 << 20, MemLimit: 64 << 20})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = st.Close() })
	fill := func(step int64) {
		for x := int64(1); x <= n; x += step {
			for y := int64(1); y <= n; y++ {
				if err := st.Put(array.Coord{x, y}, array.Cell{array.Float64(float64(x*y) / 8), array.Int64(x + y)}); err != nil {
					b.Fatal(err)
				}
			}
		}
		if err := st.Flush(); err != nil {
			b.Fatal(err)
		}
	}
	fill(1)
	if shadowed {
		fill(2)
	}
	return st, n * n
}

// benchChunkScan times full chunk scans over a warm pool, touching every
// delivered mask the way a kernel would (a popcount), and reports the
// storage layer's share of a read in ns per live cell.
func benchChunkScan(b *testing.B, shadowed bool) {
	st, cells := benchScanStore(b, shadowed)
	q := array.NewBox(array.Coord{1, 1}, array.Coord{256, 256})
	scan := func() (live int64) {
		if err := st.ScanChunks(q, nil, nil).Each(func(lc LiveChunk) error {
			live += lc.Live.Count()
			return nil
		}); err != nil {
			b.Fatal(err)
		}
		return live
	}
	if got := scan(); got != cells { // also warms the pool
		b.Fatalf("scan delivered %d live cells, want %d", got, cells)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scan()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*cells), "ns/cell")
}

func BenchmarkStoreChunkScanWarm(b *testing.B)     { benchChunkScan(b, false) }
func BenchmarkStoreChunkScanShadowed(b *testing.B) { benchChunkScan(b, true) }

// BenchmarkDecodeColumn decodes one 4×64×64-slot column section per
// iteration, one sub-benchmark per value encoding the chooser can pick, and
// reports the decode's cost per cell beside allocs/op.
func BenchmarkDecodeColumn(b *testing.B) {
	const slots = 4 * 64 * 64
	rng := rand.New(rand.NewSource(1))
	floats := func(v func(i int) float64) *array.Column {
		col := array.NewColumn(array.Attribute{Type: array.TFloat64}, slots)
		for i := range col.Floats {
			col.Floats[i] = v(i)
		}
		return col
	}
	ticks := array.NewColumn(array.Attribute{Type: array.TInt64}, slots)
	for i := range ticks.Ints {
		ticks.Ints[i] = int64(1_700_000_000_000 + 5*i + rng.Intn(4))
	}
	names := array.NewColumn(array.Attribute{Type: array.TString}, slots)
	for i := range names.Strs {
		names.Strs[i] = []string{"north", "south", "east", "west"}[rng.Intn(4)]
	}
	for _, c := range []struct {
		name string
		col  *array.Column
		enc  uint8
	}{
		{"raw", floats(func(int) float64 { return rng.NormFloat64() }), encRaw},
		{"const", floats(func(int) float64 { return 2.5 }), encConst},
		{"rle", floats(func(i int) float64 { return float64(i / 64) }), encRLE},
		{"delta", ticks, encDelta},
		{"dict", names, encDict},
	} {
		at := array.Attribute{Name: "a", Type: c.col.Type}
		present := array.NewBitmap(slots)
		for i := int64(0); i < slots; i++ {
			present.Set(i)
		}
		var buf bytes.Buffer
		zone, err := encodeColumn(NewFieldWriter(&buf), at, c.col, present)
		if err != nil {
			b.Fatal(err)
		}
		// flags byte, null bitmap, zone map, then the encoding's tag.
		var zbuf bytes.Buffer
		encodeZoneMap(NewFieldWriter(&zbuf), zone)
		if got := buf.Bytes()[1+slots/8+zbuf.Len()]; got != c.enc {
			b.Fatalf("%s column encoded with tag %d, want %d", c.name, got, c.enc)
		}
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := decodeColumn(NewFieldReaderBytes(buf.Bytes()), at, present, array.NewRank(present)); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*slots), "ns/cell")
		})
	}
}

// loaderChunk is a loader-shaped 4×64×64-slot chunk — three float
// attributes: a measured value, a mostly-clear mask, a per-row constant —
// with the slots present says.
func loaderChunk(present func(i int64) bool) (*array.Schema, *array.Chunk) {
	s := &array.Schema{
		Name: "raw",
		Dims: []array.Dimension{{Name: "pass", High: 4}, {Name: "x", High: 64}, {Name: "y", High: 64}},
		Attrs: []array.Attribute{{Name: "dn", Type: array.TFloat64}, {Name: "cloud", Type: array.TFloat64},
			{Name: "nadir", Type: array.TFloat64}},
	}
	rng := rand.New(rand.NewSource(1))
	ch := array.NewChunk(s, array.Coord{1, 1, 1}, []int64{4, 64, 64})
	for i := int64(0); i < ch.Slots(); i++ {
		if !present(i) {
			continue
		}
		ch.Present.Set(i)
		ch.Cols[0].Floats[i] = float64(rng.Intn(1 << 12))
		ch.Cols[1].Floats[i] = float64(rng.Intn(50) / 49)
		ch.Cols[2].Floats[i] = float64(i / 64 % 64)
	}
	return s, ch
}

// boundaryRows is a site boundary's cut of a loader chunk: 22 of its 64 x
// rows present, as a block split at x = 86 leaves the chunk over x 65–128 on
// the first site.
func boundaryRows(i int64) bool { return i/64%64 < 22 }

// BenchmarkDecodeChunk decodes one chunk per iteration and reports the cost
// per slot beside allocs/op: a full loader chunk; the same chunk cut at a
// site boundary, whose float columns are present-only; and the SS-DB
// catalog's first chunk, about a quarter of its slots present.
func BenchmarkDecodeChunk(b *testing.B) {
	ds, err := ssdb.Setup(ssdb.Config{Size: 256, Passes: 4, Seed: 1, Threshold: 13, Tile: 8})
	if err != nil {
		b.Fatal(err)
	}
	full, fullCh := loaderChunk(func(int64) bool { return true })
	cut, cutCh := loaderChunk(boundaryRows)
	for _, c := range []struct {
		name string
		s    *array.Schema
		ch   *array.Chunk
	}{
		{"full", full, fullCh},
		{"boundary", cut, cutCh},
		{"catalog", ds.Catalog.Schema, ds.Catalog.Chunks()[0]},
	} {
		enc, err := EncodeChunk(c.s, c.ch)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := DecodeChunk(c.s, enc); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*c.ch.Slots()), "ns/slot")
		})
	}
}

// BenchmarkEncodeChunk encodes one 64×64-cell chunk per iteration and reports
// the encode's cost per cell. raw-float and raw-int hold one incompressible
// column built in memory, so what they time is the raw vector's write (and a
// zone map's computation); pooled-zone and fresh-zone are the same two-column
// chunk as a decoder hands it over — Column.Zone attached, which the encoder
// reuses — and with the zone maps dropped, as any modified chunk has them;
// boundary is a loader chunk a site boundary cuts (BenchmarkDecodeChunk's),
// whose present values are gathered out of its float columns.
func BenchmarkEncodeChunk(b *testing.B) {
	const n = 64
	rng := rand.New(rand.NewSource(1))
	chunk := func(attrs ...array.Attribute) (*array.Schema, *array.Chunk) {
		s := &array.Schema{Name: "bench", Dims: []array.Dimension{{Name: "x", High: n}, {Name: "y", High: n}}, Attrs: attrs}
		ch := array.NewChunk(s, array.Coord{1, 1}, []int64{n, n})
		for i := int64(0); i < n*n; i++ {
			ch.Present.Set(i)
			for _, col := range ch.Cols {
				if col.Type == array.TInt64 {
					col.Ints[i] = rng.Int63()
				} else {
					col.Floats[i] = rng.NormFloat64()
				}
			}
		}
		return s, ch
	}
	v, k := array.Attribute{Name: "v", Type: array.TFloat64}, array.Attribute{Name: "k", Type: array.TInt64}
	run := func(name string, s *array.Schema, ch *array.Chunk) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := EncodeChunk(s, ch); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*ch.Slots()), "ns/cell")
		})
	}
	s, ch := chunk(v)
	run("raw-float", s, ch)
	s, ch = chunk(k)
	run("raw-int", s, ch)
	s, ch = chunk(v, k)
	enc, err := EncodeChunk(s, ch)
	if err != nil {
		b.Fatal(err)
	}
	pooled, err := DecodeChunk(s, enc)
	if err != nil {
		b.Fatal(err)
	}
	for _, col := range pooled.Cols {
		if col.Zone == nil {
			b.Fatal("decoded column carries no zone map")
		}
	}
	run("pooled-zone", s, pooled)
	run("fresh-zone", s, ch)
	s, ch = loaderChunk(boundaryRows)
	run("boundary", s, ch)
}

// BenchmarkStoreChunkScanCold times cold chunk scans of loader-shaped
// buckets — 4×64×64 cells, three float attributes, the default codec — with
// a pool smaller than a column, so every iteration reads, inflates and
// decodes what it projects: everything, or one attribute of the three.
func BenchmarkStoreChunkScanCold(b *testing.B) {
	s := &array.Schema{
		Name: "cold",
		Dims: []array.Dimension{{Name: "pass", High: 4}, {Name: "x", High: 128, ChunkLen: 64}, {Name: "y", High: 128, ChunkLen: 64}},
		Attrs: []array.Attribute{{Name: "dn", Type: array.TFloat64}, {Name: "cloud", Type: array.TFloat64},
			{Name: "nadir", Type: array.TFloat64}},
	}
	st, err := NewStore(s, Options{Dir: b.TempDir(), CacheBytes: 64 << 10, Readahead: 4, MemLimit: 64 << 20})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = st.Close() })
	rng := rand.New(rand.NewSource(1))
	q := array.NewBox(array.Coord{1, 1, 1}, array.Coord{4, 128, 128})
	var putErr error
	array.IterBox(q, func(c array.Coord) bool {
		// A measured value, a mostly-clear mask, and a per-row constant.
		cell := array.Cell{array.Float64(float64(rng.Intn(1 << 12))), array.Float64(float64(rng.Intn(50) / 49)), array.Float64(float64(c[1]))}
		putErr = st.Put(c.Clone(), cell)
		return putErr == nil
	})
	if putErr != nil {
		b.Fatal(putErr)
	}
	if err := st.Flush(); err != nil {
		b.Fatal(err)
	}
	cells := q.Cells()
	for _, c := range []struct {
		name  string
		attrs []int
	}{{"all", nil}, {"one-of-three", []int{0}}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var live int64
				if err := st.ScanChunks(q, nil, c.attrs).Each(func(lc LiveChunk) error {
					live += lc.Live.Count()
					return nil
				}); err != nil || live != cells {
					b.Fatalf("scan delivered %d live cells of %d: %v", live, cells, err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*cells), "ns/cell")
		})
	}
}

// BenchmarkSealSection seals (sealSection) and opens (the codec's Decode) one
// 4×64×64-slot section per iteration under the default codec — a raw float
// column, whose 8-byte records go out as planes; a float column of a chunk a
// site boundary cuts, 22 of its 64 x rows present, whose present values go
// out as 8-byte records too; and that chunk's presence bitmap, sealed whole —
// and reports the cost per section byte.
func BenchmarkSealSection(b *testing.B) {
	const slots = 4 * 64 * 64
	rng := rand.New(rand.NewSource(1))
	at := array.Attribute{Name: "v", Type: array.TFloat64}
	full, cut := array.NewColumn(at, slots), array.NewColumn(at, slots)
	all, part := array.NewBitmap(slots), array.NewBitmap(slots)
	for i := int64(0); i < slots; i++ {
		all.Set(i)
		full.Floats[i] = 1200 + 50*rng.NormFloat64() // a measured value
		if i/64%64 < 22 {
			part.Set(i)
			cut.Floats[i] = full.Floats[i]
		}
	}
	section := func(col *array.Column, present *array.Bitmap) []byte {
		var buf bytes.Buffer
		if _, err := encodeColumn(NewFieldWriter(&buf), at, col, present); err != nil {
			b.Fatal(err)
		}
		return buf.Bytes()
	}
	var presence bytes.Buffer
	writeBitmap(NewFieldWriter(&presence), part)
	for _, c := range []struct {
		name    string
		sec     []byte
		at      *array.Attribute
		present int64
	}{
		{"raw-float", section(full, all), &at, slots},
		{"boundary-float", section(cut, part), &at, part.Count()},
		{"presence", presence.Bytes(), nil, part.Count()},
	} {
		sealed := sealSection(nil, compress.Auto{}, c.sec, c.at, slots, c.present)
		if planes := !bytes.Equal(sealed, compress.Auto{}.Encode(c.sec)); planes != (c.at != nil) {
			b.Fatalf("%s: sealed as planes %v", c.name, planes)
		}
		if c.at != nil {
			if _, _, width, _ := recordRegion(c.sec, *c.at, slots, c.present); width != 8 {
				b.Fatalf("%s: sealed as %d-byte records, want 8", c.name, width)
			}
		}
		perByte := func(b *testing.B) {
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*int64(len(c.sec))), "ns/byte")
		}
		b.Run(c.name+"/seal", func(b *testing.B) {
			b.ReportAllocs()
			var dst []byte
			for i := 0; i < b.N; i++ {
				dst = sealSection(dst[:0], compress.Auto{}, c.sec, c.at, slots, c.present)
			}
			perByte(b)
		})
		b.Run(c.name+"/open", func(b *testing.B) {
			b.ReportAllocs()
			var dst []byte
			for i := 0; i < b.N; i++ {
				var err error
				if dst, err = (compress.Auto{}).Decode(dst, sealed); err != nil {
					b.Fatal(err)
				}
			}
			perByte(b)
		})
	}
}
