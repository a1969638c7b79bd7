package storage

import (
	"testing"

	"scidb/internal/array"
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
		if err := st.ScanChunks(q, nil).Each(func(lc LiveChunk) error {
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
