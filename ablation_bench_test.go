package scidb

// Ablation benchmarks for the design choices DESIGN.md calls out: chunk
// stride (the §2.8 "how to form an input stream into buckets" question),
// coordinator batch size (grid load path), and background merging (read
// amplification). Run with:
//
//	go test -bench=Ablation -benchmem
import (
	"fmt"
	"testing"

	"scidb/internal/array"
	"scidb/internal/cluster"
	"scidb/internal/partition"
	"scidb/internal/storage"
)

// --- chunk stride: scan vs point-read trade-off -----------------------------

func strideArray(n, stride int64) *array.Array {
	s := &array.Schema{
		Name: "ab",
		Dims: []array.Dimension{
			{Name: "x", High: n, ChunkLen: stride},
			{Name: "y", High: n, ChunkLen: stride},
		},
		Attrs: []array.Attribute{{Name: "v", Type: array.TFloat64}},
	}
	a := array.MustNew(s)
	_ = a.Fill(func(c array.Coord) array.Cell {
		return array.Cell{array.Float64(float64(c[0] + c[1]))}
	})
	return a
}

func BenchmarkAblationChunkStride(b *testing.B) {
	const n = 256
	for _, stride := range []int64{16, 64, 256} {
		a := strideArray(n, stride)
		box := array.NewBox(array.Coord{65, 65}, array.Coord{192, 192})
		b.Run(fmt.Sprintf("stride%d/windowScan", stride), func(b *testing.B) {
			var sink float64
			for i := 0; i < b.N; i++ {
				a.ScanFloats(box, 0, func(_ array.Coord, v float64) bool {
					sink += v
					return true
				})
			}
			_ = sink
		})
		b.Run(fmt.Sprintf("stride%d/pointRead", stride), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c := array.Coord{int64(i%n) + 1, int64((i*13)%n) + 1}
				if _, ok := a.At(c); !ok {
					b.Fatal("missing cell")
				}
			}
		})
	}
}

// --- storage chunk grid: buckets written and range-read cost -----------------

func BenchmarkAblationBucketStride(b *testing.B) {
	const n = 64
	for _, stride := range []int64{8, 32, 64} {
		b.Run(fmt.Sprintf("stride%d", stride), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				st, err := storage.NewStore(&array.Schema{
					Name:  "ab",
					Dims:  []array.Dimension{{Name: "t", High: n, ChunkLen: stride}, {Name: "s", High: n, ChunkLen: stride}},
					Attrs: []array.Attribute{{Name: "v", Type: array.TFloat64}},
				}, storage.Options{})
				if err != nil {
					b.Fatal(err)
				}
				for t := int64(1); t <= n; t++ {
					for s := int64(1); s <= n; s++ {
						_ = st.Put(array.Coord{t, s}, array.Cell{array.Float64(float64(t + s))})
					}
				}
				_ = st.Flush()
				// Range read over a quarter of the space.
				if err := st.Scan(array.NewBox(array.Coord{1, 1}, array.Coord{n / 2, n / 2}),
					func(array.Coord, array.Cell) bool { return true }); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- coordinator batch size: grid load throughput -----------------------------

func BenchmarkAblationClusterBatch(b *testing.B) {
	const n = 1024
	for _, batch := range []int64{64, 1024, 8192} {
		b.Run(fmt.Sprintf("batch%d", batch), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tr := cluster.NewLocal(4)
				co := cluster.NewCoordinator(tr, batch)
				schema := &array.Schema{
					Name:  "ab",
					Dims:  []array.Dimension{{Name: "x", High: n}},
					Attrs: []array.Attribute{{Name: "v", Type: array.TFloat64}},
				}
				scheme := partition.Block{Nodes: 4, SplitDim: 0, High: n}
				if err := co.Create("ab", schema, scheme); err != nil {
					b.Fatal(err)
				}
				for x := int64(1); x <= n; x++ {
					if err := co.Put("ab", array.Coord{x}, array.Cell{array.Float64(float64(x))}); err != nil {
						b.Fatal(err)
					}
				}
				if err := co.Flush("ab"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- merge on/off: read amplification ------------------------------------------

func BenchmarkAblationMerge(b *testing.B) {
	build := func() *storage.Store {
		const n = 64
		st, _ := storage.NewStore(&array.Schema{
			Name:  "ab",
			Dims:  []array.Dimension{{Name: "t", High: n, ChunkLen: 16}, {Name: "s", High: n, ChunkLen: 16}},
			Attrs: []array.Attribute{{Name: "v", Type: array.TFloat64}},
		}, storage.Options{})
		k := 0
		for t := int64(1); t <= n; t++ {
			for s := int64(1); s <= n; s++ {
				_ = st.Put(array.Coord{t, s}, array.Cell{array.Float64(float64(t + s))})
				k++
				if k%512 == 0 {
					_ = st.Flush() // fragment
				}
			}
		}
		_ = st.Flush()
		return st
	}
	scan := func(b *testing.B, st *storage.Store) {
		for i := 0; i < b.N; i++ {
			if err := st.Scan(array.NewBox(array.Coord{1, 1}, array.Coord{32, 32}),
				func(array.Coord, array.Cell) bool { return true }); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("fragmented", func(b *testing.B) {
		st := build()
		b.ResetTimer()
		scan(b, st)
	})
	b.Run("merged", func(b *testing.B) {
		st := build()
		for {
			ok, err := st.MergeOnce()
			if err != nil {
				b.Fatal(err)
			}
			if !ok {
				break
			}
		}
		b.ResetTimer()
		scan(b, st)
	})
}
