package loader

import (
	"fmt"
	"path/filepath"
	"testing"

	"scidb/internal/array"
	"scidb/internal/cluster"
	"scidb/internal/insitu"
	"scidb/internal/partition"
	"scidb/internal/storage"
)

// TestLoadParallelChunksOnPartitionGrid: a load with no options into a grid
// whose schema leaves x unchunked (High 256, ChunkLen 0) must still ship
// chunks of the partitions' 64-wide grid, so every stored bucket is one grid
// chunk and a full scan takes each whole — Alone, nothing masked off — though
// four shards cut the file inside chunks: over a sparse grid on 2 nodes, and
// over a dense one on 3, whose node boundaries (x = 86, 172) cut chunks too.
func TestLoadParallelChunksOnPartitionGrid(t *testing.T) {
	for _, tc := range []struct {
		name  string
		nodes int
		dense bool
	}{{"sparse on 2 nodes", 2, false}, {"dense on 3 nodes", 3, true}} {
		t.Run(tc.name, func(t *testing.T) {
			schema := &array.Schema{
				Name: "wide",
				Dims: []array.Dimension{
					{Name: "x", High: 256},
					{Name: "y", High: 4, ChunkLen: 4},
				},
				Attrs: []array.Attribute{{Name: "v", Type: array.TFloat64}},
			}
			path, src := writeGridCSV(t, schema)
			if tc.dense {
				path, src = writeDenseCSV(t, schema)
			}
			scheme := partition.Block{Nodes: tc.nodes, SplitDim: 0, High: 256}
			dir := t.TempDir()
			co := cluster.NewCoordinator(cluster.NewLocalWithOptions(tc.nodes, cluster.WorkerOptions{Dir: dir}), 0)
			if err := co.Create("wide", schema, scheme); err != nil {
				t.Fatal(err)
			}
			ds, err := (insitu.CSVAdaptor{}).Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer ds.Close()
			// Four shards: a shard cut inside a chunk must not ship it twice.
			setParallelism(t, 4)
			if _, err := LoadParallel(ds, array.WholeBox(schema), schema, scheme, ClusterDest{Co: co, Array: "wide"}, Options{}); err != nil {
				t.Fatal(err)
			}
			// The partitions' grid: every dimension unbounded, x at the default 64.
			grid := schema.Clone()
			grid.Dims[0].ChunkLen = array.DefaultChunkLen
			for i := range grid.Dims {
				grid.Dims[i].High = array.Unbounded
			}
			var cells int64
			for node := 0; node < tc.nodes; node++ {
				st, err := storage.NewStore(grid, storage.Options{Dir: filepath.Join(dir, fmt.Sprintf("node-%d", node), "wide")})
				if err != nil {
					t.Fatal(err)
				}
				chunks := 0
				err = st.ScanChunks(array.WholeBox(grid), nil, nil).Each(func(lc storage.LiveChunk) error {
					chunks++
					ch := lc.Chunk
					if (ch.Origin[0]-1)%64 != 0 || ch.Shape[0] > 64 || ch.Origin[1] != 1 || ch.Shape[1] > 4 {
						return fmt.Errorf("node %d holds bucket %v, not one chunk of the 64x4 grid", node, ch.Box())
					}
					if !lc.Alone || lc.Live != ch.Present {
						return fmt.Errorf("node %d bucket %v is not delivered whole (alone %v)", node, ch.Box(), lc.Alone)
					}
					cells += lc.Live.Count()
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				if chunks != 2 || st.NumBuckets() != 2 {
					t.Errorf("node %d: %d buckets delivered, %d stored; want the 2 chunks its columns touch", node, chunks, st.NumBuckets())
				}
				st.Close()
			}
			if cells != src.Count() {
				t.Errorf("stores hold %d cells, want %d", cells, src.Count())
			}
		})
	}
}

// writeDenseCSV writes every cell of schema's 2-D bounds and returns the
// expected content as an array.
func writeDenseCSV(t *testing.T, schema *array.Schema) (string, *array.Array) {
	t.Helper()
	a := array.MustNew(schema)
	for x := int64(1); x <= schema.Dims[0].High; x++ {
		for y := int64(1); y <= schema.Dims[1].High; y++ {
			if err := a.Set(array.Coord{x, y}, array.Cell{array.Float64(float64(x*1000 + y))}); err != nil {
				t.Fatal(err)
			}
		}
	}
	path := filepath.Join(t.TempDir(), "dense.csv")
	if err := insitu.WriteCSV(path, a); err != nil {
		t.Fatal(err)
	}
	return path, a
}
