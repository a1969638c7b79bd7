package loader

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"scidb/internal/array"
	"scidb/internal/cluster"
	"scidb/internal/insitu"
	"scidb/internal/ops"
	"scidb/internal/partition"
	"scidb/internal/storage"
)

// TestLoadParallelChunksOnPartitionGrid: a load with no options into a grid
// whose schema leaves x unchunked (High 256, ChunkLen 0) must still ship
// chunks of the partitions' 64-wide grid, so every stored bucket is one grid
// chunk and a full scan takes each whole — Alone, nothing masked off — though
// four shards cut the file inside chunks: over a sparse grid on 2 nodes, and
// over a dense one on 3, whose node boundaries (x = 86, 172) cut chunks too.
// Each runs in process and over TCP, the latter with every request frame
// overwritten once its response is written, and reads back the file's cells.
func TestLoadParallelChunksOnPartitionGrid(t *testing.T) {
	for _, tc := range []struct {
		name  string
		nodes int
		dense bool
		tcp   bool
	}{
		{"sparse on 2 nodes", 2, false, false},
		{"dense on 3 nodes", 3, true, false},
		{"sparse on 2 nodes over TCP, scribbled", 2, false, true},
		{"dense on 3 nodes over TCP, scribbled", 3, true, true},
	} {
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
			var co *cluster.Coordinator
			if tc.tcp {
				// Every request frame the workers read is overwritten as it
				// goes back to its pool.
				defer storage.ScribbleRooms(0xA5)()
				co = tcpGrid(t, tc.nodes, dir)
			} else {
				co = cluster.NewCoordinator(cluster.NewLocalWithOptions(tc.nodes, cluster.WorkerOptions{Dir: dir}), 0)
			}
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
			got, _, _, _, err := co.Read(context.Background(), "wide", ops.Fragment{})
			if err != nil {
				t.Fatal(err)
			}
			requireCells(t, "read back", got, src)
			// The partitions' grid, x at the default 64, opened with its bounds
			// left off: a bucket clipped at a bound still lies in its grid cell.
			grid := schema.Clone()
			grid.Dims[0].ChunkLen = array.DefaultChunkLen
			for i := range grid.Dims {
				grid.Dims[i].High = array.Unbounded
			}
			// A chunk goes whole to the node of its origin: the chunk columns
			// at x = 1, 65, 129 and 193 lie on scheme.NodeFor of those x, so
			// on 3 nodes, whose slabs are cut at 86 | 87 and 172 | 173, node 0
			// holds two of them.
			var cells int64
			holder := map[int64]int{}
			for node := 0; node < tc.nodes; node++ {
				want := 0
				for x := int64(1); x <= 256; x += 64 {
					if scheme.NodeFor(array.Coord{x, 1}) == node {
						want++
					}
				}
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
					if other, ok := holder[ch.Origin[0]]; ok {
						return fmt.Errorf("chunk %v is on nodes %d and %d", ch.Origin, other, node)
					}
					holder[ch.Origin[0]] = node
					cells += lc.Live.Count()
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				if chunks != want || st.NumBuckets() != want {
					t.Errorf("node %d: %d buckets delivered, %d stored; want the %d chunks placed on it", node, chunks, st.NumBuckets(), want)
				}
				st.Close()
			}
			if cells != src.Count() {
				t.Errorf("stores hold %d cells, want %d", cells, src.Count())
			}
		})
	}
}

// TestEdgeChunkHasOneBox: x = 1:100 on a 64-wide grid ends in a chunk at
// x 65 that the bound clips to 36 rows, and every writer of a cluster array
// builds it in that one box: the loader, a Put into it, a move of the chunk
// to another node (a read of its box, loadchunks' adopt) and a
// compaction of its versions, after which a scan takes it whole. A chunk in
// the unclipped box is off the grid.
func TestEdgeChunkHasOneBox(t *testing.T) {
	schema := &array.Schema{
		Name:  "edge",
		Dims:  []array.Dimension{{Name: "x", High: 100, ChunkLen: 64}, {Name: "y", High: 4, ChunkLen: 4}},
		Attrs: []array.Attribute{{Name: "v", Type: array.TFloat64}},
	}
	path, _ := writeDenseCSV(t, schema)
	scheme := partition.Block{Nodes: 2, SplitDim: 0, High: 100}
	dir := t.TempDir()
	tr := cluster.NewLocalWithOptions(2, cluster.WorkerOptions{Dir: dir})
	co := cluster.NewCoordinator(tr, 0)
	if err := co.Create("edge", schema, scheme); err != nil {
		t.Fatal(err)
	}
	ds, err := (insitu.CSVAdaptor{}).Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	if _, err := LoadParallel(ds, array.WholeBox(schema), schema, scheme, ClusterDest{Co: co, Array: "edge"}, Options{}); err != nil {
		t.Fatal(err)
	}
	if err := co.Put("edge", array.Coord{90, 2}, array.Cell{array.Float64(-1)}); err != nil {
		t.Fatal(err)
	}
	if err := co.Flush("edge"); err != nil {
		t.Fatal(err)
	}
	// Node 1 holds x 51..100, so the edge chunk; move a copy to node 0.
	box := []int64{65, 1}
	moved := tr.Workers[1].Handle(&cluster.Message{Op: "read", Array: "edge", BoxLo: box, BoxHi: []int64{128, 4}})
	if moved.Err != "" || len(moved.Chunks) == 0 {
		t.Fatalf("read: %q, %d chunks", moved.Err, len(moved.Chunks))
	}
	// The install names the chunk's clipped box, as a move does: a clear of
	// the unclipped one is off the grid.
	if resp := tr.Workers[0].Handle(&cluster.Message{Op: "loadchunks", Array: "edge", BoxLo: box, BoxHi: []int64{128, 4}}); !strings.Contains(resp.Err, "off the array's grid") {
		t.Fatalf("loadchunks of the unclipped box: %q, want off the grid", resp.Err)
	}
	if resp := tr.Workers[0].Handle(&cluster.Message{Op: "loadchunks", Array: "edge", BoxLo: box, BoxHi: []int64{100, 4},
		Chunks: moved.Chunks}); resp.Err != "" {
		t.Fatalf("loadchunks: %s", resp.Err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	grid := cluster.PartitionSchema(schema)
	edge := array.Coord{65, 1}
	for node := 0; node < 2; node++ {
		st, err := storage.NewStore(grid, storage.Options{Dir: filepath.Join(dir, fmt.Sprintf("node-%d", node), "edge")})
		if err != nil {
			t.Fatalf("node %d: %v", node, err)
		}
		// Every version at the edge origin, then the compacted one.
		for _, compact := range []bool{false, true} {
			for more := compact; more; {
				if more, err = st.MergeOnce(); err != nil {
					t.Fatal(err)
				}
			}
			versions := 0
			err = st.ScanChunks(array.WholeBox(grid), nil, nil).Each(func(lc storage.LiveChunk) error {
				ch := lc.Chunk
				if !ch.Origin.Equal(edge) {
					return nil
				}
				versions++
				if ch.Shape[0] != 36 || ch.Shape[1] != 4 {
					return fmt.Errorf("node %d holds a bucket at %v of shape %v, want the grid's 36x4", node, edge, ch.Shape)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if want := map[bool]int{false: 1 + node, true: 1}[compact]; versions != want {
				t.Fatalf("node %d holds %d buckets at %v (compacted %v), want %d", node, versions, edge, compact, want)
			}
		}
		err = st.ScanChunks(array.WholeBox(grid), nil, nil).Each(func(lc storage.LiveChunk) error {
			if lc.Chunk.Origin.Equal(edge) && (!lc.Alone || lc.Live != lc.Chunk.Present) {
				return fmt.Errorf("node %d: the compacted edge chunk is not delivered whole (alone %v)", node, lc.Alone)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if got, ok, err := st.Get(array.Coord{90, 2}); err != nil || !ok || got[0].Float != -1 {
			t.Errorf("node %d: cell (90, 2) = %v, %v, %v; want the value Put wrote", node, got, ok, err)
		}
		st.Close()
	}

	// The unclipped box at the edge origin is not a chunk of the grid.
	a := array.MustNew(grid)
	full := array.NewChunk(grid, edge, []int64{64, 4})
	if err := full.Set(array.Coord{65, 1}, array.Cell{array.Float64(1)}); err != nil {
		t.Fatal(err)
	}
	if err := a.MergeChunk(full); !errors.Is(err, array.ErrOffGrid) {
		t.Errorf("MergeChunk of a 64x4 chunk at %v = %v, want ErrOffGrid", edge, err)
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
