package loader

import (
	"context"
	"fmt"
	"path/filepath"
	"testing"

	"scidb/internal/array"
	"scidb/internal/cluster"
	"scidb/internal/insitu"
	"scidb/internal/partition"
	"scidb/internal/storage"
)

// TestEveryBucketHoldsItsWholeChunk: a chunk lives whole on one node. After
// a bulk load, a Put and Flush, a rebalance move and a repartition, every
// bucket of the array on every node holds every cell of its chunk that the
// array holds, and an unrouted array's chunks are each answered by one
// node. The grid's bounds (100 × 6) are no multiple of its chunks (16 × 4),
// and every scheme cuts inside a chunk: Block at 34 | 35, Range at 40 | 41,
// Hash anywhere, and the Epoch's boundary at y = 3.
func TestEveryBucketHoldsItsWholeChunk(t *testing.T) {
	block := partition.Block{Nodes: 3, SplitDim: 0, High: 100}
	rng := partition.Range{SplitDim: 0, Splits: []int64{40, 70}, Nodes: 3}
	for _, scheme := range []partition.Scheme{
		block,
		rng,
		partition.Hash{Nodes: 3, Dims: []int{0, 1}},
		partition.Epoch{TimeDim: 1, Boundaries: []int64{3}, Schemes: []partition.Scheme{block, rng}},
	} {
		t.Run(scheme.Name(), func(t *testing.T) {
			schema := &array.Schema{
				Name:  "whole",
				Dims:  []array.Dimension{{Name: "x", High: 100, ChunkLen: 16}, {Name: "y", High: 6, ChunkLen: 4}},
				Attrs: []array.Attribute{{Name: "v", Type: array.TFloat64}},
			}
			path, src := writeDenseCSV(t, schema)
			dir := t.TempDir()
			tr := cluster.NewLocalWithOptions(3, cluster.WorkerOptions{Dir: dir})
			defer tr.Close()
			co := cluster.NewCoordinator(tr, 0)
			check := func(step, name string, routed bool) {
				t.Helper()
				if err := co.Flush(name); err != nil {
					t.Fatal(err)
				}
				checkWholeChunks(t, step, tr, dir, name, src, routed)
			}

			if err := co.Create("L", schema, scheme); err != nil {
				t.Fatal(err)
			}
			ds, err := (insitu.CSVAdaptor{}).Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer ds.Close()
			setParallelism(t, 4) // shard cuts inside chunks
			if _, err := LoadParallel(ds, array.WholeBox(schema), schema, scheme, ClusterDest{Co: co, Array: "L"}, Options{}); err != nil {
				t.Fatal(err)
			}
			check("load", "L", false)

			if err := co.Create("P", schema, scheme); err != nil {
				t.Fatal(err)
			}
			src.Iter(func(c array.Coord, cell array.Cell) bool {
				err = co.Put("P", c, cell)
				return err == nil
			})
			if err != nil {
				t.Fatal(err)
			}
			check("put", "P", false)

			if _, err := co.EnableRouting("P"); err != nil {
				t.Fatal(err)
			}
			hot := array.Box{Lo: array.Coord{33, 1}, Hi: array.Coord{48, 4}}
			for i := 0; i < 20; i++ {
				if _, err := co.ScanCtx(context.Background(), "P", hot); err != nil {
					t.Fatal(err)
				}
			}
			if moved, _, err := co.RebalanceOnce("P", cluster.RebalanceOptions{TopK: 1}); err != nil || moved != 1 {
				t.Fatalf("rebalance moved %d chunks, %v; want 1", moved, err)
			}
			check("rebalance", "P", true)

			if err := co.Repartition("P", partition.Block{Nodes: 3, SplitDim: 1, High: 6}); err != nil {
				t.Fatal(err)
			}
			check("repartition", "P", false)
		})
	}
}

// checkWholeChunks opens each node's stored buckets of name and fails the
// test for a bucket that lacks a cell of want in its chunk. Unless routed
// (a migrated chunk's source keeps its copy, which the routing table
// excludes), it also reads each node directly and fails for a chunk two
// nodes answer, or for answers that do not add up to want's cells.
func checkWholeChunks(t *testing.T, step string, tr *cluster.Local, dir, name string, want *array.Array, routed bool) {
	t.Helper()
	grid := cluster.PartitionSchema(want.Schema)
	var stored, cells int64
	answered := map[string]int{}
	for node := range tr.NumNodes() {
		st, err := storage.NewStore(grid, storage.Options{Dir: filepath.Join(dir, fmt.Sprintf("node-%d", node), name)})
		if err != nil {
			t.Fatal(err)
		}
		err = st.ScanChunks(array.WholeBox(grid), nil, nil).Each(func(lc storage.LiveChunk) error {
			ch := lc.Chunk
			var all int64
			if whole, ok := want.ChunkAt(ch.Origin); ok {
				all = whole.CellsPresent()
			}
			if ch.CellsPresent() != all {
				return fmt.Errorf("%s: node %d holds %d cells of the chunk at %v in one bucket, want all %d", step, node, ch.CellsPresent(), ch.Origin, all)
			}
			stored += ch.CellsPresent()
			return nil
		})
		st.Close()
		if err != nil {
			t.Fatal(err)
		}
		if routed {
			continue
		}
		resp, err := tr.Call(node, &cluster.Message{Op: "read", Array: name})
		if err != nil {
			t.Fatal(err)
		}
		for _, payload := range resp.Chunks {
			ch, err := storage.DecodeChunk(grid, payload)
			if err != nil {
				t.Fatal(err)
			}
			if other, ok := answered[ch.Origin.Key()]; ok {
				t.Fatalf("%s: nodes %d and %d both answer the chunk at %v", step, other, node, ch.Origin)
			}
			answered[ch.Origin.Key()] = node
			cells += ch.CellsPresent()
		}
	}
	if stored < want.Count() {
		t.Fatalf("%s: the nodes' buckets hold %d cells, want at least %d", step, stored, want.Count())
	}
	if !routed && cells != want.Count() {
		t.Fatalf("%s: the nodes answer %d cells, want %d", step, cells, want.Count())
	}
}
