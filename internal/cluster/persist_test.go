package cluster

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"scidb/internal/array"
	"scidb/internal/ops"
	"scidb/internal/partition"
	"scidb/internal/storage"
)

// gridSchema8 is gridSchema on an 8x8 chunk grid: the arrays persistGrid's
// tests create, so each node holds several buckets.
func gridSchema8() *array.Schema {
	s := gridSchema()
	s.Dims[0].ChunkLen, s.Dims[1].ChunkLen = 8, 8
	return s
}

// persistGrid builds an in-process grid whose stores keep their buckets on
// disk and read them through one shared buffer pool.
func persistGrid(t *testing.T, nodes int) (*Local, *Coordinator) {
	t.Helper()
	tr := NewLocalWithOptions(nodes, WorkerOptions{
		Dir:        t.TempDir(),
		CacheBytes: 8 << 20,
	})
	t.Cleanup(func() { _ = tr.Close() })
	return tr, NewCoordinator(tr, 0)
}

// TestClusterRoundTrip runs the full op set — create / put / scan / agg /
// count / sjoin / replace / drop — on the default grid (buckets in memory, no
// pool) and on one with a data directory and a pool.
func TestClusterRoundTrip(t *testing.T) {
	tr := NewLocal(4)
	checkClusterRoundTrip(t, tr, NewCoordinator(tr, 0), gridSchema())
	tr, co := persistGrid(t, 4)
	checkClusterRoundTrip(t, tr, co, gridSchema8())
}

func checkClusterRoundTrip(t *testing.T, tr *Local, co *Coordinator, schema *array.Schema) {
	scheme := partition.Block{Nodes: 4, SplitDim: 0, High: 16}
	if err := co.Create("sky", schema, scheme); err != nil {
		t.Fatal(err)
	}
	loadGrid(t, co, "sky", 16)

	if n, err := co.Count("sky"); err != nil || n != 256 {
		t.Fatalf("Count = %d,%v; want 256", n, err)
	}
	res, err := scan(co, "sky", array.NewBox(array.Coord{1, 1}, array.Coord{4, 4}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Count() != 16 {
		t.Errorf("scan cells = %d, want 16", res.Count())
	}
	if cell, ok := res.At(array.Coord{3, 4}); !ok || cell[0].Float != 7 {
		t.Errorf("scan cell = %v,%v; want 7", cell, ok)
	}

	// Distributed aggregate over the stores.
	agg, err := aggregate(co, "sky", array.NewBox(array.Coord{1, 1}, array.Coord{16, 16}), "sum", "flux", nil)
	if err != nil {
		t.Fatal(err)
	}
	cell, ok := agg.At(array.Coord{1})
	if !ok || cell[0].AsFloat() != 4352 { // sum of (i+j) over 16x16
		t.Errorf("sum = %v,%v; want 4352", cell, ok)
	}

	// A second array gathers whole from every node's store.
	if err := co.Create("sky2", schema, scheme); err != nil {
		t.Fatal(err)
	}
	loadGrid(t, co, "sky2", 16)
	whole, err := scan(co, "sky2", array.Box{})
	if err != nil {
		t.Fatal(err)
	}
	if whole.Count() != 256 {
		t.Errorf("whole scan cells = %d, want 256", whole.Count())
	}

	// Repartition exercises the replace path (store teardown + rebuild).
	if err := co.Repartition("sky", partition.Block{Nodes: 4, SplitDim: 1, High: 16}); err != nil {
		t.Fatal(err)
	}
	if n, err := co.Count("sky"); err != nil || n != 256 {
		t.Fatalf("post-repartition Count = %d,%v; want 256", n, err)
	}
	if cell, ok, err := workerGet(tr, "sky", array.Coord{3, 4}); err != nil || !ok || cell[0].Float != 7 {
		t.Errorf("post-repartition cell(3,4) = %v,%v,%v; want 7", cell, ok, err)
	}

	// Drop removes the partitions everywhere; what stays is spread across
	// the nodes per the scheme.
	for n, w := range tr.Workers {
		if _, err := tr.Call(n, &Message{Op: "drop", Array: "sky2"}); err != nil {
			t.Fatal(err)
		}
		if _, err := tr.Call(n, countReq("sky2")); err == nil {
			t.Errorf("node %d still holds dropped array", n)
		}
		if held := w.Stats().CellsHeld; held != 64 {
			t.Errorf("node %d holds %d cells, want its 64 of sky", n, held)
		}
	}
}

// workerGet scans all nodes for one coordinate (test helper).
func workerGet(tr *Local, name string, c array.Coord) (array.Cell, bool, error) {
	for _, w := range tr.Workers {
		w.mu.RLock()
		st, ok := w.stores[name]
		w.mu.RUnlock()
		if !ok {
			continue
		}
		cell, found, err := st.Get(c)
		if err != nil {
			return nil, false, err
		}
		if found {
			return cell, true, nil
		}
	}
	return nil, false, nil
}

// TestClusterSharedPoolWarmScan: scanning the same box twice serves the
// second pass from the shared pool — observable through CacheStats.
func TestClusterSharedPoolWarmScan(t *testing.T) {
	tr, co := persistGrid(t, 2)
	scheme := partition.Block{Nodes: 2, SplitDim: 0, High: 16}
	if err := co.Create("sky", gridSchema8(), scheme); err != nil {
		t.Fatal(err)
	}
	loadGrid(t, co, "sky", 16)
	// Push buffered cells into buckets so scans go through the pool.
	for _, w := range tr.Workers {
		w.mu.RLock()
		st := w.stores["sky"]
		w.mu.RUnlock()
		if err := st.Flush(); err != nil {
			t.Fatal(err)
		}
	}

	box := array.NewBox(array.Coord{1, 1}, array.Coord{16, 16})
	if _, err := scan(co, "sky", box); err != nil {
		t.Fatal(err)
	}
	cold, err := co.CacheStats()
	if err != nil {
		t.Fatal(err)
	}
	if cold[0].Loads == 0 {
		t.Fatalf("cold scan loaded nothing through the pool: %+v", cold[0])
	}
	// All in-process nodes share one pool: every node reports it.
	if cold[1] != cold[0] {
		t.Errorf("nodes report different pools: %+v vs %+v", cold[0], cold[1])
	}

	if _, err := scan(co, "sky", box); err != nil {
		t.Fatal(err)
	}
	warm, err := co.CacheStats()
	if err != nil {
		t.Fatal(err)
	}
	if warm[0].Loads != cold[0].Loads {
		t.Errorf("warm scan re-loaded buckets: %d -> %d loads", cold[0].Loads, warm[0].Loads)
	}
	if warm[0].Hits <= cold[0].Hits {
		t.Errorf("warm scan produced no pool hits: %+v", warm[0])
	}
	if warm[0].PinnedBytes != 0 {
		t.Errorf("pinned bytes leaked: %d", warm[0].PinnedBytes)
	}
}

// TestCacheStatsOpUncached: workers without a pool report the zero snapshot
// through CacheStats rather than an error.
func TestCacheStatsOpUncached(t *testing.T) {
	tr := NewLocal(1)
	co := NewCoordinator(tr, 0)
	stats, err := co.CacheStats()
	if err != nil {
		t.Fatal(err)
	}
	if stats[0].Budget != 0 || stats[0].Hits != 0 {
		t.Errorf("uncached node reported %+v, want zero value", stats[0])
	}
}

// TestFilteredGrandTotalOccupancy pins what Read promises of predicates under
// a grand total: the row exists if the nodes saw a cell or pruned a bucket.
// Over the whole array that is the filter's own answer (a refuted cell stays,
// all NULL); in a narrower box a pruned bucket counts though its one cell
// lies outside, where a node that read the bucket answers no row. A grouped
// fold has only the groups a passing cell opens, pruned buckets or none.
func TestFilteredGrandTotalOccupancy(t *testing.T) {
	preds := []array.ZonePred{{Attr: 0, Op: ">", Val: array.Float64(100)}}
	total := &ops.FoldSpec{Aggs: []ops.AggSpec{{Agg: "count", Attr: "flux"}, {Agg: "sum", Attr: "flux"}}}
	grouped := &ops.FoldSpec{Dims: []string{"x"}, Aggs: total.Aggs}
	corner := array.NewBox(array.Coord{5, 5}, array.Coord{8, 8}) // inside the bucket, off its one cell
	for _, c := range []struct {
		frag ops.Fragment
		rows int64
	}{
		{ops.Fragment{Preds: preds, Fold: total}, 1},
		{ops.Fragment{Box: corner, Preds: preds, Fold: total}, 1},
		{ops.Fragment{Preds: preds, Fold: grouped}, 0},
	} {
		_, co := persistGrid(t, 1)
		if err := co.Create("sky", gridSchema8(), partition.Block{Nodes: 1, SplitDim: 0, High: 64}); err != nil {
			t.Fatal(err)
		}
		loadGrid(t, co, "sky", 1) // one cell, (1,1), flux 2
		name := fmt.Sprintf("%+v", c.frag)
		a, cells, seen, skipped, err := co.Read(context.Background(), "sky", c.frag)
		if err != nil {
			t.Fatal(err)
		}
		if cells != 0 || seen != 0 || skipped != 1 || a.Count() != c.rows {
			t.Errorf("%s: %d cells of %d seen, %d buckets skipped, %d rows; want 0 of 0, 1, %d", name, cells, seen, skipped, a.Count(), c.rows)
		}
		if row, ok := a.At(array.Coord{1}); c.rows == 1 && (!ok || row[0].Null || row[0].Int != 0 || !row[1].Null) {
			t.Errorf("%s: row %v, want count 0 and a NULL sum", name, row)
		}
	}
}

// TestClusterScanPruned exercises the predicated scan fan-out: workers
// skip whole buckets whose zone maps refute the conjuncts, filter the
// survivors cell-by-cell, and report how many buckets were never read.
func TestClusterScanPruned(t *testing.T) {
	_, co := persistGrid(t, 4)
	scheme := partition.Block{Nodes: 4, SplitDim: 0, High: 16}
	if err := co.Create("sky", gridSchema8(), scheme); err != nil {
		t.Fatal(err)
	}
	loadGrid(t, co, "sky", 16) // flux = x + y, so per-bucket ranges differ

	// flux > 24 holds only in the high-x, high-y corner: of the eight
	// 8x8-stride buckets (two per node), six have max <= 24 and are
	// skipped; the two survivors are filtered cell-by-cell.
	box := array.NewBox(array.Coord{1, 1}, array.Coord{16, 16})
	preds := []array.ZonePred{{Attr: 0, Op: ">", Val: array.Float64(24)}}
	res, _, _, skipped, err := co.Read(context.Background(), "sky", ops.Fragment{Box: box, Preds: preds})
	if err != nil {
		t.Fatal(err)
	}
	if res.Count() != 36 { // pairs (i,j) in [9,16]^2 with i+j > 24
		t.Errorf("pruned scan cells = %d, want 36", res.Count())
	}
	if skipped != 6 {
		t.Errorf("buckets skipped = %d, want 6", skipped)
	}
	res.Iter(func(c array.Coord, cell array.Cell) bool {
		if cell[0].Float != float64(c[0]+c[1]) || cell[0].Float <= 24 {
			t.Errorf("cell %v = %v violates predicate", c, cell[0])
			return false
		}
		return true
	})
}

// TestDefaultChunkLenAdoptedOnBothSides: a schema that leaves its chunk
// length to the default is chunked by one rule wherever part of it is held,
// so a bucket travels whole. On the worker the read's aligned-chunk path
// encodes it straight from storage — those frames follow the scan's delivery
// order, newest bucket first, where chunks rebuilt on the result grid would
// come in origin order — and the coordinator adopts the decoded chunk
// itself.
func TestDefaultChunkLenAdoptedOnBothSides(t *testing.T) {
	tr := NewLocalWithOptions(2, WorkerOptions{CacheBytes: 8 << 20})
	defer tr.Close()
	co := NewCoordinator(tr, 0)
	schema := &array.Schema{
		Name:  "line",
		Dims:  []array.Dimension{{Name: "x", High: 256}}, // ChunkLen 0: the default
		Attrs: []array.Attribute{{Name: "v", Type: array.TFloat64}},
	}
	if err := co.Create("line", schema, partition.Block{Nodes: 2, SplitDim: 0, High: 256}); err != nil {
		t.Fatal(err)
	}
	for x := int64(1); x <= 256; x++ {
		if err := co.Put("line", array.Coord{x}, array.Cell{array.Float64(float64(x))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := co.Flush("line"); err != nil {
		t.Fatal(err)
	}
	grid := PartitionSchema(schema)
	var parts []*array.Array
	for n, w := range tr.Workers {
		w.mu.RLock()
		held := w.stores["line"].Schema()
		w.mu.RUnlock()
		if !reflect.DeepEqual(held.Dims, grid.Dims) {
			t.Fatalf("node %d holds dimensions %+v, the coordinator gathers under %+v", n, held.Dims, grid.Dims)
		}
		resp := handleOK(t, w, &Message{Op: "read", Array: "line"})
		var origins []int64
		for _, payload := range resp.Chunks {
			ch, err := storage.DecodeChunk(grid, payload)
			if err != nil {
				t.Fatal(err)
			}
			if ch.Shape[0] != array.DefaultChunkLen || ch.CellsPresent() != array.DefaultChunkLen {
				t.Fatalf("node %d shipped a chunk of %d slots, %d cells; want whole default-length chunks", n, ch.Shape[0], ch.CellsPresent())
			}
			origins = append(origins, ch.Origin[0])
		}
		if want := []int64{int64(n)*128 + 65, int64(n)*128 + 1}; !reflect.DeepEqual(origins, want) {
			t.Errorf("node %d shipped chunks at %v, want %v: buckets encoded whole, in delivery order", n, origins, want)
		}
		part, err := storage.DecodeChunks(grid.Clone(), resp.Chunks)
		if err != nil {
			t.Fatal(err)
		}
		parts = append(parts, part)
	}
	g := &gather{s: grid}
	for _, part := range parts {
		if err := g.add(part.Chunks()); err != nil {
			t.Fatal(err)
		}
		for _, ch := range part.Chunks() {
			if got, _ := g.out.ChunkAt(ch.Origin); got != ch {
				t.Errorf("the chunk at %v was rebuilt in the gather, not adopted", ch.Origin)
			}
		}
	}
	got, err := scan(co, "line", array.Box{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Count() != 256 || len(got.Chunks()) != 4 {
		t.Fatalf("Scan = %d cells in %d chunks; want 256 in 4", got.Count(), len(got.Chunks()))
	}
}

// TestRestartCountsRecoveredCells: a node restarted over its Dir recovers a
// partition when create is issued again, and scidb_worker_cells_held counts
// the recovered cells — once, also when create comes a second time over the
// open partition — until a drop takes them off.
func TestRestartCountsRecoveredCells(t *testing.T) {
	dir := t.TempDir()
	opts := WorkerOptions{Dir: dir}
	scheme := partition.Block{Nodes: 2, SplitDim: 0, High: 16}
	tr := NewLocalWithOptions(2, opts)
	co := NewCoordinator(tr, 0)
	if err := co.Create("sky", gridSchema8(), scheme); err != nil {
		t.Fatal(err)
	}
	loadGrid(t, co, "sky", 16)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	tr = NewLocalWithOptions(2, opts)
	defer tr.Close()
	held := func() (n []int64) {
		for _, w := range tr.Workers {
			n = append(n, w.Stats().CellsHeld)
		}
		return n
	}
	for round := 0; round < 2; round++ {
		if err := NewCoordinator(tr, 0).Create("sky", gridSchema8(), scheme); err != nil {
			t.Fatal(err)
		}
		if got := held(); !reflect.DeepEqual(got, []int64{128, 128}) {
			t.Errorf("create %d after the restart: cells held %v, want [128 128]", round+1, got)
		}
	}
	for n := range tr.Workers {
		if _, err := tr.Call(n, &Message{Op: "drop", Array: "sky"}); err != nil {
			t.Fatal(err)
		}
	}
	if got := held(); !reflect.DeepEqual(got, []int64{0, 0}) {
		t.Errorf("after drop: cells held %v, want [0 0]", got)
	}
}
