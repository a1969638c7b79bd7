package cluster

import (
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"scidb/internal/array"
	"scidb/internal/partition"
	"scidb/internal/storage"
)

// rebalanceCluster builds a 3-node persistent grid holding a 48-cell 1-D
// array: stride-8 buckets, 16-row slabs, so each node owns exactly two
// routable chunks and no chunk straddles a slab boundary. Cell values are
// integers so aggregate sums are exact across any merge order.
func rebalanceCluster(t *testing.T) (*Local, *Coordinator) {
	t.Helper()
	tr := NewLocalWithOptions(3, WorkerOptions{Stride: []int64{8}, CacheBytes: 1 << 20})
	return tr, skyOn(t, tr)
}

// skyOn loads rebalanceCluster's array onto a 3-node grid.
func skyOn(t *testing.T, tr *Local) *Coordinator {
	t.Helper()
	t.Cleanup(func() { tr.Close() })
	return loadSky(t, NewCoordinator(tr, 0))
}

// loadSky creates rebalanceCluster's array through co, x = 1..48 holding
// 10x, block-partitioned over 3 nodes.
func loadSky(t *testing.T, co *Coordinator) *Coordinator {
	t.Helper()
	schema := &array.Schema{
		Name:  "sky",
		Dims:  []array.Dimension{{Name: "x", High: 48, ChunkLen: 8}},
		Attrs: []array.Attribute{{Name: "v", Type: array.TFloat64}},
	}
	if err := co.Create("sky", schema, partition.Block{Nodes: 3, SplitDim: 0, High: 48}); err != nil {
		t.Fatal(err)
	}
	for x := int64(1); x <= 48; x++ {
		if err := co.Put("sky", array.Coord{x}, array.Cell{array.Float64(float64(x * 10))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := co.Flush("sky"); err != nil {
		t.Fatal(err)
	}
	return co
}

var hotBox = array.Box{Lo: array.Coord{1}, Hi: array.Coord{8}}
var skyBox = array.Box{Lo: array.Coord{1}, Hi: array.Coord{48}}

// verifySky checks a scan result holds exactly the cells in [lo,hi] with
// their original values — the bit-identity probe every rebalancing test
// runs before and after chunks move.
func verifySky(t *testing.T, co *Coordinator, box array.Box) {
	t.Helper()
	got, err := scan(co, "sky", box)
	if err != nil {
		t.Fatalf("scan %v: %v", box, err)
	}
	want := box.Hi[0] - box.Lo[0] + 1
	if got.Count() != want {
		t.Fatalf("scan %v returned %d cells, want %d", box, got.Count(), want)
	}
	for x := box.Lo[0]; x <= box.Hi[0]; x++ {
		cell, ok := got.At(array.Coord{x})
		if !ok || cell[0].Float != float64(x*10) {
			t.Fatalf("cell %d = %v, %v; want %v", x, cell, ok, float64(x*10))
		}
	}
}

// heatUp drives repeated reads at the hot chunk so its tracker score
// dominates the ranking.
func heatUp(t *testing.T, co *Coordinator, rounds int) {
	t.Helper()
	for i := 0; i < rounds; i++ {
		if _, err := scan(co, "sky", hotBox); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRebalanceMigratesHotChunk: an 80/20-style read skew must move the hot
// chunk off its base owner, with scans, counts, and integer aggregates
// bit-identical before and after, and writes following the new owner.
func TestRebalanceMigratesHotChunk(t *testing.T) {
	_, co := rebalanceCluster(t)
	rt, err := co.EnableRouting("sky")
	if err != nil {
		t.Fatal(err)
	}
	sumBefore, err := aggregate(co, "sky", skyBox, "sum", "v", nil)
	if err != nil {
		t.Fatal(err)
	}
	heatUp(t, co, 20)
	moved, replicated, err := co.RebalanceOnce("sky", RebalanceOptions{TopK: 1})
	if err != nil {
		t.Fatal(err)
	}
	if moved != 1 || replicated != 0 {
		t.Fatalf("round moved %d, replicated %d; want 1, 0", moved, replicated)
	}
	if owner := rt.NodeFor(array.Coord{1}); owner == 0 {
		t.Fatal("hot chunk still owned by node 0 after migration")
	}
	if v := rt.Version(); v == 0 {
		t.Fatal("routing version not bumped by migration")
	}
	verifySky(t, co, hotBox)
	verifySky(t, co, skyBox)
	if n, err := co.Count("sky"); err != nil || n != 48 {
		t.Fatalf("count = %d, %v; want 48", n, err)
	}
	sumAfter, err := aggregate(co, "sky", skyBox, "sum", "v", nil)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := sumBefore.At(array.Coord{1})
	a, _ := sumAfter.At(array.Coord{1})
	if a[0].AsFloat() != b[0].AsFloat() {
		t.Fatalf("aggregate changed across migration: %v -> %v", b[0], a[0])
	}
	// Writes follow the route: update a migrated cell and read it back.
	if err := co.Put("sky", array.Coord{3}, array.Cell{array.Float64(9999)}); err != nil {
		t.Fatal(err)
	}
	if err := co.Flush("sky"); err != nil {
		t.Fatal(err)
	}
	got, err := scan(co, "sky", hotBox)
	if err != nil {
		t.Fatal(err)
	}
	if cell, ok := got.At(array.Coord{3}); !ok || cell[0].Float != 9999 {
		t.Fatalf("post-migration write lost: %v, %v", cell, ok)
	}
}

// TestRebalanceOnDefaultGrid: the grid NewLocal builds — no stride, no pool,
// one 64-cell bucket per node where the routing grid has chunks of 8 — is as
// eligible for live migration as a configured one: the hot chunk is cut out
// of its bucket, moves, and every answer stays cell-identical.
func TestRebalanceOnDefaultGrid(t *testing.T) {
	co := skyOn(t, NewLocal(3))
	rt, err := co.EnableRouting("sky")
	if err != nil {
		t.Fatal(err)
	}
	heatUp(t, co, 20)
	moved, _, err := co.RebalanceOnce("sky", RebalanceOptions{TopK: 1})
	if err != nil || moved != 1 {
		t.Fatalf("round moved %d chunks, %v; want 1", moved, err)
	}
	if owner := rt.NodeFor(array.Coord{1}); owner == 0 {
		t.Fatal("hot chunk still owned by node 0 after migration")
	}
	verifySky(t, co, hotBox)
	verifySky(t, co, skyBox)
}

// TestLoadChunksBoxClearsStaleBufferedCells: the rebalancer's "loadchunks"
// names the region its payloads are the canonical state of. Cells an earlier
// ownership stint left in the target's write buffer — which outranks every
// bucket on reads — are cleared there first: none shadows the adopted copy or
// survives where the copy holds no cell, and the buffer outside the box stays.
func TestLoadChunksBoxClearsStaleBufferedCells(t *testing.T) {
	w := NewWorker(0)
	defer w.Close()
	handleOK(t, w, &Message{Op: "create", Array: "d", Schema: diffSchema()})
	stale := array.Cell{array.Float64(-1), array.Int64(-1), array.String64("stale")}
	fresh := array.Cell{array.Float64(7), array.Int64(7), array.String64("fresh")}
	putBatch(t, w, map[xy]array.Cell{{3, 3}: stale, {5, 5}: stale, {20, 20}: stale}) // buffered, never flushed
	ps := PartitionSchema(diffSchema())
	canon := array.MustNew(ps)
	if err := canon.Set(array.Coord{3, 3}, fresh); err != nil {
		t.Fatal(err)
	}
	payload, err := storage.EncodeChunk(ps, canon.Chunks()[0])
	if err != nil {
		t.Fatal(err)
	}
	handleOK(t, w, &Message{Op: "loadchunks", Array: "d", BoxLo: []int64{1, 1}, BoxHi: []int64{16, 16},
		Chunks: [][]byte{payload}})
	got, err := storage.DecodeChunks(ps, handleOK(t, w, &Message{Op: "read", Array: "d"}).Chunks)
	if err != nil {
		t.Fatal(err)
	}
	want := map[xy]array.Cell{{3, 3}: fresh, {20, 20}: stale}
	if got.Count() != int64(len(want)) {
		t.Errorf("partition holds %d cells, want %d", got.Count(), len(want))
	}
	for c, cell := range want {
		if g, ok := got.At(array.Coord{c[0], c[1]}); !ok || !sameCell(g, cell) {
			t.Errorf("cell %v = %v, %v; want %v", c, g, ok, cell)
		}
	}
}

// lineSchema is a 1-D array of 32 cells on a grid of 4-cell chunks.
func lineSchema() *array.Schema {
	return &array.Schema{
		Name:      "e",
		Updatable: true,
		Dims:      []array.Dimension{{Name: "x", High: 32, ChunkLen: 4}},
		Attrs:     []array.Attribute{{Name: "v", Type: array.TFloat64}},
	}
}

// putLine writes cells of lineSchema's array "e" through the worker's "put"
// op, and flushes the store afterwards if flush is set.
func putLine(t *testing.T, w *Worker, cells map[int64]float64, flush bool) {
	t.Helper()
	a := array.MustNew(PartitionSchema(lineSchema()))
	for x, v := range cells {
		if err := a.Set(array.Coord{x}, array.Cell{array.Float64(v)}); err != nil {
			t.Fatal(err)
		}
	}
	chunks, err := encodeForTest(a)
	if err != nil {
		t.Fatal(err)
	}
	handleOK(t, w, &Message{Op: "put", Array: "e", Chunks: chunks})
	if flush {
		handleOK(t, w, &Message{Op: "flush", Array: "e"})
	}
}

// readLine reads the cells of "e" inside [lo, hi] on one worker.
func readLine(t *testing.T, w *Worker, lo, hi int64) map[int64]float64 {
	t.Helper()
	resp := handleOK(t, w, &Message{Op: "read", Array: "e", BoxLo: []int64{lo}, BoxHi: []int64{hi}})
	a, err := storage.DecodeChunks(PartitionSchema(lineSchema()), resp.Chunks)
	if err != nil {
		t.Fatal(err)
	}
	got := map[int64]float64{}
	a.Iter(func(c array.Coord, cell array.Cell) bool {
		got[c[0]] = cell[0].Float
		return true
	})
	return got
}

// TestReadCopiesChunksCanonically: the rebalancer's copy of a region is a
// "read" of its box. A flushed bucket, a newer bucket shadowing one of its
// cells and a cell still in the write buffer fold into one payload per chunk
// of the grid, which a second node adopts with "loadchunks" into the same
// cells; an empty box ships no payload and counts no cell.
func TestReadCopiesChunksCanonically(t *testing.T) {
	src, dst := NewWorker(0), NewWorker(1)
	defer src.Close()
	defer dst.Close()
	for _, w := range []*Worker{src, dst} {
		handleOK(t, w, &Message{Op: "create", Array: "e", Schema: lineSchema()})
	}
	base := map[int64]float64{}
	for x := int64(1); x <= 16; x++ {
		base[x] = float64(x)
	}
	putLine(t, src, base, true)
	putLine(t, src, map[int64]float64{3: 300}, true)  // a shadowing bucket
	putLine(t, src, map[int64]float64{6: 600}, false) // left in the buffer

	copied := handleOK(t, src, &Message{Op: "read", Array: "e", BoxLo: []int64{1}, BoxHi: []int64{8}})
	if copied.Cells != 8 || len(copied.Chunks) != 2 {
		t.Fatalf("read of the box shipped %d cells in %d payloads, want 8 in the 2 chunks of the box", copied.Cells, len(copied.Chunks))
	}
	handleOK(t, dst, &Message{Op: "loadchunks", Array: "e", Chunks: copied.Chunks})
	want := map[int64]float64{1: 1, 2: 2, 3: 300, 4: 4, 5: 5, 6: 600, 7: 7, 8: 8}
	if got := readLine(t, dst, 1, 32); !maps.Equal(got, want) {
		t.Fatalf("adopted copy holds %v, want %v (shadow/buffer fold)", got, want)
	}
	if empty := handleOK(t, src, &Message{Op: "read", Array: "e", BoxLo: []int64{25}, BoxHi: []int64{32}}); empty.Cells != 0 || len(empty.Chunks) != 0 {
		t.Fatalf("read of an empty box shipped %d payloads, %d cells", len(empty.Chunks), empty.Cells)
	}
}

// TestLoadChunksReleaseClearsSource: a "loadchunks" with a chunk's box and
// no chunks is the release of a moved chunk on a node it leaves. The chunk
// goes whole — its buffered cells, its pool entries, its buckets from the
// manifest and its files from disk —, the cells outside the box stay as they
// were, and a worker reopened on the directory recovers without it.
func TestLoadChunksReleaseClearsSource(t *testing.T) {
	dir := t.TempDir()
	w := NewWorkerWithOptions(0, WorkerOptions{Dir: dir, CacheBytes: 1 << 20})
	defer func() { w.Close() }()
	handleOK(t, w, &Message{Op: "create", Array: "e", Schema: lineSchema()})
	base := map[int64]float64{}
	for x := int64(1); x <= 16; x++ {
		base[x] = float64(x)
	}
	putLine(t, w, base, true)
	putLine(t, w, map[int64]float64{2: -2, 10: -10}, false) // buffered, in and outside the box
	buckets := func() []string {
		t.Helper()
		names, err := filepath.Glob(filepath.Join(dir, "e", "bucket-*"))
		if err != nil {
			t.Fatal(err)
		}
		return names
	}
	onDisk := buckets()
	if len(onDisk) != 4 {
		t.Fatalf("%d buckets on disk, want the 4 chunks of x 1..16", len(onDisk))
	}
	readLine(t, w, 1, 32) // warm the pool
	misses := func() int64 { return w.CacheStats().Misses }
	held := w.Stats().CellsHeld

	// A release whose manifest save fails (a directory stands where the
	// manifest's temporary file goes) removes nothing: the chunk, its
	// buffered cell included, is still read, counted and on disk.
	blocker := filepath.Join(dir, "e", "MANIFEST.json.tmp")
	if err := os.Mkdir(blocker, 0o755); err != nil {
		t.Fatal(err)
	}
	if resp := w.Handle(&Message{Op: "loadchunks", Array: "e", BoxLo: []int64{1}, BoxHi: []int64{4}}); resp.Err == "" {
		t.Fatal("a release whose manifest save fails answered no error")
	}
	all := maps.Clone(base)
	all[2], all[10] = -2, -10
	if got := readLine(t, w, 1, 32); !maps.Equal(got, all) {
		t.Errorf("after a failed release the node holds %v, want %v", got, all)
	}
	if got := w.Stats().CellsHeld; got != held {
		t.Errorf("a failed release left cells_held at %d, want %d", got, held)
	}
	if got := buckets(); !slices.Equal(got, onDisk) {
		t.Errorf("buckets on disk after a failed release: %v, want %v", got, onDisk)
	}
	if err := os.Remove(blocker); err != nil {
		t.Fatal(err)
	}
	readLine(t, w, 1, 32) // warm the pool again

	if resp := handleOK(t, w, &Message{Op: "loadchunks", Array: "e", BoxLo: []int64{1}, BoxHi: []int64{4}}); resp.Cells != 0 {
		t.Fatalf("release answered %d cells, want 0", resp.Cells)
	}
	if got := held - w.Stats().CellsHeld; got != 4 {
		t.Errorf("the release took %d cells off cells_held, want the chunk's 4", got)
	}
	before := misses()
	outside := map[int64]float64{5: 5, 6: 6, 7: 7, 8: 8, 9: 9, 10: -10, 11: 11, 12: 12, 13: 13, 14: 14, 15: 15, 16: 16}
	if got := readLine(t, w, 1, 32); !maps.Equal(got, outside) {
		t.Errorf("after the release the node holds %v, want %v", got, outside)
	}
	if n := misses() - before; n != 0 {
		t.Errorf("reading outside the box missed the pool %d times, want 0", n)
	}
	if got, want := buckets(), onDisk[1:]; !slices.Equal(got, want) {
		t.Errorf("buckets on disk after the release: %v, want %v", got, want)
	}
	manifest, err := os.ReadFile(filepath.Join(dir, "e", "MANIFEST.json"))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(manifest), filepath.Base(onDisk[0])) || strings.Count(string(manifest), `"file"`) != 3 {
		t.Errorf("the manifest still lists the released bucket:\n%s", manifest)
	}
	// A malformed release — two chunks' box — is refused and removes nothing.
	if resp := w.Handle(&Message{Op: "loadchunks", Array: "e", BoxLo: []int64{5}, BoxHi: []int64{12}}); !strings.Contains(resp.Err, "off the array's grid") {
		t.Errorf("a release of two chunks: %q, want off the grid", resp.Err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w = NewWorkerWithOptions(0, WorkerOptions{Dir: dir, CacheBytes: 1 << 20})
	handleOK(t, w, &Message{Op: "create", Array: "e", Schema: lineSchema()})
	if got := readLine(t, w, 1, 32); !maps.Equal(got, outside) {
		t.Errorf("the reopened node holds %v, want %v", got, outside)
	}
	if got := w.Stats().CellsHeld; got != int64(len(outside)) {
		t.Errorf("the reopened node counts %d cells held, want %d", got, len(outside))
	}
}

// TestRebalanceReplicatesAndSurvivesNodeDeath: k-replicating the hot chunk
// onto every node must leave queries bit-identical, and killing the base
// owner mid-workload must be answered from the surviving replicas — while
// a query touching the dead node's unreplicated chunks still fails loudly.
func TestRebalanceReplicatesAndSurvivesNodeDeath(t *testing.T) {
	tr, co := rebalanceCluster(t)
	rt, err := co.EnableRouting("sky")
	if err != nil {
		t.Fatal(err)
	}
	heatUp(t, co, 20)
	moved, replicated, err := co.RebalanceOnce("sky", RebalanceOptions{TopK: 1, Replicas: 3})
	if err != nil {
		t.Fatal(err)
	}
	if moved != 0 || replicated != 2 {
		t.Fatalf("round moved %d, replicated %d; want 0, 2", moved, replicated)
	}
	nodes := rt.NodesFor(array.Coord{1})
	if len(nodes) != 3 || nodes[0] != 0 {
		t.Fatalf("replica set = %v; want all three nodes, owner first", nodes)
	}
	// Replica-served reads are bit-identical however the reader rotates.
	for i := 0; i < 6; i++ {
		verifySky(t, co, hotBox)
	}
	verifySky(t, co, skyBox)

	// Kill the base owner: the hot chunk answers from replicas. The plan
	// drops fully-excluded nodes, so node 0 is only contacted when the
	// reader rotation lands on it — scan enough times to force that.
	tr.Kill(0)
	for i := 0; i < 4; i++ {
		verifySky(t, co, hotBox)
	}
	if down := co.DownNodes(); len(down) != 1 || down[0] != 0 {
		t.Fatalf("DownNodes = %v; want [0]", down)
	}
	// ...but node 0's second, unreplicated chunk cannot be conjured up.
	if _, err := scan(co, "sky", skyBox); err == nil || !strings.Contains(err.Error(), "no replica") {
		t.Fatalf("full scan with dead unreplicated chunk: %v; want a no-replica error", err)
	}
	// Revive and clear: the cluster heals back to full coverage.
	tr.Revive(0)
	co.MarkUp(0)
	verifySky(t, co, skyBox)
}

// TestWriteFenceDuringMigration: writes racing a migration must never be
// lost — the writeSeq fence re-copies the chunk at cutover when anything
// landed after the export.
func TestWriteFenceDuringMigration(t *testing.T) {
	_, co := rebalanceCluster(t)
	if _, err := co.EnableRouting("sky"); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var werr error
	var wg sync.WaitGroup
	wg.Add(1)
	rounds := 0
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			rounds++
			for x := int64(1); x <= 8; x++ {
				if err := co.Put("sky", array.Coord{x}, array.Cell{array.Float64(float64(rounds*1000 + int(x)))}); err != nil {
					werr = err
					return
				}
			}
		}
	}()
	for i := 0; i < 5; i++ {
		heatUp(t, co, 5)
		if _, _, err := co.RebalanceOnce("sky", RebalanceOptions{TopK: 2}); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if werr != nil {
		t.Fatal(werr)
	}
	if err := co.Flush("sky"); err != nil {
		t.Fatal(err)
	}
	got, err := scan(co, "sky", hotBox)
	if err != nil {
		t.Fatal(err)
	}
	for x := int64(1); x <= 8; x++ {
		cell, ok := got.At(array.Coord{x})
		want := float64(rounds*1000 + int(x))
		if !ok || cell[0].Float != want {
			t.Fatalf("cell %d = %v, %v after fenced migration; want %v (round %d)", x, cell, ok, want, rounds)
		}
	}
	verifySky(t, co, array.Box{Lo: array.Coord{9}, Hi: array.Coord{48}})
}

// TestConcurrentScansDuringRebalanceStress is the race-detector stress for
// live migration: scans hammer the chunks the rebalancer is moving, and
// every result must be bit-identical to the static content. Run under
// `make race` (the cluster package is on the Makefile race list).
func TestConcurrentScansDuringRebalanceStress(t *testing.T) {
	_, co := rebalanceCluster(t)
	if _, err := co.EnableRouting("sky"); err != nil {
		t.Fatal(err)
	}
	iters := 40
	if testing.Short() {
		iters = 10
	}
	var wg sync.WaitGroup
	errc := make(chan error, 8)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				box := hotBox
				if i%4 == g%4 {
					box = skyBox
				}
				got, err := scan(co, "sky", box)
				if err != nil {
					errc <- err
					return
				}
				for x := box.Lo[0]; x <= box.Hi[0]; x++ {
					cell, ok := got.At(array.Coord{x})
					if !ok || cell[0].Float != float64(x*10) {
						errc <- fmt.Errorf("goroutine %d iter %d: cell %d = %v, %v", g, i, x, cell, ok)
						return
					}
				}
			}
		}(g)
	}
	// Rebalance concurrently with the scans: alternate migration and
	// replication rounds so chunks move while they are being read.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 8; i++ {
			opts := RebalanceOptions{TopK: 2}
			if i%2 == 1 {
				opts.Replicas = 2
			}
			if _, _, err := co.RebalanceOnce("sky", opts); err != nil {
				errc <- err
				return
			}
		}
	}()
	wg.Wait()
	<-done
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	verifySky(t, co, skyBox)
}
