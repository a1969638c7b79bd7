package cluster

import (
	"fmt"
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
	co := NewCoordinator(tr, 0)
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
		Chunks: [][]byte{payload}, RouteVersion: 4})
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
	if v := w.RouteVersion("d"); v != 4 {
		t.Errorf("route version recorded = %d, want 4", v)
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
