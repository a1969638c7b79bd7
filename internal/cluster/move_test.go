package cluster

// Tests of the one chunk move (moveChunk) that rebalancing and Repartition
// share: a release removes the chunk from the node it leaves, durably, so a
// restarted grid reads each chunk where its route put it; reads planned
// before a cutover finish before its release; and a repartition moves only
// the chunks whose owner changes, without holding up other reads.

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"

	"scidb/internal/array"
	"scidb/internal/partition"
)

// checkCellsHeld fails unless the nodes' cells_held gauges sum to Count.
func checkCellsHeld(t *testing.T, co *Coordinator, name string, want int64, when string) {
	t.Helper()
	n, err := co.Count(name)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := co.NodeStats()
	if err != nil {
		t.Fatal(err)
	}
	var held int64
	for _, s := range stats {
		held += s.CellsHeld
	}
	if n != want || held != n {
		t.Errorf("%s: Count %d, cells held %d over the nodes; want both %d", when, n, held, want)
	}
}

// TestCellsHeldMatchesCountAfterMoves: a move's release takes the chunk's
// cells off the source's cells_held gauge as the install adds them to the
// target's, so the gauges sum to Count after a migration and after a
// repartition.
func TestCellsHeldMatchesCountAfterMoves(t *testing.T) {
	_, co := rebalanceCluster(t)
	if _, err := co.EnableRouting("sky"); err != nil {
		t.Fatal(err)
	}
	checkCellsHeld(t, co, "sky", 48, "loaded")
	heatUp(t, co, 20)
	if moved, _, err := co.RebalanceOnce("sky", RebalanceOptions{TopK: 1}); err != nil || moved != 1 {
		t.Fatalf("round moved %d, %v; want 1", moved, err)
	}
	checkCellsHeld(t, co, "sky", 48, "after a migration")
	if err := co.Repartition("sky", partition.Hash{Nodes: 3, Dims: []int{0}}); err != nil {
		t.Fatal(err)
	}
	checkCellsHeld(t, co, "sky", 48, "after a repartition")
	verifySky(t, co, skyBox)
}

// TestRestartReadsMovedChunkFromItsHolder: after a migration the source
// keeps no copy of the chunk — no bucket at its origin in MANIFEST.json, no
// file —, so a grid restarted on its directories and given the same scheme
// (no other DDL) routes the chunk to the node that holds it: the writes made
// there after the move are read back, and every cell is counted once.
func TestRestartReadsMovedChunkFromItsHolder(t *testing.T) {
	dir := t.TempDir()
	opts := WorkerOptions{Dir: dir, CacheBytes: 1 << 20}
	first := NewLocalWithOptions(3, opts)
	co := skyOn(t, first)
	rt, err := co.EnableRouting("sky")
	if err != nil {
		t.Fatal(err)
	}
	heatUp(t, co, 20)
	if moved, _, err := co.RebalanceOnce("sky", RebalanceOptions{TopK: 1}); err != nil || moved != 1 {
		t.Fatalf("round moved %d, %v; want 1", moved, err)
	}
	if owner := rt.NodeFor(hotBox.Lo); owner == 0 {
		t.Fatal("the hot chunk did not leave node 0")
	}
	source := filepath.Join(dir, "node-0", "sky")
	data, err := os.ReadFile(filepath.Join(source, "MANIFEST.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Buckets []struct {
			Lo   []int64
			File string
		}
	}
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	var files []string
	for _, b := range m.Buckets {
		if slices.Equal(b.Lo, []int64(hotBox.Lo)) {
			t.Errorf("the source's manifest still lists bucket %s at the moved chunk", b.File)
		}
		files = append(files, filepath.Join(source, b.File))
	}
	onDisk, err := filepath.Glob(filepath.Join(source, "bucket-*"))
	if err != nil {
		t.Fatal(err)
	}
	slices.Sort(files)
	if !slices.Equal(onDisk, files) {
		t.Errorf("the source's bucket files are %v, its manifest names %v", onDisk, files)
	}
	writeHot(t, co, -1)
	checkHotAfterRestart(t, restartSky(t, co, first, opts), -1)
}

// writeHot overwrites x = 1..8 of sky with v and flushes.
func writeHot(t *testing.T, co *Coordinator, v float64) {
	t.Helper()
	for x := int64(1); x <= 8; x++ {
		if err := co.Put("sky", array.Coord{x}, array.Cell{array.Float64(v)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := co.Flush("sky"); err != nil {
		t.Fatal(err)
	}
}

// restartSky closes tr, co's grid, and reopens one on opts's directories
// under a new coordinator, given sky's schema and first scheme and no other
// DDL.
func restartSky(t *testing.T, co *Coordinator, tr *Local, opts WorkerOptions) *Coordinator {
	t.Helper()
	schema, err := co.ArraySchema("sky")
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	tr = NewLocalWithOptions(3, opts)
	t.Cleanup(func() { tr.Close() })
	co = NewCoordinator(tr, 0)
	if err := co.Create("sky", schema, partition.Block{Nodes: 3, SplitDim: 0, High: 48}); err != nil {
		t.Fatal(err)
	}
	return co
}

// checkHotAfterRestart fails unless x = 1..8 read v, the value written after
// the move, and Count finds each of the 48 cells once.
func checkHotAfterRestart(t *testing.T, co *Coordinator, v float64) {
	t.Helper()
	got, err := scan(co, "sky", hotBox)
	if err != nil {
		t.Fatal(err)
	}
	for x := int64(1); x <= 8; x++ {
		if cell, ok := got.At(array.Coord{x}); !ok || cell[0].Float != v {
			t.Errorf("after the restart x = %d reads %v, %v; want the %v written after the move", x, cell, ok, v)
		}
	}
	if n, err := co.Count("sky"); err != nil || n != 48 {
		t.Errorf("after the restart Count = %d, %v; want 48", n, err)
	}
}

// TestReleaseUnansweredKeepsRoute: a release that removes the chunk on the
// source but whose answer is lost leaves the chunk routed to its target — the
// source may hold none of it — and pending on the source. The next settle
// (MarkUp) releases it there again, and a restarted grid reads the writes
// made after the move.
func TestReleaseUnansweredKeepsRoute(t *testing.T) {
	opts := WorkerOptions{Dir: t.TempDir(), CacheBytes: 1 << 20}
	tr := NewLocalWithOptions(3, opts)
	t.Cleanup(func() { tr.Close() })
	hook := &hookTransport{Local: tr}
	co := loadSky(t, NewCoordinator(hook, 0))
	rt, err := co.EnableRouting("sky")
	if err != nil {
		t.Fatal(err)
	}
	heatUp(t, co, 20)
	var lost []int
	hook.setAfter(func(node int, req *Message) error {
		if req.Op != "loadchunks" || len(req.Chunks) > 0 {
			return nil
		}
		lost = append(lost, node)
		return errors.New("reply lost")
	})
	if moved, _, err := co.RebalanceOnce("sky", RebalanceOptions{TopK: 1}); err != nil || moved != 1 {
		t.Fatalf("round moved %d, %v; want 1", moved, err)
	}
	if !slices.Equal(lost, []int{0}) {
		t.Fatalf("the releases that lost their answer went to %v, want [0]", lost)
	}
	if nodes := rt.NodesFor(hotBox.Lo); slices.Contains(nodes, 0) {
		t.Fatalf("the chunk is routed to %v after its release on node 0 went unanswered", nodes)
	}
	if n := pendingChunks(co, "sky"); n != 1 {
		t.Fatalf("%d chunks pending after the unanswered release, want 1", n)
	}
	verifySky(t, co, skyBox)
	writeHot(t, co, -1)
	hook.setAfter(nil)
	co.MarkUp(0)
	if n := pendingChunks(co, "sky"); n != 0 {
		t.Fatalf("%d chunks pending after the settle, want 0", n)
	}
	checkHotAfterRestart(t, restartSky(t, co, tr, opts), -1)
}

// TestDownHolderReleasedWhenMarkedUp: a replica on the base owner, down when
// its chunk is replicated afresh, leaves the route but keeps its copy; marking
// the node up releases it, so a restarted grid does not route the chunk back
// to the owner's copy, which lacks the writes made after the move.
func TestDownHolderReleasedWhenMarkedUp(t *testing.T) {
	opts := WorkerOptions{Dir: t.TempDir(), CacheBytes: 1 << 20}
	tr := NewLocalWithOptions(3, opts)
	co := skyOn(t, tr)
	rt, err := co.EnableRouting("sky")
	if err != nil {
		t.Fatal(err)
	}
	heatUp(t, co, 20)
	if _, replicated, err := co.RebalanceOnce("sky", RebalanceOptions{TopK: 1, Replicas: 2}); err != nil || replicated != 1 {
		t.Fatalf("first round replicated %d, %v; want 1", replicated, err)
	}
	tr.Kill(0)
	co.markDown(0)
	heatUp(t, co, 20)
	if _, replicated, err := co.RebalanceOnce("sky", RebalanceOptions{TopK: 1, Replicas: 2}); err != nil || replicated != 1 {
		t.Fatalf("round with the owner down replicated %d, %v; want 1", replicated, err)
	}
	if nodes := rt.NodesFor(hotBox.Lo); len(nodes) != 2 || slices.Contains(nodes, 0) {
		t.Fatalf("the chunk is routed to %v, want two live nodes", nodes)
	}
	if n := pendingChunks(co, "sky"); n != 1 {
		t.Fatalf("%d chunks pending with the owner down, want 1", n)
	}
	tr.Revive(0)
	writeHot(t, co, -1)
	co.MarkUp(0)
	if n := pendingChunks(co, "sky"); n != 0 {
		t.Fatalf("%d chunks pending after MarkUp, want 0", n)
	}
	checkHotAfterRestart(t, restartSky(t, co, tr, opts), -1)
}

// pendingChunks counts name's pending chunks.
func pendingChunks(co *Coordinator, name string) int {
	co.mu.Lock()
	defer co.mu.Unlock()
	return len(co.pending[name])
}

// TestReadPlannedBeforeCutoverFinishesFirst: a scan planned while the hot
// chunk still lives on node 0 is held there by the transport; the migration
// copies and installs the chunk meanwhile, but its cutover waits for the
// scan, so the chunk's release never reaches node 0 before the scan's
// answer, which holds every cell.
func TestReadPlannedBeforeCutoverFinishesFirst(t *testing.T) {
	_, hook, co := hookedCluster(t)
	if _, err := co.EnableRouting("sky"); err != nil {
		t.Fatal(err)
	}
	heatUp(t, co, 20)
	held, hold := make(chan struct{}), make(chan struct{})
	installed := make(chan struct{}, 1)
	var mu sync.Mutex
	var releases []int
	var once sync.Once
	hook.setBefore(func(node int, req *Message) error {
		switch {
		case req.Op == "read" && node == 0 && len(req.BoxHi) == 1 && req.BoxHi[0] == skyBox.Hi[0]:
			once.Do(func() {
				close(held)
				<-hold
			})
		case req.Op == "loadchunks" && len(req.Chunks) > 0:
			select {
			case installed <- struct{}{}:
			default:
			}
		case req.Op == "loadchunks":
			mu.Lock()
			releases = append(releases, node)
			mu.Unlock()
		}
		return nil
	})
	scanned := make(chan error, 1)
	go func() {
		got, err := scan(co, "sky", skyBox)
		if err == nil && got.Count() != 48 {
			t.Errorf("the held scan returned %d cells, want 48", got.Count())
		}
		scanned <- err
	}()
	<-held
	moved := make(chan error, 1)
	go func() {
		n, _, err := co.RebalanceOnce("sky", RebalanceOptions{TopK: 1})
		if err == nil && n != 1 {
			t.Errorf("round moved %d chunks, want 1", n)
		}
		moved <- err
	}()
	select {
	case <-installed:
	case <-time.After(10 * time.Second):
		t.Fatal("the migration never installed its copy")
	}
	time.Sleep(50 * time.Millisecond)
	mu.Lock()
	early := slices.Clone(releases)
	mu.Unlock()
	if len(early) > 0 {
		t.Errorf("the chunk was released on %v while a read planned before the cutover was in flight", early)
	}
	close(hold)
	if err := <-scanned; err != nil {
		t.Fatal(err)
	}
	if err := <-moved; err != nil {
		t.Fatal(err)
	}
	if mu.Lock(); !slices.Equal(releases, []int{0}) {
		t.Errorf("releases went to %v, want [0]", releases)
	}
	mu.Unlock()
	verifySky(t, co, skyBox)
}

// TestRepartitionCopyBlocksNoOtherRead: while a repartition's copy is held
// by the transport, reads of another array, and of the array itself,
// complete; the repartition then finishes with every cell in place.
func TestRepartitionCopyBlocksNoOtherRead(t *testing.T) {
	_, hook, co := hookedCluster(t)
	loadVectors(t, co, partition.Block{Nodes: 3, SplitDim: 0, High: 32}, partition.Block{Nodes: 3, SplitDim: 0, High: 32})
	held, hold := make(chan struct{}), make(chan struct{})
	var once sync.Once
	hook.setBefore(func(node int, req *Message) error {
		if req.Op == "loadchunks" && req.Array == "sky" && len(req.Chunks) > 0 {
			once.Do(func() {
				close(held)
				<-hold
			})
		}
		return nil
	})
	done := make(chan error, 1)
	go func() { done <- co.Repartition("sky", partition.Hash{Nodes: 3, Dims: []int{0}}) }()
	select {
	case <-held:
	case <-time.After(10 * time.Second):
		t.Fatal("the repartition never installed a copy")
	}
	read := make(chan error, 1)
	var other int64
	var sky *array.Array
	go func() {
		var err error
		if other, err = co.Count("A"); err == nil {
			sky, err = scan(co, "sky", skyBox)
		}
		read <- err
	}()
	select {
	case err := <-read:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("reads waited on a repartition's copy")
	}
	if other != 32 || sky.Count() != 48 {
		t.Errorf("mid-repartition Count(A) = %d and a scan of sky %d cells, want 32 and 48", other, sky.Count())
	}
	for x := int64(1); x <= 48; x++ {
		if cell, ok := sky.At(array.Coord{x}); !ok || cell[0].Float != float64(x*10) {
			t.Errorf("mid-repartition sky cell %d = %v, %v; want %d", x, cell, ok, x*10)
		}
	}
	close(hold)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if s, err := co.Scheme("sky"); err != nil || s.Name() != (partition.Hash{Nodes: 3, Dims: []int{0}}).Name() {
		t.Fatalf("scheme after the repartition: %v, %v", s, err)
	}
	verifySky(t, co, skyBox)
}

// TestRepartitionToSameSchemeMovesNothing: every chunk already lies alone on
// its owner under the scheme, so a repartition to it reads and writes no
// chunk on any node — its chunk lists are all it asks — and moves no byte.
func TestRepartitionToSameSchemeMovesNothing(t *testing.T) {
	_, hook, co := hookedCluster(t)
	var mu sync.Mutex
	var ops []string
	hook.setBefore(func(node int, req *Message) error {
		mu.Lock()
		ops = append(ops, req.Op)
		mu.Unlock()
		return nil
	})
	before := co.BytesMoved()
	if err := co.Repartition("sky", partition.Block{Nodes: 3, SplitDim: 0, High: 48}); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	if slices.Contains(ops, "read") || slices.Contains(ops, "loadchunks") {
		t.Errorf("a repartition to the array's own scheme sent %v", ops)
	}
	mu.Unlock()
	if moved := co.BytesMoved() - before; moved != 0 {
		t.Errorf("a repartition to the array's own scheme moved %d bytes", moved)
	}
	if s, _ := co.Scheme("sky"); !co.CoPlaced("sky", "sky") {
		t.Errorf("scheme after the repartition is %s, want the bare bound scheme", s.Name())
	}
	verifySky(t, co, skyBox)
}

// TestRepartitionChangesNodeCount: a repartition onto fewer nodes than the
// array's routed placement names, and back onto more, moves every chunk to
// its new owner — a migrated one included — and releases it everywhere else,
// so each node holds exactly its share and every cell reads back once.
func TestRepartitionChangesNodeCount(t *testing.T) {
	tr := NewLocal(4)
	t.Cleanup(func() { tr.Close() })
	co := NewCoordinator(tr, 0)
	if err := co.Create("sky", gridSchema4(), partition.Block{Nodes: 4, SplitDim: 0, High: 16}); err != nil {
		t.Fatal(err)
	}
	loadGrid(t, co, "sky", 16)
	if _, err := co.EnableRouting("sky"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := scan(co, "sky", array.NewBox(array.Coord{1, 1}, array.Coord{4, 4})); err != nil {
			t.Fatal(err)
		}
	}
	if moved, _, err := co.RebalanceOnce("sky", RebalanceOptions{TopK: 1}); err != nil || moved != 1 {
		t.Fatalf("round moved %d, %v; want 1", moved, err)
	}
	for _, c := range []struct {
		scheme  partition.Scheme
		holding int
	}{{partition.Block{Nodes: 2, SplitDim: 1, High: 16}, 2}, {partition.Block{Nodes: 4, SplitDim: 1, High: 16}, 4}} {
		if err := co.Repartition("sky", c.scheme); err != nil {
			t.Fatalf("%s: %v", c.scheme.Name(), err)
		}
		checkCellsHeld(t, co, "sky", 256, c.scheme.Name())
		if n := holding(t, tr, "sky"); n != c.holding {
			t.Errorf("%s: %d nodes hold cells, want %d", c.scheme.Name(), n, c.holding)
		}
		got, err := scan(co, "sky", array.Box{})
		if err != nil {
			t.Fatal(err)
		}
		got.Iter(func(x array.Coord, cell array.Cell) bool {
			if cell[0].Float != float64(x[0]+x[1]) {
				t.Errorf("%s: cell %v = %v, want %d", c.scheme.Name(), x, cell[0].Float, x[0]+x[1])
				return false
			}
			return true
		})
	}
}
