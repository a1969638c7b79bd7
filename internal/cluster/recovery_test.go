package cluster

// Failure-injection tests for the coordinator's recovery paths: a node that
// dies while the coordinator holds co.mu (Repartition's chunk lists, a
// move's fenced re-copy) must produce an error, never a wedge; failed
// moves must not grow the pending set; and a replica lost to node death must
// be re-created on a live node.

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"scidb/internal/array"
	"scidb/internal/partition"
)

// hookTransport wraps Local, letting tests observe calls or fail them before
// they reach a worker.
type hookTransport struct {
	*Local
	mu     sync.Mutex
	before func(node int, req *Message) error
	after  func(node int, req *Message) error
}

func (h *hookTransport) setBefore(fn func(int, *Message) error) {
	h.mu.Lock()
	h.before = fn
	h.mu.Unlock()
}

// setAfter installs fn to run once a call has been answered: an error from it
// replaces the answer, as a reply lost on its way back.
func (h *hookTransport) setAfter(fn func(int, *Message) error) {
	h.mu.Lock()
	h.after = fn
	h.mu.Unlock()
}

func (h *hookTransport) Call(node int, req *Message) (*Message, error) {
	h.mu.Lock()
	before, after := h.before, h.after
	h.mu.Unlock()
	if before != nil {
		if err := before(node, req); err != nil {
			return nil, err
		}
	}
	resp, err := h.Local.Call(node, req)
	if err == nil && after != nil {
		if err := after(node, req); err != nil {
			return nil, err
		}
	}
	return resp, err
}

// hookedCluster is rebalanceCluster with a hookTransport between the
// coordinator and the grid.
func hookedCluster(t *testing.T) (*Local, *hookTransport, *Coordinator) {
	t.Helper()
	tr := NewLocalWithOptions(3, WorkerOptions{Stride: []int64{8}, CacheBytes: 1 << 20})
	t.Cleanup(func() { tr.Close() })
	hook := &hookTransport{Local: tr}
	return tr, hook, loadSky(t, NewCoordinator(hook, 0))
}

// TestRepartitionNodeDeathReturns: a node dying under Repartition's chunk
// lists (which it asks for under co.mu) must surface ErrNodeDown, mark the
// node down, and leave the coordinator answering — not self-deadlock in
// markDown.
func TestRepartitionNodeDeathReturns(t *testing.T) {
	tr, co := rebalanceCluster(t)
	tr.Kill(2)
	done := make(chan error, 1)
	go func() {
		done <- co.Repartition("sky", partition.Block{Nodes: 3, SplitDim: 0, High: 48})
	}()
	select {
	case err := <-done:
		if err == nil || !errors.Is(err, ErrNodeDown) {
			t.Fatalf("Repartition with a dead node: %v; want ErrNodeDown", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Repartition wedged on node death (markDown self-deadlock)")
	}
	if down := co.DownNodes(); len(down) != 1 || down[0] != 2 {
		t.Fatalf("DownNodes = %v; want [2]", down)
	}
	tr.Revive(2)
	co.MarkUp(2)
	verifySky(t, co, skyBox)
}

// TestRebalanceRecopyNodeDeathReturns: the source dying between a
// migration's unlocked copy and its fenced re-copy (which runs under co.mu)
// must fail the round with ErrNodeDown, not wedge the coordinator, and the
// cluster must heal once the node revives.
func TestRebalanceRecopyNodeDeathReturns(t *testing.T) {
	tr, hook, co := hookedCluster(t)
	if _, err := co.EnableRouting("sky"); err != nil {
		t.Fatal(err)
	}
	heatUp(t, co, 20)
	var hookErr error
	var once sync.Once
	hook.setBefore(func(node int, req *Message) error {
		// The first install (a "loadchunks" carrying chunks; the source's
		// release carries none and comes only after cutover).
		if req.Op == "loadchunks" && len(req.Chunks) > 0 {
			once.Do(func() {
				// The copy's read already ran: dirty the write fence with a
				// value-preserving Put on a live node's slab so cutover
				// must re-copy under co.mu, then kill the source so that
				// locked re-read hits a dead node.
				hookErr = co.Put("sky", array.Coord{47}, array.Cell{array.Float64(470)})
				tr.Kill(0)
			})
		}
		return nil
	})
	done := make(chan error, 1)
	go func() {
		_, _, err := co.RebalanceOnce("sky", RebalanceOptions{TopK: 1})
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil || !errors.Is(err, ErrNodeDown) {
			t.Fatalf("mid-migration source death: %v; want ErrNodeDown", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("RebalanceOnce wedged on node death during fenced re-copy")
	}
	if hookErr != nil {
		t.Fatal(hookErr)
	}
	if down := co.DownNodes(); len(down) != 1 || down[0] != 0 {
		t.Fatalf("DownNodes = %v; want [0]", down)
	}
	hook.setBefore(nil)
	tr.Revive(0)
	co.MarkUp(0)
	verifySky(t, co, skyBox)
}

// TestPendingDedupeOnFailedMoves: a move whose install keeps failing leaves
// exactly one pending entry for its chunk however many rounds retry it, the
// orphaned entry keeps queries correct meanwhile, and a successful retry
// drains it.
func TestPendingDedupeOnFailedMoves(t *testing.T) {
	_, hook, co := hookedCluster(t)
	if _, err := co.EnableRouting("sky"); err != nil {
		t.Fatal(err)
	}
	failErr := errors.New("install refused")
	hook.setBefore(func(node int, req *Message) error {
		if req.Op == "loadchunks" && len(req.Chunks) > 0 { // an install, not a release
			return failErr
		}
		return nil
	})
	for i := 0; i < 3; i++ {
		heatUp(t, co, 5)
		if _, _, err := co.RebalanceOnce("sky", RebalanceOptions{TopK: 1}); err == nil {
			t.Fatal("rebalance round with a failing install should error")
		}
	}
	co.mu.Lock()
	n := len(co.pending["sky"])
	co.mu.Unlock()
	if n != 1 {
		t.Fatalf("pending entries after 3 failed moves = %d; want 1 (deduped by origin)", n)
	}
	verifySky(t, co, skyBox)
	// Clearing the fault lets a retry reuse the orphaned entry and drain it.
	hook.setBefore(nil)
	heatUp(t, co, 5)
	moved, _, err := co.RebalanceOnce("sky", RebalanceOptions{TopK: 1})
	if err != nil {
		t.Fatal(err)
	}
	if moved != 1 {
		t.Fatalf("retry after clearing the fault moved %d chunks; want 1", moved)
	}
	co.mu.Lock()
	n = len(co.pending["sky"])
	co.mu.Unlock()
	if n != 0 {
		t.Fatalf("pending entries after successful retry = %d; want 0", n)
	}
	verifySky(t, co, skyBox)
}

// TestReplicateHealsAfterHolderDeath: a replica lost to node death must not
// count toward the replication target — the next round re-creates it on a
// live node and drops the dead node from the route.
func TestReplicateHealsAfterHolderDeath(t *testing.T) {
	tr, co := rebalanceCluster(t)
	rt, err := co.EnableRouting("sky")
	if err != nil {
		t.Fatal(err)
	}
	heatUp(t, co, 20)
	if _, replicated, err := co.RebalanceOnce("sky", RebalanceOptions{TopK: 1, Replicas: 2}); err != nil || replicated != 1 {
		t.Fatalf("first round replicated %d, %v; want 1", replicated, err)
	}
	holders := rt.NodesFor(array.Coord{1})
	if len(holders) != 2 {
		t.Fatalf("replica set = %v; want 2 holders", holders)
	}
	dead := holders[1] // the freshly installed replica
	tr.Kill(dead)
	co.markDown(dead)
	heatUp(t, co, 10) // reads re-heat the chunk via the surviving holder
	if _, replicated, err := co.RebalanceOnce("sky", RebalanceOptions{TopK: 1, Replicas: 2}); err != nil || replicated != 1 {
		t.Fatalf("post-death round replicated %d, %v; want 1 (lost replica re-created)", replicated, err)
	}
	healed := rt.NodesFor(array.Coord{1})
	if len(healed) != 2 {
		t.Fatalf("healed replica set = %v; want 2 holders", healed)
	}
	for _, n := range healed {
		if n == dead {
			t.Fatalf("healed replica set %v still routes the dead node %d", healed, dead)
		}
	}
	verifySky(t, co, hotBox) // served while the dead holder stays dead
	tr.Revive(dead)
	co.MarkUp(dead)
	verifySky(t, co, skyBox)
}

// TestRepartitionDuringRebalanceStress races rebalance rounds against full
// repartitions: moveChunk and Repartition are interlocked, so an in-flight
// copy can never install pre-repartition payloads under the new scheme or
// release cells the source owns after it. Content must survive unchanged.
func TestRepartitionDuringRebalanceStress(t *testing.T) {
	_, co := rebalanceCluster(t)
	if _, err := co.EnableRouting("sky"); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	errc := make(chan error, 2)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			// Rounds landing between a Repartition and the re-enable see a
			// plain Block scheme; that window is expected and harmless.
			if _, _, err := co.RebalanceOnce("sky", RebalanceOptions{TopK: 2}); err != nil &&
				!strings.Contains(err.Error(), "no routing table") {
				errc <- err
				return
			}
		}
	}()
	rounds := 4
	if testing.Short() {
		rounds = 2
	}
	for i := 0; i < rounds; i++ {
		heatUp(t, co, 5)
		if err := co.Repartition("sky", partition.Block{Nodes: 3, SplitDim: 0, High: 48}); err != nil {
			t.Fatal(err)
		}
		if _, err := co.EnableRouting("sky"); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	verifySky(t, co, skyBox)
	if n, err := co.Count("sky"); err != nil || n != 48 {
		t.Fatalf("count = %d, %v; want 48", n, err)
	}
}

// TestRoutedHashSurvivesCoveredNodeDeath: a hash-placed array has no slabs,
// yet when replicas cover every chunk of a dead node, planning proves it by
// walking the queried chunks and reads answer from the replicas.
func TestRoutedHashSurvivesCoveredNodeDeath(t *testing.T) {
	tr := NewLocal(3)
	t.Cleanup(func() { tr.Close() })
	co := NewCoordinator(tr, 0)
	schema := &array.Schema{
		Name:  "sky",
		Dims:  []array.Dimension{{Name: "x", High: 48, ChunkLen: 8}},
		Attrs: []array.Attribute{{Name: "v", Type: array.TFloat64}},
	}
	if err := co.Create("sky", schema, partition.Hash{Nodes: 3, Dims: []int{0}}); err != nil {
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
	rt, err := co.EnableRouting("sky")
	if err != nil {
		t.Fatal(err)
	}
	// Heat every chunk of the first chunk's owner, and replicate them all.
	dead := rt.NodeFor(array.Coord{1})
	var owned int
	for x := int64(1); x <= 48; x += 8 {
		if rt.NodeFor(array.Coord{x}) != dead {
			continue
		}
		owned++
		for i := 0; i < 5; i++ {
			if _, err := scan(co, "sky", array.Box{Lo: array.Coord{x}, Hi: array.Coord{x + 7}}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, replicated, err := co.RebalanceOnce("sky", RebalanceOptions{TopK: owned, Replicas: 2}); err != nil || replicated != owned {
		t.Fatalf("replicated %d chunks, %v; want node %d's %d", replicated, err, dead, owned)
	}
	tr.Kill(dead)
	verifySky(t, co, skyBox)
}

// TestUnboundedPlanWalkIsCapped: proving replica coverage walks the query
// box's chunks only up to a cap. An unbounded dimension behind a bounded
// one of 512 chunks makes 2^64 chunks, whose count must not wrap to a small
// number: the query fails closed at once instead of walking 2^55 origins
// under the coordinator lock.
func TestUnboundedPlanWalkIsCapped(t *testing.T) {
	tr := NewLocal(2)
	t.Cleanup(func() { tr.Close() })
	co := NewCoordinator(tr, 0)
	schema := &array.Schema{
		Name:  "sky",
		Dims:  []array.Dimension{{Name: "x", High: 512, ChunkLen: 1}, {Name: "y", High: array.Unbounded}},
		Attrs: []array.Attribute{{Name: "v", Type: array.TFloat64}},
	}
	if err := co.Create("sky", schema, partition.Block{Nodes: 2, SplitDim: 0, High: 512}); err != nil {
		t.Fatal(err)
	}
	for _, x := range []int64{1, 512} {
		if err := co.Put("sky", array.Coord{x, 1}, array.Cell{array.Float64(1)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := co.Flush("sky"); err != nil {
		t.Fatal(err)
	}
	if _, err := co.EnableRouting("sky"); err != nil {
		t.Fatal(err)
	}
	tr.Kill(1)
	co.markDown(1)
	done := make(chan error, 1)
	go func() {
		_, err := co.Count("sky")
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "too large") {
			t.Fatalf("Count with node 1 down = %v; want the coverage proof refused as too large", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("planning walked the unbounded dimension's chunks")
	}
}
