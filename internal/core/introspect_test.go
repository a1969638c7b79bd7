package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"scidb/internal/array"
	"scidb/internal/cluster"
	"scidb/internal/introspect"
	"scidb/internal/ops"
	"scidb/internal/partition"
	"scidb/internal/udf"
)

// slowFilterDB builds a database holding a 1-D array with many one-cell
// chunks and a per-cell UDF delay, so a filter over it runs long enough to
// observe (and cancel) while the chunk-parallel executor checks the
// context between chunks.
func slowFilterDB(t *testing.T, cells int, delay time.Duration) *Database {
	t.Helper()
	db := Open()
	if err := db.Registry().RegisterFunc(&udf.Func{
		Name: "slowpred",
		In:   []array.Type{array.TFloat64},
		Out:  []array.Type{array.TFloat64},
		Body: func(args []array.Value) ([]array.Value, error) {
			time.Sleep(delay)
			return []array.Value{args[0]}, nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	a, err := array.New(&array.Schema{
		Name:  "A",
		Dims:  []array.Dimension{{Name: "x", High: int64(cells), ChunkLen: 1}},
		Attrs: []array.Attribute{{Name: "v", Type: array.TFloat64}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for x := int64(1); x <= int64(cells); x++ {
		if err := a.Set(array.Coord{x}, array.Cell{array.Float64(float64(x))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.PutArray("A", a); err != nil {
		t.Fatal(err)
	}
	return db
}

// findQuery scans the default registry for a live query whose SQL contains
// marker, polling until deadline.
func findQuery(t *testing.T, marker string) (introspect.Info, bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		for _, q := range introspect.Default().Snapshot() {
			if strings.Contains(q.SQL, marker) {
				return q, true
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return introspect.Info{}, false
}

func TestQueryVisibleWhileRunningAndGoneAfter(t *testing.T) {
	db := slowFilterDB(t, 50, 2*time.Millisecond)

	done := make(chan error, 1)
	go func() {
		_, err := db.Exec("filter(A, slowpred(v) > 0)")
		done <- err
	}()

	q, ok := findQuery(t, "slowpred")
	if !ok {
		t.Fatal("running statement never appeared in the query registry")
	}
	if q.State != introspect.StateRunning {
		t.Fatalf("live state = %q, want running", q.State)
	}

	if err := <-done; err != nil {
		t.Fatalf("statement failed: %v", err)
	}
	for _, live := range introspect.Default().Snapshot() {
		if live.ID == q.ID {
			t.Fatal("finished statement still listed as live")
		}
	}
	var rec *introspect.Info
	for _, r := range introspect.Default().Recent() {
		if r.ID == q.ID {
			rr := r
			rec = &rr
		}
	}
	if rec == nil {
		t.Fatal("finished statement missing from the recent ring")
	}
	if rec.State != introspect.StateDone {
		t.Fatalf("terminal state = %q, want done", rec.State)
	}
	if rec.Cells == 0 {
		t.Fatalf("finished statement has no cell counters: %+v", rec)
	}
}

func TestCancelQueryTerminatesRunningStatement(t *testing.T) {
	db := slowFilterDB(t, 2000, 2*time.Millisecond)

	done := make(chan error, 1)
	go func() {
		_, err := db.Exec("filter(A, slowpred(v) > 0)")
		done <- err
	}()

	q, ok := findQuery(t, "slowpred")
	if !ok {
		t.Fatal("running statement never appeared in the query registry")
	}
	res, err := db.Exec(fmt.Sprintf("cancel query %d", q.ID))
	if err != nil {
		t.Fatalf("cancel query: %v", err)
	}
	if !strings.Contains(res.Msg, "canceled") {
		t.Fatalf("cancel result = %q", res.Msg)
	}

	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled statement returned %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("canceled statement did not terminate")
	}
	var state string
	for _, r := range introspect.Default().Recent() {
		if r.ID == q.ID {
			state = r.State
		}
	}
	if state != introspect.StateCanceled {
		t.Fatalf("terminal state = %q, want canceled", state)
	}
	if introspect.Events().Total(introspect.EvQueryCancel) == 0 {
		t.Fatal("no query_cancel event recorded")
	}

	// A second cancel of the now-finished id must fail cleanly.
	if _, err := db.Exec(fmt.Sprintf("cancel query %d", q.ID)); err == nil {
		t.Fatal("cancel of finished query succeeded")
	}
}

func TestShowQueriesListsItself(t *testing.T) {
	db := Open()
	res, err := db.Exec("show queries")
	if err != nil {
		t.Fatal(err)
	}
	if res.Array == nil || res.Array.Count() == 0 {
		t.Fatal("show queries returned no rows (the statement itself runs registered)")
	}
}

func TestSysArraysResolveAndUnknownRejected(t *testing.T) {
	db := Open()
	for _, name := range SysNames() {
		if _, err := db.Exec(name); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if _, err := db.Exec("sys.bogus"); err == nil {
		t.Fatal("sys.bogus resolved")
	}
	// sys.metrics carries the query-latency histogram count at minimum.
	res, err := db.Exec("filter(sys.metrics, name = 'scidb_queries_started_total')")
	if err != nil {
		t.Fatal(err)
	}
	if res.Array.Count() == 0 {
		t.Fatal("sys.metrics missing scidb_queries_started_total")
	}
}

// TestSysChunksTracksRoutingDuringRebalance drives rebalance rounds while
// scanning sys.chunks concurrently, then checks the final rows agree with
// partition.Routing exactly and the moves were logged as events.
func TestSysChunksTracksRoutingDuringRebalance(t *testing.T) {
	tr := cluster.NewLocalWithOptions(3, cluster.WorkerOptions{Stride: []int64{8}, CacheBytes: 1 << 20})
	t.Cleanup(func() { tr.Close() })
	co := cluster.NewCoordinator(tr, 0)
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
	rt, err := co.EnableRouting("sky", nil)
	if err != nil {
		t.Fatal(err)
	}
	db := Open()
	db.AttachCluster(co)

	movesBefore := introspect.Events().Total(introspect.EvRebalanceMove)
	hot := array.Box{Lo: array.Coord{1}, Hi: array.Coord{8}}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for round := 0; round < 4; round++ {
			for i := 0; i < 10; i++ {
				if _, _, _, _, err := co.Read(context.Background(), "sky", ops.Fragment{Box: hot}); err != nil {
					t.Error(err)
					return
				}
			}
			if _, _, err := co.RebalanceOnce("sky", cluster.RebalanceOptions{TopK: 1}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	// Scan the virtual array while chunks move underneath it.
	for i := 0; i < 10; i++ {
		if _, err := db.Exec("filter(sys.chunks, array = 'sky')"); err != nil {
			t.Fatalf("sys.chunks during rebalance: %v", err)
		}
	}
	wg.Wait()

	want := rt.Overrides()
	if len(want) == 0 {
		t.Fatal("rebalance produced no route overrides")
	}
	res, err := db.Exec("filter(sys.chunks, array = 'sky')")
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Array.Count(); got != int64(len(want)) {
		t.Fatalf("sys.chunks rows = %d, want %d overrides", got, len(want))
	}
	// Every override appears as a row with its exact node list.
	rows := map[string]string{}
	res.Array.Iter(func(c array.Coord, cell array.Cell) bool {
		rows[cell[1].Str] = cell[2].Str
		return true
	})
	for _, cr := range want {
		parts := make([]string, len(cr.Nodes))
		for i, n := range cr.Nodes {
			parts[i] = fmt.Sprintf("%d", n)
		}
		key := fmt.Sprintf("%v", []int64(cr.Origin))
		if rows[key] != strings.Join(parts, ",") {
			t.Fatalf("chunk %s routed to %q in sys.chunks, want %q", key, rows[key], strings.Join(parts, ","))
		}
	}
	if introspect.Events().Total(introspect.EvRebalanceMove) <= movesBefore {
		t.Fatal("no rebalance_move event recorded in sys.events log")
	}
}
