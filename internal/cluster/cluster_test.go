package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"reflect"
	"slices"
	"strings"
	"testing"

	"scidb/internal/array"
	"scidb/internal/exec"
	"scidb/internal/ops"
	"scidb/internal/partition"
	"scidb/internal/storage"
)

func gridSchema() *array.Schema {
	return &array.Schema{
		Name:  "sky",
		Dims:  []array.Dimension{{Name: "x", High: 64}, {Name: "y", High: 64}},
		Attrs: []array.Attribute{{Name: "flux", Type: array.TFloat64}},
	}
}

// holding counts the nodes that hold cells of name, each asked directly.
func holding(t *testing.T, tr Transport, name string) int {
	t.Helper()
	n := 0
	for i := 0; i < tr.NumNodes(); i++ {
		resp, err := tr.Call(i, countReq(name))
		if err != nil {
			t.Fatal(err)
		}
		if resp.Cells > 0 {
			n++
		}
	}
	return n
}

// scan gathers the cells of name inside box (all of them under an empty box)
// through Coordinator.Read.
func scan(co *Coordinator, name string, box array.Box) (*array.Array, error) {
	a, _, _, _, err := co.Read(context.Background(), name, ops.Fragment{Box: box})
	return a, err
}

// aggregate folds agg of attr over the cells of name inside box, per
// combination of groupDims (a grand total with none), through
// Coordinator.Read.
func aggregate(co *Coordinator, name string, box array.Box, agg, attr string, groupDims []string) (*array.Array, error) {
	a, _, _, _, err := co.Read(context.Background(), name, ops.Fragment{Box: box,
		Fold: &ops.FoldSpec{Dims: groupDims, Aggs: []ops.AggSpec{{Agg: agg, Attr: attr}}}})
	return a, err
}

func loadGrid(t *testing.T, co *Coordinator, name string, n int64) {
	t.Helper()
	for i := int64(1); i <= n; i++ {
		for j := int64(1); j <= n; j++ {
			if err := co.Put(name, array.Coord{i, j}, array.Cell{array.Float64(float64(i + j))}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := co.Flush(name); err != nil {
		t.Fatal(err)
	}
}

func TestDistributedAggregates(t *testing.T) {
	tr := NewLocal(3)
	co := NewCoordinator(tr, 0)
	scheme := partition.Hash{Nodes: 3, Dims: []int{0, 1}}
	// 2x2 chunks: sixteen over the 8x8 load, hashed to more than one node,
	// so every aggregate below combines per-node partials.
	schema := gridSchema()
	schema.Dims[0].ChunkLen, schema.Dims[1].ChunkLen = 2, 2
	if err := co.Create("sky", schema, scheme); err != nil {
		t.Fatal(err)
	}
	loadGrid(t, co, "sky", 8) // values i+j over 8x8
	if n := holding(t, tr, "sky"); n < 2 {
		t.Fatalf("%d node(s) hold cells, want the chunks spread", n)
	}
	all := array.NewBox(array.Coord{1, 1}, array.Coord{8, 8})

	// Grand totals.
	sum, err := aggregate(co, "sky", all, "sum", "flux", nil)
	if err != nil {
		t.Fatal(err)
	}
	cell, _ := sum.At(array.Coord{1})
	if cell[0].AsFloat() != 576 { // sum over 8x8 of (i+j) = 2*8*36 = 576
		t.Errorf("sum = %v, want 576", cell[0].AsFloat())
	}
	cnt, _ := aggregate(co, "sky", all, "count", "flux", nil)
	cell, _ = cnt.At(array.Coord{1})
	if cell[0].Int != 64 {
		t.Errorf("count = %v", cell[0])
	}
	avg, _ := aggregate(co, "sky", all, "avg", "flux", nil)
	cell, _ = avg.At(array.Coord{1})
	if cell[0].AsFloat() != 9 {
		t.Errorf("avg = %v, want 9", cell[0].AsFloat())
	}
	mn, _ := aggregate(co, "sky", all, "min", "flux", nil)
	cell, _ = mn.At(array.Coord{1})
	if cell[0].AsFloat() != 2 {
		t.Errorf("min = %v, want 2", cell[0].AsFloat())
	}
	mx, _ := aggregate(co, "sky", all, "max", "flux", nil)
	cell, _ = mx.At(array.Coord{1})
	if cell[0].AsFloat() != 16 {
		t.Errorf("max = %v, want 16", cell[0].AsFloat())
	}

	// Grouped: sum per x row = sum_j (i+j) = 8i + 36.
	rows, err := aggregate(co, "sky", all, "sum", "flux", []string{"x"})
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 8; i++ {
		cell, ok := rows.At(array.Coord{i})
		if !ok || cell[0].AsFloat() != float64(8*i+36) {
			t.Errorf("row %d sum = %v,%v; want %d", i, cell, ok, 8*i+36)
		}
	}
	// Box-restricted aggregate.
	part, _ := aggregate(co, "sky", array.NewBox(array.Coord{1, 1}, array.Coord{1, 2}), "sum", "flux", nil)
	cell, _ = part.At(array.Coord{1})
	if cell[0].AsFloat() != 5 { // (1+1)+(1+2)
		t.Errorf("box sum = %v, want 5", cell[0].AsFloat())
	}
}

func TestRepartitionMovesOnlyChangedCells(t *testing.T) {
	tr := NewLocal(4)
	co := NewCoordinator(tr, 0)
	blockA := partition.Block{Nodes: 4, SplitDim: 0, High: 16}
	if err := co.Create("sky", gridSchema4(), blockA); err != nil {
		t.Fatal(err)
	}
	loadGrid(t, co, "sky", 16)
	if n := holding(t, tr, "sky"); n != 4 {
		t.Fatalf("%d nodes hold cells, want 4", n)
	}

	// Repartition to the same scheme: nothing moves.
	if err := co.Repartition("sky", blockA); err != nil {
		t.Fatal(err)
	}
	noMove := co.BytesMoved()

	// Repartition along the other dimension: most cells move.
	blockB := partition.Block{Nodes: 4, SplitDim: 1, High: 16}
	if err := co.Repartition("sky", blockB); err != nil {
		t.Fatal(err)
	}
	bigMove := co.BytesMoved() - noMove
	if bigMove <= noMove {
		t.Errorf("cross-dim repartition moved %d bytes, same-scheme %d; expected strictly more", bigMove, noMove)
	}
	// Data intact afterwards.
	n, err := co.Count("sky")
	if err != nil || n != 256 {
		t.Fatalf("Count after repartition = %d,%v", n, err)
	}
	res, _ := scan(co, "sky", array.NewBox(array.Coord{5, 5}, array.Coord{5, 5}))
	cell, ok := res.At(array.Coord{5, 5})
	if !ok || cell[0].Float != 10 {
		t.Errorf("cell after repartition = %v,%v", cell, ok)
	}
	if s, _ := co.Scheme("sky"); s.Name() != blockB.Name() {
		t.Error("scheme not updated")
	}
	if n := holding(t, tr, "sky"); n != 4 {
		t.Errorf("%d nodes hold cells after the repartition, want 4", n)
	}
}

// heldCoords lists, per node, the coordinates of the cells that node holds
// of name, read from each node directly.
func heldCoords(t *testing.T, tr Transport, co *Coordinator, name string) [][]string {
	t.Helper()
	s, err := co.ArraySchema(name)
	if err != nil {
		t.Fatal(err)
	}
	held := make([][]string, tr.NumNodes())
	for n := range held {
		resp, err := tr.Call(n, &Message{Op: "read", Array: name})
		if err != nil {
			t.Fatal(err)
		}
		a, err := storage.DecodeChunks(PartitionSchema(s), resp.Chunks)
		if err != nil {
			t.Fatal(err)
		}
		a.Iter(func(c array.Coord, _ array.Cell) bool {
			held[n] = append(held[n], fmt.Sprint(c))
			return true
		})
		slices.Sort(held[n])
	}
	return held
}

// loadVectors creates A and B, 1-D over x in 1..32 in chunks of 8, placed by
// schemeA and schemeB, with a cell at every x.
func loadVectors(t *testing.T, co *Coordinator, schemeA, schemeB partition.Scheme) {
	t.Helper()
	for _, a := range []struct {
		name   string
		scheme partition.Scheme
	}{{"A", schemeA}, {"B", schemeB}} {
		s := &array.Schema{Name: a.name, Dims: []array.Dimension{{Name: "x", High: 32, ChunkLen: 8}},
			Attrs: []array.Attribute{{Name: "v", Type: array.TInt64}}}
		if err := co.Create(a.name, s, a.scheme); err != nil {
			t.Fatal(err)
		}
		for x := int64(1); x <= 32; x++ {
			if err := co.Put(a.name, array.Coord{x}, array.Cell{array.Int64(x)}); err != nil {
				t.Fatal(err)
			}
		}
		if err := co.Flush(a.name); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCoPartitionedJoinNoMovement: arrays placed by one scheme hold the
// same coordinates on every node, so a join on them matches cells where
// they lie, and nothing moves.
func TestCoPartitionedJoinNoMovement(t *testing.T) {
	tr := NewLocal(4)
	co := NewCoordinator(tr, 0)
	scheme := partition.Block{Nodes: 4, SplitDim: 0, High: 32}
	loadVectors(t, co, scheme, scheme)
	a, b := heldCoords(t, tr, co, "A"), heldCoords(t, tr, co, "B")
	if !reflect.DeepEqual(a, b) {
		t.Errorf("co-partitioned arrays hold different coordinates per node:\nA %v\nB %v", a, b)
	}
	for n, coords := range a {
		if len(coords) != 8 {
			t.Errorf("node %d holds %d cells of A, want 8", n, len(coords))
		}
	}
	if co.BytesMoved() != 0 {
		t.Errorf("co-partitioned arrays moved %d bytes, want 0", co.BytesMoved())
	}
}

// TestNonCoPartitionedJoinMovesData: a hash-placed array holds other
// coordinates per node than a block-placed one, and placing it by the block
// scheme moves bytes — after which the two are co-located.
func TestNonCoPartitionedJoinMovesData(t *testing.T) {
	tr := NewLocal(4)
	co := NewCoordinator(tr, 0)
	block := partition.Block{Nodes: 4, SplitDim: 0, High: 32}
	loadVectors(t, co, block, partition.Hash{Nodes: 4, Dims: []int{0}})
	if reflect.DeepEqual(heldCoords(t, tr, co, "A"), heldCoords(t, tr, co, "B")) {
		t.Fatal("hash- and block-placed arrays hold the same coordinates per node")
	}
	if err := co.Repartition("B", block); err != nil {
		t.Fatal(err)
	}
	if co.BytesMoved() == 0 {
		t.Error("aligning a hash-placed array moved no bytes")
	}
	if a, b := heldCoords(t, tr, co, "A"), heldCoords(t, tr, co, "B"); !reflect.DeepEqual(a, b) {
		t.Errorf("after the repartition the arrays hold different coordinates per node:\nA %v\nB %v", a, b)
	}
}

func TestErrorsPropagate(t *testing.T) {
	tr := NewLocal(2)
	co := NewCoordinator(tr, 0)
	if err := co.Put("ghost", array.Coord{1}, array.Cell{array.Int64(1)}); err == nil {
		t.Error("put to unknown array accepted")
	}
	if _, err := co.Count("ghost"); err == nil {
		t.Error("count of unknown array accepted")
	}
	if _, err := scan(co, "ghost", array.NewBox(array.Coord{1}, array.Coord{1})); err == nil {
		t.Error("scan of unknown array accepted")
	}
	s := gridSchema()
	big := partition.Block{Nodes: 10, SplitDim: 0, High: 64}
	if err := co.Create("sky", s, big); err == nil {
		t.Error("scheme larger than transport accepted")
	}
	// Worker-level error comes back as a transport error.
	if _, err := tr.Call(0, &Message{Op: "frobnicate"}); err == nil {
		t.Error("unknown op accepted")
	}
	if _, err := tr.Call(99, &Message{Op: "ping"}); err == nil {
		t.Error("bad node accepted")
	}
}

func TestTCPTransport(t *testing.T) {
	// Two real TCP workers on loopback.
	var addrs []string
	for i := 0; i < 2; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		w := NewWorker(i)
		go func() { _ = serve(ln, w) }()
		addrs = append(addrs, ln.Addr().String())
	}
	tr, err := DialTCP(addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if tr.NumNodes() != 2 {
		t.Fatalf("NumNodes = %d", tr.NumNodes())
	}
	// Ping both.
	for n := 0; n < 2; n++ {
		if _, err := tr.Call(n, &Message{Op: "ping"}); err != nil {
			t.Fatalf("ping node %d: %v", n, err)
		}
	}
	// Full protocol over TCP.
	co := NewCoordinator(tr, 0)
	scheme := partition.Block{Nodes: 2, SplitDim: 0, High: 16}
	s := &array.Schema{
		Name:  "tcp_arr",
		Dims:  []array.Dimension{{Name: "x", High: 16, ChunkLen: 8}},
		Attrs: []array.Attribute{{Name: "v", Type: array.TFloat64}},
	}
	if err := co.Create("tcp_arr", s, scheme); err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 16; i++ {
		if err := co.Put("tcp_arr", array.Coord{i}, array.Cell{array.Float64(float64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := co.Flush("tcp_arr"); err != nil {
		t.Fatal(err)
	}
	n, err := co.Count("tcp_arr")
	if err != nil || n != 16 {
		t.Fatalf("Count over TCP = %d,%v", n, err)
	}
	if h := holding(t, tr, "tcp_arr"); h != 2 {
		t.Fatalf("%d node(s) hold cells, want 2", h)
	}
	agg, err := aggregate(co, "tcp_arr", array.NewBox(array.Coord{1}, array.Coord{16}), "sum", "v", nil)
	if err != nil {
		t.Fatal(err)
	}
	cell, _ := agg.At(array.Coord{1})
	if cell[0].AsFloat() != 136 {
		t.Errorf("sum over TCP = %v, want 136", cell[0].AsFloat())
	}
	// Errors propagate across the wire.
	if _, err := tr.Call(0, &Message{Op: "read", Array: "ghost"}); err == nil {
		t.Error("remote error not propagated")
	}
	// A request that does not encode fails alone: not as a dead node, and
	// both of the node's connections carry the calls after it.
	bad := &Message{Op: "read", Array: "tcp_arr", ExclLo: [][]int64{{1}}}
	if _, err := tr.Call(0, bad); err == nil || errors.Is(err, ErrNodeDown) || !strings.Contains(err.Error(), "encode for node 0") {
		t.Errorf("an unencodable request = %v, want an encode error, not ErrNodeDown", err)
	}
	for i := 0; i < 2; i++ {
		if _, err := tr.Call(0, &Message{Op: "ping"}); err != nil {
			t.Errorf("ping %d after an unencodable request: %v", i, err)
		}
	}
	// Bad dial fails cleanly.
	if _, err := DialTCP([]string{"127.0.0.1:1"}); err == nil {
		t.Error("dial to closed port succeeded")
	}
}

func TestWorkerOpErrors(t *testing.T) {
	tr := NewLocal(1)
	// create without schema
	if _, err := tr.Call(0, &Message{Op: "create", Array: "x"}); err == nil {
		t.Error("create without schema accepted")
	}
	// ops against unknown arrays
	for _, op := range []string{"put", "read", "chunks"} {
		if _, err := tr.Call(0, &Message{Op: op, Array: "ghost"}); err == nil {
			t.Errorf("%s on unknown array accepted", op)
		}
	}
	s := gridSchema()
	if _, err := tr.Call(0, &Message{Op: "create", Array: "a", Schema: s}); err != nil {
		t.Fatal(err)
	}
	// the read ops "read" replaced are gone, as are "stats" (NodeStats reads
	// "metrics"), "replicachunk" (the rebalancer sends "loadchunks"), the
	// node-local "sjoin" (core joins what it reads), "migratechunks" (the
	// rebalancer copies a chunk with "read" and releases it with
	// "loadchunks"), "replace" (Repartition is a set of chunk moves) and
	// "heat" (a node's chunk list, "chunks", carries its heat): no alias
	// answers for them
	for _, op := range []string{"scan", "agg", "count", "stats", "replicachunk", "sjoin", "migratechunks", "replace", "heat"} {
		if _, err := tr.Call(0, &Message{Op: op, Array: "a"}); err == nil || !strings.Contains(err.Error(), "unknown op") {
			t.Errorf("%s on a held array: %v, want unknown op", op, err)
		}
	}
	// a fold with an unknown attribute / dimension, and one whose state
	// cannot travel
	sum := func(attr string) []ops.AggSpec { return []ops.AggSpec{{Agg: "sum", Attr: attr}} }
	if _, err := tr.Call(0, &Message{Op: "read", Array: "a", Fold: &ops.FoldSpec{Aggs: sum("zzz")}}); err == nil {
		t.Error("fold of an unknown attr accepted")
	}
	if _, err := tr.Call(0, &Message{Op: "read", Array: "a", Fold: &ops.FoldSpec{Dims: []string{"zzz"}, Aggs: sum("")}}); err == nil {
		t.Error("fold over an unknown dim accepted")
	}
	if _, err := tr.Call(0, &Message{Op: "read", Array: "a", Fold: &ops.FoldSpec{Aggs: []ops.AggSpec{{Agg: "median"}}}}); err == nil {
		t.Error("fold of an aggregate without typed state accepted")
	}
	// corrupted payload
	if _, err := tr.Call(0, &Message{Op: "put", Array: "a", Chunks: [][]byte{{1, 2, 3}}}); err == nil {
		t.Error("corrupt payload accepted")
	}
}

// TestNodeStatsFollowWorkerCounters: NodeStats reads each node's counters
// through its registry, and cells_held is a gauge — a dropped partition's
// cells leave it, so rounds of create / load / drop do not grow it.
func TestNodeStatsFollowWorkerCounters(t *testing.T) {
	tr := NewLocal(2)
	co := NewCoordinator(tr, 0)
	held := func() (n int64) {
		t.Helper()
		stats, err := co.NodeStats()
		if err != nil {
			t.Fatal(err)
		}
		for i, s := range stats {
			if s != tr.Workers[i].Stats() || s.Requests == 0 {
				t.Fatalf("node %d: NodeStats %+v, the worker counts %+v", i, s, tr.Workers[i].Stats())
			}
			n += s.CellsHeld
		}
		return n
	}
	for round := 0; round < 3; round++ {
		if err := co.Create("sky", gridSchema(), partition.Block{Nodes: 2, SplitDim: 0, High: 4}); err != nil {
			t.Fatal(err)
		}
		loadGrid(t, co, "sky", 4)
		if n := held(); n != 16 {
			t.Fatalf("round %d: %d cells held after the load, want 16", round, n)
		}
		if err := co.Drop("sky"); err != nil {
			t.Fatal(err)
		}
		if n := held(); n != 0 {
			t.Fatalf("round %d: %d cells held after the drop, want 0", round, n)
		}
	}
}

// TestCellsHeldCountsDistinctCells: a put that overwrites cells the
// partition holds — in its buffer or in buckets — adds none of them to
// cells_held, so the gauge is the distinct cells put. Counting them is not a
// read: no put warms a chunk for the rebalancer.
func TestCellsHeldCountsDistinctCells(t *testing.T) {
	tr := NewLocal(2)
	co := NewCoordinator(tr, 0)
	if err := co.Create("sky", gridSchema(), partition.Block{Nodes: 2, SplitDim: 0, High: 6}); err != nil {
		t.Fatal(err)
	}
	held := func() (n int64) {
		for _, w := range tr.Workers {
			n += w.Stats().CellsHeld
		}
		return n
	}
	for _, step := range []struct{ side, want int64 }{{4, 16}, {4, 16}, {6, 36}} {
		loadGrid(t, co, "sky", step.side)
		if n := held(); n != step.want {
			t.Fatalf("after putting the %dx%d grid: %d cells held, want %d", step.side, step.side, n, step.want)
		}
	}
	for _, w := range tr.Workers {
		if heat := w.heat.Snapshot(); len(heat) != 0 {
			t.Fatalf("node %d: puts left heat %+v", w.ID, heat)
		}
	}
}

// TestLoadChunksCountsDistinctCells: loadchunks grows cells_held by the
// cells the node did not hold, as put does. A batch retried with the same
// payload adds nothing, and neither does one meeting the node's on-disk copy
// of the chunk — a chunk migrating back to a former owner — so a drop leaves
// the gauge at 0.
func TestLoadChunksCountsDistinctCells(t *testing.T) {
	w := NewWorkerWithOptions(0, WorkerOptions{Dir: t.TempDir(), CacheBytes: 1 << 20})
	defer w.Close()
	s := PartitionSchema(gridSchema())
	handleOK(t, w, &Message{Op: "create", Array: "sky", Schema: s})
	a := array.MustNew(s.Clone())
	for x := int64(1); x <= 4; x++ {
		for y := int64(1); y <= 4; y++ {
			if err := a.Set(array.Coord{x, y}, array.Cell{array.Float64(float64(x + y))}); err != nil {
				t.Fatal(err)
			}
		}
	}
	payloads, err := encodeForTest(a)
	if err != nil {
		t.Fatal(err)
	}
	load := &Message{Op: "loadchunks", Array: "sky", Chunks: payloads}
	back := &Message{Op: "loadchunks", Array: "sky", Chunks: payloads, BoxLo: []int64{1, 1}, BoxHi: []int64{64, 64}}
	for _, step := range []struct {
		what string
		req  *Message
	}{{"load", load}, {"retry", load}, {"flush", &Message{Op: "flush", Array: "sky"}}, {"migrate back", back}} {
		handleOK(t, w, step.req)
		if n := w.Stats().CellsHeld; n != 16 {
			t.Fatalf("after %s: %d cells held, want 16", step.what, n)
		}
	}
	handleOK(t, w, &Message{Op: "drop", Array: "sky"})
	if n := w.Stats().CellsHeld; n != 0 {
		t.Fatalf("after the drop: %d cells held, want 0", n)
	}
	// A put lands whole chunks of the partition's grid, so one staged on
	// another grid is refused, and nothing of it is written.
	handleOK(t, w, &Message{Op: "create", Array: "sky", Schema: s})
	fine := gridSchema()
	fine.Dims[0].ChunkLen, fine.Dims[1].ChunkLen = 2, 2
	b := array.MustNew(fine)
	for _, c := range []array.Coord{{1, 1}, {3, 3}} {
		if err := b.Set(c, array.Cell{array.Float64(1)}); err != nil {
			t.Fatal(err)
		}
	}
	if payloads, err = encodeForTest(b); err != nil {
		t.Fatal(err)
	}
	if _, err := w.handle(&Message{Op: "put", Array: "sky", Chunks: payloads}); !errors.Is(err, storage.ErrOffGrid) {
		t.Fatalf("put staged on a 2x2 grid: %v, want storage.ErrOffGrid", err)
	}
	if n := w.Stats().CellsHeld; n != 0 {
		t.Fatalf("a refused put left %d cells held", n)
	}
}

// TestStatsAdaptersCarryEveryField: after a read whose zone predicates skip
// buckets, every field of the four typed adapters over a grid equals the
// workers' own snapshots summed — no counter is lost between a node's
// registry and the coordinator's decode.
func TestStatsAdaptersCarryEveryField(t *testing.T) {
	tr := NewLocalWithOptions(2, WorkerOptions{CacheBytes: 1 << 20})
	co := NewCoordinator(tr, 0)
	if err := co.Create("sky", gridSchema8(), partition.Block{Nodes: 2, SplitDim: 0, High: 64}); err != nil {
		t.Fatal(err)
	}
	loadGrid(t, co, "sky", 64) // flux = x+y: node 0 holds x ≤ 32, so flux ≤ 96
	preds := []array.ZonePred{{Attr: 0, Op: ">", Val: array.Float64(100)}}
	if _, _, _, _, err := co.Read(context.Background(), "sky", ops.Fragment{Preds: preds}); err != nil {
		t.Fatal(err)
	}
	// sum adds up a slice of stats structs field by field, by name.
	sum := func(v reflect.Value) map[string]int64 {
		out := map[string]int64{}
		for i := 0; i < v.Len(); i++ {
			for f := 0; f < v.Index(i).NumField(); f++ {
				out[v.Type().Elem().Field(f).Name] += v.Index(i).Field(f).Int()
			}
		}
		return out
	}
	check := func(name string, got any, err error, own func(w *Worker) any) map[string]int64 {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		want := reflect.MakeSlice(reflect.TypeOf(got), 0, len(tr.Workers))
		for _, w := range tr.Workers {
			want = reflect.Append(want, reflect.ValueOf(own(w)))
		}
		g, w := sum(reflect.ValueOf(got)), sum(want)
		if !reflect.DeepEqual(g, w) {
			t.Errorf("%s: adapter %v, the workers' own %v", name, g, w)
		}
		return g
	}
	cs, err := co.CacheStats()
	check("CacheStats", cs, err, func(w *Worker) any { return w.CacheStats() })
	ss, err := co.StorageStats()
	if g := check("StorageStats", ss, err, func(w *Worker) any { return w.StoreStats() }); g["ChunksSkipped"] == 0 || g["ChunksVisited"] == 0 {
		t.Errorf("the read skipped %d and visited %d buckets; want both", g["ChunksSkipped"], g["ChunksVisited"])
	}
	es, err := co.ExecStats()
	check("ExecStats", es, err, func(*Worker) any { return exec.Default().Stats() })
	ns, err := co.NodeStats()
	check("NodeStats", ns, err, func(w *Worker) any { return w.Stats() })
}

// TestCellsScannedCountsCellsRead: a cell the predicates refute had its
// column read all the same, so it is scanned on either sink; only a read that
// projects no column (a count without predicates) scans nothing.
func TestCellsScannedCountsCellsRead(t *testing.T) {
	tr := NewLocal(1)
	co := NewCoordinator(tr, 0)
	if err := co.Create("sky", gridSchema(), partition.Block{Nodes: 1, SplitDim: 0, High: 64}); err != nil {
		t.Fatal(err)
	}
	loadGrid(t, co, "sky", 8) // flux = x+y: 28 of the 64 cells are above 9
	preds := []array.ZonePred{{Attr: 0, Op: ">", Val: array.Float64(9)}}
	for _, c := range []struct {
		sink    string
		frag    ops.Fragment
		scanned int64
	}{
		{"cells", ops.Fragment{Preds: preds}, 64},
		{"fold", ops.Fragment{Preds: preds, Fold: &ops.FoldSpec{Aggs: []ops.AggSpec{{Agg: "sum", Attr: "flux"}}}}, 64},
		{"count under predicates", ops.Fragment{Preds: preds, Fold: &ops.FoldSpec{}}, 64},
		{"count", ops.Fragment{Fold: &ops.FoldSpec{}}, 0},
	} {
		before := tr.Workers[0].Stats().CellsScanned
		_, cells, seen, _, err := co.Read(context.Background(), "sky", c.frag)
		if err != nil {
			t.Fatal(err)
		}
		if want := int64(28); len(c.frag.Preds) > 0 && (cells != want || seen != 64) {
			t.Errorf("%s: answered %d of %d cells seen, want %d of 64", c.sink, cells, seen, want)
		}
		if got := tr.Workers[0].Stats().CellsScanned - before; got != c.scanned {
			t.Errorf("%s: scanned %d cells, want %d", c.sink, got, c.scanned)
		}
	}
}

func TestEpochSchemeOnCluster(t *testing.T) {
	// The paper's changing-partitioning: cells before time T place under
	// one scheme, after T under another — in one array, via Epoch.
	tr := NewLocal(2)
	co := NewCoordinator(tr, 0)
	s := &array.Schema{
		Name: "ts",
		// Sites are chunked one apiece and time ten at a time, so each
		// scheme's cuts and the epoch boundary fall between chunks.
		Dims:  []array.Dimension{{Name: "t", High: 100, ChunkLen: 10}, {Name: "site", High: 10, ChunkLen: 1}},
		Attrs: []array.Attribute{{Name: "v", Type: array.TFloat64}},
	}
	epoch := partition.Epoch{
		TimeDim:    0,
		Boundaries: []int64{51},
		Schemes: []partition.Scheme{
			partition.Block{Nodes: 2, SplitDim: 1, High: 10},           // before T: by site
			partition.Range{SplitDim: 1, Splits: []int64{2}, Nodes: 2}, // after T: hotspot-adjusted
		},
	}
	if err := epoch.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := co.Create("ts", s, epoch); err != nil {
		t.Fatal(err)
	}
	for tt := int64(1); tt <= 100; tt++ {
		if err := co.Put("ts", array.Coord{tt, tt%10 + 1}, array.Cell{array.Float64(float64(tt))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := co.Flush("ts"); err != nil {
		t.Fatal(err)
	}
	n, err := co.Count("ts")
	if err != nil || n != 100 {
		t.Fatalf("count = %d,%v", n, err)
	}
	// Same (site) coordinate lands differently across the boundary.
	early := epoch.NodeFor(array.Coord{10, 5})
	late := epoch.NodeFor(array.Coord{90, 5})
	if early == late {
		t.Error("epoch boundary had no placement effect for site 5")
	}
	if bound, _ := co.Scheme("ts"); bound.NodeFor(array.Coord{10, 5}) != early || bound.NodeFor(array.Coord{90, 5}) != late {
		t.Error("the array's chunk placement differs from the epoch's at site 5")
	}
	if h := holding(t, tr, "ts"); h != 2 {
		t.Errorf("%d node(s) hold cells, want 2", h)
	}
	// And the data is still all queryable.
	agg, err := aggregate(co, "ts", array.NewBox(array.Coord{1, 1}, array.Coord{100, 10}), "count", "v", nil)
	if err != nil {
		t.Fatal(err)
	}
	cell, _ := agg.At(array.Coord{1})
	if cell[0].Int != 100 {
		t.Errorf("distributed count = %v", cell[0])
	}
}

// TestSjoinOverTCP: co-partitioned arrays loaded over TCP hold the same
// coordinates on every node, as read back over the wire, so a join matches
// cells where they lie; nothing moves.
func TestSjoinOverTCP(t *testing.T) {
	var addrs []string
	for i := 0; i < 2; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		go func(i int) { _ = serve(ln, NewWorker(i)) }(i)
		addrs = append(addrs, ln.Addr().String())
	}
	tr, err := DialTCP(addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	co := NewCoordinator(tr, 0)
	scheme := partition.Block{Nodes: 2, SplitDim: 0, High: 32}
	loadVectors(t, co, scheme, scheme)
	l, r := heldCoords(t, tr, co, "A"), heldCoords(t, tr, co, "B")
	if !reflect.DeepEqual(l, r) || len(l[0]) != 16 || len(l[1]) != 16 {
		t.Errorf("co-partitioned arrays over TCP hold, per node:\nA %v\nB %v\nwant the same 16 coordinates each", l, r)
	}
	if co.BytesMoved() != 0 {
		t.Errorf("co-partitioned arrays over TCP moved %d bytes", co.BytesMoved())
	}
}

// TestWorkerConcurrentAccess hammers one worker from several goroutines;
// run under -race this validates the worker's locking.
func TestWorkerConcurrentAccess(t *testing.T) {
	w := NewWorker(0)
	s := gridSchema()
	if resp := w.Handle(&Message{Op: "create", Array: "c", Schema: s}); resp.Err != "" {
		t.Fatal(resp.Err)
	}
	done := make(chan error, 4)
	for g := 0; g < 4; g++ {
		go func(g int) {
			src := array.MustNew(s.Clone())
			for i := int64(1); i <= 16; i++ {
				_ = src.Set(array.Coord{int64(g)*16 + i, 1}, array.Cell{array.Float64(float64(i))})
			}
			chunks, err := encodeForTest(src)
			if err != nil {
				done <- err
				return
			}
			for k := 0; k < 20; k++ {
				if resp := w.Handle(&Message{Op: "put", Array: "c", Chunks: chunks}); resp.Err != "" {
					done <- fmt.Errorf("put: %s", resp.Err)
					return
				}
				if resp := w.Handle(countReq("c")); resp.Err != "" {
					done <- fmt.Errorf("count: %s", resp.Err)
					return
				}
				if resp := w.Handle(&Message{Op: "metrics"}); resp.Err != "" {
					done <- fmt.Errorf("metrics: %s", resp.Err)
					return
				}
			}
			done <- nil
		}(g)
	}
	for g := 0; g < 4; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	resp := w.Handle(countReq("c"))
	if resp.Cells != 64 {
		t.Errorf("final count = %d, want 64", resp.Cells)
	}
}

// encodeForTest encodes a's cells the way a message carries them.
func encodeForTest(a *array.Array) ([][]byte, error) {
	return storage.EncodeChunks(a.Schema, a.Chunks())
}

// sameChunks reports whether two messages carry the same encoded chunks.
func sameChunks(a, b [][]byte) bool {
	return slices.EqualFunc(a, b, bytes.Equal)
}

// countReq is the read that counts an array's cells on one node: a fold
// with no aggregates.
func countReq(name string) *Message {
	return &Message{Op: "read", Array: name, Fold: &ops.FoldSpec{}}
}

func TestBoxPruningSkipsNodes(t *testing.T) {
	// With a block scheme on x, a box query touching only low x values
	// must not contact nodes owning high slabs.
	tr := NewLocal(4)
	co := NewCoordinator(tr, 0)
	scheme := partition.Block{Nodes: 4, SplitDim: 0, High: 16}
	if err := co.Create("sky", gridSchema4(), scheme); err != nil {
		t.Fatal(err)
	}
	loadGrid(t, co, "sky", 16)
	if n := holding(t, tr, "sky"); n != 4 {
		t.Fatalf("%d node(s) hold cells, want 4", n)
	}
	before := make([]int64, 4)
	for i, w := range tr.Workers {
		before[i] = w.Stats().Requests
	}
	// Box entirely inside node 0's slab (x in 1..4).
	res, err := scan(co, "sky", array.NewBox(array.Coord{1, 1}, array.Coord{4, 16}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Count() != 64 {
		t.Fatalf("pruned scan cells = %d, want 64", res.Count())
	}
	for i, w := range tr.Workers {
		delta := w.Stats().Requests - before[i]
		if i == 0 && delta == 0 {
			t.Error("owning node not contacted")
		}
		if i > 0 && delta != 0 {
			t.Errorf("node %d contacted %d times for a pruned box", i, delta)
		}
	}
	// Aggregates prune too, and agree with the full answer.
	agg, err := aggregate(co, "sky", array.NewBox(array.Coord{1, 1}, array.Coord{4, 16}), "count", "flux", nil)
	if err != nil {
		t.Fatal(err)
	}
	cell, _ := agg.At(array.Coord{1})
	if cell[0].Int != 64 {
		t.Errorf("pruned count = %v", cell[0])
	}
	// Cross-slab boxes still reach every needed node.
	res, err = scan(co, "sky", array.NewBox(array.Coord{3, 1}, array.Coord{10, 16}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Count() != 8*16 {
		t.Errorf("cross-slab scan = %d cells", res.Count())
	}
}

// ExecStats reports each node's worker-pool counters, and the process-wide
// parallelism knob is visible through it.
func TestExecStatsOp(t *testing.T) {
	old := exec.Parallelism()
	exec.SetParallelism(4)
	defer exec.SetParallelism(old)

	tr := NewLocal(3)
	co := NewCoordinator(tr, 0)
	scheme := partition.Block{Nodes: 3, SplitDim: 0, High: 16}
	if err := co.Create("sky", gridSchema4(), scheme); err != nil {
		t.Fatal(err)
	}
	loadGrid(t, co, "sky", 16)
	if n := holding(t, tr, "sky"); n != 3 {
		t.Fatalf("%d node(s) hold cells, want 3", n)
	}
	if _, err := scan(co, "sky", array.NewBox(array.Coord{1, 1}, array.Coord{16, 16})); err != nil {
		t.Fatal(err)
	}
	stats, err := co.ExecStats()
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 3 {
		t.Fatalf("ExecStats returned %d entries, want 3", len(stats))
	}
	for i, s := range stats {
		if s.Parallelism != 4 {
			t.Errorf("node %d reports parallelism %d, want 4", i, s.Parallelism)
		}
	}
}

// TestPutOutsideBoundsIsRefused: a cluster array refuses a cell outside its
// declared bounds where Put stages it, as a memory array refuses it, and
// holds no more cells afterwards.
func TestPutOutsideBoundsIsRefused(t *testing.T) {
	tr := NewLocal(2)
	defer tr.Close()
	co := NewCoordinator(tr, 0)
	schema := &array.Schema{
		Name:  "A",
		Dims:  []array.Dimension{{Name: "x", High: 10}, {Name: "y", High: 10}},
		Attrs: []array.Attribute{{Name: "v", Type: array.TFloat64}},
	}
	if err := co.Create("A", schema, partition.Block{Nodes: 2, SplitDim: 0, High: 10}); err != nil {
		t.Fatal(err)
	}
	if err := co.Put("A", array.Coord{3, 3}, array.Cell{array.Float64(1)}); err != nil {
		t.Fatal(err)
	}
	if err := co.Put("A", array.Coord{12, 3}, array.Cell{array.Float64(2)}); err == nil {
		t.Error("Put at x 12 into x = 1:10 succeeded")
	}
	if err := co.Flush("A"); err != nil {
		t.Fatal(err)
	}
	if n, err := co.Count("A"); err != nil || n != 1 {
		t.Errorf("Count = %d, %v; want the 1 cell inside the bounds", n, err)
	}
}
