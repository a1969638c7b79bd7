package cluster

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"scidb/internal/array"
	"scidb/internal/exec"
	"scidb/internal/partition"
	"scidb/internal/storage"
)

func loadTestSchema() *array.Schema {
	return &array.Schema{
		Name: "grid",
		Dims: []array.Dimension{
			{Name: "x", High: 16, ChunkLen: 4},
			{Name: "y", High: 16, ChunkLen: 4},
		},
		Attrs: []array.Attribute{{Name: "v", Type: array.TFloat64}},
	}
}

// TestLoadChunksWireRoundTrip pins the second-presence-byte contract: a
// chunks/insitu message round-trips, and bytes trailing its last block are
// rejected.
func TestLoadChunksWireRoundTrip(t *testing.T) {
	m := &Message{
		Op: "loadchunks", Array: "g", Cells: 7,
		Chunks:  [][]byte{{0xaa, 0xbb}, {0x01}},
		Path:    "/data/in.csv",
		Adaptor: "csv",
	}
	enc, err := encodeMessage(m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeMessage(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, got) {
		t.Fatalf("round trip mismatch:\n in: %+v\nout: %+v", m, got)
	}
	if _, err := decodeMessage(append(append([]byte(nil), enc...), 0x99, 0x00, 0x17)); err == nil {
		t.Error("decode accepted bytes trailing the insitu block")
	}
}

// buildChunkPayloads routes the grid's cells per scheme, bound to the
// partition grid, and encodes each node's chunks exactly like the parallel
// loader does.
func buildChunkPayloads(t *testing.T, schema *array.Schema, scheme partition.Scheme, gen func(array.Coord) (array.Cell, bool)) [][][]byte {
	t.Helper()
	scheme = partition.Bind(scheme, PartitionSchema(schema))
	bs := schema.Clone()
	for i := range bs.Dims {
		bs.Dims[i].High = array.Unbounded
	}
	builders := make([]*array.Array, scheme.NumNodes())
	lo := array.Coord{1, 1}
	hi := array.Coord{schema.Dims[0].High, schema.Dims[1].High}
	array.IterBox(array.Box{Lo: lo, Hi: hi}, func(c array.Coord) bool {
		cell, ok := gen(c)
		if !ok {
			return true
		}
		n := scheme.NodeFor(c)
		if builders[n] == nil {
			builders[n] = array.MustNew(bs.Clone())
		}
		if err := builders[n].Set(c.Clone(), cell); err != nil {
			t.Fatal(err)
		}
		return true
	})
	payloads := make([][][]byte, len(builders))
	for n, b := range builders {
		if b == nil {
			continue
		}
		for _, ch := range b.Chunks() {
			if ch.CellsPresent() == 0 {
				continue
			}
			raw, _, err := storage.EncodeChunkZones(bs, ch)
			if err != nil {
				t.Fatal(err)
			}
			payloads[n] = append(payloads[n], raw)
		}
	}
	return payloads
}

// TestLoadChunksMatchesPut: shipping pre-encoded chunk batches must leave
// the cluster in the same queryable state as the cell-at-a-time put path.
func TestLoadChunksMatchesPut(t *testing.T) {
	schema := loadTestSchema()
	scheme := partition.Block{Nodes: 2, SplitDim: 0, High: 16}
	gen := func(c array.Coord) (array.Cell, bool) {
		if (c[0]+c[1])%3 == 0 { // sparse: skip a third of the grid
			return nil, false
		}
		return array.Cell{array.Float64(float64(c[0]*100 + c[1]))}, true
	}
	newGrid := func() *Coordinator {
		tr := NewLocalWithOptions(2, WorkerOptions{
			Stride: []int64{4, 4}, CacheBytes: 1 << 20,
		})
		co := NewCoordinator(tr, 0)
		if err := co.Create("g", schema, scheme); err != nil {
			t.Fatal(err)
		}
		return co
	}

	chunked := newGrid()
	payloads := buildChunkPayloads(t, schema, scheme, gen)
	for n := range payloads {
		if len(payloads[n]) == 0 {
			continue
		}
		if err := chunked.LoadChunks("g", n, payloads[n]); err != nil {
			t.Fatal(err)
		}
	}
	if err := chunked.Flush("g"); err != nil {
		t.Fatal(err)
	}

	puts := newGrid()
	lo := array.Coord{1, 1}
	hi := array.Coord{16, 16}
	array.IterBox(array.Box{Lo: lo, Hi: hi}, func(c array.Coord) bool {
		cell, ok := gen(c)
		if !ok {
			return true
		}
		if err := puts.Put("g", c.Clone(), cell); err != nil {
			t.Fatal(err)
		}
		return true
	})
	if err := puts.Flush("g"); err != nil {
		t.Fatal(err)
	}

	box := array.Box{Lo: lo, Hi: hi}
	a, err := scan(chunked, "g", box)
	if err != nil {
		t.Fatal(err)
	}
	b, err := scan(puts, "g", box)
	if err != nil {
		t.Fatal(err)
	}
	if a.Count() != b.Count() || a.Count() == 0 {
		t.Fatalf("loadchunks count %d, put count %d", a.Count(), b.Count())
	}
	b.Iter(func(c array.Coord, want array.Cell) bool {
		got, ok := a.At(c)
		if !ok || got[0].Float != want[0].Float {
			t.Fatalf("cell %v = %v,%v; want %v", c, got, ok, want)
		}
		return true
	})
}

// TestPutThenLoadChunksReadsLoaded: writes apply in the order they were
// acknowledged. A cell Put and still staged on the coordinator is older than
// a chunk batch loaded after it, so after the flush reads return the loaded
// value.
func TestPutThenLoadChunksReadsLoaded(t *testing.T) {
	schema := loadTestSchema()
	scheme := partition.Block{Nodes: 2, SplitDim: 0, High: 16}
	co := NewCoordinator(NewLocalWithOptions(2, WorkerOptions{Stride: []int64{4, 4}}), 0)
	if err := co.Create("g", schema, scheme); err != nil {
		t.Fatal(err)
	}
	c := array.Coord{2, 3}
	if err := co.Put("g", c, array.Cell{array.Float64(1)}); err != nil {
		t.Fatal(err)
	}
	payloads := buildChunkPayloads(t, schema, scheme, func(array.Coord) (array.Cell, bool) {
		return array.Cell{array.Float64(2)}, true
	})
	n := scheme.NodeFor(c)
	if err := co.LoadChunks("g", n, payloads[n]); err != nil {
		t.Fatal(err)
	}
	if err := co.Flush("g"); err != nil {
		t.Fatal(err)
	}
	a, err := scan(co, "g", array.Box{Lo: c, Hi: c})
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := a.At(c); !ok || got[0].Float != 2 {
		t.Errorf("cell %v = %v, %v after Put 1 then LoadChunks 2; want 2", c, got, ok)
	}
}

func extSchema() *array.Schema {
	return &array.Schema{
		Name: "ext",
		Dims: []array.Dimension{
			{Name: "x", High: 12, ChunkLen: 4},
			{Name: "y", High: 6, ChunkLen: 4},
		},
		Attrs: []array.Attribute{{Name: "v", Type: array.TFloat64}},
	}
}

// writeExt writes the 12×6 grid v = 100x + y + add as a CSV file at path
// and returns its sum. A non-empty bad replaces the value of cell (3, 2),
// which lies in node 0's slab.
func writeExt(t *testing.T, path string, add float64, bad string) float64 {
	t.Helper()
	var b strings.Builder
	b.WriteString("# scidb-csv\n# dims: x:12, y:6\n# attrs: v:float\n")
	var sum float64
	for x := 1; x <= 12; x++ {
		for y := 1; y <= 6; y++ {
			v := float64(x*100+y) + add
			sum += v
			if x == 3 && y == 2 && bad != "" {
				fmt.Fprintf(&b, "%d,%d,%s\n", x, y, bad)
				continue
			}
			fmt.Fprintf(&b, "%d,%d,%g\n", x, y, v)
		}
	}
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return sum
}

// registerExt registers path in situ as "ext", split between nodes 0 (x 1..8,
// 48 cells) and 1 (x 9..12, 24 cells): the block scheme cuts x at 6 | 7, and
// a chunk goes whole to the node of its origin, so the chunk at x = 5 is
// node 0's.
func registerExt(t *testing.T, co *Coordinator, path string) {
	t.Helper()
	if err := co.RegisterInsitu("ext", path, "csv", extSchema(), partition.Block{Nodes: 2, SplitDim: 0, High: 12}); err != nil {
		t.Fatal(err)
	}
}

// insituGrid registers path on two nodes whose slabs are several 4×4
// buckets each.
func insituGrid(t *testing.T, path string) (*Local, *Coordinator) {
	t.Helper()
	tr := NewLocalWithOptions(2, WorkerOptions{Stride: []int64{4, 4}, CacheBytes: 1 << 20})
	t.Cleanup(func() { tr.Close() })
	co := NewCoordinator(tr, 0)
	registerExt(t, co, path)
	return tr, co
}

func extSum(t *testing.T, co *Coordinator) float64 {
	t.Helper()
	agg, err := aggregate(co, "ext", array.Box{Lo: array.Coord{1, 1}, Hi: array.Coord{12, 6}}, "sum", "v", nil)
	if err != nil {
		t.Fatal(err)
	}
	total, ok := agg.At(array.Coord{1})
	if !ok {
		t.Fatal("sum has no row")
	}
	return total[0].AsFloat()
}

// TestRegisterInsituQueries: a CSV file registered in situ answers count,
// box scans, and pushed-down aggregates with no load step, including on a
// node whose slab of the file is empty.
func TestRegisterInsituQueries(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ext.csv")
	sum := writeExt(t, path, 0, "")

	// Three nodes, two-slab scheme: node 2 owns none of the file.
	tr := NewLocalWithOptions(3, WorkerOptions{Stride: []int64{4, 4}, CacheBytes: 1 << 20})
	co := NewCoordinator(tr, 0)
	registerExt(t, co, path)

	n, err := co.Count("ext")
	if err != nil || n != 72 {
		t.Fatalf("count = %d, %v; want 72", n, err)
	}
	// A box scan crossing the slab boundary (node 0 owns x 1..8).
	box := array.Box{Lo: array.Coord{7, 2}, Hi: array.Coord{10, 4}}
	got, err := scan(co, "ext", box)
	if err != nil {
		t.Fatal(err)
	}
	if got.Count() != 4*3 {
		t.Fatalf("box scan count = %d; want 12", got.Count())
	}
	cell, ok := got.At(array.Coord{9, 3})
	if !ok || cell[0].Float != 903 {
		t.Fatalf("scan cell = %v, %v; want 903", cell, ok)
	}
	// Pushed-down aggregate over the whole file.
	if got := extSum(t, co); got != sum {
		t.Fatalf("sum = %v; want %v", got, sum)
	}
	// Flush succeeds, with nothing to spill; drop unregisters everywhere.
	if err := co.Flush("ext"); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if err := co.Drop("ext"); err != nil {
		t.Fatalf("drop: %v", err)
	}
	if _, err := co.Count("ext"); err == nil {
		t.Fatal("count after drop succeeded")
	}
}

// TestRegisterInsituNeedsBoxer: hash partitioning cannot describe per-node
// slabs, so registration must be refused up front.
func TestRegisterInsituNeedsBoxer(t *testing.T) {
	tr := NewLocal(2)
	co := NewCoordinator(tr, 0)
	schema := loadTestSchema()
	err := co.RegisterInsitu("ext", "/nope.csv", "csv", schema, partition.Hash{Nodes: 2, Dims: []int{0}})
	if err == nil {
		t.Fatal("hash scheme accepted for in-situ registration")
	}
}

// TestInsituFileIsReadOnce: the first read copies each node's slab into its
// partition's store, and every later read is a store read — the file can be
// gone, and no read writes another bucket.
func TestInsituFileIsReadOnce(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ext.csv")
	sum := writeExt(t, path, 0, "")
	tr, co := insituGrid(t, path)
	if n, err := co.Count("ext"); err != nil || n != 72 {
		t.Fatalf("count = %d, %v; want 72", n, err)
	}
	written := func() (n int64) {
		for _, w := range tr.Workers {
			n += w.StoreStats().BucketsWritten
		}
		return n
	}
	filled := written()
	if filled == 0 {
		t.Fatal("the first read wrote no bucket")
	}
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if n, err := co.Count("ext"); err != nil || n != 72 {
		t.Errorf("count after the file is gone = %d, %v; want 72", n, err)
	}
	got, err := scan(co, "ext", array.Box{Lo: array.Coord{5, 2}, Hi: array.Coord{8, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if cell, ok := got.At(array.Coord{7, 3}); got.Count() != 12 || !ok || cell[0].Float != 703 {
		t.Errorf("box scan = %d cells, (7, 3) = %v, %v; want 12 cells and 703", got.Count(), cell, ok)
	}
	if got := extSum(t, co); got != sum {
		t.Errorf("sum = %v; want %v", got, sum)
	}
	whole, err := scan(co, "ext", array.Box{})
	if err != nil || whole.Count() != 72 {
		t.Fatalf("whole scan = %v cells, %v; want 72", whole, err)
	}
	if n := written(); n != filled {
		t.Errorf("reads after the first wrote %d more buckets", n-filled)
	}
}

// TestInsituDropBalancesCellsHeld: a read partition's cells leave the gauge
// when it is dropped, and a partition dropped before any read opens nothing
// and subtracts nothing.
func TestInsituDropBalancesCellsHeld(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ext.csv")
	writeExt(t, path, 0, "")
	tr, co := insituGrid(t, path)
	held := func() (n int64) {
		for _, w := range tr.Workers {
			n += w.Stats().CellsHeld
		}
		return n
	}
	if n, err := co.Count("ext"); err != nil || n != 72 || held() != 72 {
		t.Fatalf("count = %d, %v, cells held %d; want 72 and 72", n, err, held())
	}
	if err := co.Drop("ext"); err != nil {
		t.Fatal(err)
	}
	if n := held(); n != 0 {
		t.Errorf("cells held after read and drop = %d, want 0", n)
	}
	registerExt(t, co, path)
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if err := co.Drop("ext"); err != nil {
		t.Fatalf("drop of an unread in-situ array whose file is gone: %v", err)
	}
	if n := held(); n != 0 {
		t.Errorf("cells held after an unread drop = %d, want 0", n)
	}
}

// TestInsituFailedFillDropBalancesCellsHeld: a fill that fails part way
// keeps the batches it adopted before the failure, and they count toward
// scidb_worker_cells_held; drop takes exactly those off again.
func TestInsituFailedFillDropBalancesCellsHeld(t *testing.T) {
	old := exec.Parallelism()
	exec.SetParallelism(1) // one shard: its first batch ships before the bad line
	defer exec.SetParallelism(old)
	// Node 0's slab, x 1..40 at stride 4, is 20 buckets; its last line is
	// malformed, so a 16-chunk batch is adopted before the fill fails.
	var b strings.Builder
	b.WriteString("# scidb-csv\n# dims: x:80, y:8\n# attrs: v:float\n")
	for x := 1; x <= 80; x++ {
		for y := 1; y <= 8; y++ {
			if x == 40 && y == 8 {
				b.WriteString("40,8,oops\n")
				continue
			}
			fmt.Fprintf(&b, "%d,%d,%d\n", x, y, x*100+y)
		}
	}
	path := filepath.Join(t.TempDir(), "ext.csv")
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	tr := NewLocalWithOptions(2, WorkerOptions{Stride: []int64{4, 4}, CacheBytes: 1 << 20})
	defer tr.Close()
	co := NewCoordinator(tr, 0)
	schema := &array.Schema{
		Name:  "ext",
		Dims:  []array.Dimension{{Name: "x", High: 80, ChunkLen: 4}, {Name: "y", High: 8, ChunkLen: 4}},
		Attrs: []array.Attribute{{Name: "v", Type: array.TFloat64}},
	}
	if err := co.RegisterInsitu("ext", path, "csv", schema, partition.Block{Nodes: 2, SplitDim: 0, High: 80}); err != nil {
		t.Fatal(err)
	}
	if _, err := co.Count("ext"); err == nil || !strings.Contains(err.Error(), `bad float "oops"`) {
		t.Fatalf("count over a malformed file: %v, want the line's error", err)
	}
	if tr.Workers[0].StoreStats().BucketsWritten == 0 {
		t.Fatal("node 0's failed fill adopted nothing; the test exercises nothing")
	}
	if err := co.Drop("ext"); err != nil {
		t.Fatal(err)
	}
	for i, w := range tr.Workers {
		if n := w.Stats().CellsHeld; n != 0 {
			t.Errorf("node %d holds %d cells after a failed fill and drop, want 0", i, n)
		}
	}
}

// TestInsituFailedFillSticks: a fill that fails fails every read of that
// node's partition with the same error and serves nothing partial; another
// node's copy answers, and registering the file again is the retry.
func TestInsituFailedFillSticks(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ext.csv")
	writeExt(t, path, 0, "")
	tr, co := insituGrid(t, path)
	if got := handleOK(t, tr.Workers[1], countReq("ext")).Cells; got != 24 {
		t.Fatalf("node 1 count = %d, want 24", got)
	}
	writeExt(t, path, 0, "oops") // node 0 has not read its slab yet
	for i := 0; i < 2; i++ {
		if _, err := co.Count("ext"); err == nil || !strings.Contains(err.Error(), `bad float "oops"`) {
			t.Fatalf("count %d over a malformed slab: %v, want the line's error", i, err)
		}
	}
	if got := handleOK(t, tr.Workers[1], countReq("ext")).Cells; got != 24 {
		t.Errorf("node 1 count after node 0 failed = %d, want 24", got)
	}
	writeExt(t, path, 0, "")
	registerExt(t, co, path)
	if n, err := co.Count("ext"); err != nil || n != 72 {
		t.Errorf("count after re-registration = %d, %v; want 72", n, err)
	}
}

// TestInsituReregistrationReadsNewFile: the file is read once, so a change to
// it shows only once the array is registered again.
func TestInsituReregistrationReadsNewFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ext.csv")
	before := writeExt(t, path, 0, "")
	_, co := insituGrid(t, path)
	if got := extSum(t, co); got != before {
		t.Fatalf("sum = %v; want %v", got, before)
	}
	after := writeExt(t, path, 0.5, "")
	if got := extSum(t, co); got != before {
		t.Errorf("sum after the file changed = %v; want the copy's %v", got, before)
	}
	registerExt(t, co, path)
	if got := extSum(t, co); got != after {
		t.Errorf("sum after re-registration = %v; want %v", got, after)
	}
}

// TestInsituRefusesWrites: the ops that write a partition's cells — put,
// loadchunks, and loadchunks with a box and no chunks (the release of a
// moved chunk) — say why they fail on an in-situ one, and leave it
// answering.
func TestInsituRefusesWrites(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ext.csv")
	writeExt(t, path, 0, "")
	tr, _ := insituGrid(t, path)
	a := array.MustNew(PartitionSchema(extSchema()))
	if err := a.Set(array.Coord{1, 1}, array.Cell{array.Float64(1)}); err != nil {
		t.Fatal(err)
	}
	chunks, err := encodeForTest(a)
	if err != nil {
		t.Fatal(err)
	}
	w := tr.Workers[0]
	for _, req := range []*Message{
		{Op: "put", Array: "ext", Chunks: chunks},
		{Op: "loadchunks", Array: "ext", Chunks: chunks},
		{Op: "loadchunks", Array: "ext", BoxLo: []int64{1, 1}, BoxHi: []int64{4, 4}},
	} {
		if got, want := w.Handle(req).Err, `cluster: "ext" is an in-situ array and cannot be written`; got != want {
			t.Errorf("%s: error %q, want %q", req.Op, got, want)
		}
	}
	if got := handleOK(t, w, countReq("ext")).Cells; got != 48 {
		t.Errorf("count after refused writes = %d, want 48", got)
	}
}
