package cluster

import (
	"path/filepath"
	"reflect"
	"testing"

	"scidb/internal/array"
	"scidb/internal/insitu"
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

// buildChunkPayloads routes the grid's cells per scheme and encodes each
// node's chunks exactly like the parallel loader does.
func buildChunkPayloads(t *testing.T, schema *array.Schema, scheme partition.Scheme, gen func(array.Coord) (array.Cell, bool)) (payloads [][][]byte, cells []int64) {
	t.Helper()
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
	payloads = make([][][]byte, len(builders))
	cells = make([]int64, len(builders))
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
			cells[n] += ch.CellsPresent()
		}
	}
	return payloads, cells
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
		tr := NewLocalWithOptions(2, LocalOptions{
			Stride: []int64{4, 4}, CacheBytes: 1 << 20,
		})
		co := NewCoordinator(tr, 0)
		if err := co.Create("g", schema, scheme); err != nil {
			t.Fatal(err)
		}
		return co
	}

	chunked := newGrid()
	payloads, cells := buildChunkPayloads(t, schema, scheme, gen)
	for n := range payloads {
		if len(payloads[n]) == 0 {
			continue
		}
		if err := chunked.LoadChunks("g", n, payloads[n], cells[n]); err != nil {
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
	a, err := chunked.Scan("g", box)
	if err != nil {
		t.Fatal(err)
	}
	b, err := puts.Scan("g", box)
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

// TestRegisterInsituQueries: a CSV file registered in situ answers count,
// box scans, and pushed-down aggregates with no load step, including on a
// node whose slab of the file is empty.
func TestRegisterInsituQueries(t *testing.T) {
	schema := &array.Schema{
		Name: "ext",
		Dims: []array.Dimension{
			{Name: "x", High: 12, ChunkLen: 4},
			{Name: "y", High: 6, ChunkLen: 4},
		},
		Attrs: []array.Attribute{{Name: "v", Type: array.TFloat64}},
	}
	src := array.MustNew(schema.Clone())
	var sum float64
	for x := int64(1); x <= 12; x++ {
		for y := int64(1); y <= 6; y++ {
			v := float64(x*100 + y)
			sum += v
			if err := src.Set(array.Coord{x, y}, array.Cell{array.Float64(v)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	path := filepath.Join(t.TempDir(), "ext.csv")
	if err := insitu.WriteCSV(path, src); err != nil {
		t.Fatal(err)
	}

	// Three nodes, two-slab scheme: node 2 owns none of the file.
	tr := NewLocalWithOptions(3, LocalOptions{Stride: []int64{4, 4}, CacheBytes: 1 << 20})
	co := NewCoordinator(tr, 0)
	scheme := partition.Block{Nodes: 2, SplitDim: 0, High: 12}
	if err := co.RegisterInsitu("ext", path, "csv", schema, scheme); err != nil {
		t.Fatal(err)
	}

	n, err := co.Count("ext")
	if err != nil || n != 72 {
		t.Fatalf("count = %d, %v; want 72", n, err)
	}
	// A box scan crossing the slab boundary (node 0 owns x 1..6).
	box := array.Box{Lo: array.Coord{5, 2}, Hi: array.Coord{8, 4}}
	got, err := co.Scan("ext", box)
	if err != nil {
		t.Fatal(err)
	}
	if got.Count() != 4*3 {
		t.Fatalf("box scan count = %d; want 12", got.Count())
	}
	cell, ok := got.At(array.Coord{7, 3})
	if !ok || cell[0].Float != 703 {
		t.Fatalf("scan cell = %v, %v; want 703", cell, ok)
	}
	// Pushed-down aggregate over the whole file.
	agg, err := co.Aggregate("ext", array.Box{Lo: array.Coord{1, 1}, Hi: array.Coord{12, 6}}, "sum", "v", nil)
	if err != nil {
		t.Fatal(err)
	}
	total, ok := agg.At(array.Coord{1})
	if !ok || total[0].AsFloat() != sum {
		t.Fatalf("sum = %v, %v; want %v", total, ok, sum)
	}
	// Flush is a no-op for a read-through view; drop unregisters everywhere.
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
