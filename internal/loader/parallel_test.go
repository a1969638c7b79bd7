package loader

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"scidb/internal/array"
	"scidb/internal/cluster"
	"scidb/internal/insitu"
	"scidb/internal/partition"
	"scidb/internal/storage"
)

func gridSchema() *array.Schema {
	return &array.Schema{
		Name: "grid",
		Dims: []array.Dimension{
			{Name: "x", High: 40, ChunkLen: 8},
			{Name: "y", High: 20, ChunkLen: 8},
		},
		Attrs: []array.Attribute{{Name: "v", Type: array.TFloat64}},
	}
}

// writeGridCSV writes a sparse grid (two thirds of cells present) and
// returns the expected content as an array.
func writeGridCSV(t *testing.T) (string, *array.Array) {
	t.Helper()
	a := array.MustNew(gridSchema())
	for x := int64(1); x <= 40; x++ {
		for y := int64(1); y <= 20; y++ {
			if (x+y)%3 == 0 {
				continue
			}
			if err := a.Set(array.Coord{x, y}, array.Cell{array.Float64(float64(x*1000 + y))}); err != nil {
				t.Fatal(err)
			}
		}
	}
	path := filepath.Join(t.TempDir(), "grid.csv")
	if err := insitu.WriteCSV(path, a); err != nil {
		t.Fatal(err)
	}
	return path, a
}

func newSiteStores(t *testing.T, n int) []*storage.Store {
	t.Helper()
	stores := make([]*storage.Store, n)
	for i := range stores {
		st, err := storage.NewStore(gridSchema(), storage.Options{Stride: []int64{8, 8}})
		if err != nil {
			t.Fatal(err)
		}
		stores[i] = st
	}
	return stores
}

// scanAll drains a store's full content into a map keyed by coordinate.
func scanAll(t *testing.T, st *storage.Store) map[string]float64 {
	t.Helper()
	out := map[string]float64{}
	box := array.Box{Lo: array.Coord{1, 1}, Hi: array.Coord{40, 20}}
	if err := st.Scan(box, func(c array.Coord, cell array.Cell) bool {
		out[c.String()] = cell[0].Float
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestLoadParallelDeterministic: the parallel pipeline must produce content
// bit-identical to the serial cell-at-a-time loader, at parallelism 1 and 4
// alike — shard boundaries and ship order may differ, the cells may not.
func TestLoadParallelDeterministic(t *testing.T) {
	path, src := writeGridCSV(t)
	schema := gridSchema()
	scheme := partition.Block{Nodes: 3, SplitDim: 0, High: 40}
	box := array.Box{Lo: array.Coord{1, 1}, Hi: array.Coord{40, 20}}

	// Serial baseline.
	serial := newSiteStores(t, 3)
	ds, err := (insitu.CSVAdaptor{}).Open(path)
	if err != nil {
		t.Fatal(err)
	}
	sinks := make([]Sink, len(serial))
	for i, st := range serial {
		sinks[i] = StoreSink{st}
	}
	stSerial, err := Load(FromDataset(ds, box), scheme, sinks)
	ds.Close()
	if err != nil {
		t.Fatal(err)
	}
	if stSerial.Records != src.Count() {
		t.Fatalf("serial records = %d; want %d", stSerial.Records, src.Count())
	}

	for _, par := range []int{1, 4} {
		stores := newSiteStores(t, 3)
		ds, err := (insitu.CSVAdaptor{}).Open(path)
		if err != nil {
			t.Fatal(err)
		}
		st, err := LoadParallel(ds, box, schema, scheme, StoreDest{Schema: schema, Stores: stores},
			Options{Parallelism: par, BatchChunks: 4, Stride: []int64{8, 8}})
		ds.Close()
		if err != nil {
			t.Fatal(err)
		}
		if st.Records != stSerial.Records {
			t.Fatalf("par=%d records = %d; want %d", par, st.Records, stSerial.Records)
		}
		for i := range st.PerSite {
			if st.PerSite[i] != stSerial.PerSite[i] {
				t.Fatalf("par=%d per-site = %v; serial %v", par, st.PerSite, stSerial.PerSite)
			}
		}
		for i := range stores {
			got, want := scanAll(t, stores[i]), scanAll(t, serial[i])
			if len(got) != len(want) {
				t.Fatalf("par=%d site %d holds %d cells; serial %d", par, i, len(got), len(want))
			}
			for k, v := range want {
				if got[k] != v {
					t.Fatalf("par=%d site %d cell %s = %v; want %v", par, i, k, got[k], v)
				}
			}
		}
	}
}

// TestLoadParallelIntoCluster: the ClusterDest path ships batches over the
// loadchunks op and ends in the same state as a coordinator-routed load.
func TestLoadParallelIntoCluster(t *testing.T) {
	path, src := writeGridCSV(t)
	schema := gridSchema()
	scheme := partition.Block{Nodes: 2, SplitDim: 0, High: 40}
	box := array.Box{Lo: array.Coord{1, 1}, Hi: array.Coord{40, 20}}

	tr := cluster.NewLocalWithOptions(2, cluster.LocalOptions{
		Stride: []int64{8, 8}, CacheBytes: 1 << 20,
	})
	co := cluster.NewCoordinator(tr, 0)
	if err := co.Create("grid", schema, scheme); err != nil {
		t.Fatal(err)
	}
	ds, err := (insitu.CSVAdaptor{}).Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	st, err := LoadParallel(ds, box, schema, scheme, ClusterDest{Co: co, Array: "grid"},
		Options{Parallelism: 4, Stride: []int64{8, 8}})
	if err != nil {
		t.Fatal(err)
	}
	if st.Records != src.Count() {
		t.Fatalf("records = %d; want %d", st.Records, src.Count())
	}
	n, err := co.Count("grid")
	if err != nil || n != src.Count() {
		t.Fatalf("cluster count = %d, %v; want %d", n, err, src.Count())
	}
	got, err := co.Scan("grid", box)
	if err != nil {
		t.Fatal(err)
	}
	mismatch := false
	src.Iter(func(c array.Coord, want array.Cell) bool {
		cell, ok := got.At(c)
		if !ok || cell[0].Float != want[0].Float {
			t.Errorf("cell %v = %v, %v; want %v", c, cell, ok, want)
			mismatch = true
			return false
		}
		return true
	})
	if mismatch {
		t.FailNow()
	}
}

// TestLoadParallelStringsAreCopies loads a CSV several read buffers long,
// each line with its own string, and checks every stored string against
// the file's text: a string that aliased the scan's reused read buffer
// would hold a later line's bytes by the time the chunk is encoded.
func TestLoadParallelStringsAreCopies(t *testing.T) {
	const lines = 12000
	schema := &array.Schema{
		Name:  "tags",
		Dims:  []array.Dimension{{Name: "x", High: 3000, ChunkLen: 500}, {Name: "y", High: 4, ChunkLen: 4}},
		Attrs: []array.Attribute{{Name: "tag", Type: array.TString}, {Name: "v", Type: array.TFloat64}},
	}
	var sb strings.Builder
	sb.WriteString("# scidb-csv\n# dims: x:3000, y:4\n# attrs: tag:string, v:float\n")
	want := map[string]string{}
	for i := 0; i < lines; i++ {
		c := array.Coord{int64(i/4 + 1), int64(i%4 + 1)}
		tag := fmt.Sprintf("t%05d-%s", i, strings.Repeat(string(rune('a'+i%26)), i%37))
		want[c.String()] = tag
		fmt.Fprintf(&sb, "%d,%d,%s,%d.5\n", c[0], c[1], tag, i)
	}
	if sb.Len() < 4*64<<10 {
		t.Fatalf("file is %d bytes, want several read buffers", sb.Len())
	}
	path := filepath.Join(t.TempDir(), "tags.csv")
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	box := array.WholeBox(schema)
	scheme := partition.Block{Nodes: 2, SplitDim: 0, High: 3000}
	stride := []int64{500, 4}
	for _, par := range []int{1, 3} {
		ds, err := insitu.CSVAdaptor{}.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		stores := make([]*storage.Store, 2)
		for i := range stores {
			if stores[i], err = storage.NewStore(schema, storage.Options{Stride: stride}); err != nil {
				t.Fatal(err)
			}
		}
		st, err := LoadParallel(ds, box, schema, scheme, StoreDest{Schema: schema, Stores: stores},
			Options{Parallelism: par, Stride: stride})
		ds.Close()
		if err != nil || st.Records != lines {
			t.Fatalf("par=%d: loaded %d cells, %v; want %d", par, st.Records, err, lines)
		}
		n := 0
		for _, store := range stores {
			if err := store.Scan(box, func(c array.Coord, cell array.Cell) bool {
				n++
				if got := cell[0].Str; got != want[c.String()] {
					t.Fatalf("par=%d: cell %v holds %q, the file says %q", par, c, got, want[c.String()])
				}
				return true
			}); err != nil {
				t.Fatal(err)
			}
		}
		if n != lines {
			t.Fatalf("par=%d: stores hold %d cells, want %d", par, n, lines)
		}
	}
}

// TestLoadParallelAllocations pins the staging path: a cell is routed and
// set into its builder without a clone or a map key, so what a load
// allocates is per chunk, not per cell.
func TestLoadParallelAllocations(t *testing.T) {
	schema := &array.Schema{
		Name:  "big",
		Dims:  []array.Dimension{{Name: "x", High: 128, ChunkLen: 32}, {Name: "y", High: 128, ChunkLen: 32}},
		Attrs: []array.Attribute{{Name: "v", Type: array.TFloat64}},
	}
	src := array.MustNew(schema)
	if err := src.Fill(func(c array.Coord) array.Cell { return array.Cell{array.Float64(float64(c[0]*131 + c[1]))} }); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "big.sdf")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := insitu.WriteSDF(f, src); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	ds, err := insitu.SDFAdaptor{}.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	box := array.WholeBox(schema)
	scheme := partition.Block{Nodes: 2, SplitDim: 0, High: 128}
	stride := []int64{32, 32}
	allocs := testing.AllocsPerRun(3, func() {
		stores := make([]*storage.Store, 2)
		for i := range stores {
			if stores[i], err = storage.NewStore(schema, storage.Options{Stride: stride}); err != nil {
				t.Fatal(err)
			}
		}
		st, err := LoadParallel(ds, box, schema, scheme, StoreDest{Schema: schema, Stores: stores},
			Options{Parallelism: 1, Stride: stride})
		if err != nil || st.Records != src.Count() {
			t.Fatalf("loaded %d cells, %v; want %d", st.Records, err, src.Count())
		}
	})
	if per := allocs / float64(src.Count()); per > 0.2 {
		t.Errorf("LoadParallel: %.3f allocations per cell (%.0f in all), want ≤ 0.2", per, allocs)
	}
}

// failingSink flushes with an error but must not prevent later sinks from
// flushing.
type failingSink struct{ err error }

func (s failingSink) Put(array.Coord, array.Cell) error { return nil }
func (s failingSink) Flush() error                      { return s.err }

type flushRecorder struct{ flushed bool }

func (s *flushRecorder) Put(array.Coord, array.Cell) error { return nil }
func (s *flushRecorder) Flush() error                      { s.flushed = true; return nil }

// TestLoadFlushesEverySink: one site's flush failure must not strand the
// buffered substreams of the sites after it, and every flush error joins
// the returned error.
func TestLoadFlushesEverySink(t *testing.T) {
	errA := errors.New("site 0 disk full")
	errC := errors.New("site 2 link down")
	rec := &flushRecorder{}
	scheme := partition.Block{Nodes: 3, SplitDim: 0, High: 40}
	_, err := Load(FromSlice(nil), scheme, []Sink{failingSink{errA}, rec, failingSink{errC}})
	if !rec.flushed {
		t.Error("sink after the failing one was not flushed")
	}
	if !errors.Is(err, errA) || !errors.Is(err, errC) {
		t.Errorf("joined error = %v; want both %v and %v", err, errA, errC)
	}
}
