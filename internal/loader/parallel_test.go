package loader

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"scidb/internal/array"
	"scidb/internal/cluster"
	"scidb/internal/exec"
	"scidb/internal/insitu"
	"scidb/internal/ops"
	"scidb/internal/partition"
	"scidb/internal/storage"
)

func gridSchema(sideX, sideY int64) *array.Schema {
	return &array.Schema{
		Name: "grid",
		Dims: []array.Dimension{
			{Name: "x", High: sideX, ChunkLen: 8},
			{Name: "y", High: sideY, ChunkLen: 8},
		},
		Attrs: []array.Attribute{{Name: "v", Type: array.TFloat64}},
	}
}

// writeGridCSV writes a sparse grid over schema's bounds (two thirds of
// cells present) and returns the expected content as an array.
func writeGridCSV(t *testing.T, schema *array.Schema) (string, *array.Array) {
	t.Helper()
	a := array.MustNew(schema)
	for x := int64(1); x <= schema.Dims[0].High; x++ {
		for y := int64(1); y <= schema.Dims[1].High; y++ {
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

// setParallelism sizes the exec pool, and so the shard count, for the rest
// of the test.
func setParallelism(t *testing.T, n int) {
	old := exec.Parallelism()
	exec.SetParallelism(n)
	t.Cleanup(func() { exec.SetParallelism(old) })
}

// TestLoadParallelDeterministic: each site's store must hold exactly the
// cells insitu.Materialize reads from the file and the scheme routes there,
// at parallelism 1 and 4 alike — shard boundaries and ship order may differ,
// the cells may not. At stride 8 the 96×48 grid has 72 chunks, 24 per site,
// so one shard passes a site more than a 16-chunk batch.
func TestLoadParallelDeterministic(t *testing.T) {
	schema := gridSchema(96, 48)
	path, _ := writeGridCSV(t, schema)
	scheme := partition.Block{Nodes: 3, SplitDim: 0, High: 96}
	box := array.WholeBox(schema)

	ds, err := (insitu.CSVAdaptor{}).Open(path)
	if err != nil {
		t.Fatal(err)
	}
	want, err := insitu.Materialize(ds)
	ds.Close()
	if err != nil {
		t.Fatal(err)
	}
	wantSite := make([]map[string]float64, scheme.NumNodes())
	for i := range wantSite {
		wantSite[i] = map[string]float64{}
	}
	want.Iter(func(c array.Coord, cell array.Cell) bool {
		wantSite[scheme.NodeFor(c)][c.String()] = cell[0].Float
		return true
	})

	for _, par := range []int{1, 4} {
		setParallelism(t, par)
		stores := make([]*storage.Store, scheme.NumNodes())
		for i := range stores {
			if stores[i], err = storage.NewStore(schema, storage.Options{Stride: []int64{8, 8}}); err != nil {
				t.Fatal(err)
			}
		}
		ds, err := (insitu.CSVAdaptor{}).Open(path)
		if err != nil {
			t.Fatal(err)
		}
		st, err := LoadParallel(ds, box, schema, scheme, StoreDest{Stores: stores},
			Options{Stride: []int64{8, 8}})
		ds.Close()
		if err != nil {
			t.Fatal(err)
		}
		if st.Records != want.Count() {
			t.Fatalf("par=%d records = %d; want %d", par, st.Records, want.Count())
		}
		for i, store := range stores {
			if st.PerSite[i] != int64(len(wantSite[i])) {
				t.Fatalf("par=%d per-site = %v; site %d should get %d", par, st.PerSite, i, len(wantSite[i]))
			}
			got := map[string]float64{}
			if err := store.Scan(box, func(c array.Coord, cell array.Cell) bool {
				got[c.String()] = cell[0].Float
				return true
			}); err != nil {
				t.Fatal(err)
			}
			if len(got) != len(wantSite[i]) {
				t.Fatalf("par=%d site %d holds %d cells; want %d", par, i, len(got), len(wantSite[i]))
			}
			for k, v := range wantSite[i] {
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
	schema := gridSchema(40, 20)
	path, src := writeGridCSV(t, schema)
	scheme := partition.Block{Nodes: 2, SplitDim: 0, High: 40}
	box := array.Box{Lo: array.Coord{1, 1}, Hi: array.Coord{40, 20}}

	tr := cluster.NewLocalWithOptions(2, cluster.WorkerOptions{
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
	setParallelism(t, 4)
	st, err := LoadParallel(ds, box, schema, scheme, ClusterDest{Co: co, Array: "grid"},
		Options{Stride: []int64{8, 8}})
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
	got, _, _, _, err := co.Read(context.Background(), "grid", ops.Fragment{Box: box})
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
		setParallelism(t, par)
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
		st, err := LoadParallel(ds, box, schema, scheme, StoreDest{Stores: stores},
			Options{Stride: stride})
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
	setParallelism(t, 1)
	allocs := testing.AllocsPerRun(3, func() {
		stores := make([]*storage.Store, 2)
		for i := range stores {
			if stores[i], err = storage.NewStore(schema, storage.Options{Stride: stride}); err != nil {
				t.Fatal(err)
			}
		}
		st, err := LoadParallel(ds, box, schema, scheme, StoreDest{Stores: stores},
			Options{Stride: stride})
		if err != nil || st.Records != src.Count() {
			t.Fatalf("loaded %d cells, %v; want %d", st.Records, err, src.Count())
		}
	})
	if per := allocs / float64(src.Count()); per > 0.2 {
		t.Errorf("LoadParallel: %.3f allocations per cell (%.0f in all), want ≤ 0.2", per, allocs)
	}
}
