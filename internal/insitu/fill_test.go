package insitu

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"scidb/internal/array"
	"scidb/internal/exec"
	"scidb/internal/storage"
)

// TestFillMatchesMaterialize: a fill leaves in the store exactly the cells
// Materialize reads from the file inside the box — through every adaptor,
// over a box narrower than the file, on a stride that divides neither the
// box nor the file, at parallelism 1 and 4 — and every bucket it writes
// lies on the store's stride grid. What Materialize reads is the source
// array's cells in the box.
func TestFillMatchesMaterialize(t *testing.T) {
	s := &array.Schema{
		Name: "fill",
		Dims: []array.Dimension{{Name: "x", High: 30}, {Name: "y", High: 20}},
		Attrs: []array.Attribute{
			{Name: "v", Type: array.TFloat64},
			{Name: "n", Type: array.TInt64},
		},
	}
	src := array.MustNew(s)
	for x := int64(1); x <= 30; x++ {
		for y := int64(1); y <= 20; y++ {
			if (x+y)%4 == 0 {
				continue
			}
			if err := src.Set(array.Coord{x, y}, array.Cell{array.Float64(float64(x) + float64(y)/7), array.Int64(x * y)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	dir := t.TempDir()
	paths := map[string]string{}
	for _, name := range []string{"csv", "ncl", "sdf"} {
		paths[name] = filepath.Join(dir, "fill."+name)
	}
	if err := WriteCSV(paths["csv"], src); err != nil {
		t.Fatal(err)
	}
	if err := WriteNCL(paths["ncl"], src); err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(paths["sdf"])
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteSDF(f, src); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	box := array.NewBox(array.Coord{3, 2}, array.Coord{27, 17})
	stride := []int64{7, 5}
	old := exec.Parallelism()
	defer exec.SetParallelism(old)
	for _, name := range []string{"csv", "ncl", "sdf"} {
		for _, par := range []int{1, 4} {
			exec.SetParallelism(par)
			ad, err := ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			ds, err := ad.Open(paths[name])
			if err != nil {
				t.Fatal(err)
			}
			all, err := Materialize(ds)
			if err != nil {
				t.Fatal(err)
			}
			want := map[string]string{}
			all.Iter(func(c array.Coord, cell array.Cell) bool {
				if box.Contains(c) {
					want[c.String()] = fmt.Sprint(cell)
				}
				return true
			})
			// Materialize runs the format's fill body too, so it is held to
			// the array the files were written from, restricted to the box.
			// NCL is dense: it writes an absent cell as zeros.
			ref := map[string]string{}
			array.IterBox(box, func(c array.Coord) bool {
				cell, ok := src.At(c)
				if !ok && name == "ncl" {
					cell, ok = array.Cell{array.Float64(0), array.Int64(0)}, true
				}
				if ok {
					ref[c.String()] = fmt.Sprint(cell)
				}
				return true
			})
			if len(want) != len(ref) {
				t.Fatalf("%s par=%d: Materialize read %d cells in the box, the source holds %d", name, par, len(want), len(ref))
			}
			for k, v := range ref {
				if want[k] != v {
					t.Fatalf("%s par=%d: Materialize read cell %s = %q, the source holds %q", name, par, k, want[k], v)
				}
			}
			st, err := storage.NewStore(ds.Schema(), storage.Options{Stride: stride})
			if err != nil {
				t.Fatal(err)
			}
			n, err := Fill(ds, box, st)
			ds.Close()
			if err != nil {
				t.Fatalf("%s par=%d: fill: %v", name, par, err)
			}
			if n != int64(len(want)) {
				t.Errorf("%s par=%d: fill copied %d cells, want %d", name, par, n, len(want))
			}
			got := map[string]string{}
			whole := array.WholeBox(ds.Schema())
			if err := st.Scan(whole, func(c array.Coord, cell array.Cell) bool {
				got[c.String()] = fmt.Sprint(cell)
				return true
			}); err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Errorf("%s par=%d: store holds %d cells, want %d", name, par, len(got), len(want))
			}
			for k, v := range want {
				if got[k] != v {
					t.Fatalf("%s par=%d: cell %s = %q, want %q", name, par, k, got[k], v)
				}
			}
			if err := st.ScanChunks(whole, nil, []int{}).Each(func(lc storage.LiveChunk) error {
				ch := lc.Chunk
				for i, o := range ch.Origin {
					if (o-1)%stride[i] != 0 || ch.Shape[i] > stride[i] {
						return fmt.Errorf("bucket at %v shape %v is off the %v grid", ch.Origin, ch.Shape, stride)
					}
				}
				return nil
			}); err != nil {
				t.Errorf("%s par=%d: %v", name, par, err)
			}
			st.Close()
		}
	}
}

// TestPipelineBatchKeepsChunksWhole: cells in chunk order through a Batch
// of 2 ship every chunk whole — the cell that would open a builder's third
// chunk ships the two it holds first — so five chunks make five payloads
// of ten cells each.
func TestPipelineBatchKeepsChunksWhole(t *testing.T) {
	s := &array.Schema{
		Name:  "batch",
		Dims:  []array.Dimension{{Name: "x", High: 50}},
		Attrs: []array.Attribute{{Name: "v", Type: array.TFloat64}},
	}
	src := array.MustNew(s)
	for x := int64(1); x <= 50; x++ {
		if err := src.Set(array.Coord{x}, array.Cell{array.Float64(float64(x) / 4)}); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(t.TempDir(), "batch.csv")
	if err := WriteCSV(path, src); err != nil {
		t.Fatal(err)
	}
	ds, err := CSVAdaptor{}.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	old := exec.Parallelism()
	defer exec.SetParallelism(old)
	exec.SetParallelism(1)
	var chunks []*array.Chunk
	_, err = Pipeline{
		Schema: s,
		Stride: []int64{10},
		Sites:  1,
		Route:  func(array.Coord) int { return 0 },
		Batch:  2,
		Ship: func(_ int, payloads [][]byte, _ int64) error {
			for _, p := range payloads {
				ch, err := storage.DecodeChunk(s, p)
				if err != nil {
					return err
				}
				chunks = append(chunks, ch)
			}
			return nil
		},
	}.Run(ds, array.WholeBox(s))
	if err != nil {
		t.Fatal(err)
	}
	if len(chunks) != 5 {
		t.Errorf("shipped %d payloads, want 5", len(chunks))
	}
	for _, ch := range chunks {
		if n := ch.CellsPresent(); n != 10 {
			t.Errorf("payload at %v holds %d cells, want its whole chunk of 10", ch.Origin, n)
		}
	}
}
