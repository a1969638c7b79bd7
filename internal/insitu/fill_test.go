package insitu

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"

	"scidb/internal/array"
	"scidb/internal/exec"
	"scidb/internal/storage"
)

// TestFillMatchesMaterialize: a fill leaves in the store exactly the cells
// Materialize reads from the file inside the box — through every adaptor,
// over a box narrower than the file, on a grid that divides neither the
// box nor the file, at parallelism 1 and 4 — and every bucket it writes
// lies on the store's grid. What Materialize reads is the source
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
			grid := ds.Schema().Clone()
			grid.Dims[0].ChunkLen, grid.Dims[1].ChunkLen = stride[0], stride[1]
			st, err := storage.NewStore(grid, storage.Options{})
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
		Dims:  []array.Dimension{{Name: "x", High: 50, ChunkLen: 10}},
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
		Sites:  1,
		Route:  func(array.Coord) int { return 0 },
		Batch:  2,
		Ship: func(_ int, payloads [][]byte) error {
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

// TestPipelineSealsSitesEndsTogether: sparse input over three sites, cut
// into four shards, leaves every site chunks no shard made whole, which the
// end of Run seals — a site per pool task. Ship holds each call until as
// many calls as there are sites are in flight (or a timeout passes), and the
// last batch of each site, the end pass's, must have met the other two.
func TestPipelineSealsSitesEndsTogether(t *testing.T) {
	const sites = 3
	s := &array.Schema{
		Name:  "ends",
		Dims:  []array.Dimension{{Name: "x", High: 40, ChunkLen: 10}, {Name: "y", High: 30, ChunkLen: 10}},
		Attrs: []array.Attribute{{Name: "v", Type: array.TInt64}},
	}
	src := array.MustNew(s)
	for x := int64(1); x <= 40; x++ {
		for y := int64(1); y <= 30; y++ {
			if (x+y)%5 != 0 {
				if err := src.Set(array.Coord{x, y}, array.Cell{array.Int64(x*100 + y)}); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	path := filepath.Join(t.TempDir(), "ends.csv")
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
	exec.SetParallelism(4)

	type call struct {
		site     int
		start    time.Time
		together bool
	}
	var (
		mu     sync.Mutex
		calls  []*call
		active = map[*call]bool{}
		cells  int64
	)
	n, err := Pipeline{
		Schema: s,
		Sites:  sites,
		Route:  func(c array.Coord) int { return int((c[1]-1)/10) % sites },
		Batch:  100,
		Ship: func(site int, payloads [][]byte) error {
			var n int64
			for _, p := range payloads {
				ch, err := storage.DecodeChunk(s, p)
				if err != nil {
					return err
				}
				n += ch.CellsPresent()
			}
			c := &call{site: site, start: time.Now()}
			mu.Lock()
			calls, active[c], cells = append(calls, c), true, cells+n
			if len(active) >= sites {
				for a := range active {
					a.together = true
				}
			}
			mu.Unlock()
			for deadline := time.Now().Add(500 * time.Millisecond); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
				mu.Lock()
				met := c.together
				mu.Unlock()
				if met {
					break
				}
			}
			mu.Lock()
			delete(active, c)
			mu.Unlock()
			return nil
		},
	}.Run(ds, array.WholeBox(s))
	if err != nil {
		t.Fatal(err)
	}
	if cells != src.Count() || n.PerSite[0]+n.PerSite[1]+n.PerSite[2] != src.Count() {
		t.Fatalf("shipped %d cells, routed %v, want %d", cells, n.PerSite, src.Count())
	}
	slices.SortFunc(calls, func(a, b *call) int { return a.start.Compare(b.start) })
	if len(calls) < sites {
		t.Fatalf("%d ship calls, want the end pass's %d at least", len(calls), sites)
	}
	seen := map[int]bool{}
	for _, c := range calls[len(calls)-sites:] {
		seen[c.site] = true
		if !c.together {
			t.Errorf("site %d's end batch shipped alone", c.site)
		}
	}
	if len(seen) != sites {
		t.Errorf("the last %d batches went to sites %v, want one each", sites, seen)
	}
}
