package insitu

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"scidb/internal/array"
)

func sampleArray(t *testing.T) *array.Array {
	t.Helper()
	s := &array.Schema{
		Name: "sample",
		Dims: []array.Dimension{{Name: "x", High: 4}, {Name: "y", High: 4}},
		Attrs: []array.Attribute{
			{Name: "v", Type: array.TFloat64},
			{Name: "n", Type: array.TInt64},
		},
	}
	a := array.MustNew(s)
	if err := a.Fill(func(c array.Coord) array.Cell {
		return array.Cell{array.Float64(float64(c[0]*10 + c[1])), array.Int64(c[0] * c[1])}
	}); err != nil {
		t.Fatal(err)
	}
	return a
}

func TestSDFRoundTrip(t *testing.T) {
	a := sampleArray(t)
	var buf bytes.Buffer
	if err := WriteSDF(&buf, a); err != nil {
		t.Fatal(err)
	}
	back, err := ReadSDF(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Schema.Name != "sample" || back.Count() != 16 {
		t.Fatalf("schema %q cells %d", back.Schema.Name, back.Count())
	}
	cell, ok := back.At(array.Coord{3, 2})
	if !ok || cell[0].Float != 32 || cell[1].Int != 6 {
		t.Errorf("cell = %v,%v", cell, ok)
	}
}

func TestSDFSelfDescribing(t *testing.T) {
	// An SDF file opens with no external schema — that is the point.
	a := sampleArray(t)
	path := filepath.Join(t.TempDir(), "a.sdf")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteSDF(f, a); err != nil {
		t.Fatal(err)
	}
	f.Close()
	ad, err := ByName("sdf")
	if err != nil {
		t.Fatal(err)
	}
	ds, err := ad.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	if len(ds.Schema().Dims) != 2 || len(ds.Schema().Attrs) != 2 {
		t.Errorf("recovered schema = %s", ds.Schema())
	}
	n := 0
	_ = Scan(ds, array.NewBox(array.Coord{1, 1}, array.Coord{2, 2}), func(c array.Coord, cell array.Cell) bool {
		n++
		return true
	})
	if n != 4 {
		t.Errorf("box scan saw %d cells, want 4", n)
	}
}

func TestSDFRejectsGarbage(t *testing.T) {
	if _, err := ReadSDF(bytes.NewReader([]byte("not sdf at all"))); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := ReadSDF(bytes.NewReader([]byte("SD"))); err == nil {
		t.Error("truncated magic accepted")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	a := sampleArray(t)
	path := filepath.Join(t.TempDir(), "a.csv")
	if err := WriteCSV(path, a); err != nil {
		t.Fatal(err)
	}
	ad, _ := ByName("csv")
	ds, err := ad.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	s := ds.Schema()
	if s.Dims[0].Name != "x" || s.Attrs[1].Name != "n" || s.Attrs[1].Type != array.TInt64 {
		t.Errorf("schema = %s", s)
	}
	// In-situ box scan without materializing.
	var got []float64
	err = Scan(ds, array.NewBox(array.Coord{2, 2}, array.Coord{2, 3}), func(c array.Coord, cell array.Cell) bool {
		got = append(got, cell[0].Float)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != 22 || got[1] != 23 {
		t.Errorf("scan = %v", got)
	}
	// Materialize equals the original.
	m, err := Materialize(ds)
	if err != nil {
		t.Fatal(err)
	}
	if m.Count() != 16 {
		t.Errorf("materialized cells = %d", m.Count())
	}
}

func TestCSVNullsAndUncertain(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "u.csv")
	content := "# scidb-csv\n# dims: i\n# attrs: v:float\n1,3.5±0.2\n2,NULL\n3,7\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	ds, err := (CSVAdaptor{}).Open(path)
	if err != nil {
		t.Fatal(err)
	}
	var cells []array.Cell
	_ = Scan(ds, array.NewBox(array.Coord{1}, array.Coord{10}), func(c array.Coord, cell array.Cell) bool {
		cells = append(cells, cell.Clone())
		return true
	})
	if len(cells) != 3 {
		t.Fatalf("cells = %d", len(cells))
	}
	if cells[0][0].Float != 3.5 || cells[0][0].Sigma != 0.2 {
		t.Errorf("uncertain = %v", cells[0][0])
	}
	if !cells[1][0].Null {
		t.Error("NULL lost")
	}
	if cells[2][0].Float != 7 {
		t.Errorf("plain = %v", cells[2][0])
	}
}

func TestCSVErrors(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.csv")
	_ = os.WriteFile(bad, []byte("no marker\n"), 0o644)
	if _, err := (CSVAdaptor{}).Open(bad); err == nil {
		t.Error("missing marker accepted")
	}
	short := filepath.Join(dir, "short.csv")
	_ = os.WriteFile(short, []byte("# scidb-csv\n# dims: i\n# attrs: v:float\n1\n"), 0o644)
	ds, err := (CSVAdaptor{}).Open(short)
	if err != nil {
		t.Fatal(err)
	}
	if err := Scan(ds, array.NewBox(array.Coord{1}, array.Coord{5}), func(array.Coord, array.Cell) bool { return true }); err == nil {
		t.Error("short row accepted")
	}
	badv := filepath.Join(dir, "badv.csv")
	_ = os.WriteFile(badv, []byte("# scidb-csv\n# dims: i\n# attrs: v:float\n1,notafloat\n"), 0o644)
	ds, _ = (CSVAdaptor{}).Open(badv)
	if err := Scan(ds, array.NewBox(array.Coord{1}, array.Coord{5}), func(array.Coord, array.Cell) bool { return true }); err == nil {
		t.Error("bad value accepted")
	}
	if _, err := (CSVAdaptor{}).Open(filepath.Join(dir, "missing.csv")); err == nil {
		t.Error("missing file accepted")
	}
}

func TestNCLRoundTrip(t *testing.T) {
	a := sampleArray(t)
	path := filepath.Join(t.TempDir(), "a.ncl")
	if err := WriteNCL(path, a); err != nil {
		t.Fatal(err)
	}
	ad, _ := ByName("ncl")
	ds, err := ad.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	s := ds.Schema()
	if s.Dims[0].High != 4 || s.Dims[1].High != 4 {
		t.Errorf("dims = %v", s.Dims)
	}
	// Random-access box scan reads only the box.
	var sum float64
	err = Scan(ds, array.NewBox(array.Coord{4, 4}, array.Coord{4, 4}), func(c array.Coord, cell array.Cell) bool {
		sum += cell[0].Float
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum != 44 {
		t.Errorf("cell(4,4) = %v, want 44", sum)
	}
	// Int variable round-trips.
	_ = Scan(ds, array.NewBox(array.Coord{2, 3}, array.Coord{2, 3}), func(c array.Coord, cell array.Cell) bool {
		if cell[1].Int != 6 {
			t.Errorf("int var = %v, want 6", cell[1])
		}
		return true
	})
}

func TestNCLRejectsStrings(t *testing.T) {
	s := &array.Schema{
		Name:  "s",
		Dims:  []array.Dimension{{Name: "i", High: 2}},
		Attrs: []array.Attribute{{Name: "t", Type: array.TString}},
	}
	a := array.MustNew(s)
	if err := WriteNCL(filepath.Join(t.TempDir(), "x.ncl"), a); err == nil {
		t.Error("string variable accepted")
	}
}

func TestNCLGarbage(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.ncl")
	_ = os.WriteFile(path, []byte("garbage"), 0o644)
	if _, err := (NCLAdaptor{}).Open(path); err == nil {
		t.Error("garbage NCL accepted")
	}
}

func TestByNameUnknown(t *testing.T) {
	if _, err := ByName("hdf5"); err == nil {
		t.Error("unknown adaptor accepted")
	}
	for _, n := range []string{"sdf", "csv", "ncl"} {
		a, err := ByName(n)
		if err != nil || a.Name() != n {
			t.Errorf("ByName(%q) = %v,%v", n, a, err)
		}
	}
}

func TestScanEarlyStopCSVAndNCL(t *testing.T) {
	a := sampleArray(t)
	dir := t.TempDir()
	csvPath := filepath.Join(dir, "a.csv")
	nclPath := filepath.Join(dir, "a.ncl")
	_ = WriteCSV(csvPath, a)
	_ = WriteNCL(nclPath, a)
	for _, tc := range []struct {
		name string
		open func() (Dataset, error)
	}{
		{"csv", func() (Dataset, error) { return (CSVAdaptor{}).Open(csvPath) }},
		{"ncl", func() (Dataset, error) { return (NCLAdaptor{}).Open(nclPath) }},
	} {
		ds, err := tc.open()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		n := 0
		_ = Scan(ds, array.NewBox(array.Coord{1, 1}, array.Coord{4, 4}), func(array.Coord, array.Cell) bool {
			n++
			return n < 3
		})
		ds.Close()
		if n != 3 {
			t.Errorf("%s early stop visited %d", tc.name, n)
		}
	}
}
