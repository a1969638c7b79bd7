package insitu

import (
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"scidb/internal/array"
)

// collect scans ds over box and returns coord-key → rendered cell,
// failing on duplicate delivery (shards must partition, not overlap).
func collect(t *testing.T, ds Dataset, box array.Box) map[string]string {
	t.Helper()
	out := map[string]string{}
	err := Scan(ds, box, func(c array.Coord, cell array.Cell) bool {
		k := c.Key()
		if _, dup := out[k]; dup {
			t.Fatalf("cell %v delivered twice", c)
		}
		out[k] = fmt.Sprint(cell)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// assertShardsPartition splits ds n ways and checks the shard union equals
// the whole-dataset scan with no overlaps.
func assertShardsPartition(t *testing.T, ds Dataset, n int) {
	t.Helper()
	box := array.WholeBox(ds.Schema())
	whole := collect(t, ds, box)
	shards, err := Split(ds, n)
	if err != nil {
		t.Fatal(err)
	}
	union := map[string]string{}
	for si, sh := range shards {
		for k, v := range collect(t, sh, box) {
			if _, dup := union[k]; dup {
				t.Fatalf("n=%d: cell %s in two shards (second: shard %d)", n, k, si)
			}
			union[k] = v
		}
	}
	if len(union) != len(whole) {
		t.Fatalf("n=%d: shard union has %d cells, whole scan %d", n, len(union), len(whole))
	}
	for k, v := range whole {
		if union[k] != v {
			t.Fatalf("n=%d: cell %s = %q via shards, %q via whole scan", n, k, union[k], v)
		}
	}
}

func writeTestCSV(t *testing.T, lines []string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "data.csv")
	hdr := "# scidb-csv\n# dims: x, y\n# attrs: v:float, tag:string\n"
	if err := os.WriteFile(path, []byte(hdr+strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCSVShardsPartition(t *testing.T) {
	// Deliberately ragged line lengths so byte-range cuts land mid-line,
	// at line starts, and inside the header.
	var lines []string
	for i := 1; i <= 57; i++ {
		lines = append(lines, fmt.Sprintf("%d,%d,%g,%s", i, i%7+1, float64(i)*1.25, strings.Repeat("s", i%11)))
	}
	path := writeTestCSV(t, lines)
	ds, err := CSVAdaptor{}.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	for _, n := range []int{1, 2, 3, 4, 7, 16, 1000} {
		assertShardsPartition(t, ds, n)
	}
}

func TestCSVShardBoundaryAtNewline(t *testing.T) {
	// Craft a file where a shard boundary falls exactly on a '\n' and
	// exactly on a line's first byte: equal-length lines make the cut
	// positions predictable.
	var lines []string
	for i := 1; i <= 8; i++ {
		lines = append(lines, fmt.Sprintf("%d,1,5.0,aa", i)) // 10 bytes + \n
	}
	path := writeTestCSV(t, lines)
	ds, err := CSVAdaptor{}.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	for n := 1; n <= int(fi.Size()); n++ {
		assertShardsPartition(t, ds, n)
	}
}

// A line past bufio.Scanner's 64 KiB token limit reads alike through the
// whole-file scan and through one or four byte-range shards.
func TestCSVLongLine(t *testing.T) {
	path := writeTestCSV(t, []string{"1,1,0.5," + strings.Repeat("s", 70000), "2,1,1.5,short"})
	ds, err := CSVAdaptor{}.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	box := array.WholeBox(ds.Schema())
	whole := collect(t, ds, box)
	if len(whole) != 2 {
		t.Fatalf("whole scan read %d cells, want 2", len(whole))
	}
	for _, n := range []int{1, 4} {
		shards, err := ds.(Sharder).Shards(n)
		if err != nil {
			t.Fatal(err)
		}
		union := map[string]string{}
		for _, sh := range shards {
			maps.Copy(union, collect(t, sh, box))
		}
		if !maps.Equal(union, whole) {
			t.Errorf("%d shards read %d cells unlike the whole scan's %d", n, len(union), len(whole))
		}
	}
}

func TestNCLShardsPartition(t *testing.T) {
	s := &array.Schema{
		Name:  "grid",
		Dims:  []array.Dimension{{Name: "x", High: 12}, {Name: "y", High: 5}},
		Attrs: []array.Attribute{{Name: "v", Type: array.TFloat64}, {Name: "k", Type: array.TInt64}},
	}
	a, err := array.New(s)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 12; i++ {
		for j := int64(1); j <= 5; j++ {
			if err := a.Set(array.Coord{i, j}, array.Cell{array.Float64(float64(i * j)), array.Int64(i - j)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	path := filepath.Join(t.TempDir(), "grid.ncl")
	if err := WriteNCL(path, a); err != nil {
		t.Fatal(err)
	}
	ds, err := NCLAdaptor{}.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	for _, n := range []int{1, 2, 3, 5, 12, 40} {
		assertShardsPartition(t, ds, n)
	}
}

func TestSDFShardsPartition(t *testing.T) {
	s := &array.Schema{
		Name:  "sdf",
		Dims:  []array.Dimension{{Name: "x", High: 16, ChunkLen: 4}, {Name: "y", High: 16, ChunkLen: 4}},
		Attrs: []array.Attribute{{Name: "v", Type: array.TFloat64}},
	}
	a, err := array.New(s)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 16; i += 3 {
		for j := int64(1); j <= 16; j++ {
			if err := a.Set(array.Coord{i, j}, array.Cell{array.Float64(float64(i + j))}); err != nil {
				t.Fatal(err)
			}
		}
	}
	path := filepath.Join(t.TempDir(), "a.sdf")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteSDF(f, a); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	ds, err := SDFAdaptor{}.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	for _, n := range []int{1, 2, 4, 9, 100} {
		assertShardsPartition(t, ds, n)
	}
}

func TestSplitRangesCover(t *testing.T) {
	for size := int64(0); size <= 40; size++ {
		for n := 1; n <= 45; n++ {
			ranges := splitRanges(size, n)
			var covered int64
			prev := int64(0)
			for _, r := range ranges {
				if r[0] != prev {
					t.Fatalf("size=%d n=%d: gap before %v", size, n, r)
				}
				if r[1] <= r[0] {
					t.Fatalf("size=%d n=%d: empty range %v", size, n, r)
				}
				covered += r[1] - r[0]
				prev = r[1]
			}
			if covered != size {
				t.Fatalf("size=%d n=%d: ranges cover %d bytes", size, n, covered)
			}
		}
	}
}

// FuzzCSVShardSplit drives the shard boundary logic with arbitrary line
// lengths and shard counts: the union of all shard scans must equal the
// whole-file scan, with every line delivered exactly once.
func FuzzCSVShardSplit(f *testing.F) {
	f.Add([]byte{3, 0, 10, 200}, uint8(3))
	f.Add([]byte{1}, uint8(1))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0}, uint8(8))
	f.Fuzz(func(t *testing.T, widths []byte, nShards uint8) {
		if len(widths) == 0 || len(widths) > 64 {
			t.Skip()
		}
		n := int(nShards)%32 + 1
		var sb strings.Builder
		sb.WriteString("# scidb-csv\n# dims: x\n# attrs: v:float, tag:string\n")
		for i, wb := range widths {
			// One data line per input byte; the byte sets the tag width so
			// line lengths (and therefore cut positions) vary freely.
			fmt.Fprintf(&sb, "%d,%g,%s\n", i+1, float64(i)*0.5, strings.Repeat("x", int(wb)%29))
		}
		path := filepath.Join(t.TempDir(), "fuzz.csv")
		if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		ds, err := CSVAdaptor{}.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer ds.Close()
		box := array.WholeBox(ds.Schema())
		whole := map[string]string{}
		if err := Scan(ds, box, func(c array.Coord, cell array.Cell) bool {
			whole[c.Key()] = fmt.Sprint(cell)
			return true
		}); err != nil {
			t.Fatal(err)
		}
		shards, err := Split(ds, n)
		if err != nil {
			t.Fatal(err)
		}
		union := map[string]string{}
		for _, sh := range shards {
			if err := Scan(sh, box, func(c array.Coord, cell array.Cell) bool {
				k := c.Key()
				if _, dup := union[k]; dup {
					t.Fatalf("n=%d: cell %s delivered by two shards", n, k)
				}
				union[k] = fmt.Sprint(cell)
				return true
			}); err != nil {
				t.Fatal(err)
			}
		}
		if len(union) != len(whole) {
			t.Fatalf("n=%d: shards delivered %d cells, whole scan %d", n, len(union), len(whole))
		}
		for k, v := range whole {
			if union[k] != v {
				t.Fatalf("n=%d: cell %s = %q via shards, %q whole", n, k, union[k], v)
			}
		}
	})
}
