package insitu

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"scidb/internal/array"
)

// splitCSVRecord is the line parser parseCSVLine replaced: strings.Split
// and a fresh Coord and Cell per line. It stays here as FuzzCSVLine's
// oracle.
func splitCSVRecord(schema *array.Schema, rawLine string) (array.Coord, array.Cell, bool, error) {
	line := strings.TrimSpace(rawLine)
	if line == "" || strings.HasPrefix(line, "#") {
		return nil, nil, false, nil
	}
	nd, na := len(schema.Dims), len(schema.Attrs)
	fields := strings.Split(line, ",")
	if len(fields) != nd+na {
		return nil, nil, false, fmt.Errorf("%d fields, want %d", len(fields), nd+na)
	}
	c := make(array.Coord, nd)
	for i := 0; i < nd; i++ {
		v, err := strconv.ParseInt(strings.TrimSpace(fields[i]), 10, 64)
		if err != nil {
			return nil, nil, false, fmt.Errorf("bad coordinate %q", fields[i])
		}
		c[i] = v
	}
	cell := make(array.Cell, na)
	for i := 0; i < na; i++ {
		v, err := parseCSVValue(strings.TrimSpace(fields[nd+i]), schema.Attrs[i].Type)
		if err != nil {
			return nil, nil, false, err
		}
		cell[i] = v
	}
	return c, cell, true, nil
}

// sameValue compares two parsed values field by field, floats by their bits
// so a NaN equals itself.
func sameValue(a, b array.Value) bool {
	return a.Type == b.Type && a.Null == b.Null && a.Int == b.Int && a.Str == b.Str && a.Bool == b.Bool &&
		math.Float64bits(a.Float) == math.Float64bits(b.Float) &&
		math.Float64bits(a.Sigma) == math.Float64bits(b.Sigma)
}

// fuzzSchema builds a schema of 1–3 dimensions and one attribute per byte
// of types (int, float, bool or string by the byte's low bits).
func fuzzSchema(nDims uint8, types []byte) *array.Schema {
	s := &array.Schema{Name: "f"}
	for i := 0; i < int(nDims%3)+1; i++ {
		s.Dims = append(s.Dims, array.Dimension{Name: fmt.Sprintf("d%d", i), High: array.Unbounded})
	}
	kinds := []array.Type{array.TInt64, array.TFloat64, array.TBool, array.TString}
	for i, b := range types {
		s.Attrs = append(s.Attrs, array.Attribute{Name: fmt.Sprintf("a%d", i), Type: kinds[b%4]})
	}
	return s
}

// FuzzCSVLine holds parseCSVLine to the Split-based parser it replaced: on
// any line and schema both agree on whether the line is data, whether it
// fails, and on every coordinate and value (NULL and ± included) — even
// when the reused Coord and Cell still hold the previous line's record.
func FuzzCSVLine(f *testing.F) {
	f.Add("1,2,3.5±0.2,hello", uint8(1), []byte{1, 3})
	f.Add(" 4 , 5 ,NULL, ", uint8(1), []byte{1, 3})
	f.Add("7,,true", uint8(0), []byte{0, 2})
	f.Add("# dims: x", uint8(0), []byte{1})
	f.Add("", uint8(2), []byte{})
	f.Add("1,2", uint8(0), []byte{1, 1})
	f.Add("x,1.0", uint8(0), []byte{1})
	f.Add("3,NaN±Inf", uint8(0), []byte{1})
	f.Add("9223372036854775807,-1e308,a,b", uint8(0), []byte{1, 3, 3})
	f.Fuzz(func(t *testing.T, line string, nDims uint8, types []byte) {
		if len(types) > 8 {
			t.Skip()
		}
		s := fuzzSchema(nDims, types)
		c, cell := newRecord(s)
		// Stale contents: a field the parser forgot to write would show.
		for i := range c {
			c[i] = -7
		}
		for i := range cell {
			cell[i] = array.String64("stale")
		}
		ok, err := parseCSVLine(s, line, c, cell)
		wantC, wantCell, wantOK, wantErr := splitCSVRecord(s, line)
		if (err != nil) != (wantErr != nil) || ok != wantOK {
			t.Fatalf("%q: got ok=%v err=%v, oracle ok=%v err=%v", line, ok, err, wantOK, wantErr)
		}
		if err != nil {
			if err.Error() != wantErr.Error() {
				t.Fatalf("%q: error %q, oracle %q", line, err, wantErr)
			}
			return
		}
		if !ok {
			return
		}
		for i := range wantC {
			if c[i] != wantC[i] {
				t.Fatalf("%q: coord %v, oracle %v", line, c, wantC)
			}
		}
		for i := range wantCell {
			if !sameValue(cell[i], wantCell[i]) {
				t.Fatalf("%q: attribute %d = %#v, oracle %#v", line, i, cell[i], wantCell[i])
			}
		}
	})
}

// TestCSVShardScanAllocations pins the line parser's cost: a shard scan
// allocates the line it reads and nothing else per line.
func TestCSVShardScanAllocations(t *testing.T) {
	const lines = 10000
	var sb strings.Builder
	sb.WriteString("# scidb-csv\n# dims: x:10000, y:4\n# attrs: v:float, n:int, tag:string\n")
	for i := 1; i <= lines; i++ {
		fmt.Fprintf(&sb, "%d,%d,%g,%d,t%d\n", i, i%4+1, float64(i)*0.25, i*3, i%5)
	}
	path := filepath.Join(t.TempDir(), "allocs.csv")
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	ds, err := CSVAdaptor{}.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	sh := &csvShard{path: path, schema: ds.Schema(), start: 0, end: int64(sb.Len())}
	box := array.WholeBox(ds.Schema())
	var n int
	allocs := testing.AllocsPerRun(5, func() {
		n = 0
		if err := sh.Scan(box, func(array.Coord, array.Cell) bool { n++; return true }); err != nil {
			t.Fatal(err)
		}
	})
	if n != lines {
		t.Fatalf("scanned %d cells, want %d", n, lines)
	}
	if per := allocs / lines; per > 1.1 {
		t.Errorf("csvShard scan: %.2f allocations per line, want ≤ 1.1", per)
	}
}
