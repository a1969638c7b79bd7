package insitu

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"scidb/internal/array"
	"scidb/internal/exec"
	"scidb/internal/storage"
)

// splitCSVRecord is the line parser parseCSVLine replaced: strings.Split
// and a fresh Coord and Cell per line, every number through strconv. It
// stays here as FuzzCSVLine's oracle.
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
		v, err := splitCSVValue(strings.TrimSpace(fields[nd+i]), schema.Attrs[i].Type)
		if err != nil {
			return nil, nil, false, err
		}
		cell[i] = v
	}
	return c, cell, true, nil
}

// splitCSVValue is the string value parser parseCSVValue replaced, on
// strconv alone so that the oracle never runs the float kernel it checks.
func splitCSVValue(raw string, t array.Type) (array.Value, error) {
	if raw == "" || raw == "NULL" {
		return array.NullValue(t), nil
	}
	switch t {
	case array.TInt64:
		v, err := strconv.ParseInt(raw, 10, 64)
		if err != nil {
			return array.Value{}, fmt.Errorf("bad int %q", raw)
		}
		return array.Int64(v), nil
	case array.TFloat64:
		if i := strings.IndexRune(raw, '±'); i >= 0 {
			m, err1 := strconv.ParseFloat(raw[:i], 64)
			s, err2 := strconv.ParseFloat(raw[i+len("±"):], 64)
			if err1 != nil || err2 != nil {
				return array.Value{}, fmt.Errorf("bad uncertain float %q", raw)
			}
			return array.UncertainFloat(m, s), nil
		}
		v, err := strconv.ParseFloat(raw, 64)
		if err != nil {
			return array.Value{}, fmt.Errorf("bad float %q", raw)
		}
		return array.Float64(v), nil
	case array.TBool:
		v, err := strconv.ParseBool(raw)
		if err != nil {
			return array.Value{}, fmt.Errorf("bad bool %q", raw)
		}
		return array.Bool64(v), nil
	case array.TString:
		return array.String64(raw), nil
	}
	return array.Value{}, fmt.Errorf("unsupported CSV type")
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

// staleValues are what a row holds before FuzzCSVLine parses into it: a
// previous line's values, one per attribute type.
var staleValues = map[array.Type]array.Value{
	array.TInt64:   array.Int64(-99),
	array.TFloat64: array.UncertainFloat(-3.25, 1),
	array.TBool:    array.Bool64(true),
	array.TString:  array.String64("stale"),
}

// FuzzCSVLine holds parseCSVLine to the Split-based parser it replaced: on
// any line and schema both agree on whether the line is data, whether it
// fails, and on every coordinate; for a data line the parser asks for one
// slot and writes there exactly what the oracle's values write into a
// reference one-slot row with Column.Set — presence, NULL, the value's bits
// and its error bar. The Coord and row start out holding a previous line's
// record, and the line's bytes are overwritten after the parse, as the
// scan's next read does.
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
	f.Add("\u00a01,\u2003x\u3000,2\u0085", uint8(0), []byte{3, 0})
	f.Add("+5,+5", uint8(0), []byte{0})
	f.Add("1234567890123456789,-1234567890123456789", uint8(0), []byte{0})
	f.Add("12345678901234567890,-9223372036854775808", uint8(0), []byte{0})
	f.Add("1_0,1_0", uint8(0), []byte{1})
	f.Add("1,0x1p3", uint8(0), []byte{1})
	f.Add("1,inf,-Infinity", uint8(0), []byte{1, 1})
	f.Add("1,5±1", uint8(0), []byte{0})
	f.Add("1,2.5,", uint8(0), []byte{1, 3})
	f.Add("1,2.5,x\r\n", uint8(0), []byte{1, 3})
	// The edges of the parse where it stands: white space beside a comma
	// in a number field, the numbers that stop early or not at all, 18–20
	// digits, strconv-only forms mid-line, empty and missing fields.
	f.Add("1 ,2, 3.5 ,4", uint8(1), []byte{1, 0})
	f.Add("1,+5,.5,5.,-,1e5,1e", uint8(0), []byte{1, 1, 1, 1, 1, 1})
	f.Add("1,+5,.5,5.,-,1e5,1e", uint8(0), []byte{0, 0, 0, 0, 0, 0})
	f.Add("123456789012345678,1234567890123456789,12345678901234567890", uint8(0), []byte{0, 0})
	f.Add("-123456789012345678,-1234567890123456789,-12345678901234567890", uint8(1), []byte{0})
	f.Add("1,1.234567890123456789,12345678901234567.89,0.00012345678901234567891", uint8(0), []byte{1, 1, 1})
	f.Add("1,0x1p3,inf,2", uint8(0), []byte{1, 1, 0})
	f.Add("1,,2", uint8(0), []byte{1, 0})
	f.Add("1,2", uint8(0), []byte{1, 1})
	f.Add("1,2,3,4", uint8(0), []byte{1, 1})
	f.Add("1,2,3.5±0.25", uint8(0), []byte{0, 1})
	f.Fuzz(func(t *testing.T, line string, nDims uint8, types []byte) {
		if len(types) > 8 {
			t.Skip()
		}
		s := fuzzSchema(nDims, types)
		c := make(array.Coord, len(s.Dims))
		for i := range c {
			c[i] = -7
		}
		row := newRow(s)
		for _, col := range row.Cols {
			col.Set(0, staleValues[col.Type])
		}
		slots := 0
		buf := []byte(line)
		ok, err := parseCSVLine(s, buf, c, func(array.Coord) (*array.Chunk, int64, error) {
			slots++
			row.Present.Set(0)
			return row, 0, nil
		})
		for i := range buf {
			buf[i] = '?'
		}
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
			if slots != 0 {
				t.Fatalf("%q: not data, but asked for %d slots", line, slots)
			}
			return
		}
		for i := range wantC {
			if c[i] != wantC[i] {
				t.Fatalf("%q: coord %v, oracle %v", line, c, wantC)
			}
		}
		want := newRow(s)
		want.Present.Set(0)
		for i, v := range wantCell {
			want.Cols[i].Set(0, v)
		}
		if slots != 1 || !row.Present.Get(0) {
			t.Fatalf("%q: asked for %d slots, present=%v; want 1, true", line, slots, row.Present.Get(0))
		}
		for i, col := range row.Cols {
			if got, w := col.Get(0), want.Cols[i].Get(0); !sameValue(got, w) {
				t.Fatalf("%q: attribute %d = %#v, oracle %#v", line, i, got, w)
			}
		}
	})
}

// writeScanCSV writes lines CSV lines of schema header hdr, each from
// line(i), and returns a shard over the whole file.
func writeScanCSV(tb testing.TB, hdr string, lines int, line func(*strings.Builder, int)) *csvShard {
	tb.Helper()
	var sb strings.Builder
	sb.WriteString(hdr)
	for i := 1; i <= lines; i++ {
		line(&sb, i)
	}
	path := filepath.Join(tb.TempDir(), "scan.csv")
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		tb.Fatal(err)
	}
	ds, err := CSVAdaptor{}.Open(path)
	if err != nil {
		tb.Fatal(err)
	}
	return &csvShard{path: path, schema: ds.Schema(), start: 0, end: int64(sb.Len())}
}

// TestCSVShardScanAllocations pins the line parser's cost: a shard scan
// allocates nothing per line but the copy of each non-NULL string value,
// and a fill of numeric lines into a chunk already open allocates nothing.
func TestCSVShardScanAllocations(t *testing.T) {
	const lines = 10000
	numbers := func(sb *strings.Builder, i int) {
		fmt.Fprintf(sb, "%d,%d,%g,%d,%t,%g±0.5\n", i, i%4+1, float64(i)*0.25, i*3, i%2 == 0, float64(i)/7)
	}
	const numbersHdr = "# scidb-csv\n# dims: x:10000, y:4\n# attrs: v:float, n:int, b:bool, e:float\n"
	for _, tc := range []struct {
		name, hdr string
		line      func(*strings.Builder, int)
		perLine   float64
	}{
		{"numbers", numbersHdr, numbers, 0},
		// Every fifth tag is NULL: four copies per five lines.
		{"strings", "# scidb-csv\n# dims: x:10000, y:4\n# attrs: v:float, n:int, tag:string\n",
			func(sb *strings.Builder, i int) {
				tag := fmt.Sprintf("t%d", i%5)
				if i%5 == 0 {
					tag = "NULL"
				}
				fmt.Fprintf(sb, "%d,%d,%g,%d,%s\n", i, i%4+1, float64(i)*0.25, i*3, tag)
			}, 0.8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sh := writeScanCSV(t, tc.hdr, lines, tc.line)
			box := array.WholeBox(sh.schema)
			var n int
			allocs := testing.AllocsPerRun(5, func() {
				n = 0
				if err := Scan(sh, box, func(array.Coord, array.Cell) bool { n++; return true }); err != nil {
					t.Fatal(err)
				}
			})
			if n != lines {
				t.Fatalf("scanned %d cells, want %d", n, lines)
			}
			if per := allocs / lines; per > tc.perLine+0.01 {
				t.Errorf("csvShard scan: %.3f allocations per line, want ≤ %.2f", per, tc.perLine)
			}
		})
	}
	// The whole 10000×4 grid is one chunk, opened by AllocsPerRun's warm-up.
	t.Run("fill", func(t *testing.T) {
		sh := writeScanCSV(t, numbersHdr, lines, numbers)
		a := array.MustNew(sh.schema)
		box := array.WholeBox(sh.schema)
		allocs := testing.AllocsPerRun(5, func() {
			if err := sh.fill(box, a.Slot); err != nil {
				t.Fatal(err)
			}
		})
		if a.NumChunks() != 1 || a.Count() != lines {
			t.Fatalf("fill wrote %d cells in %d chunks, want %d in 1", a.Count(), a.NumChunks(), lines)
		}
		if per := allocs / lines; per > 0.01 {
			t.Errorf("csvShard fill: %.3f allocations per line, want 0", per)
		}
	})
}

// writeBenchCSV writes a file shaped like SS-DB's raw array — three
// coordinates and a float reading per line — and returns a shard over it.
func writeBenchCSV(b *testing.B, lines int) *csvShard {
	rng := rand.New(rand.NewSource(1))
	return writeScanCSV(b, "# scidb-csv\n# dims: pass:4, x:1000, y:1000\n# attrs: dn:float\n", lines,
		func(sb *strings.Builder, i int) {
			fmt.Fprintf(sb, "%d,%d,%d,%g\n", i%4+1, i/1000%1000+1, i%1000+1, rng.Float64()*4096)
		})
}

// perCell reports a benchmark's wall time and mallocs per unit of work.
func perCell(b *testing.B, before *runtime.MemStats, units int, unit string) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	n := float64(b.N * units)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/"+unit)
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/n, "allocs/"+unit)
}

// BenchmarkCSVShardScan reads the bench file through one shard and the
// Scan adapter: ns/line and allocs/line.
func BenchmarkCSVShardScan(b *testing.B) {
	const lines = 100000
	sh := writeBenchCSV(b, lines)
	box := array.WholeBox(sh.schema)
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := Scan(sh, box, func(array.Coord, array.Cell) bool { return true }); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	perCell(b, &before, lines, "line")
}

// BenchmarkPipelineCSV runs the bench file through Pipeline.Run on one
// shard (parallelism 1) and one site, on a 64-cell grid, adopting
// into an in-memory store: the ingest path a bulk load's shard runs, parse
// to bucket. Its Batch is the loader's largest, 256, so the file's 32
// chunks ship as one batch and no batch edge is measured. ns/cell and
// allocs/cell.
func BenchmarkPipelineCSV(b *testing.B) {
	const lines = 100000
	sh := writeBenchCSV(b, lines)
	old := exec.Parallelism()
	defer exec.SetParallelism(old)
	exec.SetParallelism(1)
	grid := sh.schema.Clone()
	for i := range grid.Dims {
		grid.Dims[i].ChunkLen = 64
	}
	box := array.WholeBox(sh.schema)
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := storage.NewStore(grid, storage.Options{})
		if err != nil {
			b.Fatal(err)
		}
		n, err := Pipeline{
			Schema: grid,
			Sites:  1,
			Route:  func(array.Coord) int { return 0 },
			Batch:  256,
			Ship: func(_ int, payloads [][]byte) error {
				batch, err := storage.DecodeBatch(grid, payloads)
				if err == nil {
					_, err = st.Apply(batch)
				}
				return err
			},
		}.Run(sh, box)
		if err != nil {
			b.Fatal(err)
		}
		if n.PerSite[0] != lines {
			b.Fatalf("pipeline routed %d cells, want %d", n.PerSite[0], lines)
		}
		st.Close()
	}
	b.StopTimer()
	perCell(b, &before, lines, "cell")
}
