package insitu

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"scidb/internal/array"
)

// fmtWriteCSV is WriteCSV as it was written through fmt — a []string per
// line, Value.String per cell, Fprintln per line — kept as the reference
// its output must equal byte for byte.
func fmtWriteCSV(path string, a *array.Array) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "# scidb-csv")
	var dims, attrs []string
	for _, d := range a.Schema.Dims {
		if d.High != array.Unbounded {
			dims = append(dims, fmt.Sprintf("%s:%d", d.Name, d.High))
		} else {
			dims = append(dims, d.Name)
		}
	}
	for _, at := range a.Schema.Attrs {
		attrs = append(attrs, at.Name+":"+at.Type.String())
	}
	fmt.Fprintf(w, "# dims: %s\n", strings.Join(dims, ", "))
	fmt.Fprintf(w, "# attrs: %s\n", strings.Join(attrs, ", "))
	var werr error
	a.Iter(func(c array.Coord, cell array.Cell) bool {
		var fields []string
		for _, v := range c {
			fields = append(fields, strconv.FormatInt(v, 10))
		}
		for _, v := range cell {
			if v.Null {
				fields = append(fields, "NULL")
			} else {
				fields = append(fields, v.String())
			}
		}
		if _, err := fmt.Fprintln(w, strings.Join(fields, ",")); err != nil {
			werr = err
			return false
		}
		return true
	})
	if werr != nil {
		return werr
	}
	return w.Flush()
}

// csvTrip is a schema with one attribute of each type the dialect carries,
// the numeric ones able to hold an error bar.
func csvTrip() *array.Schema {
	return &array.Schema{
		Name: "trip",
		Dims: []array.Dimension{{Name: "x", High: 40, ChunkLen: 8}, {Name: "y", High: array.Unbounded, ChunkLen: 8}},
		Attrs: []array.Attribute{
			{Name: "f", Type: array.TFloat64, Uncertain: true}, {Name: "i", Type: array.TInt64, Uncertain: true},
			{Name: "b", Type: array.TBool, Uncertain: true}, {Name: "s", Type: array.TString},
		},
	}
}

// randomTripArray fills csvTrip with seeded random values of every kind
// WriteCSV accepts: NaN, ±Inf, ±0, v±s (the error bar NaN, Inf or ±0 too),
// NULL of each type, both bools, int extremes, and strings of any bytes but
// ',' and '\n' whose edge runes are not white space.
func randomTripArray(t *testing.T, seed int64) *array.Array {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	floats := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
		math.MaxFloat64, math.SmallestNonzeroFloat64, 1e23, 0.1, -2.5e-300}
	pick := func() float64 {
		if rng.Intn(3) == 0 {
			return floats[rng.Intn(len(floats))]
		}
		return math.Float64frombits(rng.Uint64())
	}
	ints := []int64{math.MinInt64, math.MaxInt64, 0, -1, 1e18, -1e18 - 7}
	edges := []string{"a", "#", "±", "\"", "é", "\x85", "NULLx", "0"}
	inner := []string{" ", "\t", "\r", " ", "　", ";", "'", "±", "#", "Z", "9", "\xff"}
	a := array.MustNew(csvTrip())
	for x := int64(1); x <= 40; x++ {
		for y := int64(1); y <= 12; y++ {
			if rng.Intn(4) == 0 {
				continue
			}
			f := array.Float64(pick())
			if rng.Intn(4) == 0 {
				f = array.UncertainFloat(pick(), pick())
			}
			i := array.Int64(rng.Int63() - rng.Int63())
			if rng.Intn(3) == 0 {
				i = array.Int64(ints[rng.Intn(len(ints))])
			}
			var sb strings.Builder
			sb.WriteString(edges[rng.Intn(len(edges))])
			if n := rng.Intn(6); n > 0 {
				for ; n > 0; n-- {
					sb.WriteString(inner[rng.Intn(len(inner))])
				}
				sb.WriteString(edges[rng.Intn(len(edges))])
			}
			cell := array.Cell{f, i, array.Bool64(rng.Intn(2) == 0), array.String64(sb.String())}
			for k, at := range csvTrip().Attrs {
				if rng.Intn(8) == 0 {
					cell[k] = array.NullValue(at.Type)
				}
			}
			if err := a.Set(array.Coord{x, y}, cell); err != nil {
				t.Fatal(err)
			}
		}
	}
	return a
}

// TestWriteCSVReadsBackIdentical writes random arrays of every accepted
// value and reads them back through CSVAdaptor: every cell comes back with
// the same bits (text carries no NaN payload, so a NaN comes back as
// math.NaN(); an error bar of ±0 is no error bar on either side).
func TestWriteCSVReadsBackIdentical(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		a := randomTripArray(t, seed)
		path := filepath.Join(t.TempDir(), "trip.csv")
		if err := WriteCSV(path, a); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		ds, err := CSVAdaptor{}.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		n := int64(0)
		err = Scan(ds, array.WholeBox(ds.Schema()), func(c array.Coord, got array.Cell) bool {
			n++
			want, ok := a.At(c)
			if !ok {
				t.Fatalf("seed %d: cell %v read back but never written", seed, c)
			}
			for k := range want {
				w, g := want[k], got[k]
				if math.IsNaN(w.Float) {
					w.Float = math.NaN()
				}
				if math.IsNaN(w.Sigma) {
					w.Sigma = math.NaN()
				}
				if w.Sigma == 0 {
					w.Sigma = 0
				}
				if !sameValue(g, w) {
					t.Fatalf("seed %d: cell %v attribute %d wrote %#v, read %#v", seed, c, k, w, g)
				}
			}
			return true
		})
		ds.Close()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if n != a.Count() {
			t.Fatalf("seed %d: read %d cells back, wrote %d", seed, n, a.Count())
		}
	}
}

// TestWriteCSVMatchesFmt holds the strconv.Append writer to the fmt
// formulation it replaced, byte for byte.
func TestWriteCSVMatchesFmt(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		a := randomTripArray(t, seed)
		dir := t.TempDir()
		got, want := filepath.Join(dir, "got.csv"), filepath.Join(dir, "want.csv")
		if err := WriteCSV(got, a); err != nil {
			t.Fatal(err)
		}
		if err := fmtWriteCSV(want, a); err != nil {
			t.Fatal(err)
		}
		g, _ := os.ReadFile(got)
		w, _ := os.ReadFile(want)
		if !bytes.Equal(g, w) {
			t.Fatalf("seed %d: WriteCSV wrote %d bytes unlike fmt's %d", seed, len(g), len(w))
		}
	}
}

// TestWriteCSVRejectsWhatCannotReadBack: a string the dialect would read
// back different, or not at all, fails the write, and the error names the
// cell and the attribute; so does an error bar on a value that is not a
// float, and a nested array.
func TestWriteCSVRejectsWhatCannotReadBack(t *testing.T) {
	for _, str := range []string{"NULL", "", " pad ", "pad\t", "\u00a0pad", "a,b", "a\nb", "a\n"} {
		a := array.MustNew(csvTrip())
		cell := array.Cell{array.Float64(1), array.Int64(2), array.Bool64(true), array.String64(str)}
		if err := a.Set(array.Coord{3, 7}, cell); err != nil {
			t.Fatal(err)
		}
		err := WriteCSV(filepath.Join(t.TempDir(), "bad.csv"), a)
		if err == nil {
			t.Errorf("%q: WriteCSV accepted it", str)
			continue
		}
		if msg := err.Error(); !strings.Contains(msg, "[3, 7]") || !strings.Contains(msg, "attribute s") {
			t.Errorf("%q: error %q names no cell [3, 7] and attribute s", str, msg)
		}
	}
	for _, v := range []array.Value{
		{Type: array.TInt64, Int: 5, Sigma: 0.5}, {Type: array.TBool, Bool: true, Sigma: 1}, array.Nested(nil),
	} {
		if _, err := appendCSVValue(nil, v); err == nil {
			t.Errorf("%#v: appendCSVValue accepted it", v)
		}
	}
}
