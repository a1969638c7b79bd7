package storage

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"scidb/internal/array"
)

// colCase is one value vector of the codec corpus; the field its type names
// holds the values.
type colCase struct {
	name   string
	typ    array.Type
	ints   []int64
	floats []float64
	bools  []bool
	strs   []string
}

func (c colCase) len() int {
	return len(c.ints) + len(c.floats) + len(c.bools) + len(c.strs)
}

// column builds c's values as a column, its NULLs where nulls says.
func (c colCase) column(nulls func(i int) bool) *array.Column {
	col := array.NewColumn(array.Attribute{Type: c.typ}, int64(c.len()))
	col.Ints, col.Floats, col.Bools, col.Strs = c.ints, c.floats, c.bools, c.strs
	for i := 0; i < c.len(); i++ {
		if nulls(i) {
			col.Nulls.Set(int64(i))
		}
	}
	return col
}

// codecCorpus is the vectors the codec is held to its reference over: for
// every type empty, one-slot and constant vectors, runs of one and long runs,
// and the edges of each encoding — delta widths up to 63 and the int64
// wrap-around, NaN payloads, signed zeros and infinities, a dictionary's
// size limit, strings longer than a staging block, and exactly 256 and 257
// distinct values, the zone map's distinct cap.
func codecCorpus() []colCase {
	rng := rand.New(rand.NewSource(23))
	n := 4096
	ints := func(f func(i int) int64) []int64 {
		out := make([]int64, n)
		for i := range out {
			out[i] = f(i)
		}
		return out
	}
	floats := func(f func(i int) float64) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = f(i)
		}
		return out
	}
	strs := func(m int, f func(i int) string) []string {
		out := make([]string, m)
		for i := range out {
			out[i] = f(i)
		}
		return out
	}
	walk := func(step int64) []int64 {
		out := make([]int64, n)
		for i := 1; i < n; i++ {
			out[i] = out[i-1] + rng.Int63n(2*step) - step
		}
		return out
	}
	nan2 := math.Float64frombits(0x7ff8000000000042)
	specials := []float64{math.NaN(), nan2, math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1), 1.5}
	words := []string{"north", "south", "east", "west"}
	long := strings.Repeat("x", 3*vecBlock)
	cases := []colCase{
		{name: "int/empty", typ: array.TInt64, ints: []int64{}},
		{name: "int/one", typ: array.TInt64, ints: []int64{-7}},
		{name: "int/const", typ: array.TInt64, ints: ints(func(int) int64 { return 42 })},
		{name: "int/runs-of-one", typ: array.TInt64, ints: ints(func(i int) int64 { return int64(i*7919) % 100003 })},
		{name: "int/long-runs", typ: array.TInt64, ints: ints(func(i int) int64 { return int64(i / 700) })},
		{name: "int/short-runs", typ: array.TInt64, ints: ints(func(i int) int64 { return int64(i/3) * 1e12 })},
		{name: "int/delta-width-1", typ: array.TInt64, ints: ints(func(i int) int64 { return 5000 - int64(i) })},
		{name: "int/delta-small", typ: array.TInt64, ints: ints(func(i int) int64 { return 1_700_000_000_000 + 5*int64(i) + rng.Int63n(4) })},
		{name: "int/delta-width-63", typ: array.TInt64, ints: walk(1 << 61)},
		{name: "int/wrap-around", typ: array.TInt64, ints: ints(func(i int) int64 {
			if i%2 == 0 {
				return math.MaxInt64
			}
			return math.MinInt64
		})},
		{name: "int/extremes", typ: array.TInt64, ints: ints(func(i int) int64 {
			return []int64{math.MinInt64, math.MaxInt64, 0, -1}[rng.Intn(4)]
		})},
		{name: "int/random", typ: array.TInt64, ints: ints(func(int) int64 { return rng.Int63() - rng.Int63() })},
		{name: "int/distinct-256", typ: array.TInt64, ints: ints(func(int) int64 { return rng.Int63n(256) * 3 })},
		{name: "int/distinct-257", typ: array.TInt64, ints: ints(func(i int) int64 { return int64(i%257) - 128 })},

		{name: "float/empty", typ: array.TFloat64, floats: []float64{}},
		{name: "float/one", typ: array.TFloat64, floats: []float64{math.NaN()}},
		{name: "float/const", typ: array.TFloat64, floats: floats(func(int) float64 { return 2.5 })},
		{name: "float/const-neg-zero", typ: array.TFloat64, floats: floats(func(int) float64 { return math.Copysign(0, -1) })},
		{name: "float/specials-runs", typ: array.TFloat64, floats: floats(func(i int) float64 { return specials[i/600] })},
		{name: "float/specials-singles", typ: array.TFloat64, floats: floats(func(i int) float64 { return specials[i%len(specials)] })},
		{name: "float/signed-zeros", typ: array.TFloat64, floats: floats(func(i int) float64 { return math.Copysign(0, float64(i%3-1)) })},
		{name: "float/long-runs", typ: array.TFloat64, floats: floats(func(i int) float64 { return float64(i / 64) })},
		{name: "float/random", typ: array.TFloat64, floats: floats(func(int) float64 { return rng.NormFloat64() })},
		{name: "float/distinct-256", typ: array.TFloat64, floats: floats(func(int) float64 { return float64(rng.Intn(256)) / 8 })},
		{name: "float/distinct-257", typ: array.TFloat64, floats: floats(func(i int) float64 { return float64(i%257) - 0.5 })},

		{name: "bool/empty", typ: array.TBool, bools: []bool{}},
		{name: "bool/one", typ: array.TBool, bools: []bool{true}},
		{name: "bool/const", typ: array.TBool, bools: make([]bool, n)},
		{name: "bool/alternating", typ: array.TBool, bools: func() []bool {
			out := make([]bool, n)
			for i := range out {
				out[i] = i%2 == 0
			}
			return out
		}()},
		{name: "bool/long-runs", typ: array.TBool, bools: func() []bool {
			out := make([]bool, n)
			for i := range out {
				out[i] = (i/900)%2 == 1
			}
			return out
		}()},
		{name: "bool/random", typ: array.TBool, bools: func() []bool {
			out := make([]bool, n)
			for i := range out {
				out[i] = rng.Intn(2) == 0
			}
			return out
		}()},

		{name: "string/empty", typ: array.TString, strs: []string{}},
		{name: "string/one", typ: array.TString, strs: []string{"solo"}},
		{name: "string/const", typ: array.TString, strs: strs(n, func(int) string { return "same" })},
		{name: "string/dict", typ: array.TString, strs: strs(n, func(int) string { return words[rng.Intn(len(words))] })},
		{name: "string/long-runs", typ: array.TString, strs: strs(n, func(i int) string { return words[i/1100] })},
		{name: "string/runs-of-one", typ: array.TString, strs: strs(n, func(i int) string { return fmt.Sprint(i) })},
		{name: "string/past-dict-limit", typ: array.TString, strs: strs(maxDictSize+200, func(i int) string { return fmt.Sprint(i % (maxDictSize + 1)) })},
		{name: "string/longer-than-a-block", typ: array.TString, strs: strs(40, func(i int) string { return long[:vecBlock-4+i%9] })},
		{name: "string/long-runs-of-long", typ: array.TString, strs: strs(40, func(i int) string { return long[:i/10] })},
		{name: "string/distinct-256", typ: array.TString, strs: strs(n, func(int) string { return fmt.Sprint(rng.Intn(256)) })},
		{name: "string/distinct-257", typ: array.TString, strs: strs(n, func(i int) string { return fmt.Sprint(i % 257) })},
	}
	return cases
}

// encodeValues writes c's values with the codec or, ref set, its reference.
func encodeValues(t testing.TB, c colCase, ref bool) []byte {
	t.Helper()
	var b bytes.Buffer
	w := NewFieldWriter(&b)
	switch c.typ {
	case array.TInt64:
		if ref {
			refEncodeIntValues(w, c.ints)
		} else {
			encodeIntValues(w, c.ints)
		}
	case array.TFloat64:
		if ref {
			refEncodeFloatValues(w, c.floats)
		} else {
			encodeFloatValues(w, c.floats)
		}
	case array.TBool:
		if ref {
			refEncodeBoolValues(w, c.bools)
		} else {
			encodeBoolValues(w, c.bools)
		}
	case array.TString:
		if ref {
			refEncodeStringValues(w, c.strs)
		} else {
			encodeStringValues(w, c.strs)
		}
	}
	if w.Err() != nil {
		t.Fatal(w.Err())
	}
	return b.Bytes()
}

// decoded is what a value decoder returns, floats as bit images so NaN
// payloads and signed zeros compare exactly.
type decoded struct {
	ints  []int64
	fbits []uint64
	bools []bool
	strs  []string
	err   string
}

// decodeValues decodes data as a typ vector of slots with the codec or, ref
// set, its reference.
func decodeValues(typ array.Type, data []byte, slots int64, ref bool) decoded {
	r := NewFieldReaderBytes(data)
	var d decoded
	var err error
	switch typ {
	case array.TInt64:
		if ref {
			d.ints, err = refDecodeIntValues(r, slots)
		} else {
			d.ints, err = decodeIntValues(r, slots)
		}
	case array.TFloat64:
		var fs []float64
		if ref {
			fs, err = refDecodeFloatValues(r, slots)
		} else {
			fs, err = decodeFloatValues(r, slots)
		}
		for _, f := range fs {
			d.fbits = append(d.fbits, math.Float64bits(f))
		}
	case array.TBool:
		if ref {
			d.bools, err = refDecodeBoolValues(r, slots)
		} else {
			d.bools, err = decodeBoolValues(r, slots)
		}
	case array.TString:
		if ref {
			d.strs, err = refDecodeStringValues(r, slots)
		} else {
			d.strs, err = decodeStringValues(r, slots)
		}
	}
	if err != nil {
		return decoded{err: err.Error()}
	}
	return d
}

// sameDecode fails t unless the codec and its reference decode data alike:
// the same vectors, or the same error.
func sameDecode(t *testing.T, label string, typ array.Type, data []byte, slots int64) decoded {
	t.Helper()
	got, want := decodeValues(typ, data, slots, false), decodeValues(typ, data, slots, true)
	if !reflect.DeepEqual(got, want) {
		if got.err != "" || want.err != "" {
			t.Fatalf("%s: decode error %q, reference %q", label, got.err, want.err)
		}
		t.Fatalf("%s: decode differs from the reference's", label)
	}
	return got
}

// zoneBytes is z as encodeZoneMap writes it: what a stored zone map is.
func zoneBytes(t *testing.T, z *array.ZoneMap) []byte {
	t.Helper()
	if z == nil {
		return nil
	}
	var b bytes.Buffer
	encodeZoneMap(NewFieldWriter(&b), z)
	return b.Bytes()
}

// presencePatterns are the presence bitmaps the codec is held to its
// reference under: every slot, every third, holes with NULLs among the
// present, one slot, all but one, whole 64-slot rows (a site boundary's
// cut) and scattered holes.
var presencePatterns = []struct {
	name           string
	present, nulls func(i, slots int) bool
}{
	{"full", func(int, int) bool { return true }, func(int, int) bool { return false }},
	{"sparse", func(i, _ int) bool { return i%3 == 0 }, func(int, int) bool { return false }},
	{"sparse-nulls", func(i, _ int) bool { return i%5 != 1 }, func(i, _ int) bool { return i%7 == 2 }},
	{"one-present", func(i, n int) bool { return i == n/2 }, func(int, int) bool { return false }},
	{"all-but-one", func(i, n int) bool { return i != n/2 }, func(i, _ int) bool { return i%11 == 0 }},
	{"rows", func(i, _ int) bool { return i/64%3 == 1 }, func(int, int) bool { return false }},
	{"holes", func(i, _ int) bool { return (i*7919)%97 > 9 }, func(int, int) bool { return false }},
}

// presenceOf is a bitmap of slots bits set where f says.
func presenceOf(slots int, f func(i, slots int) bool) *array.Bitmap {
	b := array.NewBitmap(int64(slots))
	for i := 0; i < slots; i++ {
		if f(i, slots) {
			b.Set(int64(i))
		}
	}
	return b
}

// colImage is a decoded column in comparable form: floats as bit images, so
// NaN payloads and signed zeros compare exactly, beside its zone map.
type colImage struct {
	Ints          []int64
	Floats, Sigma []uint64
	Bools         []bool
	Strs          []string
	Nulls         []uint64
	HasShared     bool
	SharedSigma   uint64
	Zone          *array.ZoneMap
}

// imageOf is col's image as a column of a chunk whose presence bitmap is
// present: its vectors hold present cells' values only, whether the column
// is sealed (as the decoder leaves it) or one value per slot (as the
// reference decodes it), so the two compare by what the cells hold.
func imageOf(col *array.Column, present *array.Bitmap) colImage {
	if col == nil {
		return colImage{}
	}
	if col.Rank() == nil && present.Count() < present.Len() {
		col = col.Clone()
		col.Seal(array.NewRank(present))
	}
	fbits := func(fs []float64) []uint64 {
		var out []uint64
		for _, f := range fs {
			out = append(out, math.Float64bits(f))
		}
		return out
	}
	return colImage{Ints: nilIfEmpty(col.Ints), Floats: fbits(col.Floats), Sigma: fbits(col.Sigma), Bools: nilIfEmpty(col.Bools), Strs: nilIfEmpty(col.Strs),
		Nulls: col.Nulls.Words(), HasShared: col.HasShared, SharedSigma: math.Float64bits(col.SharedSigma),
		Zone: col.Zone}
}

// sameChunk fails t unless got and want are the same decoded chunk: frame,
// presence, and every column's vectors, bitmaps and zone map.
func sameChunk(t *testing.T, label string, got, want *array.Chunk) {
	t.Helper()
	if !reflect.DeepEqual(got.Origin, want.Origin) || !reflect.DeepEqual(got.Shape, want.Shape) ||
		!reflect.DeepEqual(got.Present.Words(), want.Present.Words()) || len(got.Cols) != len(want.Cols) {
		t.Fatalf("%s: decoded frames differ", label)
	}
	for a := range got.Cols {
		if !reflect.DeepEqual(imageOf(got.Cols[a], got.Present), imageOf(want.Cols[a], want.Present)) {
			t.Fatalf("%s: column %d decodes differently from the reference's", label, a)
		}
	}
}

// sameColumnDecode fails t unless decodeColumn and refDecodeColumn read sec
// alike: the same column, or the same error.
func sameColumnDecode(t *testing.T, label string, at array.Attribute, sec []byte, present *array.Bitmap) {
	t.Helper()
	got, gerr := decodeColumn(NewFieldReaderBytes(sec), at, present, array.NewRank(present))
	want, werr := refDecodeColumn(NewFieldReaderBytes(sec), at, present)
	if fmt.Sprint(gerr) != fmt.Sprint(werr) {
		t.Fatalf("%s: decode error %v, reference %v", label, gerr, werr)
	}
	if gerr == nil && !reflect.DeepEqual(imageOf(got, present), imageOf(want, present)) {
		t.Fatalf("%s: column decodes differently from the reference's", label)
	}
}

// columnSection is section 1+a of an EncodeChunk payload: attribute a's column.
func columnSection(t *testing.T, s *array.Schema, enc []byte, a int) []byte {
	t.Helper()
	hdr, err := parseHeader(s, enc, int64(len(enc)))
	if err != nil {
		t.Fatal(err)
	}
	off := headerLen(s)
	for _, sec := range hdr.secs[:1+a] {
		off += int(sec.stored)
	}
	return enc[off : off+int(hdr.secs[1+a].stored)]
}

// TestCodecMatchesReference holds the value codec to the one it replaced
// (codecref_test.go) over the corpus: the same bytes out of every encoder;
// the same vectors out of every decoder,
// and for every prefix of an encoding and for flipped bytes the same error;
// the same zone maps, byte for byte, under every presence pattern; and the
// same chunk encodings, which decode as the reference decodes them — a
// partial chunk's int and float columns present-only — down to the error
// over cuts and flipped bytes of a column section.
func TestCodecMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, c := range codecCorpus() {
		slots := int64(c.len())
		enc := encodeValues(t, c, false)
		if ref := encodeValues(t, c, true); !bytes.Equal(enc, ref) {
			t.Fatalf("%s: %d encoded bytes differ from the reference's %d", c.name, len(enc), len(ref))
		}
		d := sameDecode(t, c.name, c.typ, enc, slots)
		switch {
		case d.err != "":
			t.Fatalf("%s: %s", c.name, d.err)
		case c.typ == array.TInt64 && !reflect.DeepEqual(d.ints, nilIfEmpty(c.ints)),
			c.typ == array.TBool && !reflect.DeepEqual(d.bools, nilIfEmpty(c.bools)),
			c.typ == array.TString && !reflect.DeepEqual(d.strs, nilIfEmpty(c.strs)):
			t.Fatalf("%s: decoded vector differs from the input", c.name)
		case c.typ == array.TFloat64:
			for i, f := range c.floats {
				if d.fbits[i] != math.Float64bits(f) {
					t.Fatalf("%s: slot %d decodes to %x, want %x", c.name, i, d.fbits[i], math.Float64bits(f))
				}
			}
		}
		step := max(1, len(enc)/200)
		for cut := 0; cut < len(enc); cut += step {
			sameDecode(t, fmt.Sprintf("%s cut at %d", c.name, cut), c.typ, enc[:cut], slots)
		}
		for k := 0; k < 40 && len(enc) > 0; k++ {
			mut := append([]byte(nil), enc...)
			mut[rng.Intn(len(mut))] ^= byte(1 + rng.Intn(255))
			sameDecode(t, fmt.Sprintf("%s flip %d", c.name, k), c.typ, mut, slots)
		}

		s := &array.Schema{Name: "C", Dims: []array.Dimension{{Name: "i", High: max(slots, 1)}},
			Attrs: []array.Attribute{{Name: "v", Type: c.typ}}}
		for _, p := range presencePatterns {
			label := c.name + " " + p.name
			col := c.column(func(i int) bool { return p.nulls(i, c.len()) })
			present := presenceOf(c.len(), p.present)
			if got, want := zoneBytes(t, array.ComputeZone(col, present)), zoneBytes(t, refComputeZone(col, present)); !bytes.Equal(got, want) {
				t.Fatalf("%s: zone map %x, reference %x", label, got, want)
			}
			if slots == 0 {
				continue
			}
			ch := &array.Chunk{Origin: array.Coord{1}, Shape: []int64{slots}, Present: present, Cols: []*array.Column{col}}
			got, gz, err := EncodeChunkZones(s, ch)
			if err != nil {
				t.Fatal(err)
			}
			want, wz, err := refEncodeChunkZones(s, ch, false)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) || !bytes.Equal(zoneBytes(t, gz[0]), zoneBytes(t, wz[0])) {
				t.Fatalf("%s: chunk encoding differs from the reference's", label)
			}
			back, err := DecodeChunk(s, got)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			ref, err := refDecodeChunk(s, got)
			if err != nil {
				t.Fatalf("%s: reference: %v", label, err)
			}
			sameChunk(t, label, back, ref)
			sec := columnSection(t, s, got, 0)
			step := max(1, len(sec)/50)
			for cut := 0; cut < len(sec); cut += step {
				sameColumnDecode(t, fmt.Sprintf("%s section cut at %d", label, cut), s.Attrs[0], sec[:cut], present)
			}
			for k := 0; k < 18; k++ {
				mut := append([]byte(nil), sec...)
				if k < 8 { // each flag bit, the present-only one included
					mut[0] ^= 1 << k
				} else {
					mut[rng.Intn(len(mut))] ^= byte(1 + rng.Intn(255))
				}
				sameColumnDecode(t, fmt.Sprintf("%s section flip %d", label, k), s.Attrs[0], mut, present)
			}
		}
	}
}

func nilIfEmpty[T any](v []T) []T {
	if len(v) == 0 {
		return nil
	}
	return v
}

// TestDeltaWidthsDecodeLikeReference packs delta columns by hand at the
// widths the encoder rarely or never picks — 0, 1, 63 and 64 — and holds
// the unpacker to the reference's over each and over each one's prefixes.
func TestDeltaWidthsDecodeLikeReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, width := range []uint{0, 1, 63, 64} {
		for _, count := range []int64{1, 2, 63, 64, 65, 500} {
			zigs := make([]uint64, count-1)
			for i := range zigs {
				if width > 0 {
					zigs[i] = rng.Uint64() >> (64 - width)
				}
			}
			var b bytes.Buffer
			w := NewFieldWriter(&b)
			w.U8(encDelta)
			w.I64(math.MaxInt64 - 3)
			w.U8(uint8(width))
			refWritePackedWords(w, refPackBits(zigs, width))
			label := fmt.Sprintf("width %d, %d slots", width, count)
			if d := sameDecode(t, label, array.TInt64, b.Bytes(), count); d.err != "" {
				t.Fatalf("%s: %s", label, d.err)
			}
			for cut := 0; cut < b.Len(); cut++ {
				sameDecode(t, fmt.Sprintf("%s cut at %d", label, cut), array.TInt64, b.Bytes()[:cut], count)
			}
		}
	}
}

// allocChunk is a 4-column, 4096-slot chunk whose columns take four
// encodings — raw floats, delta ints, RLE floats, dictionary strings — with
// NULLs and holes.
func allocChunk() (*array.Schema, *array.Chunk) {
	s := &array.Schema{Name: "A", Dims: []array.Dimension{{Name: "x", High: 64}, {Name: "y", High: 64}},
		Attrs: []array.Attribute{{Name: "v", Type: array.TFloat64}, {Name: "t", Type: array.TInt64},
			{Name: "r", Type: array.TFloat64}, {Name: "s", Type: array.TString}}}
	rng := rand.New(rand.NewSource(9))
	ch := array.NewChunk(s, array.Coord{1, 1}, []int64{64, 64})
	for i := int64(0); i < 4096; i++ {
		if i%17 != 3 {
			ch.Present.Set(i)
		}
		ch.Cols[0].Floats[i] = rng.NormFloat64()
		ch.Cols[1].Ints[i] = 1_700_000_000 + 5*i + rng.Int63n(3)
		ch.Cols[2].Floats[i] = float64(i / 256)
		ch.Cols[3].Strs[i] = []string{"a", "bb", "ccc"}[rng.Intn(3)]
		if i%29 == 0 {
			ch.Cols[0].Nulls.Set(i)
		}
	}
	return s, ch
}

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// TestChunkCodecAllocations bounds the allocations of encoding and decoding
// a chunk: the encoder's are its output and the zone maps it computes, not
// its staging, which is recycled; the decoder's are the chunk it builds, not
// the packed words or run tables it reads through.
func TestChunkCodecAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	s, ch := allocChunk()
	enc, err := EncodeChunk(s, ch)
	if err != nil {
		t.Fatal(err)
	}
	encodes := testing.AllocsPerRun(20, func() {
		if _, err := EncodeChunk(s, ch); err != nil {
			t.Fatal(err)
		}
	})
	decodes := testing.AllocsPerRun(20, func() {
		if _, err := DecodeChunk(s, enc); err != nil {
			t.Fatal(err)
		}
	})
	// Encode: the output, the zone-map slice, the section table and a zone
	// map per column, plus the dictionary's map and order.
	if encodes > 12 {
		t.Errorf("EncodeChunk allocates %.0f times per chunk, want at most 12", encodes)
	}
	// Decode: reader and header, the frame, and per section a field reader,
	// then per column its struct, null bitmap, zone map, values and encoded
	// view, and a string column's dictionary.
	if decodes > 46 {
		t.Errorf("DecodeChunk allocates %.0f times per chunk, want at most 46", decodes)
	}
	t.Logf("EncodeChunk %.0f allocations, DecodeChunk %.0f", encodes, decodes)
}

// FuzzColumnRoundTrip encodes fuzzer-made int64, float64 and string vectors:
// the bytes must be the reference encoder's and must decode back to the
// input, bit for bit, as the reference decodes them. kind picks the type and
// how data becomes values: whole 8-byte words, running sums of bytes (small
// deltas), or one small value per byte (runs and dictionaries). The vector is
// then a chunk's one column, slot i absent where bit i%64 of holes is set: the
// chunk must encode as the reference encodes it — a partial chunk's int or
// float column present-only — and decode as the reference decodes it, its
// present slots to the input's values.
func FuzzColumnRoundTrip(f *testing.F) {
	f.Add(uint8(0), uint64(0), []byte("\x01\x02\x03\x04\x05\x06\x07\x08\xff\xff\xff\xff\xff\xff\xff\x7f"))
	f.Add(uint8(3), uint64(0b10), []byte{1, 1, 1, 2, 255, 0, 0, 7, 7, 7, 7})
	f.Add(uint8(6), uint64(0xf0f0), []byte{3, 3, 3, 3, 9, 9, 1, 2, 3, 3})
	f.Add(uint8(1), uint64(1), []byte("\x00\x00\x00\x00\x00\x00\xf8\x7f\x00\x00\x00\x00\x00\x00\x00\x80"))
	f.Add(uint8(4), uint64(0b1011), []byte{0, 0, 254, 254, 255, 255, 1, 2, 2})
	f.Add(uint8(2), uint64(0b100), []byte("north\x00south\x00north\x00\x00east"))
	f.Add(uint8(5), uint64(0b110), []byte{1, 1, 1, 2, 2, 3, 4, 4, 4, 4})
	f.Add(uint8(7), ^uint64(0)>>1, []byte{1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Fuzz(func(t *testing.T, kind uint8, holes uint64, data []byte) {
		if len(data) > 1<<16 {
			return
		}
		word := func(i int) uint64 {
			var w uint64
			for k := 0; k < 8 && 8*i+k < len(data); k++ {
				w |= uint64(data[8*i+k]) << (8 * k)
			}
			return w
		}
		c := colCase{name: "fuzz"}
		switch mode := kind / 3 % 3; kind % 3 {
		case 0:
			c.typ, c.ints = array.TInt64, []int64{}
			switch mode {
			case 0:
				for i := 0; 8*i < len(data); i++ {
					c.ints = append(c.ints, int64(word(i)))
				}
			case 1:
				var v int64
				for _, b := range data {
					v += int64(int8(b))
					c.ints = append(c.ints, v)
				}
			default:
				for _, b := range data {
					c.ints = append(c.ints, int64(b%8))
				}
			}
		case 1:
			c.typ, c.floats = array.TFloat64, []float64{}
			switch mode {
			case 0:
				for i := 0; 8*i < len(data); i++ {
					c.floats = append(c.floats, math.Float64frombits(word(i)))
				}
			default:
				for _, b := range data {
					v := float64(b%16) / 4
					switch b {
					case 255:
						v = math.NaN()
					case 254:
						v = math.Copysign(0, -1)
					}
					c.floats = append(c.floats, v)
				}
			}
		default:
			c.typ, c.strs = array.TString, []string{}
			switch mode {
			case 0:
				c.strs = strings.Split(string(data), "\x00")
			default:
				for _, b := range data {
					c.strs = append(c.strs, strings.Repeat(string(rune('a'+b%4)), int(b%5)))
				}
			}
		}
		enc := encodeValues(t, c, false)
		if ref := encodeValues(t, c, true); !bytes.Equal(enc, ref) {
			t.Fatalf("encoding differs from the reference's:\n got %x\nwant %x", enc, ref)
		}
		d := sameDecode(t, "round trip", c.typ, enc, int64(c.len()))
		if d.err != "" {
			t.Fatal(d.err)
		}
		for i := 0; i < c.len(); i++ {
			ok := true
			switch c.typ {
			case array.TInt64:
				ok = d.ints[i] == c.ints[i]
			case array.TFloat64:
				ok = d.fbits[i] == math.Float64bits(c.floats[i])
			case array.TString:
				ok = d.strs[i] == c.strs[i]
			}
			if !ok {
				t.Fatalf("slot %d does not round-trip", i)
			}
		}
		if c.len() == 0 {
			return
		}
		slots := int64(c.len())
		s := &array.Schema{Name: "F", Dims: []array.Dimension{{Name: "i", High: slots}},
			Attrs: []array.Attribute{{Name: "v", Type: c.typ}}}
		ch := &array.Chunk{Origin: array.Coord{1}, Shape: []int64{slots},
			Present: presenceOf(c.len(), func(i, _ int) bool { return holes>>(i%64)&1 == 0 }),
			Cols:    []*array.Column{c.column(func(int) bool { return false })}}
		got, _, err := EncodeChunkZones(s, ch)
		if err != nil {
			t.Fatal(err)
		}
		if want, _, err := refEncodeChunkZones(s, ch, false); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("chunk encoding differs from the reference's (%v)", err)
		}
		back, err := DecodeChunk(s, got)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := refDecodeChunk(s, got)
		if err != nil {
			t.Fatal(err)
		}
		sameChunk(t, "chunk", back, ref)
		for i := ch.Present.NextSet(0); i < slots; i = ch.Present.NextSet(i + 1) {
			g, w := back.Cols[0].Get(i), ch.Cols[0].Get(i)
			if g.Int != w.Int || g.Str != w.Str || math.Float64bits(g.Float) != math.Float64bits(w.Float) {
				t.Fatalf("present slot %d does not round-trip", i)
			}
		}
	})
}
