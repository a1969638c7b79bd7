package storage

import (
	"bytes"
	"hash/crc32"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"scidb/internal/array"
	"scidb/internal/compress"
)

// fuzzSchema covers every scalar type plus an uncertain column, so the
// fuzzer can reach each decode branch.
func fuzzSchema() *array.Schema {
	return &array.Schema{
		Name: "Z",
		Dims: []array.Dimension{{Name: "i", High: 64}},
		Attrs: []array.Attribute{
			{Name: "n", Type: array.TInt64},
			{Name: "x", Type: array.TFloat64, Uncertain: true},
			{Name: "b", Type: array.TBool},
			{Name: "s", Type: array.TString},
		},
	}
}

// fuzzSeedChunk is a small chunk exercising const/RLE/delta/dict paths.
func fuzzSeedChunk(s *array.Schema) *array.Chunk {
	ch := array.NewChunk(s, array.Coord{1}, []int64{16})
	for i := int64(0); i < 16; i++ {
		_ = ch.Set(array.Coord{i + 1}, array.Cell{
			array.Int64(1000 + i),
			array.UncertainFloat(float64(i/4), 0.5),
			array.Bool64(i < 8),
			array.String64([]string{"aa", "bb"}[i%2]),
		})
	}
	return ch
}

// fuzzRunsChunk is a second seed over the same 16 slots whose columns lean
// on the readers that index into the bytes: 59-bit deltas wrapping past
// MaxInt64, RLE runs of NaN, signed zeros and infinities, bool runs, and a
// three-word dictionary.
func fuzzRunsChunk(s *array.Schema) *array.Chunk {
	floats := []float64{math.NaN(), math.Copysign(0, -1), 0, math.Inf(1)}
	ch := array.NewChunk(s, array.Coord{1}, []int64{16})
	for i := int64(0); i < 16; i++ {
		_ = ch.Set(array.Coord{i + 1}, array.Cell{
			array.Int64(math.MaxInt64 - 3<<57 + i<<57 + i%3),
			array.UncertainFloat(floats[i/4], 0.25),
			array.Bool64(i < 9),
			array.String64([]string{"north", "south", "east"}[i*7%3]),
		})
	}
	return ch
}

// fuzzRecordsChunk is a seed whose int and float columns are long enough,
// and varied enough, for the default codec to seal their values as byte
// planes: 1100 slots of random ints and of random floats with a sigma tail.
func fuzzRecordsChunk(s *array.Schema) *array.Chunk {
	rng := rand.New(rand.NewSource(4))
	ch := array.NewChunk(s, array.Coord{1}, []int64{1100})
	for i := int64(0); i < 1100; i++ {
		ch.Present.Set(i)
		ch.Cols[0].Ints[i] = rng.Int63()
		ch.Cols[1].Floats[i], ch.Cols[1].Sigma[i] = rng.NormFloat64()*1e3, rng.Float64()
		ch.Cols[3].Strs[i] = "r"
	}
	return ch
}

// fuzzPartialChunk is fuzzSeedChunk with every third slot absent, so its int
// and float columns — the float one with a sigma tail — are present-only.
func fuzzPartialChunk(s *array.Schema) *array.Chunk {
	ch := fuzzSeedChunk(s)
	for i := int64(0); i < 16; i += 3 {
		ch.Erase(array.Coord{i + 1})
	}
	return ch
}

// withSection returns enc — EncodeChunk bytes — with section i replaced by
// body, stored verbatim, and the table and checksums made to agree: what a
// fuzzer needs to get arbitrary bytes past the CRCs and into the section
// decoders.
func withSection(t testing.TB, s *array.Schema, enc []byte, i int, body []byte) []byte {
	t.Helper()
	hdr, err := parseHeader(s, enc, int64(len(enc)))
	if err != nil {
		t.Fatal(err)
	}
	hlen := headerLen(s)
	out := make([]byte, hlen)
	off := hlen
	for k := range hdr.secs {
		sec := enc[off : off+int(hdr.secs[k].stored)]
		off += len(sec)
		if k == i {
			sec = body
			hdr.secs[k] = section{stored: uint32(len(body)), decoded: uint32(len(body)), crc: crc32.Checksum(body, castagnoli)}
		}
		out = append(out, sec...)
	}
	hdr.put(out[:hlen])
	return out
}

// FuzzDecodeChunk feeds arbitrary bytes to DecodeChunk, whole and — with
// the checksums fixed up, since no random byte string passes them — as each
// section's content in a full chunk and in a partial one, whose int and float
// columns are present-only: it must return an error or a chunk, never panic
// or allocate past the buffer's implied bounds; a successful decode must
// re-encode.
func FuzzDecodeChunk(f *testing.F) {
	s := fuzzSchema()
	ch := fuzzSeedChunk(s)
	enc, err := EncodeChunk(s, ch)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(enc)
	mut := append([]byte(nil), enc...)
	mut[len(mut)/2] ^= 0xFF
	f.Add(mut)
	f.Add(enc[:len(enc)/2])
	// The bucket-file form: the same sections, each through the codec, and a
	// bucket whose int and float sections are sealed as byte planes.
	if sealed, err := sealChunk(nil, s, enc, compress.Auto{}); err == nil {
		f.Add(sealed)
	}
	recs, err := EncodeChunk(s, fuzzRecordsChunk(s))
	if err != nil {
		f.Fatal(err)
	}
	planes, err := sealChunk(nil, s, recs, compress.Auto{})
	if err != nil {
		f.Fatal(err)
	}
	if whole, err := sealChunk(nil, s, recs, wholeSections{compress.Auto{}}); err != nil || len(planes) >= len(whole) {
		f.Fatalf("the records seed seals to %d bytes, whole sections to %d (%v)", len(planes), len(whole), err)
	}
	f.Add(planes)
	// A partial chunk, whole and sealed, and a bucket whose present-only
	// float values and sigma tail are sealed as byte planes.
	part, err := EncodeChunk(s, fuzzPartialChunk(s))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(part)
	if sealed, err := sealChunk(nil, s, part, compress.Auto{}); err == nil {
		f.Add(sealed)
	}
	holed := fuzzRecordsChunk(s)
	for i := int64(0); i < 1100; i += 4 {
		holed.Present.Clear(i)
	}
	if recs, err := EncodeChunk(s, holed); err == nil {
		if sealed, err := sealChunk(nil, s, recs, compress.Auto{}); err == nil {
			f.Add(sealed)
		}
	}
	// Each section's own bytes, the seeds of the spliced decodes below, from
	// the three seed chunks.
	hdr, err := parseHeader(s, enc, int64(len(enc)))
	if err != nil {
		f.Fatal(err)
	}
	runs, err := EncodeChunk(s, fuzzRunsChunk(s))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(runs)
	for _, seed := range [][]byte{enc, runs, part} {
		h, err := parseHeader(s, seed, int64(len(seed)))
		if err != nil {
			f.Fatal(err)
		}
		for i, off := 0, headerLen(s); i < len(h.secs); i++ {
			f.Add(seed[off : off+int(h.secs[i].stored)])
			off += int(h.secs[i].stored)
		}
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		check := func(data []byte) {
			back, err := DecodeChunk(s, data)
			if err != nil {
				return
			}
			if _, err := EncodeChunk(s, back); err != nil {
				t.Fatalf("decoded chunk fails to re-encode: %v", err)
			}
		}
		check(data)
		for i := range hdr.secs {
			check(withSection(t, s, enc, i, data))
			check(withSection(t, s, part, i, data))
		}
	})
}

// fuzzZoneTypes is the order the zone-map fuzzer's type selector indexes.
var fuzzZoneTypes = []array.Type{array.TInt64, array.TFloat64, array.TString, array.TBool}

// FuzzDecodeZoneMap feeds arbitrary bytes to decodeZoneMap for each column
// type: it must return an error or a fully validated zone map, never panic.
// Every accepted map must satisfy the pruning invariants (counts inside the
// slot budget, ordered non-NaN bounds) and survive an encode/decode round
// trip unchanged — a corrupt range that slipped through would make the scan
// silently drop cells.
func FuzzDecodeZoneMap(f *testing.F) {
	seeds := []*array.ZoneMap{
		{Kind: array.TInt64, HasRange: true, MinInt: -3, MaxInt: 900, Nulls: 2, Distinct: 5},
		{Kind: array.TFloat64, HasRange: true, HasNaN: true, MinFloat: -0.5, MaxFloat: 12.25},
		{Kind: array.TString, HasRange: true, MinStr: "aa", MaxStr: "zz", Distinct: 2},
		{Kind: array.TBool, HasRange: true, MinInt: 0, MaxInt: 1},
		{Kind: array.TInt64, Nulls: 16}, // all-null: no range
	}
	for sel, z := range seeds {
		var buf bytes.Buffer
		w := NewFieldWriter(&buf)
		encodeZoneMap(w, z)
		if w.Err() != nil {
			f.Fatal(w.Err())
		}
		f.Add(uint8(sel), uint8(16), buf.Bytes())
		mut := append([]byte(nil), buf.Bytes()...)
		mut[len(mut)/2] ^= 0xFF
		f.Add(uint8(sel), uint8(16), mut)
		f.Add(uint8(sel), uint8(0), buf.Bytes()[:len(buf.Bytes())/2])
	}
	f.Fuzz(func(t *testing.T, typeSel, slotsByte uint8, data []byte) {
		want := fuzzZoneTypes[int(typeSel)%len(fuzzZoneTypes)]
		slots := int64(slotsByte)
		z, err := decodeZoneMap(NewFieldReaderBytes(data), want, slots)
		if err != nil {
			return
		}
		if z.Kind != want {
			t.Fatalf("decoded kind %v, want %v", z.Kind, want)
		}
		if z.Nulls < 0 || z.Nulls > slots || z.Distinct < 0 || z.Distinct > slots {
			t.Fatalf("counts escape %d slots: %+v", slots, z)
		}
		if z.HasRange {
			switch want {
			case array.TInt64, array.TBool:
				if z.MinInt > z.MaxInt {
					t.Fatalf("int bounds inverted: %+v", z)
				}
			case array.TFloat64:
				if math.IsNaN(z.MinFloat) || math.IsNaN(z.MaxFloat) || z.MinFloat > z.MaxFloat {
					t.Fatalf("float bounds invalid: %+v", z)
				}
			case array.TString:
				if z.MinStr > z.MaxStr {
					t.Fatalf("string bounds inverted: %+v", z)
				}
			}
		}
		var buf bytes.Buffer
		w := NewFieldWriter(&buf)
		encodeZoneMap(w, z)
		if w.Err() != nil {
			t.Fatalf("accepted zone map fails to re-encode: %v", w.Err())
		}
		back, err := decodeZoneMap(NewFieldReaderBytes(buf.Bytes()), want, slots)
		if err != nil {
			t.Fatalf("re-encoded zone map fails to decode: %v", err)
		}
		if !reflect.DeepEqual(z, back) {
			t.Fatalf("round trip drift:\n in: %+v\nout: %+v", z, back)
		}
	})
}

// FuzzDecodeArray does the same for the multi-chunk array container.
func FuzzDecodeArray(f *testing.F) {
	s := fuzzSchema()
	a := array.MustNew(s)
	a.PutChunk(fuzzSeedChunk(s))
	if enc, err := EncodeArray(a); err == nil {
		f.Add(enc)
		mut := append([]byte(nil), enc...)
		mut[4] ^= 0x7F
		f.Add(mut)
	}
	// A container whose chunk is in the bucket-file form.
	if enc, err := EncodeChunk(s, fuzzSeedChunk(s)); err == nil {
		if sealed, err := sealChunk(nil, s, enc, compress.Auto{}); err == nil {
			if framed, err := frameChunks([][]byte{sealed}); err == nil {
				f.Add(framed)
			}
		}
	}
	f.Add([]byte{0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		back, err := DecodeArray(s, data)
		if err != nil {
			return
		}
		if _, err := EncodeArray(back); err != nil {
			t.Fatalf("decoded array fails to re-encode: %v", err)
		}
	})
}
