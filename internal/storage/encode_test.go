package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"testing"

	"scidb/internal/array"
)

// encSchema1D is a one-dimensional schema with one attribute per scalar
// type, the shape the per-column encoding tests drive values through.
func encSchema1D(hi int64) *array.Schema {
	return &array.Schema{
		Name: "E",
		Dims: []array.Dimension{{Name: "i", High: hi}},
		Attrs: []array.Attribute{
			{Name: "n", Type: array.TInt64},
			{Name: "x", Type: array.TFloat64},
			{Name: "b", Type: array.TBool},
			{Name: "s", Type: array.TString},
		},
	}
}

// fillChunk sets every slot from the generator functions.
func fillChunk(s *array.Schema, slots int64, cell func(i int64) array.Cell) *array.Chunk {
	ch := array.NewChunk(s, array.Coord{1}, []int64{slots})
	for i := int64(0); i < slots; i++ {
		_ = ch.Set(array.Coord{i + 1}, cell(i))
	}
	return ch
}

// chunkCellsEqual compares two chunks cell by cell over the box, requiring
// byte-exact values (floats compared on their IEEE-754 bit images).
func chunkCellsEqual(t *testing.T, s *array.Schema, want, got *array.Chunk, slots int64) {
	t.Helper()
	for i := int64(1); i <= slots; i++ {
		a, aok := want.Get(array.Coord{i})
		b, bok := got.Get(array.Coord{i})
		if aok != bok {
			t.Fatalf("slot %d: present = %v, want %v", i, bok, aok)
		}
		if !aok {
			continue
		}
		for ai := range a {
			av, bv := a[ai], b[ai]
			if av.Null != bv.Null || av.Int != bv.Int || av.Bool != bv.Bool || av.Str != bv.Str ||
				math.Float64bits(av.Float) != math.Float64bits(bv.Float) {
				t.Fatalf("slot %d attr %s: %+v != %+v", i, s.Attrs[ai].Name, bv, av)
			}
		}
	}
}

// roundTrip checks DecodeChunk reproduces the chunk from its encoding,
// returning the encoded size and the verbatim size it is measured against.
func roundTrip(t *testing.T, s *array.Schema, ch *array.Chunk, slots int64) (encoded, raw int) {
	t.Helper()
	enc, err := EncodeChunk(s, ch)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeChunk(s, enc)
	if err != nil {
		t.Fatal(err)
	}
	chunkCellsEqual(t, s, ch, back, slots)
	return len(enc), int(RawChunkSize(s, ch))
}

// TestEncodingConstColumns: all-equal columns collapse to one value each.
func TestEncodingConstColumns(t *testing.T) {
	s := encSchema1D(256)
	ch := fillChunk(s, 256, func(i int64) array.Cell {
		return array.Cell{array.Int64(42), array.Float64(2.5), array.Bool64(true), array.String64("same")}
	})
	enc, raw := roundTrip(t, s, ch, 256)
	if enc >= raw/10 {
		t.Errorf("const chunk encoded to %d bytes, raw %d; want >10x shrink", enc, raw)
	}
}

// TestEncodingRLEColumns: long runs pick RLE.
func TestEncodingRLEColumns(t *testing.T) {
	s := encSchema1D(256)
	ch := fillChunk(s, 256, func(i int64) array.Cell {
		r := i / 64 // four plateaus
		return array.Cell{
			array.Int64(r * 1_000_000_007), // huge level gaps defeat delta
			array.Float64(float64(r) * 3.25),
			array.Bool64(r%2 == 0),
			array.String64([]string{"aa", "bb", "cc", "dd"}[r]),
		}
	})
	enc, raw := roundTrip(t, s, ch, 256)
	if enc >= raw/4 {
		t.Errorf("runny chunk encoded to %d bytes, raw %d; want >4x shrink", enc, raw)
	}
}

// TestEncodingDeltaColumn: a monotone int column bit-packs its deltas.
func TestEncodingDeltaColumn(t *testing.T) {
	s := &array.Schema{
		Name:  "D",
		Dims:  []array.Dimension{{Name: "i", High: 512}},
		Attrs: []array.Attribute{{Name: "tick", Type: array.TInt64}},
	}
	rng := rand.New(rand.NewSource(7))
	base := int64(1_700_000_000_000)
	vals := make([]int64, 512)
	for i := range vals {
		base += rng.Int63n(16) // small positive jitter: ~4-bit deltas
		vals[i] = base
	}
	ch := fillChunk(s, 512, func(i int64) array.Cell { return array.Cell{array.Int64(vals[i])} })
	enc, raw := roundTrip(t, s, ch, 512)
	if enc >= raw/4 {
		t.Errorf("monotone ints encoded to %d bytes, raw %d; want >4x shrink", enc, raw)
	}
}

// TestEncodingDeltaOverflow: deltas that wrap int64 still round-trip (the
// zigzag arithmetic is two's-complement on both sides).
func TestEncodingDeltaOverflow(t *testing.T) {
	s := &array.Schema{
		Name:  "O",
		Dims:  []array.Dimension{{Name: "i", High: 4}},
		Attrs: []array.Attribute{{Name: "n", Type: array.TInt64}},
	}
	extremes := []int64{math.MinInt64, math.MaxInt64, -1, math.MinInt64 + 1}
	ch := fillChunk(s, 4, func(i int64) array.Cell { return array.Cell{array.Int64(extremes[i])} })
	roundTrip(t, s, ch, 4)
}

// TestEncodingDictColumn: low-cardinality strings pick the dictionary.
func TestEncodingDictColumn(t *testing.T) {
	s := &array.Schema{
		Name:  "C",
		Dims:  []array.Dimension{{Name: "i", High: 512}},
		Attrs: []array.Attribute{{Name: "station", Type: array.TString}},
	}
	names := []string{"station-alpha", "station-beta", "station-gamma", "station-delta"}
	rng := rand.New(rand.NewSource(11))
	ch := fillChunk(s, 512, func(i int64) array.Cell {
		return array.Cell{array.String64(names[rng.Intn(len(names))])} // shuffled: defeats RLE
	})
	enc, raw := roundTrip(t, s, ch, 512)
	if enc >= raw/4 {
		t.Errorf("low-cardinality strings encoded to %d bytes, raw %d; want >4x shrink", enc, raw)
	}
}

// TestEncodingRawFallback: incompressible columns stay close to raw size
// (per column, one tag byte plus a fixed-size zone map) and still
// round-trip.
func TestEncodingRawFallback(t *testing.T) {
	s := encSchema1D(128)
	rng := rand.New(rand.NewSource(3))
	ch := fillChunk(s, 128, func(i int64) array.Cell {
		return array.Cell{
			array.Int64(rng.Int63()),
			array.Float64(rng.NormFloat64()),
			array.Bool64(rng.Intn(2) == 0),
			array.String64(randWord(rng, 8)),
		}
	})
	enc, raw := roundTrip(t, s, ch, 128)
	// Overhead per column: 1 tag byte + the zone map (2+16 header bytes
	// plus the min/max pair — 16 for numerics, string lengths for strings)
	// + its section-table entry; per chunk, the table's frame and CRC.
	if enc > raw+16+4*(64+13) {
		t.Errorf("random chunk grew to %d bytes, raw %d", enc, raw)
	}
}

// TestEncodingFloatBitPatterns: NaN and signed zero survive RLE/const
// byte-exactly (runs compare bit images, not float equality).
func TestEncodingFloatBitPatterns(t *testing.T) {
	s := &array.Schema{
		Name:  "F",
		Dims:  []array.Dimension{{Name: "i", High: 64}},
		Attrs: []array.Attribute{{Name: "x", Type: array.TFloat64}},
	}
	nan := math.NaN()
	ch := fillChunk(s, 64, func(i int64) array.Cell {
		switch {
		case i < 20:
			return array.Cell{array.Float64(nan)}
		case i < 40:
			return array.Cell{array.Float64(math.Copysign(0, -1))}
		default:
			return array.Cell{array.Float64(0)}
		}
	})
	enc, err := EncodeChunk(s, ch)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeChunk(s, enc)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := back.Get(array.Coord{1}); !math.IsNaN(v[0].Float) {
		t.Error("NaN lost")
	}
	if v, _ := back.Get(array.Coord{21}); math.Float64bits(v[0].Float) != math.Float64bits(math.Copysign(0, -1)) {
		t.Error("-0.0 lost")
	}
	if v, _ := back.Get(array.Coord{41}); math.Float64bits(v[0].Float) != 0 {
		t.Error("+0.0 lost")
	}
}

// randWord builds an n-letter lowercase word.
func randWord(rng *rand.Rand, n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte('a' + rng.Intn(26))
	}
	return string(b)
}

// randAttrs draws one to three scalar attributes and, for each, a value
// distribution: constant, runny, monotone, or random — between them every
// column encoding (const, RLE, delta bit-packing, dictionary, raw).
func randAttrs(rng *rand.Rand) (attrs []array.Attribute, dist []int) {
	types := []array.Type{array.TInt64, array.TFloat64, array.TBool, array.TString}
	attrs = make([]array.Attribute, 1+rng.Intn(3))
	dist = make([]int, len(attrs))
	for i := range attrs {
		attrs[i] = array.Attribute{Name: "a" + string(rune('0'+i)), Type: types[rng.Intn(len(types))]}
		dist[i] = rng.Intn(4)
	}
	return attrs, dist
}

// randCell draws the cell for the i-th slot of a sequence under randAttrs'
// distributions, with NULLs and — in float columns — NaNs mixed in.
func randCell(rng *rand.Rand, attrs []array.Attribute, dist []int, i int64) array.Cell {
	words := []string{"x", "yy", "zzz", "wwww"}
	cell := make(array.Cell, len(attrs))
	for ai, at := range attrs {
		if rng.Intn(13) == 0 {
			cell[ai] = array.NullValue(at.Type)
			continue
		}
		var k int64
		switch dist[ai] {
		case 0:
			k = 7
		case 1:
			k = i / (1 + int64(rng.Intn(3)*16))
		case 2:
			k = i * 3
		default:
			k = rng.Int63()
		}
		switch at.Type {
		case array.TInt64:
			cell[ai] = array.Int64(k)
		case array.TFloat64:
			cell[ai] = array.Float64(float64(k) * 0.5)
			if dist[ai] == 3 && rng.Intn(17) == 0 {
				cell[ai] = array.Float64(math.NaN())
			}
		case array.TBool:
			cell[ai] = array.Bool64(k%2 == 0)
		case array.TString:
			cell[ai] = array.String64(words[int(uint64(k)%uint64(len(words)))])
		}
	}
	return cell
}

// randChunk draws a one-dimensional chunk of 1 to 200 slots under randAttrs'
// schema and distributions, with holes in its presence bitmap.
func randChunk(rng *rand.Rand) (*array.Schema, *array.Chunk) {
	attrs, dist := randAttrs(rng)
	slots := int64(1 + rng.Intn(200))
	s := &array.Schema{
		Name:  "R",
		Dims:  []array.Dimension{{Name: "i", High: slots}},
		Attrs: attrs,
	}
	ch := array.NewChunk(s, array.Coord{1}, []int64{slots})
	for i := int64(0); i < slots; i++ {
		if rng.Intn(5) == 0 {
			continue // leave holes in the presence bitmap
		}
		_ = ch.Set(array.Coord{i + 1}, randCell(rng, attrs, dist, i))
	}
	return s, ch
}

// TestEncodingPropertyRandomSchemas: randomized schemas and value
// distributions; every chunk must round-trip byte-exactly regardless of
// which encoding the chooser picks.
func TestEncodingPropertyRandomSchemas(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 60; trial++ {
		s, ch := randChunk(rng)
		roundTrip(t, s, ch, ch.Slots())
	}
}

// TestLegacyChunkFormatRejected hand-assembles a v0 (pre-sectioned,
// verbatim) chunk byte stream and requires DecodeChunk to refuse it with
// ErrCorrupt: there is one layout, and what is not it is never guessed at.
// The same bytes pin RawChunkSize, which prices that verbatim layout.
func TestLegacyChunkFormatRejected(t *testing.T) {
	s := &array.Schema{
		Name:  "L",
		Dims:  []array.Dimension{{Name: "i", High: 2}},
		Attrs: []array.Attribute{{Name: "n", Type: array.TInt64}},
	}
	var b bytes.Buffer
	put32 := func(v uint32) { _ = binary.Write(&b, binary.LittleEndian, v) }
	put64 := func(v uint64) { _ = binary.Write(&b, binary.LittleEndian, v) }
	put32(0x53434442) // magic "SCDB"
	b.WriteByte(1)    // nd — where the version byte now sits
	put64(1)          // origin
	put64(2)          // shape -> 2 slots
	put32(1)          // presence bitmap: 1 word
	put64(0b11)       // both slots present
	b.WriteByte(0)    // column flags: v0, no sigma
	put32(1)          // null bitmap: 1 word
	put64(0)          // no nulls
	put64(123)        // slot 0 value, verbatim
	put64(456)        // slot 1 value, verbatim
	if _, err := DecodeChunk(s, b.Bytes()); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("v0 chunk: err = %v, want ErrCorrupt", err)
	}
	ch := fillChunk(s, 2, func(i int64) array.Cell { return array.Cell{array.Int64(123 + 333*i)} })
	if got := RawChunkSize(s, ch); got != int64(b.Len()) {
		t.Errorf("RawChunkSize = %d, want the verbatim layout's %d", got, b.Len())
	}
	// A future version byte is refused the same way, whatever follows it.
	enc, err := EncodeChunk(s, ch)
	if err != nil {
		t.Fatal(err)
	}
	enc[4] = chunkVersion + 1
	if _, err := DecodeChunk(s, enc); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("unknown version: err = %v, want ErrCorrupt", err)
	}
}

// TestDecodeCorruptEncodedColumns: corrupt streams fail cleanly. Every
// byte of the encoding is under a checksum, so no truncation and no flipped
// byte decodes at all.
func TestDecodeCorruptEncodedColumns(t *testing.T) {
	s := encSchema1D(64)
	ch := fillChunk(s, 64, func(i int64) array.Cell {
		return array.Cell{array.Int64(i), array.Float64(float64(i)), array.Bool64(true), array.String64("w")}
	})
	good, err := EncodeChunk(s, ch)
	if err != nil {
		t.Fatal(err)
	}
	// Truncations at every length must error, never panic.
	for n := 0; n < len(good); n += 7 {
		if _, err := DecodeChunk(s, good[:n]); err == nil {
			t.Fatalf("truncation to %d bytes accepted", n)
		}
	}
	for i := 0; i < len(good); i++ {
		mut := append([]byte(nil), good...)
		mut[i] ^= 0xFF
		if _, err := DecodeChunk(s, mut); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("byte %d flipped: err = %v, want ErrCorrupt", i, err)
		}
	}
}

// TestDecodeArrayCorruptCount: a chunk count larger than the buffer could
// hold is rejected before allocation.
func TestDecodeArrayCorruptCount(t *testing.T) {
	s := encSchema1D(8)
	var b bytes.Buffer
	_ = binary.Write(&b, binary.LittleEndian, uint32(0x10000000)) // 268M chunks
	if _, err := DecodeArray(s, b.Bytes()); err == nil {
		t.Error("absurd chunk count accepted")
	}
}

// TestUncertainColumnsStillEncoded: the sigma tail rides after encoded
// values exactly as it did after verbatim values.
func TestUncertainColumnsStillEncoded(t *testing.T) {
	s := &array.Schema{
		Name:  "U",
		Dims:  []array.Dimension{{Name: "i", High: 32}},
		Attrs: []array.Attribute{{Name: "x", Type: array.TFloat64, Uncertain: true}},
	}
	ch := fillChunk(s, 32, func(i int64) array.Cell {
		return array.Cell{array.UncertainFloat(1.5, float64(i)*0.125)}
	})
	enc, err := EncodeChunk(s, ch)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeChunk(s, enc)
	if err != nil {
		t.Fatal(err)
	}
	v, ok := back.Get(array.Coord{9})
	if !ok || v[0].Sigma != 1.0 {
		t.Errorf("sigma = %v,%v; want 1.0", v, ok)
	}
}

// TestEncodeChunkForwardsKeptPayload: a decoded chunk does not keep its
// input, and one given its payload (array.Chunk.KeepEncoded) encodes to
// those very bytes under any schema that encodes alike — names and bounds
// may differ — and is encoded afresh under one whose attribute type or
// error bars differ.
func TestEncodeChunkForwardsKeptPayload(t *testing.T) {
	s := encSchema1D(8)
	ch := fillChunk(s, 8, func(i int64) array.Cell {
		return array.Cell{array.Int64(i), array.Float64(float64(i) / 2), array.Bool64(i%2 == 0), array.String64("s")}
	})
	enc, err := EncodeChunk(s, ch)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeChunk(s, enc)
	if err != nil {
		t.Fatal(err)
	}
	if _, kept := back.Encoded(); kept != nil {
		t.Fatal("DecodeChunk kept its input")
	}
	back.KeepEncoded(s, enc)
	same := func(b []byte) bool { return len(b) == len(enc) && &b[0] == &enc[0] }

	renamed := encSchema1D(100)
	renamed.Name = "F"
	for i := range renamed.Attrs {
		renamed.Attrs[i].Name += "2"
	}
	if out, err := EncodeChunk(renamed, back); err != nil || !same(out) {
		t.Errorf("under a schema that encodes alike: %d bytes (%v), want the kept %d", len(out), err, len(enc))
	}
	retyped := encSchema1D(8)
	retyped.Attrs[0].Type = array.TFloat64
	if out, err := EncodeChunk(retyped, back); err == nil && (same(out) || bytes.Equal(out, enc)) {
		t.Error("under a schema whose attribute type differs, the kept payload was forwarded")
	}
	uncertain := encSchema1D(8)
	uncertain.Attrs[1].Uncertain = true
	if out, err := EncodeChunk(uncertain, back); err != nil || same(out) || !bytes.Equal(out, enc) {
		t.Errorf("under a schema with error bars: forwarded %v (%v); want an encoding afresh, alike", same(out), err)
	}
}
