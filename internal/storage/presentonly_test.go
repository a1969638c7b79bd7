package storage

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"scidb/internal/array"
	"scidb/internal/compress"
)

// presentOnlySchema is a schema of every column kind a partial chunk holds:
// an uncertain float (values and a sigma tail), an int, a bool and a string.
func presentOnlySchema(slots int64) *array.Schema {
	return &array.Schema{Name: "P", Dims: []array.Dimension{{Name: "i", High: max(slots, 1)}},
		Attrs: []array.Attribute{
			{Name: "f", Type: array.TFloat64, Uncertain: true},
			{Name: "n", Type: array.TInt64},
			{Name: "b", Type: array.TBool},
			{Name: "s", Type: array.TString},
		}}
}

// presentOnlyChunk fills a chunk of slots under presence p with the values a
// present-only column must carry bit for bit — NaN payloads, signed zeros,
// MinInt64 and MaxInt64, NULLs at present slots — and values left in absent
// slots, which the encoding drops.
func presentOnlyChunk(rng *rand.Rand, slots int, p func(i, slots int) bool) (*array.Schema, *array.Chunk) {
	s := presentOnlySchema(int64(slots))
	ch := array.NewChunk(s, array.Coord{1}, []int64{int64(slots)})
	floats := []float64{math.Float64frombits(0x7ff8_0000_0000_0042), math.NaN(), math.Copysign(0, -1), 0, math.Inf(-1), 2.5}
	ints := []int64{math.MinInt64, math.MaxInt64, 0, -1, 7}
	for i := 0; i < slots; i++ {
		if p(i, slots) {
			ch.Present.Set(int64(i))
		}
		switch i % 3 {
		case 0:
			ch.Cols[0].Floats[i], ch.Cols[1].Ints[i] = floats[rng.Intn(len(floats))], ints[rng.Intn(len(ints))]
		default:
			ch.Cols[0].Floats[i], ch.Cols[1].Ints[i] = rng.NormFloat64(), rng.Int63()-rng.Int63()
		}
		ch.Cols[0].Sigma[i] = float64(rng.Intn(8)) / 4
		ch.Cols[2].Bools[i] = rng.Intn(2) == 0
		ch.Cols[3].Strs[i] = []string{"east", "west"}[rng.Intn(2)]
		if i%13 == 5 {
			for _, col := range ch.Cols {
				col.Nulls.Set(int64(i))
			}
		}
	}
	return s, ch
}

// clearAbsent returns ch, an open chunk of presentOnlySchema, with its bool
// and string columns' absent slots zeroed: what a sealed chunk of the same
// cells, which keeps no value for an absent slot, stores there.
func clearAbsent(ch *array.Chunk) *array.Chunk {
	for i := range ch.Slots() {
		if !ch.Present.Get(i) {
			ch.Cols[2].Bools[i], ch.Cols[3].Strs[i] = false, ""
		}
	}
	return ch
}

// requireSameCells fails t unless got holds want's cells: the same presence,
// and at every present slot the same NULLs, values and error bars, floats bit
// for bit.
func requireSameCells(t *testing.T, label string, got, want *array.Chunk) {
	t.Helper()
	if got.Present.Count() != want.Present.Count() {
		t.Fatalf("%s: %d cells present, want %d", label, got.Present.Count(), want.Present.Count())
	}
	for i := want.Present.NextSet(0); i < want.Present.Len(); i = want.Present.NextSet(i + 1) {
		if !got.Present.Get(i) {
			t.Fatalf("%s: slot %d is absent", label, i)
		}
		for a, wc := range want.Cols {
			g, w := got.Cols[a].Get(i), wc.Get(i)
			if g.Null != w.Null || g.Int != w.Int || g.Str != w.Str || g.Bool != w.Bool ||
				math.Float64bits(g.Float) != math.Float64bits(w.Float) || math.Float64bits(g.Sigma) != math.Float64bits(w.Sigma) {
				t.Fatalf("%s: slot %d column %d is %+v, want %+v", label, i, a, g, w)
			}
		}
	}
}

// columnFlags is the flag byte of each column section of an encoding.
func columnFlags(t *testing.T, s *array.Schema, enc []byte) []uint8 {
	t.Helper()
	out := make([]uint8, len(s.Attrs))
	for a := range out {
		out[a] = columnSection(t, s, enc, a)[0]
	}
	return out
}

// TestPresentOnlyRoundTrip: over chunks of 1, 64, 65, 300 and 4096 slots
// under every presence pattern — and a float column with one shared error bar
// instead of a tail, and a presence bitmap with bits set past the chunk's
// slots, which a decoded frame may carry — a chunk's int and float columns
// are present-only exactly when it has an absent slot, and its bool and
// string columns never are; the encoding is the reference encoder's and
// decodes as the reference decodes it, to the input's cells with the absent
// numeric slots zeroed; a decoded chunk encodes to the same bytes; and the
// bucket sealed from it decodes to the same chunk.
func TestPresentOnlyRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	type input struct {
		label string
		s     *array.Schema
		ch    *array.Chunk
	}
	var inputs []input
	for _, slots := range []int{1, 64, 65, 300, 4096} {
		for _, p := range presencePatterns {
			s, ch := presentOnlyChunk(rng, slots, p.present)
			inputs = append(inputs, input{fmt.Sprintf("%d slots %s", slots, p.name), s, ch})
		}
	}
	s, shared := presentOnlyChunk(rng, 300, presencePatterns[1].present)
	shared.Cols[0].Sigma, shared.Cols[0].HasShared, shared.Cols[0].SharedSigma = nil, true, 0.25
	_, past := presentOnlyChunk(rng, 65, presencePatterns[0].present)
	past.Present = array.FromWords(65, []uint64{^uint64(0) &^ 0b1010, ^uint64(0)})
	inputs = append(inputs, input{"shared sigma", s, shared}, input{"bits past the slots", presentOnlySchema(65), past})
	flagged := 0
	for _, in := range inputs {
		label, s, ch := in.label, in.s, in.ch
		enc, err := EncodeChunk(s, ch)
		if err != nil {
			t.Fatal(err)
		}
		if ref, _, err := refEncodeChunkZones(s, ch, false); err != nil || !bytes.Equal(enc, ref) {
			t.Fatalf("%s: encoding differs from the reference's (%v)", label, err)
		}
		partial := ch.Present.Count() < ch.Slots()
		for a, flags := range columnFlags(t, s, enc) {
			numeric := s.Attrs[a].Type == array.TInt64 || s.Attrs[a].Type == array.TFloat64
			if got := flags&colFlagPresentOnly != 0; got != (partial && numeric) {
				t.Fatalf("%s: column %s present-only %v", label, s.Attrs[a].Name, got)
			}
			if flags&colFlagPresentOnly != 0 {
				flagged++
			}
		}
		back, err := DecodeChunk(s, enc)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		ref, err := refDecodeChunk(s, enc)
		if err != nil {
			t.Fatalf("%s: reference: %v", label, err)
		}
		sameChunk(t, label, back, ref)
		requireSameCells(t, label, back, ch)
		// A decoded column holds a value per present slot and none for an
		// absent one.
		n := int(ch.Present.Count())
		for _, col := range back.Cols {
			if l := len(col.Floats) + len(col.Ints) + len(col.Bools) + len(col.Strs); l != n || col.Sigma != nil && len(col.Sigma) != n {
				t.Fatalf("%s: a %v column decodes to %d values for %d present slots", label, col.Type, l, n)
			}
		}
		want, err := EncodeChunk(s, clearAbsent(ch))
		if err != nil {
			t.Fatal(err)
		}
		if again, err := EncodeChunk(s, back); err != nil || !bytes.Equal(again, want) {
			t.Fatalf("%s: the decoded chunk encodes to other bytes (%v)", label, err)
		}
		bucket, err := sealChunk(nil, s, enc, compress.Auto{})
		if err != nil {
			t.Fatal(err)
		}
		opened, err := DecodeChunk(s, bucket)
		if err != nil {
			t.Fatalf("%s: sealed: %v", label, err)
		}
		sameChunk(t, label+" sealed", opened, back)
	}
	if flagged == 0 {
		t.Fatal("no column was written present-only")
	}
}

// TestPresentOnlySizeBound: with k of n slots present, a column of random
// values costs at most 8 bytes a present value — 16 with a sigma tail — plus
// its n-bit null bitmap and a constant (flag, zone map, tag), however many
// slots are absent.
func TestPresentOnlySizeBound(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	const overhead = 64 // flag, zone map (at most 34 bytes for a number), tag, bitmap rounding
	for _, n := range []int{64, 300, 4096, 16384} {
		for _, k := range []int{0, 1, n / 8, n / 3, n - 1} {
			s, ch := presentOnlyChunk(rng, n, func(i, _ int) bool { return i < k })
			enc, err := EncodeChunk(s, ch)
			if err != nil {
				t.Fatal(err)
			}
			for a, per := range map[int]int{0: 16, 1: 8} {
				sec := columnSection(t, s, enc, a)
				if bound := per*k + n/8 + overhead; len(sec) > bound {
					t.Errorf("%d of %d present: column %s is %d bytes, bound %d", k, n, s.Attrs[a].Name, len(sec), bound)
				}
			}
		}
	}
}

// TestPerSlotPartialChunkStillDecodes: a partial chunk written the way every
// chunk was before present-only columns — every value per slot, no flag,
// built by the reference encoder — decodes as the reference decodes it, to
// the same cells, its run-length column included; re-encoded it takes the
// present-only layout.
func TestPerSlotPartialChunkStillDecodes(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, p := range presencePatterns[1:] {
		s, ch := presentOnlyChunk(rng, 4096, p.present)
		// A run-encoded column too: RLE over slots, absent ones included.
		for i := range ch.Cols[1].Ints {
			ch.Cols[1].Ints[i] = int64(i / 700)
		}
		old, _, err := refEncodeChunkZones(s, ch, true)
		if err != nil {
			t.Fatal(err)
		}
		for a, flags := range columnFlags(t, s, old) {
			if flags&colFlagPresentOnly != 0 {
				t.Fatalf("%s: the per-slot layout flags column %d", p.name, a)
			}
		}
		back, err := DecodeChunk(s, old)
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		ref, err := refDecodeChunk(s, old)
		if err != nil {
			t.Fatal(err)
		}
		sameChunk(t, p.name, back, ref)
		requireSameCells(t, p.name, back, ch)
		r := NewFieldReaderBytes(columnSection(t, s, old, 1))
		if _, _, err := columnHead(r, s.Attrs[1], ch.Slots(), true); err != nil || r.U8() != encRLE {
			t.Fatalf("%s: the per-slot layout does not run-length encode column 1", p.name)
		}
		now, err := EncodeChunk(s, back)
		if err != nil {
			t.Fatal(err)
		}
		if want, _, _ := refEncodeChunkZones(s, clearAbsent(ch), false); !bytes.Equal(now, want) {
			t.Fatalf("%s: re-encoded, the chunk is not in the present-only layout", p.name)
		}
	}
}

// TestPresentOnlyNonCanonicalIsErrCorrupt: the present-only flag on a full
// chunk's column, on a bool or string column, and a present-only column
// holding one value more or fewer than the chunk has present slots, each
// fail DecodeChunk with ErrCorrupt — so an accepted encoding is the one its
// chunk encodes to.
func TestPresentOnlyNonCanonicalIsErrCorrupt(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	s, full := presentOnlyChunk(rng, 300, presencePatterns[0].present)
	_, part := presentOnlyChunk(rng, 300, presencePatterns[1].present)
	fullEnc, err := EncodeChunk(s, full)
	if err != nil {
		t.Fatal(err)
	}
	partEnc, err := EncodeChunk(s, part)
	if err != nil {
		t.Fatal(err)
	}
	// rawInts is an int column section: flag byte, null bitmap, no zone map,
	// then n raw values.
	rawInts := func(flags uint8, n int64) []byte {
		var b bytes.Buffer
		w := NewFieldWriter(&b)
		w.U8(flags)
		writeBitmap(w, array.NewBitmap(300))
		w.U8(encRaw)
		w.I64sRaw(make([]int64, n))
		return b.Bytes()
	}
	flip := func(enc []byte, a int) []byte {
		sec := append([]byte(nil), columnSection(t, s, enc, a)...)
		sec[0] ^= colFlagPresentOnly
		return withSection(t, s, enc, 1+a, sec)
	}
	k := part.Present.Count()
	if _, err := DecodeChunk(s, withSection(t, s, partEnc, 2, rawInts(colFlagPresentOnly, k))); err != nil {
		t.Fatalf("a well-formed present-only section fails: %v", err)
	}
	for name, enc := range map[string][]byte{
		"flag on a full chunk's float": flip(fullEnc, 0),
		"flag on a full chunk's int":   flip(fullEnc, 1),
		"flag on a bool column":        flip(partEnc, 2),
		"flag on a string column":      flip(partEnc, 3),
		"one value too many":           withSection(t, s, partEnc, 2, rawInts(colFlagPresentOnly, k+1)),
		"one value too few":            withSection(t, s, partEnc, 2, rawInts(colFlagPresentOnly, k-1)),
		"slot values unflagged":        withSection(t, s, partEnc, 2, rawInts(0, k)),
	} {
		if _, err := DecodeChunk(s, enc); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: decode returned %v, want ErrCorrupt", name, err)
		}
	}
}

// sparseChunk is a 64×64-slot chunk of an int and a float column with about
// 27 % of its slots present — the SS-DB catalog's occupancy — one NULL in
// eleven, in its open form: one value per slot.
func sparseChunk() (*array.Schema, *array.Chunk) {
	s := &array.Schema{Name: "sparse", Dims: []array.Dimension{{Name: "x", High: 64}, {Name: "y", High: 64}},
		Attrs: []array.Attribute{{Name: "id", Type: array.TInt64}, {Name: "mag", Type: array.TFloat64}}}
	rng := rand.New(rand.NewSource(27))
	ch := array.NewChunk(s, array.Coord{1, 1}, []int64{64, 64})
	for i := range ch.Slots() {
		if rng.Intn(100) >= 27 {
			continue
		}
		ch.Present.Set(i)
		ch.Cols[0].SetInt(i, rng.Int63())
		if rng.Intn(11) == 0 {
			ch.Cols[1].SetNull(i)
		} else {
			ch.Cols[1].SetFloat(i, rng.NormFloat64(), 0)
		}
	}
	return s, ch
}

// TestDecodedPartialChunkIsPacked pins the representation a partial chunk
// decodes to: each column holds one value per present cell, its values in
// slot order, and the chunk's ByteSize — what the buffer pool charges it —
// counts those values, not the box, so a pool budget holds more sparse
// buckets per byte than their open twins would take.
func TestDecodedPartialChunkIsPacked(t *testing.T) {
	s, open := sparseChunk()
	enc, err := EncodeChunk(s, open)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := DecodeChunk(s, enc)
	if err != nil {
		t.Fatal(err)
	}
	n := ch.CellsPresent()
	if frac := float64(n) / float64(ch.Slots()); frac < 0.24 || frac > 0.30 {
		t.Fatalf("%d of %d slots present: not the catalog's occupancy", n, ch.Slots())
	}
	if int64(len(ch.Cols[0].Ints)) != n || int64(len(ch.Cols[1].Floats)) != n || ch.Cols[0].Rank() == nil {
		t.Fatalf("decoded columns hold %d and %d values for %d present cells", len(ch.Cols[0].Ints), len(ch.Cols[1].Floats), n)
	}
	k := 0
	for i := open.Present.NextSet(0); i < open.Slots(); i = open.Present.NextSet(i + 1) {
		if ch.Cols[0].Ints[k] != open.Cols[0].Ints[i] || ch.Cols[1].Floats[k] != open.Cols[1].Floats[i] {
			t.Fatalf("present slot %d (value %d) decodes to %d, %g; want %d, %g", i, k,
				ch.Cols[0].Ints[k], ch.Cols[1].Floats[k], open.Cols[0].Ints[i], open.Cols[1].Floats[i])
		}
		k++
	}
	bitmap := int64(len(ch.Present.Words())) * 8
	want := bitmap + 2*(n*8+bitmap+ch.Cols[0].Rank().Bytes())
	if got := ch.ByteSize(); got != want {
		t.Fatalf("ByteSize %d, want %d: the present values, the bitmaps and the rank directory", got, want)
	}
	if got, slotSized := ch.ByteSize(), open.ByteSize(); 3*got > slotSized {
		t.Fatalf("sealed chunk charged %d bytes, its open twin %d: want under a third", got, slotSized)
	}
}

// BenchmarkDecodePartialChunk decodes sparseChunk's encoding once per
// iteration: the allocations and bytes per op are what a decoded partial
// chunk costs, its value vectors sized to its present cells.
func BenchmarkDecodePartialChunk(b *testing.B) {
	s, ch := sparseChunk()
	enc, err := EncodeChunk(s, ch)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeChunk(s, enc); err != nil {
			b.Fatal(err)
		}
	}
}
