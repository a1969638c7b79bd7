package storage

import (
	"bytes"
	"errors"
	"hash/crc32"
	"math"
	"math/rand"
	"testing"

	"scidb/internal/array"
	"scidb/internal/compress"
	"scidb/internal/partition"
	"scidb/internal/ssdb"
)

// wholeSections is Auto with only its Codec methods: an interface embed
// promotes no EncodeRecords, so sealChunk passes every section through
// Encode whole — the bytes every bucket had before records were sealed as
// planes.
type wholeSections struct{ compress.Codec }

// payload is one EncodeChunk payload and the schema it is under.
type payload struct {
	name string
	s    *array.Schema
	enc  []byte
}

// ssdbPayloads cuts the SS-DB arrays (seed 1, 256²×4) into the chunks the
// standing benchmark's loader ships: a 64 stride in every dimension, each
// array block-partitioned on x across three sites, so chunks that straddle a
// site boundary arrive as partial chunks, one per site.
func ssdbPayloads(t testing.TB) []payload {
	t.Helper()
	ds, err := ssdb.Setup(ssdb.Config{Size: 256, Passes: 4, Seed: 1, Threshold: 13, Tile: 8})
	if err != nil {
		t.Fatal(err)
	}
	var out []payload
	for _, src := range []*array.Array{ds.Raw, ds.Cooked, ds.Catalog} {
		s := src.Schema.Clone()
		for i := range s.Dims {
			s.Dims[i].ChunkLen = 64
			if s.Dims[i].High == array.Unbounded {
				s.Dims[i].High = src.Hwm(i)
			}
		}
		scheme := partition.Block{Nodes: 3, SplitDim: s.DimIndex("x"), High: 256}
		sites := make([]*array.Array, scheme.Nodes)
		for i := range sites {
			sites[i] = array.MustNew(s)
		}
		src.Iter(func(c array.Coord, cell array.Cell) bool {
			if err = sites[scheme.NodeFor(c)].Set(c, cell); err != nil {
				return false
			}
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, site := range sites {
			for _, ch := range site.Chunks() {
				enc, err := EncodeChunk(s, ch)
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, payload{src.Schema.Name, s, enc})
			}
		}
	}
	return out
}

// eachSection calls f with every section of an EncodeChunk payload, the
// attribute of a column's (nil for the presence bitmap), the slot count and
// the present slots' count.
func eachSection(t testing.TB, s *array.Schema, enc []byte, f func(i int, sec []byte, at *array.Attribute, slots, present int64)) {
	t.Helper()
	hdr, err := parseHeader(s, enc, int64(len(enc)))
	if err != nil {
		t.Fatal(err)
	}
	off := headerLen(s)
	present := presentCount(enc[off:off+int(hdr.secs[0].stored)], hdr.slots())
	for i, sec := range hdr.secs {
		var at *array.Attribute
		if i > 0 {
			at = &s.Attrs[i-1]
		}
		f(i, enc[off:off+int(sec.stored)], at, hdr.slots(), present)
		off += int(sec.stored)
	}
}

// TestSealedRecordsNoLarger: on the chunks the benchmark stores, every
// section whose values are records seals no larger than Auto.Encode would
// seal it, and decodes back; every other section seals to exactly
// Auto.Encode's bytes.
func TestSealedRecordsNoLarger(t *testing.T) {
	var records, rle int
	var sealed, whole int64
	for _, p := range ssdbPayloads(t) {
		eachSection(t, p.s, p.enc, func(i int, sec []byte, at *array.Attribute, slots, present int64) {
			got, want := sealSection(nil, compress.Auto{}, sec, at, slots, present), compress.Auto{}.Encode(sec)
			sealed, whole = sealed+int64(len(got)), whole+int64(len(want))
			var width int
			if at != nil {
				_, _, width, _ = recordRegion(sec, *at, slots, present)
			}
			if width == 0 {
				if !bytes.Equal(got, want) {
					t.Fatalf("%s section %d: no records, but sealed to other bytes than Auto.Encode's", p.name, i)
				}
				return
			}
			records++
			if width == 12 {
				rle++
			}
			if len(got) > len(want) {
				t.Errorf("%s section %d (%d-byte records): sealed %d bytes, Auto.Encode %d", p.name, i, width, len(got), len(want))
			}
			if back, err := (compress.Auto{}).Decode(nil, got); err != nil || !bytes.Equal(back, sec) {
				t.Fatalf("%s section %d: sealed records do not decode back: %v", p.name, i, err)
			}
		})
	}
	if records == 0 || rle == 0 {
		t.Fatalf("%d record sections, %d of them RLE: the chunks do not cover both layouts", records, rle)
	}
	t.Logf("%d record sections (%d RLE): sealed %d bytes, Auto.Encode %d (%.3f×)", records, rle, sealed, whole, float64(sealed)/float64(whole))
}

// sealCorpus is a chunk of every shape a record section comes in: random,
// smooth and integer-valued floats, NaN payloads, signed zeros and
// infinities, extreme ints, sigma tails, present-only values of a chunk a
// site boundary cuts, chunks with no cell and with one slot, and record
// regions below and above the smallest Auto splits into planes.
func sealCorpus() []payload {
	rng := rand.New(rand.NewSource(9))
	attrs := []array.Attribute{
		{Name: "f", Type: array.TFloat64}, {Name: "n", Type: array.TInt64},
		{Name: "u", Type: array.TFloat64, Uncertain: true},
	}
	specials := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1)}
	floats := map[string]func(i int64) float64{
		"random":   func(int64) float64 { return rng.NormFloat64() * 100 },
		"smooth":   func(i int64) float64 { return 20 * math.Sin(float64(i)/40) },
		"integral": func(int64) float64 { return float64(rng.Intn(1 << 12)) },
		"nan":      func(int64) float64 { return math.Float64frombits(0x7ff8_0000_0000_0001 | rng.Uint64()&0xffff_ffff) },
		"specials": func(int64) float64 { return specials[rng.Intn(len(specials))] },
	}
	ints := []int64{math.MinInt64, math.MaxInt64, 0, -7}
	var out []payload
	for name, v := range floats {
		for _, shape := range []struct {
			slots   int64
			present func(i int64) bool
		}{
			{1, func(int64) bool { return true }},
			{300, func(int64) bool { return true }},
			{2048, func(int64) bool { return true }},
			{16384, func(int64) bool { return true }},
			{16384, func(i int64) bool { return i%64 < 20 }}, // a site boundary: present-only
			{4096, func(int64) bool { return false }},
		} {
			s := &array.Schema{Name: name, Dims: []array.Dimension{{Name: "i", High: shape.slots}}, Attrs: attrs}
			ch := array.NewChunk(s, array.Coord{1}, []int64{shape.slots})
			for i := int64(0); i < shape.slots; i++ {
				if !shape.present(i) {
					continue
				}
				ch.Present.Set(i)
				ch.Cols[0].Floats[i] = v(i)
				ch.Cols[1].Ints[i] = ints[rng.Intn(len(ints))] + rng.Int63n(2)
				ch.Cols[2].Floats[i] = v(i)
				ch.Cols[2].Sigma[i] = float64(rng.Intn(8)) / 4
			}
			enc, err := EncodeChunk(s, ch)
			if err != nil {
				panic(err)
			}
			out = append(out, payload{name, s, enc})
		}
	}
	return out
}

// TestSealedBucketsRoundTrip: every corpus chunk sealed the current way and
// the parent's way (every section through Auto.Encode whole) decodes to the
// chunk it was encoded from; what planes cost in all is no more than what
// they replace, and the worst section is reported.
func TestSealedBucketsRoundTrip(t *testing.T) {
	var sealed, parent int64
	worst, worstName := 0.0, ""
	for _, p := range sealCorpus() {
		for _, codec := range []compress.Codec{compress.Auto{}, wholeSections{compress.Auto{}}} {
			bucket, err := sealChunk(nil, p.s, p.enc, codec)
			if err != nil {
				t.Fatal(err)
			}
			ch, err := DecodeChunk(p.s, bucket)
			if err != nil {
				t.Fatalf("%s: %v", p.name, err)
			}
			if again, err := EncodeChunk(p.s, ch); err != nil || !bytes.Equal(again, p.enc) {
				t.Fatalf("%s, sealed as %T: decodes to another chunk (%v)", p.name, codec, err)
			}
		}
		eachSection(t, p.s, p.enc, func(i int, sec []byte, at *array.Attribute, slots, present int64) {
			got, was := sealSection(nil, compress.Auto{}, sec, at, slots, present), compress.Auto{}.Encode(sec)
			sealed, parent = sealed+int64(len(got)), parent+int64(len(was))
			if r := float64(len(got)) / float64(len(was)); r > worst {
				worst, worstName = r, p.name
			}
		})
	}
	if sealed > parent {
		t.Errorf("the corpus seals to %d bytes, %d before records were planes", sealed, parent)
	}
	t.Logf("corpus sealed %d bytes, %d before (%.3f×); worst section %.3f× (%s)", sealed, parent, float64(sealed)/float64(parent), worst, worstName)
}

// TestDamagedPlanesAreErrCorrupt: a plane-sealed section that passes its
// checksum but not the plane decoder — a width out of range, a head that
// does not fill what it claims, the input cut short or running on — fails
// the bucket's decode with ErrCorrupt, as any bad section does.
func TestDamagedPlanesAreErrCorrupt(t *testing.T) {
	s := fuzzSchema()
	enc, err := EncodeChunk(s, fuzzRecordsChunk(s))
	if err != nil {
		t.Fatal(err)
	}
	bucket, err := sealChunk(nil, s, enc, compress.Auto{})
	if err != nil {
		t.Fatal(err)
	}
	hdr, err := parseHeader(s, bucket, int64(len(bucket)))
	if err != nil {
		t.Fatal(err)
	}
	// Section 2 holds the float column, its values and sigma tail as planes.
	off := headerLen(s) + int(hdr.secs[0].stored+hdr.secs[1].stored)
	sec := bucket[off : off+int(hdr.secs[2].stored)]
	if sec[0] != 3 {
		t.Fatalf("the float section is sealed under Auto tag %d, not as planes", sec[0])
	}
	for name, mutate := range map[string]func(b []byte) []byte{
		"width 1":       func(b []byte) []byte { b[1] = 1; return b },
		"longer head":   func(b []byte) []byte { b[6]++; return b },
		"cut short":     func(b []byte) []byte { return b[:len(b)-1] },
		"trailing byte": func(b []byte) []byte { return append(b, 0) },
	} {
		body := mutate(append([]byte(nil), sec...))
		h := *hdr
		h.secs = append([]section(nil), hdr.secs...)
		h.secs[2].stored, h.secs[2].crc = uint32(len(body)), crc32.Checksum(body, castagnoli)
		out := make([]byte, headerLen(s), len(bucket)+1)
		h.put(out)
		out = append(append(append(out, bucket[headerLen(s):off]...), body...), bucket[off+len(sec):]...)
		if _, err := DecodeChunk(s, out); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: decode returned %v, want ErrCorrupt", name, err)
		}
	}
}

// TestSealSectionAllocations: sealing a 16 384-slot float section into a
// buffer with room costs the zone map read on the way to the values and
// nothing else — nothing per plane or per record, and no copy of the sealed
// bytes (sealChunk makes one per bucket).
func TestSealSectionAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	const slots = 16384
	rng := rand.New(rand.NewSource(2))
	at := array.Attribute{Name: "v", Type: array.TFloat64}
	col := array.NewColumn(at, slots)
	present := array.NewBitmap(slots)
	for i := range col.Floats {
		col.Floats[i] = rng.NormFloat64()
		present.Set(int64(i))
	}
	var buf bytes.Buffer
	if _, err := encodeColumn(NewFieldWriter(&buf), at, col, present); err != nil {
		t.Fatal(err)
	}
	sec := buf.Bytes()
	if _, _, width, ok := recordRegion(sec, at, slots, slots); !ok || width != 8 {
		t.Fatalf("no 8-byte records found in a raw float section")
	}
	dst := make([]byte, 0, len(sec))
	allocs := testing.AllocsPerRun(20, func() { sealSection(dst, compress.Auto{}, sec, &at, slots, slots) })
	if allocs > 1 {
		t.Errorf("sealing a %d-slot float section: %.1f allocations, want at most 1", slots, allocs)
	}
}
