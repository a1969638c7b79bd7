package storage

import (
	"math"
	"math/rand"
	"sync/atomic"
	"testing"

	"scidb/internal/array"
	"scidb/internal/compress"
)

// countingRecords forwards to Auto and counts the record sections a store
// seals through AppendRecords. Embedding the Codec interface promotes none
// of Auto's other methods, so it forwards AppendRecords by hand.
type countingRecords struct {
	compress.Codec
	records *atomic.Int64
}

func (c countingRecords) AppendRecords(dst, src []byte, lo, hi, width int) []byte {
	c.records.Add(1)
	return c.Codec.(compress.RecordEncoder).AppendRecords(dst, src, lo, hi, width)
}

// ticksSchema has a column each encoding is built for: a monotone int64
// (delta), a float64 in plateaus (RLE) and a low-cardinality string (dict).
func ticksSchema(side int64) *array.Schema {
	return &array.Schema{
		Name: "ticks",
		Dims: []array.Dimension{{Name: "t", High: side}, {Name: "series", High: side}},
		Attrs: []array.Attribute{
			{Name: "tick", Type: array.TInt64},
			{Name: "level", Type: array.TFloat64},
			{Name: "station", Type: array.TString},
		},
	}
}

// ticks is the cell ticksSchema's columns are built for at (i, j).
func ticks(side int64) func(i, j int64) (array.Cell, bool) {
	stations := []string{"station-north", "station-south", "station-east", "station-west"}
	return func(i, j int64) (array.Cell, bool) {
		tick := 1_700_000_000_000 + 8*(i*side+j) + (i+j)%7
		return array.Cell{array.Int64(tick), array.Float64(float64(j / 16)), array.String64(stations[(i+j)%4])}, true
	}
}

// noise is a cell of random bits at a random half of the coordinates: no
// byte codec shrinks its values or its presence.
func noise() func(i, j int64) (array.Cell, bool) {
	rng := rand.New(rand.NewSource(1))
	return func(i, j int64) (array.Cell, bool) {
		return array.Cell{array.Int64(int64(rng.Uint64())), array.Float64(math.Float64frombits(rng.Uint64()))}, rng.Intn(2) == 0
	}
}

// writeStore fills a side² store of s in stride-32 buckets under codec with
// the cells cell yields, flushes it and returns its counters.
func writeStore(t *testing.T, s *array.Schema, codec compress.Codec, cell func(i, j int64) (array.Cell, bool)) Stats {
	t.Helper()
	st, err := NewStore(s, Options{Dir: t.TempDir(), Codec: codec, Stride: []int64{32, 32}})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for i := int64(1); i <= s.Dims[0].High; i++ {
		for j := int64(1); j <= s.Dims[1].High; j++ {
			if c, ok := cell(i, j); ok {
				if err := st.Put(array.Coord{i, j}, c); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	return st.Stats()
}

// TestEncodingsShrinkBelowRawLayout: with no byte codec, the per-column
// encodings alone store a column-friendly array in fewer bytes than its
// verbatim layout (RawChunkSize), both encoded and on disk.
func TestEncodingsShrinkBelowRawLayout(t *testing.T) {
	light := writeStore(t, ticksSchema(64), compress.None{}, ticks(64))
	if light.BytesEncoded >= light.BytesRaw {
		t.Errorf("encoded %d bytes >= raw layout %d", light.BytesEncoded, light.BytesRaw)
	}
	if light.BytesWritten >= light.BytesRaw {
		t.Errorf("on disk %d bytes >= raw layout %d", light.BytesWritten, light.BytesRaw)
	}
}

// TestAutoCostsAtMostATagBytePerSection: Auto keeps a section verbatim when
// no byte codec helps, so a store of random bits under it writes at most one
// tag byte per section (presence plus one per attribute) more than under
// None.
func TestAutoCostsAtMostATagBytePerSection(t *testing.T) {
	s := &array.Schema{
		Name:  "noise",
		Dims:  []array.Dimension{{Name: "x", High: 64}, {Name: "y", High: 64}},
		Attrs: []array.Attribute{{Name: "i", Type: array.TInt64}, {Name: "f", Type: array.TFloat64}},
	}
	light, auto := writeStore(t, s, compress.None{}, noise()), writeStore(t, s, compress.Auto{}, noise())
	if bound := light.BytesWritten + auto.BucketsWritten*int64(1+len(s.Attrs)); auto.BytesWritten > bound {
		t.Errorf("auto wrote %d bytes, more than none's %d plus a tag byte per section (%d)",
			auto.BytesWritten, light.BytesWritten, bound)
	}
}

// TestStoreSealsRecordsThroughAppendRecords: a store whose codec is a
// RecordEncoder seals its fixed-width record sections through AppendRecords,
// not through Encode whole.
func TestStoreSealsRecordsThroughAppendRecords(t *testing.T) {
	c := countingRecords{Codec: compress.Auto{}, records: new(atomic.Int64)}
	writeStore(t, ticksSchema(64), c, ticks(64))
	if c.records.Load() == 0 {
		t.Fatal("the store sealed no section through AppendRecords")
	}
}
