package storage

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"scidb/internal/array"
	"scidb/internal/ssdb"
)

// goldenChunk is one input of the golden test, filed under the digest it
// feeds.
type goldenChunk struct {
	digest string
	s      *array.Schema
	ch     *array.Chunk
}

// goldenChunks is the encoder's fixed input: the first chunk of each array
// of the seed-5 SS-DB dataset (what the standing benchmark stores and ships),
// the randomized chunks of TestEncodingPropertyRandomSchemas — between them
// every value encoding of every type, with holes, NULLs and NaNs — and
// uncertain columns for the sigma tail.
func goldenChunks(t *testing.T) []goldenChunk {
	t.Helper()
	ds, err := ssdb.Setup(ssdb.Config{Size: 256, Passes: 4, Seed: 5, Threshold: 13, Tile: 8})
	if err != nil {
		t.Fatal(err)
	}
	out := []goldenChunk{
		{"ssdb raw", ds.Raw.Schema, ds.Raw.Chunks()[0]},
		{"ssdb cooked", ds.Cooked.Schema, ds.Cooked.Chunks()[0]},
		{"ssdb catalog", ds.Catalog.Schema, ds.Catalog.Chunks()[0]},
	}
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 60; trial++ {
		s, ch := randChunk(rng)
		out = append(out, goldenChunk{"random", s, ch})
	}
	u := &array.Schema{Name: "U", Dims: []array.Dimension{{Name: "i", High: 300}},
		Attrs: []array.Attribute{{Name: "x", Type: array.TFloat64, Uncertain: true}, {Name: "n", Type: array.TInt64}}}
	sigma := fillChunk(u, 300, func(i int64) array.Cell {
		x := array.UncertainFloat(float64(i%7)*1.25, float64(i)*0.125)
		switch {
		case i%11 == 0:
			x = array.NullValue(array.TFloat64)
		case i%13 == 0:
			x = array.UncertainFloat(math.NaN(), 0.5)
		}
		return array.Cell{x, array.Int64(i * i)}
	})
	shared := sigma.Clone()
	shared.Cols[0].Sigma, shared.Cols[0].HasShared, shared.Cols[0].SharedSigma = nil, true, 0.25
	return append(out, goldenChunk{"sigma", u, sigma}, goldenChunk{"sigma", u, shared})
}

// TestEncodeChunkGolden pins EncodeChunk's bytes: the digests below (each a
// running SHA-256 over its chunks' encodings, in order) were taken from the
// encoder that wrote a value per call and computed every zone map itself,
// and a stored bucket must read back the same whatever wrote it. The full
// chunks' digests (ssdb raw and cooked, sigma) are that encoder's still;
// ssdb catalog and random hold partial chunks, and were re-pinned when
// their int and float columns became present-only. A chunk as the decoder
// hands it over — zone maps attached, which the encoder reuses — must encode
// to the same bytes again.
func TestEncodeChunkGolden(t *testing.T) {
	golden := map[string]string{
		"ssdb raw":     "f21dd3d630b8bddb",
		"ssdb cooked":  "9993eee3cdf45069",
		"ssdb catalog": "2fe93e6c074bdb5f",
		"random":       "7ecfa31ee57da818",
		"sigma":        "d9776c06aefae2ec",
	}
	sums := map[string][]byte{}
	for _, g := range goldenChunks(t) {
		enc, err := EncodeChunk(g.s, g.ch)
		if err != nil {
			t.Fatal(err)
		}
		back, err := DecodeChunk(g.s, enc)
		if err != nil {
			t.Fatal(err)
		}
		if again, err := EncodeChunk(g.s, back); err != nil || !bytes.Equal(again, enc) {
			t.Errorf("%s: the decoded chunk encodes to other bytes than the chunk it was decoded from (%v)", g.digest, err)
		}
		h := sha256.Sum256(append(sums[g.digest], enc...))
		sums[g.digest] = h[:]
	}
	for key, want := range golden {
		if got := fmt.Sprintf("%x", sums[key][:8]); got != want {
			t.Errorf("%s: encoding digest %s, want %s", key, got, want)
		}
	}
}

// requireZones holds every zone map EncodeChunkZones writes for ch — the one
// a column carries, where it carries one — to what array.ComputeZone makes of
// the column now.
func requireZones(t *testing.T, label string, s *array.Schema, ch *array.Chunk) {
	t.Helper()
	_, zones, err := EncodeChunkZones(s, ch)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	for a, col := range ch.Cols {
		if want := array.ComputeZone(col, ch.Present); !reflect.DeepEqual(zones[a], want) {
			t.Fatalf("%s: column %s is encoded with zone map %+v (carried: %v), the column's is %+v",
				label, s.Attrs[a].Name, zones[a], col.Zone != nil, want)
		}
	}
}

// TestCarriedZonesDescribeTheirColumns: the encoder trusts a column's Zone,
// so nothing may change a column — or the presence mask its zone map was
// computed under — and leave the view behind. Chunks are taken from a store
// scan (decoded, views attached) and through every way the engine hands them
// on: as delivered, cloned, adopted by an array (MergeChunk), taken out under
// its live mask (Select: a whole selection keeps its zones, a strict subset
// carries none) and merged into one, and then written to and erased from.
func TestCarriedZonesDescribeTheirColumns(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	attrs, dist := randAttrs(rng)
	s := &array.Schema{Name: "Z", Dims: []array.Dimension{{Name: "i", High: 512, ChunkLen: 64}}, Attrs: attrs}
	st, err := NewStore(s, Options{Stride: []int64{64}, CacheBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for pass := int64(0); pass < 2; pass++ { // the second pass shadows the upper half of the first
		for i := 1 + 256*pass; i <= 512; i++ {
			if rng.Intn(3) > 0 {
				if err := st.Put(array.Coord{i}, randCell(rng, attrs, dist, i)); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := st.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	adopted, masked := array.MustNew(s.Clone()), array.MustNew(s.Clone())
	carried, cut := 0, 0
	err = st.ScanChunks(array.WholeBox(s), nil, nil).Each(func(lc LiveChunk) error {
		for _, col := range lc.Chunk.Cols {
			if col.Zone != nil {
				carried++
			}
		}
		requireZones(t, "scanned", s, lc.Chunk)
		requireZones(t, "cloned", s, lc.Chunk.Clone())
		if lc.Alone && lc.Live == lc.Chunk.Present {
			if err := adopted.MergeChunk(lc.Chunk.Clone()); err != nil {
				return err
			}
		}
		sel := lc.Chunk.Select(lc.Live)
		requireZones(t, "selected", s, sel)
		whole := lc.Live.Count() == lc.Chunk.CellsPresent()
		if !whole {
			cut++
		}
		for i, col := range sel.Cols {
			if whole && col.Zone != lc.Chunk.Cols[i].Zone || !whole && col.Zone != nil {
				t.Errorf("selection of %d of %d cells at %v: column %d carries zone %p, the scanned one %p",
					lc.Live.Count(), lc.Chunk.CellsPresent(), lc.Chunk.Origin, i, col.Zone, lc.Chunk.Cols[i].Zone)
			}
		}
		return masked.MergeChunk(sel)
	})
	if err != nil {
		t.Fatal(err)
	}
	if carried == 0 || adopted.Count() == 0 || cut == 0 {
		t.Fatalf("%d scanned columns carry a zone map, %d cells were adopted and %d chunks cut: nothing is checked", carried, adopted.Count(), cut)
	}
	for label, a := range map[string]*array.Array{"adopted": adopted, "masked": masked} {
		for _, ch := range a.Chunks() {
			requireZones(t, label, s, ch)
		}
		// The lower half of every chunk erased, then a cell overwritten.
		for _, ch := range a.Chunks() {
			for i := int64(0); i < ch.Slots()/2; i++ {
				a.Erase(array.Coord{ch.Origin[0] + i})
			}
			requireZones(t, label+", cells erased", s, ch)
		}
		for _, ch := range a.Chunks() {
			first := ch.Present.NextSet(0)
			if err := a.Set(array.Coord{ch.Origin[0] + first}, randCell(rng, attrs, []int{3, 3, 3}, 1)); err != nil {
				t.Fatal(err)
			}
			requireZones(t, label+", a cell set", s, ch)
		}
	}
}
