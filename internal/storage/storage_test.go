package storage

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"scidb/internal/array"
	"scidb/internal/compress"
)

// schema2D is a hi x hi array on an 8x8 chunk grid.
func schema2D(hi int64) *array.Schema {
	return &array.Schema{
		Name: "S",
		Dims: []array.Dimension{{Name: "x", High: hi, ChunkLen: 8}, {Name: "y", High: hi, ChunkLen: 8}},
		Attrs: []array.Attribute{
			{Name: "v", Type: array.TFloat64},
			{Name: "tag", Type: array.TString},
		},
	}
}

func TestEncodeDecodeChunkRoundTrip(t *testing.T) {
	s := schema2D(8)
	ch := array.NewChunk(s, array.Coord{1, 1}, []int64{8, 8})
	for i := int64(1); i <= 8; i++ {
		for j := int64(1); j <= 8; j += 2 {
			_ = ch.Set(array.Coord{i, j}, array.Cell{
				array.Float64(float64(i) * 0.5),
				array.String64("cell"),
			})
		}
	}
	// One NULL value.
	_ = ch.Set(array.Coord{3, 3}, array.Cell{array.NullValue(array.TFloat64), array.String64("")})

	data, err := EncodeChunk(s, ch)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeChunk(s, data)
	if err != nil {
		t.Fatal(err)
	}
	if back.CellsPresent() != ch.CellsPresent() {
		t.Fatalf("present = %d, want %d", back.CellsPresent(), ch.CellsPresent())
	}
	cell, ok := back.Get(array.Coord{5, 3})
	if !ok || cell[0].Float != 2.5 || cell[1].Str != "cell" {
		t.Errorf("cell(5,3) = %v,%v", cell, ok)
	}
	if c, _ := back.Get(array.Coord{3, 3}); !c[0].Null {
		t.Error("NULL lost in round trip")
	}
	if _, ok := back.Get(array.Coord{2, 2}); ok {
		t.Error("absent cell materialized")
	}
}

func TestEncodeDecodeUncertainColumn(t *testing.T) {
	s := &array.Schema{
		Name:  "U",
		Dims:  []array.Dimension{{Name: "i", High: 4}},
		Attrs: []array.Attribute{{Name: "x", Type: array.TFloat64, Uncertain: true}},
	}
	ch := array.NewChunk(s, array.Coord{1}, []int64{4})
	_ = ch.Set(array.Coord{2}, array.Cell{array.UncertainFloat(1.5, 0.25)})
	data, err := EncodeChunk(s, ch)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeChunk(s, data)
	if err != nil {
		t.Fatal(err)
	}
	cell, _ := back.Get(array.Coord{2})
	if cell[0].Sigma != 0.25 {
		t.Errorf("sigma = %v, want 0.25", cell[0].Sigma)
	}
}

func TestEncodeDecodeSharedSigma(t *testing.T) {
	s := &array.Schema{
		Name:  "U",
		Dims:  []array.Dimension{{Name: "i", High: 4}},
		Attrs: []array.Attribute{{Name: "x", Type: array.TFloat64}},
	}
	ch := array.NewChunk(s, array.Coord{1}, []int64{4})
	_ = ch.Set(array.Coord{1}, array.Cell{array.Float64(9)})
	ch.Cols[0].HasShared = true
	ch.Cols[0].SharedSigma = 0.125
	data, err := EncodeChunk(s, ch)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeChunk(s, data)
	if err != nil {
		t.Fatal(err)
	}
	cell, _ := back.Get(array.Coord{1})
	if cell[0].Sigma != 0.125 {
		t.Errorf("shared sigma = %v, want 0.125", cell[0].Sigma)
	}
}

func TestEncodeDecodeNestedArray(t *testing.T) {
	inner := &array.Schema{
		Name:  "inner",
		Dims:  []array.Dimension{{Name: "k", High: array.Unbounded}},
		Attrs: []array.Attribute{{Name: "n", Type: array.TInt64}},
	}
	outer := &array.Schema{
		Name:  "outer",
		Dims:  []array.Dimension{{Name: "t", High: 3}},
		Attrs: []array.Attribute{{Name: "seq", Type: array.TArray, Nested: inner}},
	}
	a := array.MustNew(outer)
	nested := array.MustNew(inner)
	_ = nested.Set(array.Coord{1}, array.Cell{array.Int64(11)})
	_ = nested.Set(array.Coord{5}, array.Cell{array.Int64(55)})
	_ = a.Set(array.Coord{2}, array.Cell{array.Nested(nested)})

	data, err := EncodeArray(a)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeArray(outer, data)
	if err != nil {
		t.Fatal(err)
	}
	cell, ok := back.At(array.Coord{2})
	if !ok || cell[0].Arr == nil {
		t.Fatal("nested array lost")
	}
	in, ok := cell[0].Arr.At(array.Coord{5})
	if !ok || in[0].Int != 55 {
		t.Errorf("nested cell = %v,%v", in, ok)
	}
	if cell[0].Arr.Hwm(0) != 5 {
		t.Errorf("nested hwm = %d, want 5", cell[0].Arr.Hwm(0))
	}
}

func TestDecodeCorruptChunk(t *testing.T) {
	s := schema2D(4)
	if _, err := DecodeChunk(s, []byte{1, 2, 3}); err == nil {
		t.Error("garbage accepted")
	}
	ch := array.NewChunk(s, array.Coord{1, 1}, []int64{4, 4})
	data, _ := EncodeChunk(s, ch)
	if _, err := DecodeChunk(s, data[:len(data)/2]); err == nil {
		t.Error("truncated chunk accepted")
	}
	data[0] ^= 0xFF
	if _, err := DecodeChunk(s, data); err == nil {
		t.Error("bad magic accepted")
	}
}

func TestStorePutGetScan(t *testing.T) {
	s := schema2D(32)
	st, err := NewStore(s, Options{Dir: t.TempDir(), MemLimit: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	// MemLimit 1 forces a flush on every put that grows the buffer.
	for i := int64(1); i <= 16; i++ {
		if err := st.Put(array.Coord{i, i}, array.Cell{array.Float64(float64(i)), array.String64("d")}); err != nil {
			t.Fatal(err)
		}
	}
	cell, ok, err := st.Get(array.Coord{7, 7})
	if err != nil || !ok || cell[0].Float != 7 {
		t.Fatalf("Get(7,7) = %v,%v,%v", cell, ok, err)
	}
	if _, ok, _ := st.Get(array.Coord{7, 8}); ok {
		t.Error("absent cell found")
	}
	var n int
	var sum float64
	err = st.Scan(array.NewBox(array.Coord{1, 1}, array.Coord{8, 8}), func(c array.Coord, cell array.Cell) bool {
		n++
		sum += cell[0].Float
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 8 || sum != 36 {
		t.Errorf("scan found %d cells, sum %v; want 8 cells sum 36", n, sum)
	}
	if st.NumBuckets() == 0 {
		t.Error("no buckets written despite tiny mem limit")
	}
}

func TestStoreMemoryAndDiskVisibility(t *testing.T) {
	s := schema2D(16)
	st, err := NewStore(s, Options{}) // in-memory buckets, big limit
	if err != nil {
		t.Fatal(err)
	}
	_ = st.Put(array.Coord{1, 1}, array.Cell{array.Float64(1), array.String64("")})
	// Not yet flushed: visible from the memory buffer.
	if _, ok, _ := st.Get(array.Coord{1, 1}); !ok {
		t.Error("cell invisible before flush")
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := st.Get(array.Coord{1, 1}); !ok {
		t.Error("cell invisible after flush")
	}
	// Newer write to the same coordinate shadows the bucket.
	_ = st.Put(array.Coord{1, 1}, array.Cell{array.Float64(2), array.String64("")})
	cell, ok, _ := st.Get(array.Coord{1, 1})
	if !ok || cell[0].Float != 2 {
		t.Errorf("shadowed read = %v,%v; want 2", cell, ok)
	}
	// Scan also sees exactly one value per coordinate (the newest).
	n, val := 0, 0.0
	_ = st.Scan(array.NewBox(array.Coord{1, 1}, array.Coord{1, 1}), func(c array.Coord, cell array.Cell) bool {
		n++
		val = cell[0].Float
		return true
	})
	if n != 1 || val != 2 {
		t.Errorf("scan saw %d cells val %v; want 1 cell val 2", n, val)
	}
}

func TestStoreShadowingAcrossBuckets(t *testing.T) {
	s := schema2D(8)
	st, err := NewStore(s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	_ = st.Put(array.Coord{2, 2}, array.Cell{array.Float64(1), array.String64("")})
	_ = st.Flush()
	_ = st.Put(array.Coord{2, 2}, array.Cell{array.Float64(2), array.String64("")})
	_ = st.Flush()
	cell, ok, err := st.Get(array.Coord{2, 2})
	if err != nil || !ok || cell[0].Float != 2 {
		t.Fatalf("Get = %v,%v,%v; want newest value 2", cell, ok, err)
	}
}

func TestMergeOnce(t *testing.T) {
	s := schema2D(32)
	st, err := NewStore(s, Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	// Four versions of the first chunk, one cell each, and one bucket of
	// another chunk.
	for k := int64(0); k < 4; k++ {
		_ = st.Put(array.Coord{k + 1, 1}, array.Cell{array.Float64(float64(k)), array.String64("")})
		_ = st.Flush()
	}
	_ = st.Put(array.Coord{9, 1}, array.Cell{array.Float64(9), array.String64("")})
	_ = st.Flush()
	if st.NumBuckets() != 5 {
		t.Fatalf("buckets = %d, want 5", st.NumBuckets())
	}
	merged, err := st.MergeOnce()
	if err != nil || !merged {
		t.Fatalf("MergeOnce = %v,%v", merged, err)
	}
	if st.NumBuckets() != 2 {
		t.Fatalf("buckets after merge = %d, want 2", st.NumBuckets())
	}
	// All data still readable.
	for k := int64(0); k < 4; k++ {
		cell, ok, err := st.Get(array.Coord{k + 1, 1})
		if err != nil || !ok || cell[0].Float != float64(k) {
			t.Errorf("after merge Get(k=%d) = %v,%v,%v", k, cell, ok, err)
		}
	}
	// Every chunk is down to one version: nothing left to compact.
	if m, err := st.MergeOnce(); err != nil || m {
		t.Fatalf("second MergeOnce = %v,%v, want false", m, err)
	}
	if st.NumBuckets() != 2 {
		t.Errorf("buckets after full merge = %d, want 2", st.NumBuckets())
	}
	if st.Stats().BucketsMerged != 3 {
		t.Errorf("merged count = %d, want 3", st.Stats().BucketsMerged)
	}
}

func TestMergeRespectsNewestWins(t *testing.T) {
	s := schema2D(8)
	st, err := NewStore(s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	_ = st.Put(array.Coord{1, 1}, array.Cell{array.Float64(1), array.String64("")})
	_ = st.Flush()
	_ = st.Put(array.Coord{1, 1}, array.Cell{array.Float64(2), array.String64("")})
	_ = st.Flush()
	if _, err := st.MergeOnce(); err != nil {
		t.Fatal(err)
	}
	cell, ok, _ := st.Get(array.Coord{1, 1})
	if !ok || cell[0].Float != 2 {
		t.Errorf("merged value = %v,%v; want newest 2", cell, ok)
	}
}

func TestStoreWithEachCodec(t *testing.T) {
	for _, c := range append(compress.All(), compress.Auto{}) {
		c := c
		t.Run(c.Name(), func(t *testing.T) {
			s := schema2D(16)
			st, err := NewStore(s, Options{Codec: c})
			if err != nil {
				t.Fatal(err)
			}
			for i := int64(1); i <= 16; i++ {
				_ = st.Put(array.Coord{i, 1}, array.Cell{array.Float64(float64(i)), array.String64("x")})
			}
			_ = st.Flush()
			cell, ok, err := st.Get(array.Coord{9, 1})
			if err != nil || !ok || cell[0].Float != 9 {
				t.Errorf("Get = %v,%v,%v", cell, ok, err)
			}
		})
	}
}

func TestScanEarlyStop(t *testing.T) {
	s := schema2D(8)
	st, _ := NewStore(s, Options{})
	for i := int64(1); i <= 8; i++ {
		_ = st.Put(array.Coord{i, 1}, array.Cell{array.Float64(0), array.String64("")})
	}
	_ = st.Flush()
	n := 0
	_ = st.Scan(array.NewBox(array.Coord{1, 1}, array.Coord{8, 8}), func(array.Coord, array.Cell) bool {
		n++
		return n < 3
	})
	if n != 3 {
		t.Errorf("early stop visited %d", n)
	}
}

func TestChunkRoundTripProperty(t *testing.T) {
	s := &array.Schema{
		Name:  "P",
		Dims:  []array.Dimension{{Name: "i", High: 16}},
		Attrs: []array.Attribute{{Name: "v", Type: array.TInt64}},
	}
	f := func(vals []int64, mask uint16) bool {
		ch := array.NewChunk(s, array.Coord{1}, []int64{16})
		for i := 0; i < 16 && i < len(vals); i++ {
			if mask&(1<<i) != 0 {
				_ = ch.Set(array.Coord{int64(i + 1)}, array.Cell{array.Int64(vals[i])})
			}
		}
		data, err := EncodeChunk(s, ch)
		if err != nil {
			return false
		}
		back, err := DecodeChunk(s, data)
		if err != nil {
			return false
		}
		if back.CellsPresent() != ch.CellsPresent() {
			return false
		}
		for i := int64(1); i <= 16; i++ {
			a, aok := ch.Get(array.Coord{i})
			b, bok := back.Get(array.Coord{i})
			if aok != bok {
				return false
			}
			if aok && a[0].Int != b[0].Int {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestStoreRecoversFromManifest(t *testing.T) {
	dir := t.TempDir()
	s := schema2D(32)
	st, err := NewStore(s, Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 16; i++ {
		_ = st.Put(array.Coord{i, i}, array.Cell{array.Float64(float64(i * 7)), array.String64("r")})
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	wantBuckets := st.NumBuckets()
	if wantBuckets == 0 {
		t.Fatal("no buckets written before close")
	}

	// Reopen: the manifest restores the bucket index — recovery, the DBMS
	// service in-situ data does not get.
	st2, err := NewStore(s, Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if st2.NumBuckets() != wantBuckets {
		t.Fatalf("recovered %d buckets, want %d", st2.NumBuckets(), wantBuckets)
	}
	cell, ok, err := st2.Get(array.Coord{9, 9})
	if err != nil || !ok || cell[0].Float != 63 {
		t.Fatalf("recovered read = %v,%v,%v", cell, ok, err)
	}
	// Writes continue with fresh ids; merge still works.
	_ = st2.Put(array.Coord{20, 20}, array.Cell{array.Float64(1), array.String64("")})
	if err := st2.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := st2.MergeOnce(); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := st2.Get(array.Coord{20, 20}); !ok {
		t.Error("post-recovery write lost after merge")
	}
}

func TestStoreCorruptManifestRejected(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "MANIFEST.json"), []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewStore(schema2D(8), Options{Dir: dir}); err == nil {
		t.Error("corrupt manifest accepted")
	}
}

func TestStoreManifestMissingBucketRejected(t *testing.T) {
	dir := t.TempDir()
	st, _ := NewStore(schema2D(8), Options{Dir: dir})
	_ = st.Put(array.Coord{1, 1}, array.Cell{array.Float64(1), array.String64("")})
	_ = st.Close()
	// Delete a bucket file out from under the manifest.
	matches, _ := filepath.Glob(filepath.Join(dir, "bucket-*.sdb"))
	if len(matches) == 0 {
		t.Fatal("no bucket files")
	}
	_ = os.Remove(matches[0])
	if _, err := NewStore(schema2D(8), Options{Dir: dir}); err == nil {
		t.Error("manifest with missing bucket accepted")
	}
}

// The store's running count of buffered bytes must equal the buffer's
// ByteSize after every write — that equality is what keeps the flush points
// where the per-Put walk of the buffer used to put them. Strings of varying
// length, NULLs, overwrites and whole-chunk clears all pass through.
func TestBufferedBytesTrackByteSize(t *testing.T) {
	st, err := NewStore(schema2D(40), Options{MemLimit: 20 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	check := func(when string) {
		t.Helper()
		if got, want := st.memBytes, st.mem.ByteSize(); got != want {
			t.Fatalf("%s: memBytes = %d, buffer ByteSize = %d", when, got, want)
		}
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 2000; i++ {
		c := array.Coord{1 + rng.Int63n(40), 1 + rng.Int63n(40)}
		cell := array.Cell{array.Float64(rng.Float64()), array.String64(strings.Repeat("s", rng.Intn(40)))}
		if rng.Intn(10) == 0 {
			cell[1] = array.NullValue(array.TString)
		}
		if err := st.Put(c, cell); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("put %d", i))
		if st.memBytes >= st.opts.MemLimit {
			t.Fatalf("put %d left %d bytes buffered, at or over the %d limit", i, st.memBytes, st.opts.MemLimit)
		}
		if i%500 == 250 {
			if _, err := st.Apply(Batch{Clear: array.NewBox(array.Coord{9, 9}, array.Coord{16, 16})}); err != nil {
				t.Fatal(err)
			}
			check("clear chunk")
		}
	}
	if st.Stats().Flushes == 0 {
		t.Fatal("no flush fired; the test exercises nothing")
	}
	if err := st.Put(array.Coord{99, 1}, array.Cell{array.Float64(1), array.String64("x")}); err == nil {
		t.Fatal("out-of-bounds put accepted")
	}
	check("rejected put")
}

// A stride-chunk larger than MemLimit must not turn every put into a flush:
// a (pass, x, y) array of three float attributes with the default 64³
// stride allocates 6.3 MB for its first cell against the 4 MiB default, and
// a 4 096-cell stream into it used to write 4 096 one-cell buckets (99 s).
// The buffer admits the chunk; the limit is tested when a put grows the
// buffer again.
func TestPutIntoChunkLargerThanMemLimit(t *testing.T) {
	s := &array.Schema{
		Name: "raw",
		Dims: []array.Dimension{{Name: "pass", High: 64, ChunkLen: 64}, {Name: "x", High: 256, ChunkLen: 64}, {Name: "y", High: 256, ChunkLen: 64}},
		Attrs: []array.Attribute{
			{Name: "a", Type: array.TFloat64}, {Name: "b", Type: array.TFloat64}, {Name: "c", Type: array.TFloat64},
		},
	}
	st, err := NewStore(s, Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	start := time.Now()
	for x := int64(1); x <= 64; x++ {
		for y := int64(1); y <= 64; y++ {
			v := array.Float64(float64(x*64 + y))
			if err := st.Put(array.Coord{1, x, y}, array.Cell{v, v, v}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if st.memBytes < st.opts.MemLimit {
		t.Fatalf("buffer holds %d bytes, under the %d limit; the test exercises nothing", st.memBytes, st.opts.MemLimit)
	}
	if got := st.Stats().Flushes; got != 0 {
		t.Errorf("%d flushes while filling one stride-chunk, want 0", got)
	}
	// The next stride-chunk is growth past the limit: one flush, both
	// chunks written.
	if err := st.Put(array.Coord{1, 65, 1}, array.Cell{array.Float64(1), array.Float64(1), array.Float64(1)}); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Errorf("put stream took %v", d)
	}
	if got, buckets := st.Stats().Flushes, st.NumBuckets(); got != 1 || buckets != 2 {
		t.Errorf("after growing past the limit: %d flushes, %d buckets; want 1 and 2", got, buckets)
	}
	var n int
	if err := st.Scan(array.WholeBox(s), func(array.Coord, array.Cell) bool { n++; return true }); err != nil {
		t.Fatal(err)
	}
	if n != 64*64+1 {
		t.Errorf("scan found %d cells, want %d", n, 64*64+1)
	}
}
