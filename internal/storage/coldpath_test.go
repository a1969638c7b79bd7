package storage

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"testing"

	"scidb/internal/array"
	"scidb/internal/bufcache"
	"scidb/internal/compress"
)

// sameColumn reports whether two decoded columns are bit-identical, the
// zone map included.
func sameColumn(a, b *array.Column) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	floats := func(x, y []float64) bool {
		return slices.EqualFunc(x, y, func(p, q float64) bool { return math.Float64bits(p) == math.Float64bits(q) })
	}
	return a.Type == b.Type && slices.Equal(a.Ints, b.Ints) && floats(a.Floats, b.Floats) &&
		slices.Equal(a.Strs, b.Strs) && slices.Equal(a.Bools, b.Bools) &&
		slices.Equal(a.Nulls.Words(), b.Nulls.Words()) && floats(a.Sigma, b.Sigma) &&
		a.HasShared == b.HasShared && a.SharedSigma == b.SharedSigma &&
		reflect.DeepEqual(a.Zone, b.Zone)
}

// delivery is one chunk of a scan, copied out so it outlives its pin.
type delivery struct {
	origin array.Coord
	shape  []int64
	live   []uint64
	cols   []*array.Column
}

func drain(t *testing.T, cs *ChunkScan) []delivery {
	t.Helper()
	var out []delivery
	if err := cs.Each(func(lc LiveChunk) error {
		out = append(out, delivery{
			origin: lc.Chunk.Origin, shape: lc.Chunk.Shape,
			live: slices.Clone(lc.Live.Words()), cols: slices.Clone(lc.Chunk.Cols),
		})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestProjectedScanMatchesFullScan is the differential test for projection:
// whatever subset of attributes a scan asks for, it must deliver the chunks
// of the full scan, in its order, with bit-identical live masks and —
// for the projected attributes — bit-identical columns, and nil for the
// rest. The data has NULLs, NaNs, every column encoding, buckets
// overlapped by newer buckets, and unflushed memory-buffer chunks, so
// shadowing is exercised; the boxes clip chunks. It holds whether the pool
// is absent, too small to keep a column, or warm with a different subset
// already resident.
func TestProjectedScanMatchesFullScan(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	const side, stride = 40, 16
	for trial := 0; trial < 12; trial++ {
		attrs, dist := randAttrs(rng)
		s := &array.Schema{
			Name:  "P",
			Dims:  []array.Dimension{{Name: "x", High: side, ChunkLen: stride}, {Name: "y", High: side, ChunkLen: stride}},
			Attrs: attrs,
		}
		dir := t.TempDir()
		// Three layers: everything, flushed; a newer band, flushed over it;
		// a newest patch left in the memory buffer.
		layers := []array.Box{
			array.NewBox(array.Coord{1, 1}, array.Coord{side, side}),
			array.NewBox(array.Coord{5, 9}, array.Coord{30, 22}),
			array.NewBox(array.Coord{12, 3}, array.Coord{20, 37}),
		}
		for _, cache := range []int64{0, 1, 8 << 20} {
			name := fmt.Sprintf("trial %d, pool %d", trial, cache)
			st, err := NewStore(s, Options{Dir: filepath.Join(dir, fmt.Sprint(cache)),
				CacheBytes: cache, Readahead: 2, MemLimit: 64 << 20})
			if err != nil {
				t.Fatal(err)
			}
			data := rand.New(rand.NewSource(int64(trial)))
			for li, box := range layers {
				var i int64
				array.IterBox(box, func(c array.Coord) bool {
					if i++; data.Intn(6) != 0 {
						if err := st.Put(c.Clone(), randCell(data, attrs, dist, i)); err != nil {
							t.Fatal(err)
						}
					}
					return true
				})
				if li < len(layers)-1 {
					if err := st.Flush(); err != nil {
						t.Fatal(err)
					}
				}
			}
			boxes := []array.Box{layers[0], array.NewBox(array.Coord{7, 11}, array.Coord{33, 29})}
			for subset := 0; subset < 1<<len(attrs); subset++ {
				proj := []int{}
				for a := range attrs {
					if subset&(1<<a) != 0 {
						proj = append(proj, a)
					}
				}
				for _, q := range boxes {
					if cache > 1 {
						// Leave a different subset resident: the complement.
						other := []int{}
						for a := range attrs {
							if subset&(1<<a) == 0 {
								other = append(other, a)
							}
						}
						drain(t, st.ScanChunks(q, nil, other))
					}
					got, want := drain(t, st.ScanChunks(q, nil, proj)), drain(t, st.ScanChunks(q, nil, nil))
					if len(got) != len(want) {
						t.Fatalf("%s, attrs %v: %d chunks, full scan %d", name, proj, len(got), len(want))
					}
					for k := range want {
						g, w := got[k], want[k]
						if !slices.Equal(g.origin, w.origin) || !slices.Equal(g.shape, w.shape) || !slices.Equal(g.live, w.live) {
							t.Fatalf("%s, attrs %v, chunk %d: frame or live mask differs", name, proj, k)
						}
						for a := range attrs {
							if !slices.Contains(proj, a) {
								if g.cols[a] != nil {
									t.Fatalf("%s, attrs %v, chunk %d: unprojected column %d delivered", name, proj, k, a)
								}
							} else if !sameColumn(g.cols[a], w.cols[a]) {
								t.Fatalf("%s, attrs %v, chunk %d: column %d differs from the full scan's", name, proj, k, a)
							}
						}
					}
				}
			}
			if cs := st.CacheStats(); cs.PinnedBytes != 0 {
				t.Errorf("%s: %d bytes left pinned", name, cs.PinnedBytes)
			}
			_ = st.Close()
		}
	}
}

// TestProjectionReadsOnlyItsColumns: a cold projected scan reads the header,
// the presence bitmap and the projected column of each bucket — one bucket
// read each, and fewer bytes than the full scan.
func TestProjectionReadsOnlyItsColumns(t *testing.T) {
	s := &array.Schema{
		Name: "W",
		Dims: []array.Dimension{{Name: "x", High: 32, ChunkLen: 16}, {Name: "y", High: 32, ChunkLen: 16}},
		Attrs: []array.Attribute{{Name: "a", Type: array.TFloat64}, {Name: "b", Type: array.TFloat64},
			{Name: "c", Type: array.TFloat64}},
	}
	st, err := NewStore(s, Options{Dir: t.TempDir(), Codec: compress.None{}})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	rng := rand.New(rand.NewSource(1))
	q := array.NewBox(array.Coord{1, 1}, array.Coord{32, 32})
	array.IterBox(q, func(c array.Coord) bool {
		_ = st.Put(c.Clone(), array.Cell{array.Float64(rng.Float64()), array.Float64(rng.Float64()), array.Float64(rng.Float64())})
		return true
	})
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	read := func(attrs []int) Stats {
		before := st.Stats()
		drain(t, st.ScanChunks(q, nil, attrs))
		after := st.Stats()
		return Stats{BucketsRead: after.BucketsRead - before.BucketsRead, BytesRead: after.BytesRead - before.BytesRead}
	}
	all, one, none := read(nil), read([]int{1}), read([]int{})
	if all.BucketsRead != 4 || one.BucketsRead != 4 || none.BucketsRead != 4 {
		t.Errorf("bucket reads all/one/none = %d/%d/%d, want 4 each", all.BucketsRead, one.BucketsRead, none.BucketsRead)
	}
	if got, want := all.BytesRead, st.Stats().BytesWritten; got != want {
		t.Errorf("full scan read %d bytes, buckets hold %d", got, want)
	}
	column := int64(4 * 256 * 8) // four buckets' worth of one float column's values
	if all.BytesRead-one.BytesRead < 2*column || one.BytesRead-none.BytesRead < column {
		t.Errorf("bytes read all/one/none = %d/%d/%d: projection did not skip the other columns",
			all.BytesRead, one.BytesRead, none.BytesRead)
	}
}

// TestFlippedBucketByteIsErrCorrupt writes a three-column bucket and flips
// each byte of its file in turn: every read path must answer ErrCorrupt or
// exactly the original cells — never different ones — and a failed read
// must leave nothing in the pool. Each read follows one of a longer, good
// bucket, so the rooms sections are read and inflated into hold that
// bucket's bytes: a damaged or torn read must not serve them either.
func TestFlippedBucketByteIsErrCorrupt(t *testing.T) {
	s := &array.Schema{
		Name: "C",
		Dims: []array.Dimension{{Name: "x", High: 8}, {Name: "y", High: 8}},
		Attrs: []array.Attribute{{Name: "n", Type: array.TInt64}, {Name: "v", Type: array.TFloat64},
			{Name: "s", Type: array.TString}},
	}
	dir := t.TempDir()
	pool := bufcache.New(1 << 20)
	st, err := NewStore(s, Options{Dir: dir, Cache: pool})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	q := array.NewBox(array.Coord{1, 1}, array.Coord{8, 8})
	array.IterBox(q, func(c array.Coord) bool {
		_ = st.Put(c.Clone(), array.Cell{array.Int64(c[0] * 1000), array.Float64(float64(c[1]) / 3), array.String64(fmt.Sprint("s", c[0]%3))})
		return true
	})
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	long := &array.Schema{Name: "L", Dims: []array.Dimension{{Name: "x", High: 64}, {Name: "y", High: 64}}, Attrs: s.Attrs}
	lst, err := NewStore(long, Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer lst.Close()
	lq := array.NewBox(array.Coord{1, 1}, array.Coord{64, 64})
	rng := rand.New(rand.NewSource(4))
	array.IterBox(lq, func(c array.Coord) bool {
		_ = lst.Put(c.Clone(), array.Cell{array.Int64(rng.Int63()), array.Float64(rng.NormFloat64()), array.String64(fmt.Sprint("long", rng.Intn(100)))})
		return true
	})
	if err := lst.Flush(); err != nil {
		t.Fatal(err)
	}
	cells := func() (map[string]array.Cell, error) {
		var n int64
		if err := lst.Scan(lq, func(array.Coord, array.Cell) bool { n++; return true }); err != nil || n != lq.Cells() {
			t.Fatalf("the long bucket read %d cells: %v", n, err)
		}
		// Every read must go to the file, as after a restart.
		pool.InvalidateStore(st.cacheID)
		out := map[string]array.Cell{}
		err := st.Scan(q, func(c array.Coord, cell array.Cell) bool {
			out[fmt.Sprint(c)] = slices.Clone(cell)
			return true
		})
		return out, err
	}
	want, err := cells()
	if err != nil || len(want) != 64 {
		t.Fatalf("clean read: %d cells, %v", len(want), err)
	}
	path := filepath.Join(dir, "bucket-000000.sdb")
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := range good {
		mut := slices.Clone(good)
		mut[i] ^= 0x41
		if err := os.WriteFile(path, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := cells()
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("byte %d flipped: scan error %v is not ErrCorrupt", i, err)
			}
			if _, _, gerr := st.Get(array.Coord{3, 3}); !errors.Is(gerr, ErrCorrupt) {
				t.Fatalf("byte %d flipped: Get error %v is not ErrCorrupt", i, gerr)
			}
			if pool.Len() != 0 {
				t.Fatalf("byte %d flipped: %d sections of a corrupt bucket cached", i, pool.Len())
			}
		} else if !reflect.DeepEqual(got, want) {
			t.Fatalf("byte %d flipped: scan served different cells", i)
		}
	}
	// Torn and grown files fail the section table's tiling check.
	for _, torn := range [][]byte{good[:len(good)-1], append(slices.Clone(good), 0)} {
		if err := os.WriteFile(path, torn, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := cells(); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%d-byte file (was %d): err = %v, want ErrCorrupt", len(torn), len(good), err)
		}
	}
	if err := os.WriteFile(path, good, 0o644); err != nil {
		t.Fatal(err)
	}
	if got, err := cells(); err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("restored file: %v", err)
	}
}

// TestDecodeChunkAllocations pins the slice-backed FieldReader: decoding a
// 4 096-cell chunk of two float columns allocates per column, not per cell.
func TestDecodeChunkAllocations(t *testing.T) {
	s := &array.Schema{
		Name:  "A",
		Dims:  []array.Dimension{{Name: "x", High: 64}, {Name: "y", High: 64}},
		Attrs: []array.Attribute{{Name: "a", Type: array.TFloat64}, {Name: "b", Type: array.TFloat64}},
	}
	ch := array.NewChunk(s, array.Coord{1, 1}, []int64{64, 64})
	rng := rand.New(rand.NewSource(2))
	array.IterBox(ch.Box(), func(c array.Coord) bool {
		_ = ch.Set(c, array.Cell{array.Float64(rng.Float64()), array.Float64(rng.NormFloat64())})
		return true
	})
	enc, err := EncodeChunk(s, ch)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := DecodeChunk(s, enc); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 40 {
		t.Errorf("DecodeChunk of 4096 cells x 2 columns: %.0f allocations, want O(columns)", allocs)
	}
}

// sameValue reports whether two values are the same, a nested array by its
// encoding.
func sameValue(a, b array.Value) bool {
	if a.Type != b.Type || a.Null != b.Null || a.Int != b.Int || math.Float64bits(a.Float) != math.Float64bits(b.Float) ||
		a.Str != b.Str || a.Bool != b.Bool || a.Sigma != b.Sigma || (a.Arr == nil) != (b.Arr == nil) {
		return false
	}
	if a.Arr == nil {
		return true
	}
	ea, errA := EncodeArray(a.Arr)
	eb, errB := EncodeArray(b.Arr)
	return errA == nil && errB == nil && slices.Equal(ea, eb)
}

// autoTags counts the Auto encodings — raw, delta, gzip, planes — of the
// sections of the bucket files in dir.
func autoTags(t *testing.T, s *array.Schema, dir string) map[byte]int {
	files, err := filepath.Glob(filepath.Join(dir, "bucket-*.sdb"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no buckets in %s: %v", dir, err)
	}
	auto, _ := compress.Tag(compress.Auto{})
	tags := map[byte]int{}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		h, err := parseHeader(s, data, int64(len(data)))
		if err != nil {
			t.Fatal(err)
		}
		off := headerLen(s)
		for _, sec := range h.secs {
			if sec.codec == auto && sec.stored > 0 {
				tags[data[off]]++
			}
			off += int(sec.stored)
		}
	}
	return tags
}

// TestSectionRoomsNeverLeak: a section's stored and inflated bytes live in
// rooms every bucket read shares, so a decoded chunk must hold none of them.
// Five persisted stores — Auto, whose sections here take its raw, delta,
// gzip and planes forms, and the RLE, Delta, Gzip and None codecs — share a
// pool smaller than one bucket and read four buckets ahead. Their columns
// are int, float with a sigma tail, string, bool and nested, over two
// flushed versions. Two scans run at once on each store: every chunk they
// deliver holds the cells that were written, and the chunks they keep still
// hold them after every later bucket has been read through the same rooms.
func TestSectionRoomsNeverLeak(t *testing.T) {
	inner := &array.Schema{Name: "in", Dims: []array.Dimension{{Name: "k", High: 4}},
		Attrs: []array.Attribute{{Name: "n", Type: array.TInt64}}}
	s := &array.Schema{
		Name: "R",
		Dims: []array.Dimension{{Name: "x", High: 257, ChunkLen: 32}, {Name: "y", High: 64, ChunkLen: 64}},
		Attrs: []array.Attribute{{Name: "i", Type: array.TInt64}, {Name: "f", Type: array.TFloat64, Uncertain: true},
			{Name: "m", Type: array.TFloat64}, {Name: "s", Type: array.TString}, {Name: "b", Type: array.TBool},
			{Name: "n", Type: array.TArray, Nested: inner}},
	}
	all := array.NewBox(array.Coord{1, 1}, array.Coord{257, 64})
	// A version of every chunk missing one cell in ten, then a sparse one
	// over it: records past Auto's planes threshold, and records under it —
	// in the one-row chunk at the edge too few for any codec to shrink the
	// random ints.
	layers := []struct {
		box  array.Box
		skip int // one cell in skip is left out; 0 writes every cell
	}{{all, 10}, {array.NewBox(array.Coord{1, 1}, array.Coord{257, 8}), 0}}
	rng := rand.New(rand.NewSource(23))
	want := map[string]array.Cell{}
	words := []string{"alpha", "beta", "gamma", "delta"}
	pool := bufcache.New(4 << 10)
	codecs := []compress.Codec{compress.Auto{}, compress.RLE{}, compress.Delta{}, compress.Gzip{}, compress.None{}}
	stores := make([]*Store, len(codecs))
	dir := t.TempDir()
	for i, c := range codecs {
		st, err := NewStore(s, Options{Dir: filepath.Join(dir, c.Name()), Codec: c, Cache: pool, Readahead: 4, MemLimit: 64 << 20})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		stores[i] = st
	}
	var seq int64
	for _, l := range layers {
		array.IterBox(l.box, func(c array.Coord) bool {
			if seq++; l.skip > 0 && rng.Intn(l.skip) == 0 {
				return true
			}
			cell := array.Cell{
				array.Int64(rng.Int63()),
				array.UncertainFloat(rng.NormFloat64()*1e3, float64(rng.Intn(4))/8),
				array.Float64(float64(1<<20 + seq)),
				array.String64(words[rng.Intn(len(words))]),
				array.Bool64(rng.Intn(3) == 0),
				array.NullValue(array.TArray),
			}
			if rng.Intn(16) == 0 {
				nested := array.MustNew(inner)
				_ = nested.Set(array.Coord{1 + rng.Int63n(4)}, array.Cell{array.Int64(seq)})
				cell[5] = array.Nested(nested)
			}
			for _, st := range stores {
				if err := st.Put(c.Clone(), cell); err != nil {
					t.Fatal(err)
				}
			}
			want[fmt.Sprint(c)] = cell
			return true
		})
		for _, st := range stores {
			if err := st.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	tags := autoTags(t, s, filepath.Join(dir, "auto"))
	t.Logf("Auto sections by form (0 raw, 1 delta, 2 gzip, 3 planes): %v", tags)
	if len(tags) != 4 {
		t.Fatalf("Auto sections took the forms %v; want raw, delta, gzip and planes", tags)
	}
	// check holds one delivery to the written cells: each live slot, and no
	// more of them than written.
	type kept struct {
		ch   *array.Chunk
		live *array.Bitmap
	}
	check := func(k kept) error {
		c := make(array.Coord, 2)
		for i := k.live.NextSet(0); i < k.ch.Slots(); i = k.live.NextSet(i + 1) {
			c[0], c[1] = k.ch.Origin[0]+i/k.ch.Shape[1], k.ch.Origin[1]+i%k.ch.Shape[1]
			w, ok := want[fmt.Sprint(c)]
			if !ok {
				return fmt.Errorf("cell %v was never written", c)
			}
			for a, col := range k.ch.Cols {
				if got := col.Get(i); !sameValue(got, w[a]) {
					return fmt.Errorf("cell %v, attribute %d: %+v, written %+v", c, a, got, w[a])
				}
			}
		}
		return nil
	}
	scan := func(st *Store) ([]kept, error) {
		var out []kept
		var n int64
		err := st.ScanChunks(all, nil, nil).Each(func(lc LiveChunk) error {
			k := kept{lc.Chunk, lc.Live.Clone()}
			n += k.live.Count()
			out = append(out, k)
			return check(k)
		})
		if err == nil && n != int64(len(want)) {
			err = fmt.Errorf("scan delivered %d cells, %d written", n, len(want))
		}
		return out, err
	}
	var wg sync.WaitGroup
	keptBy := make([][]kept, 2*len(stores))
	errs := make([]error, len(keptBy))
	for i := range keptBy {
		wg.Add(1)
		go func() {
			defer wg.Done()
			keptBy[i], errs[i] = scan(stores[i/2])
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("%s store, scan %d: %v", codecs[i/2].Name(), i%2, err)
		}
	}
	// Read every bucket again through the rooms, then the kept chunks.
	for _, st := range stores {
		if _, err := scan(st); err != nil {
			t.Fatal(err)
		}
	}
	for i, ks := range keptBy {
		for _, k := range ks {
			if err := check(k); err != nil {
				t.Fatalf("%s store, scan %d, chunk at %v kept past later reads: %v", codecs[i/2].Name(), i%2, k.ch.Origin, err)
			}
		}
	}
	if cs := pool.Stats(); cs.PinnedBytes != 0 {
		t.Errorf("%d bytes left pinned", cs.PinnedBytes)
	}
}
