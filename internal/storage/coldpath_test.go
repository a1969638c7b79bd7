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
// must leave nothing in the pool.
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
	cells := func() (map[string]array.Cell, error) {
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
