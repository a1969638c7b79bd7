package storage

import (
	"testing"

	"scidb/internal/array"
	"scidb/internal/bufcache"
)

// TestExportRegionCanonicalCopy: ExportRegion must fold newest-bucket
// shadowing and unflushed writes into one canonical set of stride-aligned
// payloads that a fresh store adopts into bit-identical content.
func TestExportRegionCanonicalCopy(t *testing.T) {
	schema := &array.Schema{
		Name:      "e",
		Updatable: true,
		Dims:      []array.Dimension{{Name: "x", High: 16, ChunkLen: 4}},
		Attrs:     []array.Attribute{{Name: "v", Type: array.TFloat64}},
	}
	src, err := NewStore(schema, Options{Stride: []int64{4}})
	if err != nil {
		t.Fatal(err)
	}
	put := func(x int64, v float64) {
		t.Helper()
		if err := src.Put(array.Coord{x}, array.Cell{array.Float64(v)}); err != nil {
			t.Fatal(err)
		}
	}
	for x := int64(1); x <= 16; x++ {
		put(x, float64(x))
	}
	if err := src.Flush(); err != nil {
		t.Fatal(err)
	}
	// Overwrite one cell and flush (a shadowing bucket), then leave another
	// update unflushed in the memory buffer.
	put(3, 300)
	if err := src.Flush(); err != nil {
		t.Fatal(err)
	}
	put(6, 600)

	box := array.Box{Lo: array.Coord{1}, Hi: array.Coord{8}}
	payloads, cells, err := src.ExportRegion(box)
	if err != nil {
		t.Fatal(err)
	}
	if cells != 8 {
		t.Fatalf("exported %d cells, want 8", cells)
	}
	if len(payloads) != 2 {
		t.Fatalf("exported %d payloads, want 2 stride-4 chunks", len(payloads))
	}

	dst, err := NewStore(schema, Options{Stride: []int64{4}})
	if err != nil {
		t.Fatal(err)
	}
	b, err := DecodeBatch(schema, payloads)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dst.Apply(b); err != nil {
		t.Fatal(err)
	}
	want := map[int64]float64{1: 1, 2: 2, 3: 300, 4: 4, 5: 5, 6: 600, 7: 7, 8: 8}
	got := map[int64]float64{}
	if err := dst.Scan(box, func(c array.Coord, cell array.Cell) bool {
		got[c[0]] = cell[0].Float
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("adopted copy holds %d cells, want %d: %v", len(got), len(want), got)
	}
	for x, v := range want {
		if got[x] != v {
			t.Errorf("cell %d = %v, want %v (shadow/buffer fold)", x, got[x], v)
		}
	}
	// An empty region exports nothing.
	if p, n, err := src.ExportRegion(array.Box{Lo: array.Coord{100}, Hi: array.Coord{120}}); err != nil || n != 0 || len(p) != 0 {
		t.Fatalf("empty region export = %d payloads, %d cells, %v", len(p), n, err)
	}
}

// TestApplyClearUnshadowsAdoptedCopy pins the migration staleness rule:
// a store re-adopting a region it once owned may still hold that region's
// cells in its memory buffer from the earlier stint, and the buffer outranks
// every bucket on reads — so without the batch's Clear the stale cells shadow
// the newer adopted copy (and poison the next export). This is the
// storage-level half of cluster.TestWriteFenceDuringMigration.
func TestApplyClearUnshadowsAdoptedCopy(t *testing.T) {
	schema := &array.Schema{
		Name:      "c",
		Updatable: true,
		Dims:      []array.Dimension{{Name: "x", High: 16, ChunkLen: 4}},
		Attrs:     []array.Attribute{{Name: "v", Type: array.TFloat64}},
	}
	// old once owned x[1,8]: round-1 values sit unflushed in its buffer.
	old, err := NewStore(schema, Options{Stride: []int64{4}})
	if err != nil {
		t.Fatal(err)
	}
	for x := int64(1); x <= 8; x++ {
		if err := old.Put(array.Coord{x}, array.Cell{array.Float64(float64(1000 + x))}); err != nil {
			t.Fatal(err)
		}
	}
	// cur took the region over and accumulated newer writes.
	cur, err := NewStore(schema, Options{Stride: []int64{4}})
	if err != nil {
		t.Fatal(err)
	}
	for x := int64(1); x <= 8; x++ {
		if err := cur.Put(array.Coord{x}, array.Cell{array.Float64(float64(2000 + x))}); err != nil {
			t.Fatal(err)
		}
	}
	box := array.Box{Lo: array.Coord{1}, Hi: array.Coord{8}}
	payloads, _, err := cur.ExportRegion(box)
	if err != nil {
		t.Fatal(err)
	}
	// Migrating back: one batch clears the old stint's buffered cells, then
	// adopts. Every adopted cell is new to the store once the 8 stale ones
	// are gone.
	b, err := DecodeBatch(schema, payloads)
	if err != nil {
		t.Fatal(err)
	}
	b.Clear = box
	if added, err := old.Apply(b); err != nil || added != 8 {
		t.Fatalf("Apply with Clear added %d cells (%v), want the 8 the clear dropped", added, err)
	}
	if n := old.mem.Count(); n != 0 {
		t.Fatalf("%d stale cells still buffered", n)
	}
	got := map[int64]float64{}
	scan := func() {
		t.Helper()
		got = map[int64]float64{}
		if err := old.Scan(box, func(c array.Coord, cell array.Cell) bool {
			got[c[0]] = cell[0].Float
			return true
		}); err != nil {
			t.Fatal(err)
		}
	}
	scan()
	if len(got) != 8 {
		t.Fatalf("re-adopted region holds %d cells, want 8: %v", len(got), got)
	}
	for x := int64(1); x <= 8; x++ {
		if got[x] != float64(2000+x) {
			t.Errorf("cell %d = %v, want %v (stale buffer must not shadow the adopted copy)", x, got[x], float64(2000+x))
		}
	}
	// Clearing an untouched region is a no-op.
	if added, err := old.Apply(Batch{Clear: array.Box{Lo: array.Coord{9}, Hi: array.Coord{16}}}); err != nil || added != 0 {
		t.Fatalf("Apply clearing an empty region: added %d, %v", added, err)
	}
	if scan(); len(got) != 8 {
		t.Fatalf("clearing an empty region left %d cells, want 8", len(got))
	}
}

// TestApplyClearDropsPoolEntries: after a read warms the pool, a batch
// clearing a region invalidates the entries of the buckets it meets, and
// only theirs, and a later read still works from disk.
func TestApplyClearDropsPoolEntries(t *testing.T) {
	schema := &array.Schema{
		Name:  "r",
		Dims:  []array.Dimension{{Name: "x", High: 16, ChunkLen: 4}},
		Attrs: []array.Attribute{{Name: "v", Type: array.TFloat64}},
	}
	st, err := NewStore(schema, Options{Stride: []int64{4}, CacheBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	for x := int64(1); x <= 16; x++ {
		if err := st.Put(array.Coord{x}, array.Cell{array.Float64(float64(x))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	full := array.Box{Lo: array.Coord{1}, Hi: array.Coord{16}}
	count := func() int64 {
		t.Helper()
		var n int64
		if err := st.Scan(full, func(array.Coord, array.Cell) bool { n++; return true }); err != nil {
			t.Fatal(err)
		}
		return n
	}
	region, rest := array.Box{Lo: array.Coord{1}, Hi: array.Coord{8}}, array.Box{Lo: array.Coord{9}, Hi: array.Coord{16}}
	cached := func(box array.Box) (n int) {
		for _, m := range st.searchMetasLocked(box) {
			if st.cache.Contains(st.cacheKey(m.id, bufcache.Frame)) {
				n++
			}
		}
		return n
	}
	if n := count(); n != 16 {
		t.Fatalf("warmup scan saw %d cells", n)
	}
	if _, err := st.Apply(Batch{Clear: region}); err != nil {
		t.Fatal(err)
	}
	if n, m := cached(region), cached(rest); n != 0 || m != 2 {
		t.Fatalf("after the clear %d of the region's 2 buckets and %d of the other 2 are cached, want 0 and 2", n, m)
	}
	if n := count(); n != 16 {
		t.Fatalf("post-release scan saw %d cells; release must not lose data", n)
	}
}
