package core

import (
	"testing"

	"scidb/internal/array"
	"scidb/internal/storage"
)

// storeBacked builds a store with an 8x8 array of v = x*10+y on a 4x4 chunk
// grid, flushed to buckets, attached to the database as name.
func storeBacked(t *testing.T, db *Database, name string) *storage.Store {
	t.Helper()
	s := &array.Schema{
		Name:  name,
		Dims:  []array.Dimension{{Name: "x", High: 8, ChunkLen: 4}, {Name: "y", High: 8, ChunkLen: 4}},
		Attrs: []array.Attribute{{Name: "v", Type: array.TFloat64}},
	}
	st, err := storage.NewStore(s, storage.Options{
		Dir:        t.TempDir(),
		CacheBytes: 4 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 8; i++ {
		for j := int64(1); j <= 8; j++ {
			if err := st.Put(array.Coord{i, j}, array.Cell{array.Float64(float64(i*10 + j))}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := db.AttachStore(name, st); err != nil {
		t.Fatal(err)
	}
	return st
}

func TestStoreBackedRefAndQueries(t *testing.T) {
	db := testDB()
	storeBacked(t, db, "G")

	// Whole-array reference materializes through the pool.
	r := exec(t, db, "G")
	if r.Array.Count() != 64 {
		t.Fatalf("cells = %d, want 64", r.Array.Count())
	}
	if cell, ok := r.Array.At(array.Coord{3, 5}); !ok || cell[0].Float != 35 {
		t.Errorf("cell(3,5) = %v,%v; want 35", cell, ok)
	}

	// Operators compose over the store-backed ref like any other array.
	r = exec(t, db, "aggregate(G, {x}, sum(v))")
	if cell, ok := r.Array.At(array.Coord{2}); !ok || cell[0].Float != 196 { // sum(20+j) j=1..8
		t.Errorf("sum(x=2) = %v,%v; want 196", cell, ok)
	}
	if got := db.Names(); len(got) != 1 || got[0] != "G" {
		t.Errorf("Names = %v", got)
	}
}

func TestStoreSubsamplePushdownUsesBox(t *testing.T) {
	db := testDB()
	st := storeBacked(t, db, "G")

	// The box x in [1,4], y in [1,4] covers exactly one 4x4 bucket: the
	// pushdown must touch only that bucket, not all four.
	before := st.Stats().BucketsRead
	r := exec(t, db, "subsample(G, x <= 4 and y <= 4)")
	if r.Array.Count() != 16 {
		t.Fatalf("subsample cells = %d, want 16", r.Array.Count())
	}
	reads := st.Stats().BucketsRead - before
	if reads > 1 {
		t.Errorf("box subsample read %d buckets, want <= 1 (R-tree pruning)", reads)
	}

	// Warm repeat: zero disk reads, served from the pool.
	before = st.Stats().BucketsRead
	_ = exec(t, db, "subsample(G, x <= 4 and y <= 4)")
	if got := st.Stats().BucketsRead - before; got != 0 {
		t.Errorf("warm subsample read %d buckets, want 0", got)
	}
	if cs, err := db.CacheStats("G"); err != nil || cs.Hits == 0 {
		t.Errorf("CacheStats = %+v,%v; want hits > 0", cs, err)
	}

	// Non-box predicates fall back to full materialization, still correct.
	r = exec(t, db, "subsample(G, even(x))")
	if r.Array.Count() != 32 {
		t.Errorf("even-subsample cells = %d, want 32", r.Array.Count())
	}
}

func TestStoreFilterAggregatePushdownPrunes(t *testing.T) {
	db := testDB()
	st := storeBacked(t, db, "G")

	// v = x*10+y over four 4x4 buckets: the two x<=4 buckets max out at
	// 48, so v > 50 prunes exactly those two by zone map.
	before := st.Stats()
	r := exec(t, db, "aggregate(filter(G, v > 50), {}, sum(v), count(v))")
	cell, ok := r.Array.At(array.Coord{1})
	if !ok {
		t.Fatal("missing grand-total row")
	}
	if cell[0].Float != 2224 { // sum of x*10+y, x in 5..8, y in 1..8
		t.Errorf("sum = %v, want 2224", cell[0])
	}
	if cell[1].Int != 32 {
		t.Errorf("count = %v, want 32", cell[1])
	}
	d := st.Stats()
	if got := d.ChunksSkipped - before.ChunksSkipped; got != 2 {
		t.Errorf("chunks skipped = %d, want 2", got)
	}
	if got := d.ChunksVisited - before.ChunksVisited; got != 2 {
		t.Errorf("chunks visited = %d, want 2", got)
	}

	// Impossible predicate: every bucket pruned, yet the result row must
	// stay occupied (NULL sum, zero count) exactly like the unfused plan.
	before = st.Stats()
	r = exec(t, db, "aggregate(filter(G, v > 1000), {}, sum(v), count(v))")
	cell, ok = r.Array.At(array.Coord{1})
	if !ok {
		t.Fatal("all-pruned aggregate lost its result row")
	}
	if !cell[0].Null {
		t.Errorf("all-pruned sum = %v, want NULL", cell[0])
	}
	if cell[1].Null || cell[1].Int != 0 {
		t.Errorf("all-pruned count = %v, want 0", cell[1])
	}
	if got := st.Stats().ChunksSkipped - before.ChunksSkipped; got != 4 {
		t.Errorf("chunks skipped = %d, want 4", got)
	}

	// Grouped aggregates must not take the pruned path (group coords need
	// every cell); the answer still comes out right via the generic plan.
	r = exec(t, db, "aggregate(filter(G, v > 50), {x}, count(v))")
	if cell, ok := r.Array.At(array.Coord{6}); !ok || cell[0].Int != 8 {
		t.Errorf("grouped count(x=6) = %v,%v; want 8", cell, ok)
	}
}

func TestStoreBackedCatalog(t *testing.T) {
	db := testDB()
	storeBacked(t, db, "G")

	// The name is taken: plain creates and re-attach must fail.
	exec(t, db, "define array T (v = float) (x, y)")
	execErr(t, db, "create array G as T [8, 8]")
	st2, err := storage.NewStore(&array.Schema{
		Name:  "G",
		Dims:  []array.Dimension{{Name: "x", High: 4}},
		Attrs: []array.Attribute{{Name: "v", Type: array.TFloat64}},
	}, storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.AttachStore("G", st2); err == nil {
		t.Error("duplicate AttachStore succeeded")
	}
	_ = st2.Close()

	if _, err := db.StoreFor("G"); err != nil {
		t.Errorf("StoreFor(G): %v", err)
	}
	if _, err := db.StoreFor("nope"); err == nil {
		t.Error("StoreFor(nope) succeeded")
	}

	// Drop closes and removes the store.
	if err := db.Drop("G"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("G"); err == nil {
		t.Error("dropped store-backed array still queryable")
	}
	if got := db.Names(); len(got) != 0 {
		t.Errorf("Names after drop = %v", got)
	}
}
