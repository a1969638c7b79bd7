package storage

import (
	"sync"
	"testing"

	"scidb/internal/array"
	"scidb/internal/bufcache"
)

// perBucket is the pool entries one schema2D bucket makes: its frame and two
// columns, each cached — and counted as a hit or a miss — on its own.
const perBucket = 3

// fillBuckets writes one cell per grid chunk and flushes after each put,
// producing n distinct on-disk buckets along the x axis.
func fillBuckets(t *testing.T, st *Store, n int64) {
	t.Helper()
	for k := int64(0); k < n; k++ {
		if err := st.Put(array.Coord{k*8 + 1, 1}, array.Cell{array.Float64(float64(k)), array.String64("")}); err != nil {
			t.Fatal(err)
		}
		if err := st.Flush(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCachedScanZeroReads is the acceptance test for the buffer pool: a warm
// Scan over a previously-scanned box must perform zero BucketsRead disk
// reads, with the pool reporting the corresponding hits.
func TestCachedScanZeroReads(t *testing.T) {
	s := schema2D(64)
	st, err := NewStore(s, Options{Dir: t.TempDir(), CacheBytes: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	fillBuckets(t, st, 4)

	box := array.NewBox(array.Coord{1, 1}, array.Coord{32, 8})
	scan := func() (cells int, sum float64) {
		err := st.Scan(box, func(c array.Coord, cell array.Cell) bool {
			cells++
			sum += cell[0].Float
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		return
	}

	// Cold: every bucket comes off disk exactly once.
	n1, sum1 := scan()
	cold := st.Stats()
	if cold.BucketsRead != 4 {
		t.Fatalf("cold scan BucketsRead = %d, want 4", cold.BucketsRead)
	}
	cs := st.CacheStats()
	if cs.Misses != 4*perBucket || cs.Loads != 4*perBucket {
		t.Fatalf("cold cache stats = %+v, want a miss and a load per section of 4 buckets", cs)
	}

	// Warm: identical scan, zero disk reads, all hits.
	n2, sum2 := scan()
	warm := st.Stats()
	if got := warm.BucketsRead - cold.BucketsRead; got != 0 {
		t.Errorf("warm scan performed %d disk reads, want 0", got)
	}
	if got := warm.BytesRead - cold.BytesRead; got != 0 {
		t.Errorf("warm scan read %d bytes from disk, want 0", got)
	}
	cs = st.CacheStats()
	if cs.Hits != 4*perBucket {
		t.Errorf("warm cache hits = %d, want %d", cs.Hits, 4*perBucket)
	}
	if cs.Misses != 4*perBucket {
		t.Errorf("misses grew on warm scan: %d, want %d", cs.Misses, 4*perBucket)
	}
	if n1 != n2 || sum1 != sum2 {
		t.Errorf("warm scan returned different data: %d/%v vs %d/%v", n1, sum1, n2, sum2)
	}
	if cs.PinnedBytes != 0 {
		t.Errorf("pinned bytes leaked after scans: %d", cs.PinnedBytes)
	}
	if cs.Entries != 4*perBucket || cs.BytesResident <= 0 {
		t.Errorf("resident accounting = %+v, want %d entries and positive bytes", cs, 4*perBucket)
	}
}

// TestCachedGetWarm mirrors the scan test for the point-read path.
func TestCachedGetWarm(t *testing.T) {
	s := schema2D(64)
	st, err := NewStore(s, Options{Dir: t.TempDir(), CacheBytes: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	fillBuckets(t, st, 2)

	for i := 0; i < 3; i++ {
		cell, ok, err := st.Get(array.Coord{9, 1})
		if err != nil || !ok || cell[0].Float != 1 {
			t.Fatalf("Get #%d = %v,%v,%v", i, cell, ok, err)
		}
	}
	if got := st.Stats().BucketsRead; got != 1 {
		t.Errorf("BucketsRead = %d after 3 Gets of one bucket, want 1", got)
	}
	if cs := st.CacheStats(); cs.Hits != 2*perBucket || cs.Misses != perBucket {
		t.Errorf("cache stats = %+v, want the bucket's sections missed once and hit twice", cs)
	}
}

// bucketIDs returns the ids of the store's buckets.
func bucketIDs(st *Store) map[int64]bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	ids := map[int64]bool{}
	for _, vs := range st.index {
		for _, m := range vs {
			ids[m.id] = true
		}
	}
	return ids
}

// TestMergeInvalidatesCache is the regression test for the satellite fix: a
// merged-away bucket must never be served stale from the pool.
func TestMergeInvalidatesCache(t *testing.T) {
	s := schema2D(64)
	pool := bufcache.New(8 << 20)
	st, err := NewStore(s, Options{Dir: t.TempDir(), Cache: pool})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	fillBuckets(t, st, 3)
	// A second version of the first chunk, for MergeOnce to compact.
	if err := st.Put(array.Coord{2, 1}, array.Cell{array.Float64(100), array.String64("")}); err != nil {
		t.Fatal(err)
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}

	// Prime the pool with every bucket and note their ids.
	if err := st.Scan(array.NewBox(array.Coord{1, 1}, array.Coord{32, 8}), func(array.Coord, array.Cell) bool { return true }); err != nil {
		t.Fatal(err)
	}
	var oldIDs []int64
	for id := range bucketIDs(st) {
		oldIDs = append(oldIDs, id)
	}
	if len(oldIDs) != 4 || pool.Len() != 4*perBucket {
		t.Fatalf("setup: %d buckets, %d pool entries; want 4/%d", len(oldIDs), pool.Len(), 4*perBucket)
	}

	merged, err := st.MergeOnce()
	if err != nil || !merged {
		t.Fatalf("MergeOnce = %v,%v", merged, err)
	}

	// The two merged-away ids must be gone from both the store and the pool.
	var removed []int64
	live := bucketIDs(st)
	for _, id := range oldIDs {
		if !live[id] {
			removed = append(removed, id)
		}
	}
	if len(removed) != 2 {
		t.Fatalf("merge removed %d buckets, want 2", len(removed))
	}
	for _, id := range removed {
		for col := bufcache.Frame; col < len(st.schema.Attrs); col++ {
			if pool.Contains(st.cacheKey(id, col)) {
				t.Errorf("merged-away bucket %d section %d still resident in pool", id, col)
			}
		}
	}
	if got := st.CacheStats().Invalidations; got < 2 {
		t.Errorf("invalidations = %d, want >= 2", got)
	}

	// Re-reading returns the merged data, not stale cells.
	for k := int64(0); k < 3; k++ {
		cell, ok, err := st.Get(array.Coord{k*8 + 1, 1})
		if err != nil || !ok || cell[0].Float != float64(k) {
			t.Errorf("post-merge Get(k=%d) = %v,%v,%v", k, cell, ok, err)
		}
	}
	if cell, ok, err := st.Get(array.Coord{2, 1}); err != nil || !ok || cell[0].Float != 100 {
		t.Errorf("post-merge Get(2,1) = %v,%v,%v", cell, ok, err)
	}
}

// TestSharedPoolStoreClose: two stores share one pool under distinct key
// namespaces, and closing one releases only its own entries.
func TestSharedPoolStoreClose(t *testing.T) {
	pool := bufcache.New(8 << 20)
	mk := func() *Store {
		st, err := NewStore(schema2D(64), Options{Dir: t.TempDir(), Cache: pool})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	a, b := mk(), mk()
	fillBuckets(t, a, 2)
	fillBuckets(t, b, 2)
	prime := func(st *Store) {
		if err := st.Scan(array.NewBox(array.Coord{1, 1}, array.Coord{16, 8}), func(array.Coord, array.Cell) bool { return true }); err != nil {
			t.Fatal(err)
		}
	}
	prime(a)
	prime(b)
	if pool.Len() != 4*perBucket {
		t.Fatalf("pool entries = %d, want %d (2 buckets per store)", pool.Len(), 4*perBucket)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if pool.Len() != 2*perBucket {
		t.Errorf("pool entries after closing store A = %d, want %d", pool.Len(), 2*perBucket)
	}
	// Store B is untouched: its scan stays warm.
	before := b.Stats().BucketsRead
	prime(b)
	if got := b.Stats().BucketsRead - before; got != 0 {
		t.Errorf("store B went cold after closing store A: %d disk reads", got)
	}
	_ = b.Close()
	if pool.Len() != 0 {
		t.Errorf("pool entries after closing both = %d, want 0", pool.Len())
	}
}

// TestStatsRaceSafety hammers Stats/CacheStats from readers while writers
// mutate the store; meaningful under -race (satellite: race-safe Stats).
func TestStatsRaceSafety(t *testing.T) {
	s := schema2D(64)
	st, err := NewStore(s, Options{Dir: t.TempDir(), CacheBytes: 4 << 20, MemLimit: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = st.Stats()
				_ = st.CacheStats()
				_, _, _ = st.Get(array.Coord{1, 1})
				_ = st.Scan(array.NewBox(array.Coord{1, 1}, array.Coord{16, 8}), func(array.Coord, array.Cell) bool { return true })
			}
		}()
	}
	for k := int64(0); k < 32; k++ {
		if err := st.Put(array.Coord{k%16 + 1, k%16 + 1}, array.Cell{array.Float64(float64(k)), array.String64("")}); err != nil {
			t.Fatal(err)
		}
		if k%8 == 0 {
			_, _ = st.MergeOnce()
		}
	}
	close(stop)
	wg.Wait()

	got := st.Stats()
	if got.Flushes == 0 || got.BucketsWritten == 0 {
		t.Errorf("stats lost writes: %+v", got)
	}
}

// TestUncachedStoreStillWorks: CacheBytes 0 and no shared pool leaves the
// store uncached and fully functional.
func TestUncachedStoreStillWorks(t *testing.T) {
	st, err := NewStore(schema2D(64), Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if st.Cache() != nil {
		t.Fatal("expected nil pool when CacheBytes is 0")
	}
	fillBuckets(t, st, 2)
	for i := 0; i < 2; i++ {
		if _, ok, err := st.Get(array.Coord{1, 1}); !ok || err != nil {
			t.Fatalf("Get = %v,%v", ok, err)
		}
	}
	if got := st.Stats().BucketsRead; got != 2 {
		t.Errorf("uncached BucketsRead = %d, want 2 (one per Get)", got)
	}
	if cs := st.CacheStats(); cs != (bufcache.Stats{}) {
		t.Errorf("CacheStats on uncached store = %+v, want zero value", cs)
	}
}
