package storage

import (
	"sync"
	"testing"

	"scidb/internal/array"
)

// prefetchStore builds an on-disk store fragmented into nbuckets buckets,
// with a pool and the given readahead depth.
func prefetchStore(t *testing.T, dir string, nbuckets int64, readahead int) *Store {
	t.Helper()
	s := schema2D(nbuckets * 8)
	st, err := NewStore(s, Options{
		Dir:        dir,
		Stride:     []int64{8, 8},
		CacheBytes: 1 << 20,
		Readahead:  readahead,
	})
	if err != nil {
		t.Fatal(err)
	}
	for k := int64(0); k < nbuckets; k++ {
		_ = st.Put(array.Coord{k*8 + 1, 1}, array.Cell{array.Float64(float64(k)), array.String64("p")})
		if err := st.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if got := st.NumBuckets(); got != int(nbuckets) {
		t.Fatalf("buckets = %d, want %d", got, nbuckets)
	}
	return st
}

// TestScanPrefetchCounters: a full scan issues readahead loads and counts
// every issued bucket it consumes as a hit.
func TestScanPrefetchCounters(t *testing.T) {
	st := prefetchStore(t, t.TempDir(), 8, 2)
	defer st.Close()
	var n int
	if err := st.Scan(array.NewBox(array.Coord{1, 1}, array.Coord{64, 64}), func(array.Coord, array.Cell) bool {
		n++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if n != 8 {
		t.Fatalf("scan saw %d cells, want 8", n)
	}
	stats := st.Stats()
	// Bucket 0 is read synchronously; the first advance always issues a
	// full depth of loads ahead, and every issued bucket of a completed
	// scan is consumed, so hits == issued and nothing is wasted.
	if stats.PrefetchIssued < 2 {
		t.Errorf("PrefetchIssued = %d, want >= depth 2", stats.PrefetchIssued)
	}
	if stats.PrefetchHits != stats.PrefetchIssued {
		t.Errorf("PrefetchHits = %d, want %d (all issued consumed)", stats.PrefetchHits, stats.PrefetchIssued)
	}
	if stats.PrefetchWasted != 0 {
		t.Errorf("PrefetchWasted = %d, want 0", stats.PrefetchWasted)
	}
}

// TestScanPrefetchWasted: an early-stopped scan charges the loads it issued
// but never consumed as wasted.
func TestScanPrefetchWasted(t *testing.T) {
	st := prefetchStore(t, t.TempDir(), 8, 3)
	defer st.Close()
	n := 0
	if err := st.Scan(array.NewBox(array.Coord{1, 1}, array.Coord{64, 64}), func(array.Coord, array.Cell) bool {
		n++
		return false // stop after the first cell
	}); err != nil {
		t.Fatal(err)
	}
	stats := st.Stats()
	if stats.PrefetchIssued == 0 {
		t.Fatal("no prefetch issued")
	}
	if stats.PrefetchWasted == 0 {
		t.Errorf("early stop wasted 0 of %d issued", stats.PrefetchIssued)
	}
	if stats.PrefetchHits+stats.PrefetchWasted != stats.PrefetchIssued {
		t.Errorf("hits %d + wasted %d != issued %d",
			stats.PrefetchHits, stats.PrefetchWasted, stats.PrefetchIssued)
	}
}

// TestScanPrefetchDisabled: depth 0 never spawns the pipeline.
func TestScanPrefetchDisabled(t *testing.T) {
	st := prefetchStore(t, t.TempDir(), 4, 0)
	defer st.Close()
	if err := st.Scan(array.NewBox(array.Coord{1, 1}, array.Coord{32, 32}), func(array.Coord, array.Cell) bool {
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if got := st.Stats().PrefetchIssued; got != 0 {
		t.Errorf("PrefetchIssued = %d with readahead off", got)
	}
}

// TestScanPrefetchConcurrent drives many scans, merges, and writes at once —
// the race-detector target for the prefetcher's goroutines.
func TestScanPrefetchConcurrent(t *testing.T) {
	st := prefetchStore(t, t.TempDir(), 8, 2)
	defer st.Close()
	box := array.NewBox(array.Coord{1, 1}, array.Coord{64, 64})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 5; r++ {
				_ = st.Scan(box, func(array.Coord, array.Cell) bool { return true })
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for r := 0; r < 3; r++ {
			_, _ = st.MergeOnce()
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := int64(0); i < 10; i++ {
			_ = st.Put(array.Coord{i + 1, 7}, array.Cell{array.Float64(1), array.String64("w")})
		}
		_ = st.Flush()
	}()
	wg.Wait()
	// Everything still readable afterwards.
	var n int
	if err := st.Scan(box, func(array.Coord, array.Cell) bool {
		n++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if n < 8 {
		t.Errorf("post-stress scan saw %d cells, want >= 8", n)
	}
}

// TestScanPrefetchWarmsPool: after a prefetching scan, a second scan's reads
// come from the pool.
func TestScanPrefetchWarmsPool(t *testing.T) {
	st := prefetchStore(t, t.TempDir(), 6, 3)
	defer st.Close()
	box := array.NewBox(array.Coord{1, 1}, array.Coord{48, 48})
	if err := st.Scan(box, func(array.Coord, array.Cell) bool { return true }); err != nil {
		t.Fatal(err)
	}
	reads := st.Stats().BucketsRead
	if err := st.Scan(box, func(array.Coord, array.Cell) bool { return true }); err != nil {
		t.Fatal(err)
	}
	if got := st.Stats().BucketsRead; got != reads {
		t.Errorf("warm scan re-read buckets: %d -> %d", reads, got)
	}
}

// TestPrefetchedBucketReadOnce: with a pool smaller than one bucket, a
// prefetched bucket would be evicted the moment its prefetch let go of it
// and the scan would load it again. The prefetcher hands its pin to the
// scan instead, so a full scan reads every bucket exactly once however the
// goroutines interleave.
func TestPrefetchedBucketReadOnce(t *testing.T) {
	s := schema2D(64)
	st, err := NewStore(s, Options{Dir: t.TempDir(), Stride: []int64{8, 8}, CacheBytes: 1, Readahead: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	fillBuckets(t, st, 8)
	q := array.NewBox(array.Coord{1, 1}, array.Coord{64, 8})
	for rep := 0; rep < 100; rep++ {
		before := st.Stats()
		var cells int64
		if err := st.ScanChunks(q, nil, nil).Each(func(lc LiveChunk) error {
			cells += lc.Live.Count()
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		after := st.Stats()
		if got := after.BucketsRead - before.BucketsRead; cells != 8 || got != int64(st.NumBuckets()) {
			t.Fatalf("rep %d: %d cells from %d bucket reads, want 8 from %d", rep, cells, got, st.NumBuckets())
		}
		issued, hits := after.PrefetchIssued-before.PrefetchIssued, after.PrefetchHits-before.PrefetchHits
		if issued == 0 || hits != issued || after.PrefetchWasted != 0 {
			t.Fatalf("rep %d: prefetch issued %d, hits %d, wasted %d", rep, issued, hits, after.PrefetchWasted)
		}
	}
	if cs := st.CacheStats(); cs.PinnedBytes != 0 {
		t.Errorf("%d bytes left pinned", cs.PinnedBytes)
	}
}
