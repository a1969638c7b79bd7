package bufcache

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"scidb/internal/array"
)

func testSchema() *array.Schema {
	return &array.Schema{
		Name:  "B",
		Dims:  []array.Dimension{{Name: "x", High: 64}},
		Attrs: []array.Attribute{{Name: "v", Type: array.TInt64}},
	}
}

// testChunk builds a chunk whose cells are tagged with the bucket id, so a
// reader can verify it got the right (non-stale) bucket.
func testChunk(bucket int64) *array.Chunk {
	s := testSchema()
	ch := array.NewChunk(s, array.Coord{1}, []int64{64})
	for i := int64(1); i <= 64; i++ {
		_ = ch.Set(array.Coord{i}, array.Cell{array.Int64(bucket*1000 + i)})
	}
	return ch
}

func chunkSize() int64 { return testChunk(0).ByteSize() }

// keysInShard returns n distinct bucket ids for the store that all hash to
// the same shard, so LRU behaviour is deterministic.
func keysInShard(p *Pool, store uint64, n int) []Key {
	target := p.shardOf(Key{Store: store, Bucket: 0})
	out := []Key{{Store: store, Bucket: 0}}
	for b := int64(1); len(out) < n; b++ {
		k := Key{Store: store, Bucket: b}
		if p.shardOf(k) == target {
			out = append(out, k)
		}
	}
	return out
}

func mustLoad(t *testing.T, p *Pool, k Key, loads *atomic.Int64) *Handle {
	t.Helper()
	h, err := p.GetOrLoad(k, func() (Sized, error) {
		if loads != nil {
			loads.Add(1)
		}
		return testChunk(k.Bucket), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestHitMissAndAccounting(t *testing.T) {
	p := New(1 << 20)
	store := p.RegisterStore()
	k := Key{Store: store, Bucket: 7}
	var loads atomic.Int64

	h := mustLoad(t, p, k, &loads)
	if got := h.Value(); got == nil {
		t.Fatal("nil chunk")
	}
	st := p.Stats()
	if st.Misses != 1 || st.Loads != 1 || st.Hits != 0 {
		t.Fatalf("after miss: %+v", st)
	}
	if st.BytesResident != chunkSize() || st.PinnedBytes != chunkSize() {
		t.Fatalf("byte accounting: resident=%d pinned=%d want %d", st.BytesResident, st.PinnedBytes, chunkSize())
	}
	h.Release()
	h.Release() // idempotent
	if got := p.Stats().PinnedBytes; got != 0 {
		t.Fatalf("pinned after release = %d", got)
	}

	h2 := mustLoad(t, p, k, &loads)
	defer h2.Release()
	st = p.Stats()
	if st.Hits != 1 || loads.Load() != 1 {
		t.Fatalf("second read should hit: %+v loads=%d", st, loads.Load())
	}
	if !p.Contains(k) || p.Len() != 1 {
		t.Fatalf("Contains/Len wrong: %v %d", p.Contains(k), p.Len())
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	sz := chunkSize()
	// Per-shard budget of 2.5 chunks: the third resident chunk in one shard
	// evicts the least recently used one.
	p := New(numShards * (2*sz + sz/2))
	store := p.RegisterStore()
	ks := keysInShard(p, store, 3)
	a, b, c := ks[0], ks[1], ks[2]

	mustLoad(t, p, a, nil).Release()
	mustLoad(t, p, b, nil).Release()
	// Touch a so b becomes LRU.
	mustLoad(t, p, a, nil).Release()
	mustLoad(t, p, c, nil).Release()

	if !p.Contains(a) || !p.Contains(c) {
		t.Error("recently used entries evicted")
	}
	if p.Contains(b) {
		t.Error("LRU entry b survived over-budget insert")
	}
	if st := p.Stats(); st.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", st.Evictions)
	}
}

func TestPinnedChunksAreNeverEvicted(t *testing.T) {
	sz := chunkSize()
	// Budget below one chunk per shard: every unpinned chunk is over budget.
	p := New(numShards * sz / 2)
	store := p.RegisterStore()
	ks := keysInShard(p, store, 3)

	pinned := mustLoad(t, p, ks[0], nil)
	for _, k := range ks[1:] {
		mustLoad(t, p, k, nil).Release()
	}
	// The pinned chunk must still be resident and readable despite the
	// pool being far over budget; the others are evictable and gone.
	if !p.Contains(ks[0]) {
		t.Fatal("pinned chunk evicted")
	}
	if cell, ok := pinned.Value().(*array.Chunk).Get(array.Coord{3}); !ok || cell[0].Int != ks[0].Bucket*1000+3 {
		t.Fatalf("pinned chunk corrupted: %v %v", cell, ok)
	}
	if p.Contains(ks[1]) || p.Contains(ks[2]) {
		t.Error("unpinned over-budget chunks not evicted")
	}
	pinned.Release()
	// Release settles the account: nothing can stay resident under a
	// budget smaller than one chunk.
	if p.Contains(ks[0]) {
		t.Error("released chunk survived under-chunk budget")
	}
	st := p.Stats()
	if st.BytesResident != 0 || st.PinnedBytes != 0 {
		t.Errorf("accounting after drain: %+v", st)
	}
}

// TestConcurrentScanSingleflight is the tentpole concurrency contract: N
// goroutines scanning the same set of buckets concurrently trigger exactly
// one decode per bucket, and no pinned chunk is ever evicted out from
// under a scanner.
func TestConcurrentScanSingleflight(t *testing.T) {
	const (
		goroutines = 16
		buckets    = 8
	)
	p := New(1 << 20) // ample budget: nothing should be evicted
	store := p.RegisterStore()
	loads := make([]atomic.Int64, buckets)

	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := int64(0); b < buckets; b++ {
				k := Key{Store: store, Bucket: b}
				h, err := p.GetOrLoad(k, func() (Sized, error) {
					loads[b].Add(1)
					time.Sleep(time.Millisecond) // widen the race window
					return testChunk(b), nil
				})
				if err != nil {
					errs <- err
					return
				}
				// "Scan" the pinned chunk; it must carry bucket b's data.
				for i := int64(1); i <= 64; i++ {
					cell, ok := h.Value().(*array.Chunk).Get(array.Coord{i})
					if !ok || cell[0].Int != b*1000+i {
						errs <- fmt.Errorf("bucket %d slot %d: %v %v", b, i, cell, ok)
						h.Release()
						return
					}
				}
				h.Release()
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for b := range loads {
		if n := loads[b].Load(); n != 1 {
			t.Errorf("bucket %d decoded %d times, want exactly 1 (singleflight)", b, n)
		}
	}
	st := p.Stats()
	if st.Loads != buckets {
		t.Errorf("pool loads = %d, want %d", st.Loads, buckets)
	}
	if st.Evictions != 0 {
		t.Errorf("evictions = %d, want 0 (ample budget, pinned scans)", st.Evictions)
	}
	if st.Hits+st.Misses != goroutines*buckets {
		t.Errorf("hits+misses = %d, want %d", st.Hits+st.Misses, goroutines*buckets)
	}
	if st.PinnedBytes != 0 {
		t.Errorf("pinned bytes after all scans = %d", st.PinnedBytes)
	}
}

func TestLoadErrorNotCached(t *testing.T) {
	p := New(1 << 20)
	k := Key{Store: p.RegisterStore(), Bucket: 1}
	boom := fmt.Errorf("disk on fire")
	if _, err := p.GetOrLoad(k, func() (Sized, error) { return nil, boom }); err != boom {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if p.Contains(k) || p.Len() != 0 {
		t.Error("failed load left residue")
	}
	// The key loads fine afterwards.
	h := mustLoad(t, p, k, nil)
	defer h.Release()
	if !p.Contains(k) {
		t.Error("recovery load not cached")
	}
}

func TestInvalidate(t *testing.T) {
	p := New(1 << 20)
	store := p.RegisterStore()
	k := Key{Store: store, Bucket: 3}
	mustLoad(t, p, k, nil).Release()
	p.Invalidate(k)
	p.Invalidate(k) // absent: no-op
	if p.Contains(k) {
		t.Fatal("invalidated key still resident")
	}
	st := p.Stats()
	if st.Invalidations != 1 || st.BytesResident != 0 {
		t.Fatalf("stats after invalidate: %+v", st)
	}
	var loads atomic.Int64
	mustLoad(t, p, k, &loads).Release()
	if loads.Load() != 1 {
		t.Error("invalidated key served without reload")
	}
}

func TestInvalidateWhilePinned(t *testing.T) {
	p := New(1 << 20)
	k := Key{Store: p.RegisterStore(), Bucket: 9}
	h := mustLoad(t, p, k, nil)
	p.Invalidate(k)
	if p.Contains(k) {
		t.Fatal("doomed entry still visible")
	}
	// The pinned holder keeps a usable chunk; memory is accounted as
	// pinned (not resident) until the pin drops.
	if cell, ok := h.Value().(*array.Chunk).Get(array.Coord{1}); !ok || cell[0].Int != 9001 {
		t.Fatalf("doomed chunk unreadable: %v %v", cell, ok)
	}
	st := p.Stats()
	if st.BytesResident != 0 || st.PinnedBytes != chunkSize() {
		t.Fatalf("doomed accounting: %+v", st)
	}
	h.Release()
	if st := p.Stats(); st.PinnedBytes != 0 {
		t.Fatalf("pinned after doomed release: %+v", st)
	}
}

func TestInvalidateStore(t *testing.T) {
	p := New(1 << 20)
	s1, s2 := p.RegisterStore(), p.RegisterStore()
	for b := int64(0); b < 4; b++ {
		mustLoad(t, p, Key{Store: s1, Bucket: b}, nil).Release()
		mustLoad(t, p, Key{Store: s2, Bucket: b}, nil).Release()
	}
	p.InvalidateStore(s1)
	for b := int64(0); b < 4; b++ {
		if p.Contains(Key{Store: s1, Bucket: b}) {
			t.Errorf("store 1 bucket %d survived InvalidateStore", b)
		}
		if !p.Contains(Key{Store: s2, Bucket: b}) {
			t.Errorf("store 2 bucket %d wrongly invalidated", b)
		}
	}
	if p.Len() != 4 {
		t.Errorf("Len = %d, want 4", p.Len())
	}
}

func TestPutWriteThrough(t *testing.T) {
	p := New(1 << 20)
	k := Key{Store: p.RegisterStore(), Bucket: 5}
	p.Put(k, testChunk(5))
	if !p.Contains(k) {
		t.Fatal("Put did not cache")
	}
	var loads atomic.Int64
	h := mustLoad(t, p, k, &loads)
	defer h.Release()
	if loads.Load() != 0 {
		t.Error("GetOrLoad after Put ran the loader")
	}
	// Replacement Put swaps the content.
	p.Put(k, testChunk(6))
	h2 := mustLoad(t, p, k, &loads)
	defer h2.Release()
	if cell, ok := h2.Value().(*array.Chunk).Get(array.Coord{1}); !ok || cell[0].Int != 6001 {
		t.Errorf("replaced chunk = %v %v, want bucket-6 data", cell, ok)
	}
}

func TestDefaultBudget(t *testing.T) {
	p := New(0)
	if p.Budget() != DefaultBudget {
		t.Errorf("budget = %d, want default %d", p.Budget(), DefaultBudget)
	}
	if p.Stats().Budget != DefaultBudget {
		t.Error("stats budget mismatch")
	}
	if r := (Stats{}).HitRate(); r != 0 {
		t.Errorf("empty hit rate = %v", r)
	}
	if r := (Stats{Hits: 3, Misses: 1}).HitRate(); r != 0.75 {
		t.Errorf("hit rate = %v, want 0.75", r)
	}
}

// TestConcurrentInvalidateAndLoad hammers load/invalidate interleavings
// under the race detector.
func TestConcurrentInvalidateAndLoad(t *testing.T) {
	p := New(1 << 20)
	store := p.RegisterStore()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := Key{Store: store, Bucket: int64(i % 4)}
				if g%2 == 0 {
					h, err := p.GetOrLoad(k, func() (Sized, error) {
						return testChunk(k.Bucket), nil
					})
					if err != nil {
						t.Error(err)
						return
					}
					if cell, ok := h.Value().(*array.Chunk).Get(array.Coord{2}); !ok || cell[0].Int != k.Bucket*1000+2 {
						t.Errorf("stale or corrupt chunk: %v %v", cell, ok)
					}
					h.Release()
				} else {
					p.Invalidate(k)
				}
			}
		}(g)
	}
	wg.Wait()
	if st := p.Stats(); st.PinnedBytes != 0 {
		t.Errorf("pinned bytes after churn = %d", st.PinnedBytes)
	}
}
