// Package bufcache implements the process-wide buffer pool between the
// storage manager's compressed on-disk buckets and the query layer. The
// paper's storage manager (§2.5, §2.8) assumes hot buckets are served from
// main memory — "when main memory is nearly full" is its flush trigger —
// so repeated scans over the same region must not pay disk read plus
// decompression every time. The pool caches decoded bucket sections keyed
// by (store, bucket, section) — a section being what a reader can take on
// its own: a bucket's frame and presence bitmap, or one of its columns — so
// what is budgeted is what is resident, and a statement that needs another
// column of a cached bucket loads just that column. It has:
//
//   - byte-accurate memory accounting against a configurable budget,
//   - LRU eviction that never evicts a pinned section (a scan pins what
//     it is iterating, so eviction cannot yank it mid-scan),
//   - singleflight load deduplication: concurrent readers of one section
//     trigger exactly one disk read + decode,
//   - a Stats snapshot (hits, misses, loads, evictions, resident bytes,
//     pinned bytes) for observability.
//
// The pool is sharded to keep lock contention off the read hot path. The
// byte budget is split evenly across shards, so a single shard admits at
// most budget/numShards unpinned bytes; summed over shards the pool stays
// within the configured budget. Pinned sections are never evicted, so the
// resident total exceeds the budget by at most what readers hold pinned (a
// store scan: the buckets in its consumer's hands plus its readahead
// depth, each at its projected columns; a cluster join read also holds its
// right-hand partition's single-version buckets until it ends).
package bufcache

import (
	"sync"
	"sync/atomic"
)

// numShards is the fixed shard count; a power of two keeps the hash cheap.
const numShards = 8

// DefaultBudget is the pool budget when New is given a non-positive size.
const DefaultBudget = 64 << 20

// Key identifies one cached section: the pool-assigned id of the owning
// store, the store-local bucket id, and the section within the bucket — a
// column index, or Frame. Store ids come from RegisterStore, so two stores
// sharing a pool can never alias each other's buckets.
type Key struct {
	Store  uint64
	Bucket int64
	Col    int
}

// Frame is the Col of a bucket's frame: its origin, shape and presence
// bitmap, which every read of the bucket needs whatever it projects.
const Frame = -1

// Sized is what the pool holds: a decoded, read-only value that reports
// the bytes it keeps resident (an *array.Chunk, an *array.Column).
type Sized interface{ ByteSize() int64 }

// Stats is a snapshot of pool activity. Hits count lookups served from
// memory, including singleflight waiters that piggybacked on an in-flight
// load; Misses count lookups that initiated a load, so Misses == Loads.
type Stats struct {
	Hits          int64
	Misses        int64
	Loads         int64
	Evictions     int64
	Invalidations int64
	Entries       int64
	BytesResident int64
	PinnedBytes   int64
	Budget        int64
}

// HitRate returns hits / (hits + misses), or 0 before any lookup.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// entry is one cached section. An entry is born as a loading placeholder
// (ready non-nil, val nil); the loader fills it in and closes ready.
// Invalidation while pinned marks the entry doomed: it leaves the map and
// the LRU list immediately (no new reader can find it) but its pinned
// bytes are released only when the last pin drops.
type entry struct {
	key    Key
	val    Sized
	size   int64
	pins   int
	doomed bool
	ready  chan struct{}
	// LRU links; nil when unlinked. next points toward MRU.
	prev, next *entry
}

// shard is one lock domain: a key map plus an LRU list with sentinel-free
// head (MRU) and tail (LRU) pointers.
type shard struct {
	mu     sync.Mutex
	budget int64
	bytes  int64
	m      map[Key]*entry
	head   *entry // most recently used
	tail   *entry // least recently used
}

// Pool is a shared buffer pool for decoded bucket sections. It is safe for
// concurrent use by any number of stores and readers.
type Pool struct {
	budget    int64
	shards    [numShards]shard
	nextStore atomic.Uint64

	hits          atomic.Int64
	misses        atomic.Int64
	loads         atomic.Int64
	evictions     atomic.Int64
	invalidations atomic.Int64
	entries       atomic.Int64
	bytes         atomic.Int64
	pinned        atomic.Int64
}

// New creates a pool with the given byte budget (<= 0 means DefaultBudget).
func New(budget int64) *Pool {
	if budget <= 0 {
		budget = DefaultBudget
	}
	p := &Pool{budget: budget}
	per := budget / numShards
	if per < 1 {
		per = 1
	}
	for i := range p.shards {
		p.shards[i].budget = per
		p.shards[i].m = map[Key]*entry{}
	}
	return p
}

// Budget returns the configured byte budget.
func (p *Pool) Budget() int64 { return p.budget }

// RegisterStore allocates a fresh store id, guaranteeing key disjointness
// between stores sharing the pool.
func (p *Pool) RegisterStore() uint64 { return p.nextStore.Add(1) }

// shardOf picks the shard for a key by a cheap 64-bit mix.
func (p *Pool) shardOf(k Key) *shard {
	h := k.Store*0x9E3779B97F4A7C15 ^ uint64(k.Bucket)*0xBF58476D1CE4E5B9 ^ uint64(k.Col)*0x94D049BB133111EB
	h ^= h >> 29
	return &p.shards[h%numShards]
}

// Handle is a pinned reference to a cached section, which is guaranteed
// not to be evicted until Release is called. Handles are not safe for
// concurrent use; Release is idempotent.
type Handle struct {
	p  *Pool
	sh *shard
	e  *entry
}

// Value returns the pinned section. Callers must treat it as read-only: it
// is shared with every other reader of the same bucket.
func (h *Handle) Value() Sized { return h.e.val }

// Release unpins the section. After the last pin drops the entry becomes
// evictable (or, if it was invalidated while pinned, its bytes are
// released immediately).
func (h *Handle) Release() {
	if h == nil || h.e == nil {
		return
	}
	sh, e := h.sh, h.e
	h.e = nil
	sh.mu.Lock()
	e.pins--
	if e.pins == 0 {
		h.p.pinned.Add(-e.size)
		if !e.doomed {
			// The entry may have pushed the shard over budget while it
			// was pinned; settle the account now that it is evictable.
			h.p.evictLocked(sh)
		}
	}
	sh.mu.Unlock()
}

// pinLocked takes one pin on a resident entry.
func (p *Pool) pinLocked(e *entry) {
	e.pins++
	if e.pins == 1 {
		p.pinned.Add(e.size)
	}
}

// GetOrLoad returns a pinned handle for the section, loading it with load
// on a miss. Concurrent callers for the same key are deduplicated: exactly
// one runs load, the rest wait and share the result. A load error is
// returned to every caller that observed the failed flight, and nothing is
// cached.
func (p *Pool) GetOrLoad(k Key, load func() (Sized, error)) (*Handle, error) {
	sh := p.shardOf(k)
	sh.mu.Lock()
	for {
		e, ok := sh.m[k]
		if !ok {
			break
		}
		if e.ready != nil {
			// A load is in flight; wait for it off the lock, then re-check
			// (the flight may have failed or been invalidated).
			ready := e.ready
			sh.mu.Unlock()
			<-ready
			sh.mu.Lock()
			continue
		}
		p.hits.Add(1)
		p.pinLocked(e)
		sh.touchLocked(e)
		sh.mu.Unlock()
		return &Handle{p: p, sh: sh, e: e}, nil
	}
	// Miss: install a loading placeholder, then load off the lock.
	e := &entry{key: k, ready: make(chan struct{})}
	sh.m[k] = e
	sh.mu.Unlock()

	p.misses.Add(1)
	p.loads.Add(1)
	v, err := load()

	sh.mu.Lock()
	ready := e.ready
	e.ready = nil
	if err != nil {
		if sh.m[k] == e {
			delete(sh.m, k)
		}
		sh.mu.Unlock()
		close(ready)
		return nil, err
	}
	e.val = v
	e.size = v.ByteSize()
	if sh.m[k] != e {
		// Invalidated while loading: serve the caller but do not cache.
		e.doomed = true
		p.pinLocked(e)
		sh.mu.Unlock()
		close(ready)
		return &Handle{p: p, sh: sh, e: e}, nil
	}
	sh.bytes += e.size
	p.bytes.Add(e.size)
	p.entries.Add(1)
	p.pinLocked(e)
	sh.pushFrontLocked(e)
	p.evictLocked(sh)
	sh.mu.Unlock()
	close(ready)
	return &Handle{p: p, sh: sh, e: e}, nil
}

// Put inserts an already-decoded section (the storage manager's
// write-through path: a freshly adopted bucket is hot by definition). It
// must not be mutated after insertion. Existing entries for the key are
// replaced.
func (p *Pool) Put(k Key, v Sized) {
	sh := p.shardOf(k)
	sh.mu.Lock()
	if old, ok := sh.m[k]; ok && old.ready == nil {
		p.removeLocked(sh, old)
	} else if ok {
		// A load is racing; let it win rather than replace mid-flight.
		sh.mu.Unlock()
		return
	}
	e := &entry{key: k, val: v, size: v.ByteSize()}
	sh.m[k] = e
	sh.bytes += e.size
	p.bytes.Add(e.size)
	p.entries.Add(1)
	sh.pushFrontLocked(e)
	p.evictLocked(sh)
	sh.mu.Unlock()
}

// Contains reports whether the key is resident (loaded, not doomed).
func (p *Pool) Contains(k Key) bool {
	sh := p.shardOf(k)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e, ok := sh.m[k]
	return ok && e.ready == nil
}

// Len returns the number of resident entries.
func (p *Pool) Len() int { return int(p.entries.Load()) }

// Invalidate removes the key from the pool. A pinned entry is doomed: no
// new reader can find it, and its memory is accounted released when the
// last pin drops. Entries mid-load are detached; the loader's caller still
// gets its data but nothing is cached.
func (p *Pool) Invalidate(k Key) {
	sh := p.shardOf(k)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e, ok := sh.m[k]
	if !ok {
		return
	}
	p.invalidations.Add(1)
	if e.ready != nil {
		// Loading placeholder: detach so the loader sees it was dropped.
		delete(sh.m, k)
		return
	}
	p.removeLocked(sh, e)
	e.doomed = true
}

// InvalidateStore removes every entry belonging to the store (a store
// being closed or rewritten wholesale).
func (p *Pool) InvalidateStore(store uint64) {
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.Lock()
		for k, e := range sh.m {
			if k.Store != store {
				continue
			}
			p.invalidations.Add(1)
			if e.ready != nil {
				delete(sh.m, k)
				continue
			}
			p.removeLocked(sh, e)
			e.doomed = true
		}
		sh.mu.Unlock()
	}
}

// Stats returns a snapshot of pool counters.
func (p *Pool) Stats() Stats {
	return Stats{
		Hits:          p.hits.Load(),
		Misses:        p.misses.Load(),
		Loads:         p.loads.Load(),
		Evictions:     p.evictions.Load(),
		Invalidations: p.invalidations.Load(),
		Entries:       p.entries.Load(),
		BytesResident: p.bytes.Load(),
		PinnedBytes:   p.pinned.Load(),
		Budget:        p.budget,
	}
}

// evictLocked evicts least-recently-used unpinned entries until the shard
// is within budget or only pinned entries remain.
func (p *Pool) evictLocked(sh *shard) {
	for sh.bytes > sh.budget {
		victim := sh.tail
		for victim != nil && victim.pins > 0 {
			victim = victim.next
		}
		if victim == nil {
			return // everything left is pinned
		}
		p.removeLocked(sh, victim)
		p.evictions.Add(1)
	}
}

// removeLocked unlinks a resident entry from the map, the LRU list, and
// the byte accounting (shard-local and pool-global). Callers must only
// pass entries currently in the map.
func (p *Pool) removeLocked(sh *shard, e *entry) {
	delete(sh.m, e.key)
	sh.unlinkLocked(e)
	sh.bytes -= e.size
	p.bytes.Add(-e.size)
	p.entries.Add(-1)
}

// touchLocked moves an entry to the MRU end.
func (sh *shard) touchLocked(e *entry) {
	if sh.head == e {
		return
	}
	sh.unlinkLocked(e)
	sh.pushFrontLocked(e)
}

// pushFrontLocked links an entry at the MRU end.
func (sh *shard) pushFrontLocked(e *entry) {
	e.next = nil
	e.prev = sh.head
	if sh.head != nil {
		sh.head.next = e
	}
	sh.head = e
	if sh.tail == nil {
		sh.tail = e
	}
}

// unlinkLocked detaches an entry from the LRU list.
func (sh *shard) unlinkLocked(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	}
	if sh.head == e {
		sh.head = e.prev
	}
	if sh.tail == e {
		sh.tail = e.next
	}
	e.prev, e.next = nil, nil
}
