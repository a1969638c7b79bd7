package storage

import (
	"sync/atomic"

	"scidb/internal/array"
)

// prefetcher loads upcoming scan buckets asynchronously, so disk read +
// decode of buckets i+1..i+depth overlap the caller's compute over bucket
// i. One prefetcher serves one scan: the scan holds s.mu for its whole
// duration, which freezes the bucket index, so the prefetch goroutines can
// read bucket metadata and load from disk without taking the lock
// themselves. A finished load keeps its pool pins until the scan takes the
// bucket over, so however small the pool a prefetched bucket is never
// evicted and read again; the price is up to depth buckets (at the scan's
// projection) pinned beyond the pool's budget.
type prefetcher struct {
	s     *Store
	metas []*bucketMeta // the scan's consumption order
	attrs []int         // the scan's projection
	depth int

	next    int // next index not yet issued
	stopped atomic.Bool
	// pending holds the issued loads the scan has not taken yet — at most
	// depth of them, as loads are issued only up to depth past the scan.
	// Touched only by the scan goroutine.
	pending map[int]*prefetched
}

// prefetched is one issued load. The fields behind done are written by the
// load's goroutine before it closes done.
type prefetched struct {
	done    chan struct{}
	ch      *array.Chunk
	release func()
	err     error
}

// newPrefetcher builds a prefetcher over the scan's bucket order. Returns
// nil when prefetch is off (no depth or no pool).
func (s *Store) newPrefetcher(metas []*bucketMeta, attrs []int) *prefetcher {
	depth := s.opts.Readahead
	if depth <= 0 || s.cache == nil || len(metas) < 2 {
		return nil
	}
	return &prefetcher{s: s, metas: metas, attrs: attrs, depth: depth, pending: map[int]*prefetched{}}
}

// advance tells the prefetcher the scan is about to consume index i: it
// issues async loads for the indexes up to i+depth not issued yet. Call
// before reading metas[i].
func (pf *prefetcher) advance(i int) {
	if pf == nil {
		return
	}
	if pf.next <= i {
		pf.next = i + 1
	}
	for ; pf.next <= i+pf.depth && pf.next < len(pf.metas); pf.next++ {
		m, p := pf.metas[pf.next], &prefetched{done: make(chan struct{})}
		pf.pending[pf.next] = p
		pf.s.stats.prefetchIssued.Add(1)
		go func() {
			defer close(p.done)
			if !pf.stopped.Load() {
				p.ch, p.release, p.err = pf.s.pinBucket(m, pf.attrs)
			}
		}()
	}
}

// take hands the scan the load issued for index i, waiting for it to
// finish: a hit — the load ran, or is running, off the scan's critical
// path. It returns nil when none was issued. The pins are now the scan's.
func (pf *prefetcher) take(i int) *prefetched {
	if pf == nil {
		return nil
	}
	p := pf.pending[i]
	if p != nil {
		delete(pf.pending, i)
		pf.s.stats.prefetchHits.Add(1)
		<-p.done
	}
	return p
}

// stop waits for the loads the scan never took — an early-stopped scan —
// drops their pins, and charges them as wasted.
func (pf *prefetcher) stop() {
	if pf == nil {
		return
	}
	pf.stopped.Store(true)
	for _, p := range pf.pending {
		<-p.done
		if p.release != nil {
			p.release()
		}
	}
	pf.s.stats.prefetchWasted.Add(int64(len(pf.pending)))
}
