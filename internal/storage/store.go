package storage

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"

	"scidb/internal/array"
	"scidb/internal/bufcache"
	"scidb/internal/compress"
)

// ErrOffGrid reports a bucket that is not one chunk of its store's grid, or
// a stride setting that differs from that grid.
var ErrOffGrid = errors.New("storage: off the chunk grid")

// Stats is a snapshot of storage activity for the STORE and ENC
// experiments. BucketsRead/BytesRead count actual disk reads: BucketsRead
// one per bucket opened, however many of its sections that load took, and
// BytesRead the header and section bytes actually read — sections served
// from the buffer pool, or not projected, cost nothing. The three byte
// counters for written buckets measure the encoding pipeline stage by
// stage: BytesRaw is the verbatim size (RawChunkSize), BytesEncoded the
// size after the lightweight per-column encodings, BytesWritten the
// on-disk size after the bucket codec.
type Stats struct {
	BucketsWritten int64
	BucketsMerged  int64
	BucketsRead    int64
	BytesWritten   int64
	BytesRead      int64
	Flushes        int64
	BytesRaw       int64
	BytesEncoded   int64
	// Prefetch counters for the scan readahead pipeline: Issued loads were
	// started ahead of the scan; Hits are issued buckets the scan went on
	// to consume; Wasted are issued buckets it never consumed (early stop).
	PrefetchIssued int64
	PrefetchHits   int64
	PrefetchWasted int64
	// Zone-pruned scan counters: ChunksVisited buckets were read by pruned
	// scans, ChunksSkipped buckets were proven irrelevant by their zone
	// maps and never read from disk.
	ChunksVisited int64
	ChunksSkipped int64
}

// EncodingRatio returns BytesRaw / BytesEncoded (the lightweight-encoding
// win alone), or 1 before any write.
func (s Stats) EncodingRatio() float64 {
	if s.BytesEncoded == 0 {
		return 1
	}
	return float64(s.BytesRaw) / float64(s.BytesEncoded)
}

// SkipRatio returns the fraction of pruned-scan candidate buckets the
// zone maps eliminated, or 0 before any pruned scan (empty stores and
// stores never scanned with predicates divide by zero otherwise).
func (s Stats) SkipRatio() float64 {
	total := s.ChunksVisited + s.ChunksSkipped
	if total == 0 {
		return 0
	}
	return float64(s.ChunksSkipped) / float64(total)
}

// CompressionRatio returns BytesRaw / BytesWritten (lightweight encodings
// plus the bucket codec), or 1 before any write.
func (s Stats) CompressionRatio() float64 {
	if s.BytesWritten == 0 {
		return 1
	}
	return float64(s.BytesRaw) / float64(s.BytesWritten)
}

// Add returns the field-wise sum of two snapshots (aggregating the stores
// of one node for the cachestats cluster op).
func (s Stats) Add(o Stats) Stats {
	of := o.Fields()
	for i, f := range s.Fields() {
		*f.V += *of[i].V
	}
	return s
}

// statCounters is the store's live counter set. Counters are atomics so a
// Stats snapshot (and monitoring code) never races with writers, whether
// or not the caller holds s.mu.
type statCounters struct {
	bucketsWritten atomic.Int64
	bucketsMerged  atomic.Int64
	bucketsRead    atomic.Int64
	bytesWritten   atomic.Int64
	bytesRead      atomic.Int64
	flushes        atomic.Int64
	bytesRaw       atomic.Int64
	bytesEncoded   atomic.Int64
	prefetchIssued atomic.Int64
	prefetchHits   atomic.Int64
	prefetchWasted atomic.Int64
	chunksVisited  atomic.Int64
	chunksSkipped  atomic.Int64
}

func (c *statCounters) snapshot() Stats {
	return Stats{
		BucketsWritten: c.bucketsWritten.Load(),
		BucketsMerged:  c.bucketsMerged.Load(),
		BucketsRead:    c.bucketsRead.Load(),
		BytesWritten:   c.bytesWritten.Load(),
		BytesRead:      c.bytesRead.Load(),
		Flushes:        c.flushes.Load(),
		BytesRaw:       c.bytesRaw.Load(),
		BytesEncoded:   c.bytesEncoded.Load(),
		PrefetchIssued: c.prefetchIssued.Load(),
		PrefetchHits:   c.prefetchHits.Load(),
		PrefetchWasted: c.prefetchWasted.Load(),
		ChunksVisited:  c.chunksVisited.Load(),
		ChunksSkipped:  c.chunksSkipped.Load(),
	}
}

// Options configures a Store.
type Options struct {
	// Dir is the on-disk bucket directory. Empty means in-memory buckets
	// (still encoded and compressed, held in a map instead of files).
	Dir string
	// Codec compresses each section of the buckets this store writes; nil
	// means compress.Auto. Buckets record the codec that wrote them, so a
	// store reads whatever its directory holds.
	Codec compress.Codec
	// MemLimit is the in-memory buffer budget in bytes before a flush
	// ("when main memory is nearly full"). Zero means 4 MiB. The buffer
	// holds at least one grid chunk whatever its size.
	MemLimit int64
	// Stride is unread but for CheckStride: buckets are the schema's grid
	// chunks, and a stride may only restate that grid.
	Stride []int64
	// Cache is an optional shared buffer pool for decoded bucket sections:
	// reads of a cached section skip both the disk read and the decode.
	// Several stores may share one pool; each registers its own id.
	Cache *bufcache.Pool
	// CacheBytes sizes a private pool when Cache is nil. Zero leaves the
	// store uncached (every read pays disk + decode, the pre-pool
	// behaviour).
	CacheBytes int64
	// Readahead is the scan prefetch depth: while a scan iterates bucket i,
	// up to Readahead upcoming buckets are read and decoded asynchronously
	// into the buffer pool, overlapping I/O + decode with the caller's
	// compute. Zero disables prefetch; it also requires a pool (Cache or
	// CacheBytes) to hold the prefetched chunks.
	Readahead int
	// OnBucketRead, when set, is called with a bucket's bounding box every
	// time that bucket is consulted by a read (cache hit or miss alike —
	// consultLocked is the single funnel). It is the access-heat sampling
	// hook for online rebalancing. Called with the store lock held: the
	// callback must be fast and must not call back into the store.
	OnBucketRead func(box array.Box)
}

type bucketMeta struct {
	id    int64
	box   array.Box // inside the grid cell at box.Lo
	key   string    // box.Lo.Key(): the bucket's slot in the index
	bytes int64
	cells int64
	path  string // file path, or "" when in-memory
	data  []byte // in-memory payload when path == ""
	// zones are the per-attribute zone maps computed when the bucket was
	// encoded (nil for buckets whose manifest entry lost them, and for
	// nested-array columns). They let pruned
	// scans reject the bucket without reading it back from disk.
	zones []*array.ZoneMap
}

// Store is the per-node storage manager for one array's partition. Its
// schema fixes one chunk grid (ChunkLen per dimension, see
// array.Dimension.GridLen) and every bucket is one chunk of it. Writes
// buffer in an in-memory array on that grid; when the buffer exceeds the
// memory limit each of its chunks is compressed and written out as a
// bucket. Buckets are indexed by chunk origin, so one origin holds the
// no-overwrite versions of its chunk, and MergeOnce compacts them.
type Store struct {
	schema *array.Schema
	opts   Options
	codec  compress.Codec

	// cache is the decoded-section buffer pool (nil = uncached); cacheID is
	// this store's key namespace within it.
	cache   *bufcache.Pool
	cacheID uint64

	mu  sync.Mutex
	mem *array.Array
	// memBytes tracks s.mem.ByteSize() incrementally (see bufferLocked), so
	// the per-Put flush check does not walk every buffered chunk.
	memBytes int64
	// index maps a chunk origin (Coord.Key) to the buckets holding versions
	// of that chunk, newest first.
	index  map[string][]*bucketMeta
	nextID int64
	stats  statCounters
}

// NewStore creates a storage manager for the schema.
func NewStore(schema *array.Schema, opts Options) (*Store, error) {
	if opts.Codec == nil {
		opts.Codec = compress.Auto{}
	}
	if opts.MemLimit <= 0 {
		opts.MemLimit = 4 << 20
	}
	if err := CheckStride(schema, opts.Stride); err != nil {
		return nil, err
	}
	if opts.Dir != "" {
		if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
			return nil, fmt.Errorf("storage: %w", err)
		}
	}
	if opts.Cache == nil && opts.CacheBytes > 0 {
		opts.Cache = bufcache.New(opts.CacheBytes)
	}
	s := &Store{
		schema: schema,
		opts:   opts,
		codec:  opts.Codec,
		cache:  opts.Cache,
		index:  map[string][]*bucketMeta{},
	}
	if s.cache != nil {
		s.cacheID = s.cache.RegisterStore()
	}
	if err := s.resetMem(); err != nil {
		return nil, err
	}
	// Recover the bucket index from a prior run, if this directory has one.
	if err := s.loadManifestLocked(); err != nil {
		return nil, err
	}
	return s, nil
}

// CheckStride is the check behind the Stride option fields kept for old
// callers: the one grid is the schema's, so a stride may only restate it. A
// non-zero entry that differs from its dimension's GridLen fails with
// ErrOffGrid; entries past the schema's dimensions are ignored.
func CheckStride(schema *array.Schema, stride []int64) error {
	for i, d := range schema.Dims {
		if i < len(stride) && stride[i] != 0 && stride[i] != d.GridLen() {
			return fmt.Errorf("storage: stride %v differs from the chunk grid of %s: %w", stride, schema.Name, ErrOffGrid)
		}
	}
	return nil
}

// onGrid reports whether box is one chunk of the store's grid: its Lo a grid
// origin, and its extent inside that origin's cell (a cell is clipped at a
// bounded dimension's High).
func (s *Store) onGrid(box array.Box) bool {
	if len(box.Lo) != len(s.schema.Dims) || len(box.Hi) != len(box.Lo) {
		return false
	}
	for i, d := range s.schema.Dims {
		cl, lo, hi := d.GridLen(), box.Lo[i], box.Hi[i]
		if lo < 1 || (lo-1)%cl != 0 || hi < lo || hi-lo >= cl || (d.Bounded() && hi > d.High) {
			return false
		}
	}
	return true
}

// resetMem builds a fresh in-memory buffer array on the store's grid, so a
// flush can emit its chunks directly as buckets.
func (s *Store) resetMem() error {
	ms := s.schema.Clone()
	ms.Name = s.schema.Name + "_membuf"
	mem, err := array.New(ms)
	if err != nil {
		return err
	}
	s.mem, s.memBytes = mem, 0
	return nil
}

// Schema returns the stored array's schema.
func (s *Store) Schema() *array.Schema { return s.schema }

// Stats returns a snapshot of activity counters. It is safe to call from
// any goroutine, concurrently with reads and writes.
func (s *Store) Stats() Stats { return s.stats.snapshot() }

// Cache returns the store's buffer pool, or nil when uncached.
func (s *Store) Cache() *bufcache.Pool { return s.cache }

// CacheStats returns the buffer pool's counters (zero when uncached).
// When several stores share one pool the counters are pool-wide.
func (s *Store) CacheStats() bufcache.Stats {
	if s.cache == nil {
		return bufcache.Stats{}
	}
	return s.cache.Stats()
}

// NumBuckets returns the current on-disk bucket count.
func (s *Store) NumBuckets() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, vs := range s.index {
		n += len(vs)
	}
	return n
}

// Put writes one cell. When the write fills the memory buffer the store
// flushes synchronously (the paper's loader does this per site substream).
func (s *Store) Put(c array.Coord, cell array.Cell) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	full, err := s.bufferLocked(c, cell)
	if err != nil {
		return err
	}
	if full {
		return s.flushLocked()
	}
	return nil
}

// bufferLocked writes one cell into the memory buffer and keeps memBytes
// equal to s.mem.ByteSize() without walking the buffer: a chunk's size is
// fixed when it is allocated except for its string payloads, so a write
// adds either a whole new chunk or the change in the slot's string bytes.
//
// full reports that this write took the buffer to MemLimit. Only growth is
// tested, and the buffer's first chunk is always admitted: a chunk is sized
// by the grid, not its cells, so one that alone exceeds the limit would
// otherwise be flushed after every cell written into it.
func (s *Store) bufferLocked(c array.Coord, cell array.Cell) (full bool, err error) {
	var ch *array.Chunk
	var before int64
	if s.mem.CoordInside(c) {
		if ch, _ = s.mem.ChunkAt(c); ch != nil {
			before = slotStringBytes(ch, ch.Index(c))
		}
	}
	if err := s.mem.Set(c, cell); err != nil {
		return false, err
	}
	var grew bool
	if ch == nil {
		ch, _ = s.mem.ChunkAt(c)
		grew = s.memBytes > 0
		s.memBytes += ch.ByteSize()
	} else {
		d := slotStringBytes(ch, ch.Index(c)) - before
		grew = d > 0
		s.memBytes += d
	}
	return grew && s.memBytes >= s.opts.MemLimit, nil
}

// slotStringBytes is the part of Chunk.ByteSize that one slot's values
// decide: the bytes of its strings.
func slotStringBytes(ch *array.Chunk, idx int64) int64 {
	var n int64
	for _, col := range ch.Cols {
		if col.Strs != nil {
			n += int64(len(col.Strs[idx]))
		}
	}
	return n
}

// Flush forces the memory buffer to disk buckets.
func (s *Store) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.flushLocked()
}

func (s *Store) flushLocked() error {
	chunks := s.mem.Chunks()
	for _, ch := range chunks {
		if ch.CellsPresent() == 0 {
			continue
		}
		if err := s.writeBucketLocked(ch); err != nil {
			return err
		}
	}
	s.stats.flushes.Add(1)
	if err := s.saveManifestLocked(); err != nil {
		return err
	}
	return s.resetMem()
}

func (s *Store) writeBucketLocked(ch *array.Chunk) error {
	raw, zones, err := EncodeChunkZones(s.schema, ch)
	if err != nil {
		return err
	}
	_, err = s.installLocked(raw, ch, zones)
	return err
}

// installLocked seals EncodeChunk bytes into a bucket — each section through
// the store codec — writes it out, and indexes it under a fresh id as the
// newest version of its chunk, which must lie on the grid.
func (s *Store) installLocked(raw []byte, ch *array.Chunk, zones []*array.ZoneMap) (int64, error) {
	enc, err := sealChunk(s.schema, raw, s.codec)
	if err != nil {
		return 0, err
	}
	s.stats.bytesRaw.Add(RawChunkSize(s.schema, ch))
	s.stats.bytesEncoded.Add(int64(len(raw)))
	id := s.nextID
	s.nextID++
	meta := &bucketMeta{id: id, box: ch.Box(), key: ch.Origin.Key(), bytes: int64(len(enc)), cells: ch.CellsPresent(), zones: zones}
	if s.opts.Dir != "" {
		meta.path = filepath.Join(s.opts.Dir, fmt.Sprintf("bucket-%06d.sdb", id))
		if err := os.WriteFile(meta.path, enc, 0o644); err != nil {
			return 0, fmt.Errorf("storage: %w", err)
		}
	} else {
		meta.data = enc
	}
	s.index[meta.key] = append([]*bucketMeta{meta}, s.index[meta.key]...)
	s.stats.bucketsWritten.Add(1)
	s.stats.bytesWritten.Add(int64(len(enc)))
	// Defensive: a recycled id (possible only across manifest edits) must
	// not serve another bucket's bytes.
	s.uncache(id)
	return id, nil
}

// cacheKey is the pool key for one section of one of this store's buckets.
func (s *Store) cacheKey(id int64, col int) bufcache.Key {
	return bufcache.Key{Store: s.cacheID, Bucket: id, Col: col}
}

// uncache drops every section of a bucket from the pool.
func (s *Store) uncache(id int64) {
	if s.cache == nil {
		return
	}
	for col := bufcache.Frame; col < len(s.schema.Attrs); col++ {
		s.cache.Invalidate(s.cacheKey(id, col))
	}
}

// openBucket is the one place bucket bytes come off disk (or out of an
// in-memory store's payload). It opens the bucket, reads and checks its
// header, and returns a reader that fetches each section it is asked for
// with one read, counting the bytes; done releases the file. It needs no
// lock: bucket metadata is immutable once inserted, the codec is fixed at
// construction, and the stat counters are atomics — which is what lets the
// scan prefetcher run it beside a scan that holds s.mu.
func (s *Store) openBucket(meta *bucketMeta) (cr *chunkReader, done func(), err error) {
	total := int64(len(meta.data))
	fetch := func(off int64, n int) ([]byte, error) {
		s.stats.bytesRead.Add(int64(n))
		return meta.data[off : off+int64(n)], nil
	}
	done = func() {}
	if meta.path != "" {
		f, err := os.Open(meta.path)
		if err != nil {
			return nil, nil, fmt.Errorf("storage: %w", err)
		}
		done = func() { f.Close() }
		// The file's real length, not the manifest's: a torn or grown
		// file then fails the header's tiling check.
		fi, err := f.Stat()
		if err != nil {
			done()
			return nil, nil, fmt.Errorf("storage: %w", err)
		}
		total = fi.Size()
		fetch = func(off int64, n int) ([]byte, error) {
			p := make([]byte, n)
			if _, err := f.ReadAt(p, off); err != nil {
				return nil, fmt.Errorf("storage: %w", err)
			}
			s.stats.bytesRead.Add(int64(n))
			return p, nil
		}
	}
	s.stats.bucketsRead.Add(1)
	if cr, err = newChunkReader(s.schema, s.codec, total, fetch); err != nil {
		done()
		return nil, nil, err
	}
	return cr, done, nil
}

// pinBucket returns a bucket as one read-only chunk holding its frame and
// the columns attrs names (nil: all of them), the others nil. Each section
// comes from the buffer pool, or is loaded into it — the bucket is opened
// once, by the first section that misses — and stays pinned until release,
// so eviction pressure can never yank it mid-read. A corrupt section fails
// the read and leaves nothing cached.
func (s *Store) pinBucket(meta *bucketMeta, attrs []int) (ch *array.Chunk, release func(), err error) {
	var cr *chunkReader
	done := func() {}
	defer func() { done() }()
	var pins []*bufcache.Handle
	unpin := func() {
		for _, h := range pins {
			h.Release()
		}
	}
	defer func() {
		if err != nil {
			// Sections that did load are sound, but a bucket that is
			// corrupt anywhere is served from nowhere.
			unpin()
			s.uncache(meta.id)
		}
	}()
	// A column's section decodes under the frame's presence bitmap, which is
	// pinned before any column is asked for.
	section := func(col int, present *array.Bitmap) (bufcache.Sized, error) {
		load := func() (v bufcache.Sized, err error) {
			if cr == nil {
				var d func()
				if cr, d, err = s.openBucket(meta); err == nil {
					done = d
				}
			}
			if err == nil && col == bufcache.Frame {
				v, err = cr.frame()
			} else if err == nil {
				v, err = cr.column(col, present)
			}
			if err != nil {
				return nil, fmt.Errorf("bucket %d: %w", meta.id, err)
			}
			return v, nil
		}
		if s.cache == nil {
			return load()
		}
		h, err := s.cache.GetOrLoad(s.cacheKey(meta.id, col), load)
		if err != nil {
			return nil, err
		}
		pins = append(pins, h)
		return h.Value(), nil
	}
	f, err := section(bufcache.Frame, nil)
	if err != nil {
		return nil, nil, err
	}
	frame := f.(*array.Chunk)
	ch = &array.Chunk{Origin: frame.Origin, Shape: frame.Shape, Present: frame.Present}
	ch.Cols = make([]*array.Column, len(s.schema.Attrs))
	for a := range ch.Cols {
		if attrs != nil && !slices.Contains(attrs, a) {
			continue
		}
		col, err := section(a, frame.Present)
		if err != nil {
			return nil, nil, err
		}
		ch.Cols[a] = col.(*array.Column)
	}
	return ch, unpin, nil
}

// consultLocked reports a read's consultation of a bucket to the heat hook.
func (s *Store) consultLocked(meta *bucketMeta) {
	if s.opts.OnBucketRead != nil {
		s.opts.OnBucketRead(meta.box)
	}
}

// Get returns one cell: a chunk scan over the point's box, where the memory
// buffer comes first and newer buckets shadow older ones.
func (s *Store) Get(c array.Coord) (cell array.Cell, ok bool, err error) {
	err = s.ScanChunks(array.Box{Lo: c, Hi: c}, nil, nil).Each(func(lc LiveChunk) error {
		if !lc.Live.Get(lc.Chunk.Index(c)) {
			return nil
		}
		cell, ok = lc.Chunk.Get(c)
		return errStopScan
	})
	if err == errStopScan {
		err = nil
	}
	return cell, ok, err
}

// MergeOnce compacts the chunk with the most bucket versions (the oldest
// such chunk on a tie) into one bucket, the newest version of each cell
// winning. It reports whether any chunk had more than one version.
func (s *Store) MergeOnce() (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var versions []*bucketMeta
	for _, vs := range s.index {
		if len(vs) > len(versions) || (len(vs) == len(versions) && vs[len(vs)-1].id < versions[len(vs)-1].id) {
			versions = vs
		}
	}
	if len(versions) < 2 {
		return false, nil
	}
	merged, err := array.New(s.schema.Clone())
	if err != nil {
		return false, err
	}
	// Oldest first, so each version overwrites the older cells it holds.
	for i := len(versions) - 1; i >= 0; i-- {
		s.consultLocked(versions[i])
		ch, release, err := s.pinBucket(versions[i], nil)
		if err != nil {
			return false, err
		}
		err = merged.MergeMasked(ch, ch.Present)
		release()
		if err != nil {
			return false, err
		}
	}
	if err := s.writeBucketLocked(merged.Chunks()[0]); err != nil {
		return false, err
	}
	// The compacted bucket replaces every version. Their pool entries go
	// too, so a recycled id never serves their stale cells.
	key := versions[0].key
	s.index[key] = s.index[key][:1]
	for _, m := range versions {
		s.uncache(m.id)
		if m.path != "" {
			_ = os.Remove(m.path)
		}
	}
	s.stats.bucketsMerged.Add(int64(len(versions) - 1))
	if err := s.saveManifestLocked(); err != nil {
		return false, err
	}
	return true, nil
}

// Close flushes and releases this store's buffer pool entries (freeing
// budget for other stores sharing the pool).
func (s *Store) Close() error {
	err := s.Flush()
	if s.cache != nil {
		s.cache.InvalidateStore(s.cacheID)
	}
	return err
}
