package cluster

import (
	"path/filepath"
	"sync"

	"scidb/internal/array"
	"scidb/internal/bufcache"
	"scidb/internal/exec"
	"scidb/internal/insitu"
	"scidb/internal/obs"
	"scidb/internal/storage"
)

// WorkerOptions configures the storage.Store (compressed buckets, one per
// chunk of the partition's grid, indexed by chunk origin under a write
// buffer) that backs each of a node's partitions. The zero value keeps
// buckets in memory and reads them unpooled.
type WorkerOptions struct {
	// Persist is unread: every partition is a store. The field remains only
	// because the frozen bench/grid.go sets it (ROADMAP item 1 deletes it).
	Persist bool
	// Dir is the node's bucket-directory root; each partition gets a
	// subdirectory. Empty keeps buckets in memory (still encoded).
	Dir string
	// Stride is unread but for storage.CheckStride at create: a partition's
	// buckets are chunks of its PartitionSchema grid, and a stride may only
	// restate that grid. The frozen bench/grid.go sets it (ROADMAP item 1).
	Stride []int64
	// Cache is a decoded-bucket pool shared with other nodes (one pool per
	// process is the intended deployment). Nil with CacheBytes > 0 builds a
	// private pool; both nil/zero leaves reads uncached.
	Cache      *bufcache.Pool
	CacheBytes int64
	// Readahead is the scan prefetch depth handed to each partition's
	// store: how many upcoming buckets a scan loads into the pool ahead of
	// its read position. Zero disables readahead.
	Readahead int
}

// NewWorkerWithOptions creates a worker with configured partition backing.
func NewWorkerWithOptions(id int, opts WorkerOptions) *Worker {
	w := &Worker{
		ID:     id,
		opts:   opts,
		stores: map[string]*storage.Store{},
		fills:  map[string]*insitu.FillOnce{},
		heat:   newHeatTracker(defaultHeatHalfLife),

		routeVersion: map[string]int64{},
	}
	if opts.Cache != nil {
		w.cache = opts.Cache
	} else if opts.CacheBytes > 0 {
		w.cache = bufcache.New(opts.CacheBytes)
	}
	// Every node carries its own registry so the "metrics" op (and a
	// scidb-server's /metrics endpoint) exposes one coherent per-node view:
	// request counters, the cache pool, summed store counters, and the
	// process-wide exec pool.
	w.reg = obs.NewRegistry()
	w.reqHist = w.reg.Histogram("scidb_worker_request_seconds", "Worker request latency in seconds.", nil)
	w.reg.RegisterFunc("scidb_worker", "Per-node request and data-movement counters.", obs.KindGauge,
		func(emit func(obs.Sample)) {
			s := w.Stats()
			obs.EmitFields(emit, "", s.fields())
		})
	w.reg.RegisterFunc("scidb_heat", "Per-node chunk access-heat tracker gauges.", obs.KindGauge,
		func(emit func(obs.Sample)) {
			chunks, total, touches := w.heat.stats()
			emit(obs.Sample{Name: "scidb_heat_tracked_chunks", Value: float64(chunks)})
			emit(obs.Sample{Name: "scidb_heat_score_total", Value: total})
			emit(obs.Sample{Name: "scidb_heat_touches_total", Value: float64(touches)})
		})
	if w.cache != nil {
		w.cache.RegisterMetrics(w.reg, "")
	}
	storage.RegisterMetrics(w.reg, "", w.StoreStats)
	w.reg.RegisterFunc("scidb_exec", "Process-wide worker pool scheduling counters.", obs.KindGauge,
		func(emit func(obs.Sample)) {
			s := exec.Default().Stats()
			obs.EmitFields(emit, "", s.Fields())
		})
	return w
}

// CacheStats snapshots the worker's pool counters (zero value if uncached).
func (w *Worker) CacheStats() bufcache.Stats {
	if w.cache == nil {
		return bufcache.Stats{}
	}
	return w.cache.Stats()
}

// StoreStats sums the storage counters of the node's stores.
func (w *Worker) StoreStats() storage.Stats {
	w.mu.RLock()
	defer w.mu.RUnlock()
	var sum storage.Stats
	for _, st := range w.stores {
		sum = sum.Add(st.Stats())
	}
	return sum
}

// Close shuts down every partition: stores flush their buffered cells and
// release their pool entries, and in-situ files no read has filled from are
// closed.
func (w *Worker) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	var first error
	for name, st := range w.stores {
		if err := st.Close(); err != nil && first == nil {
			first = err
		}
		delete(w.stores, name)
		w.unfillLocked(name)
	}
	return first
}

// flushOp spills a partition's buffered cells into buckets — on disk, with a
// Dir, where they survive a restart.
func (w *Worker) flushOp(req *Message) (*Message, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	st, ok := w.stores[req.Array]
	if !ok {
		return nil, w.noArray(req.Array)
	}
	if err := st.Flush(); err != nil {
		return nil, err
	}
	return &Message{Op: "flush"}, nil
}

// PartitionSchema is the shape of a distributed array wherever part of it is
// held: dimensions unbounded (a partition, a staging buffer, a gather hold an
// arbitrary sub-box) with chunking defaults. It fixes the array's one grid:
// workers store each chunk of it as a bucket, the coordinator gathers on it,
// the loader ships it (loader.ClusterDest) and routing moves it, so a chunk
// one side builds is adopted whole by the other.
func PartitionSchema(in *array.Schema) *array.Schema {
	s := in.Clone()
	for i := range s.Dims {
		if s.Dims[i].ChunkLen <= 0 {
			s.Dims[i].ChunkLen = array.DefaultChunkLen
		}
		s.Dims[i].High = array.Unbounded
	}
	return s
}

// createLocked opens the named partition's store. Under a Dir a store left
// there by an earlier run of the node is recovered from its manifest, and
// its cells join the node's cells_held gauge in place of those of the store
// it supersedes.
func (w *Worker) createLocked(name string, schema *array.Schema) (*storage.Store, error) {
	dir := ""
	if w.opts.Dir != "" {
		dir = filepath.Join(w.opts.Dir, name)
	}
	w.unfillLocked(name) // so the count reads the store, not the file
	superseded := w.heldLocked(name)
	st, err := w.openLocked(name, schema, dir)
	if err != nil {
		return nil, err
	}
	w.stats.cellsHeld.Add(w.heldLocked(name) - superseded)
	return st, nil
}

// openLocked opens name's partition as a store whose buckets live under dir
// (in memory for ""), superseding whatever held the name.
func (w *Worker) openLocked(name string, schema *array.Schema, dir string) (*storage.Store, error) {
	if old, ok := w.stores[name]; ok {
		_ = old.Close() // superseded; the new store reads what it flushed
	}
	// Dimensions unbound: a partition holds an arbitrary sub-box.
	grid := PartitionSchema(schema)
	if err := storage.CheckStride(grid, w.opts.Stride); err != nil {
		return nil, err
	}
	st, err := storage.NewStore(grid, storage.Options{
		Dir:       dir,
		Cache:     w.cache,
		Readahead: w.opts.Readahead,
		// Heat sampling: every bucket consulted by a read (cache hit or
		// miss) scores one touch for its chunk. Called under the store
		// lock; Touch only takes the tracker's own mutex.
		OnBucketRead: func(box array.Box) {
			w.heat.Touch(name, box.Lo, 1)
		},
	})
	if err != nil {
		return nil, err
	}
	w.stores[name] = st
	return st, nil
}

// partLocked resolves a partition to its store for a read, filling an
// in-situ partition from its file first if no read has yet.
func (w *Worker) partLocked(name string) (*storage.Store, error) {
	st, ok := w.stores[name]
	if !ok {
		return nil, w.noArray(name)
	}
	if err := w.fillLocked(name, st); err != nil {
		return nil, err
	}
	return st, nil
}

// liveMerger returns an empty array on s's grid and the step that adds a
// chunk's live slots to it — column-wise, or the chunk itself by reference
// when the caller knows it whole (nothing else will contribute to its
// region). Steps may run concurrently: foldChunks tasks call them.
func liveMerger(s *array.Schema) (*array.Array, func(ch *array.Chunk, live *array.Bitmap, whole bool) error, error) {
	out, err := array.New(s.Clone())
	var mu sync.Mutex
	return out, func(ch *array.Chunk, live *array.Bitmap, whole bool) error {
		mu.Lock()
		defer mu.Unlock()
		if whole {
			return out.MergeChunk(ch)
		}
		return out.MergeMasked(ch, live)
	}, err
}
