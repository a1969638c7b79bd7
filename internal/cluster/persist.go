package cluster

import (
	"path/filepath"
	"sync"
	"time"

	"scidb/internal/array"
	"scidb/internal/bufcache"
	"scidb/internal/exec"
	"scidb/internal/insitu"
	"scidb/internal/obs"
	"scidb/internal/storage"
)

// WorkerOptions configures the storage.Store (stride-aligned compressed
// buckets + R-tree under a write buffer) that backs each of a node's
// partitions. The zero value keeps buckets in memory and reads them unpooled.
type WorkerOptions struct {
	// Persist is unread: every partition is a store. The field remains only
	// because the frozen bench/grid.go sets it (ROADMAP item 3 deletes it).
	Persist bool
	// Dir is the node's bucket-directory root; each partition gets a
	// subdirectory. Empty keeps buckets in memory (still encoded).
	Dir string
	// Stride is the bucket stride handed to each partition's store.
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
	// HeatHalfLife is the decay half-life of the node's per-chunk access
	// heat tracker (scidb-server -heat-half-life). Zero means the 30s
	// default; heat is always tracked — the tracker is cheap and the
	// rebalancer needs it.
	HeatHalfLife time.Duration
}

// NewWorkerWithOptions creates a worker with configured partition backing.
func NewWorkerWithOptions(id int, opts WorkerOptions) *Worker {
	w := &Worker{
		ID:     id,
		opts:   opts,
		stores: map[string]*storage.Store{},
		fills:  map[string]*insitu.FillOnce{},
		heat:   newHeatTracker(opts.HeatHalfLife),

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

// partitionSchema is the shape of a distributed array wherever part of it is
// held: dimensions unbounded (a partition, a staging buffer, a gather hold an
// arbitrary sub-box) with chunking defaults. Workers and the coordinator
// both derive it here, so a chunk one side builds lies on the other's grid
// and is adopted whole.
func partitionSchema(in *array.Schema) *array.Schema {
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
// there by an earlier run of the node is recovered from its manifest.
func (w *Worker) createLocked(name string, schema *array.Schema) (*storage.Store, error) {
	dir := ""
	if w.opts.Dir != "" {
		dir = filepath.Join(w.opts.Dir, name)
	}
	return w.openLocked(name, schema, dir)
}

// openLocked opens name's partition as a store whose buckets live under dir
// (in memory for ""), superseding whatever held the name.
func (w *Worker) openLocked(name string, schema *array.Schema, dir string) (*storage.Store, error) {
	if old, ok := w.stores[name]; ok {
		_ = old.Close() // superseded; the new store reads what it flushed
	}
	w.unfillLocked(name)
	// Dimensions unbound: a partition holds an arbitrary sub-box.
	st, err := storage.NewStore(partitionSchema(schema), storage.Options{
		Dir:       dir,
		Stride:    w.opts.Stride,
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
