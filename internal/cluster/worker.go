// Package cluster implements §2.7's grid orientation: a shared-nothing
// cluster of worker nodes coordinated over a message transport. Workers
// hold array partitions; the coordinator routes cells by a partitioning
// scheme, pushes fragments (box, predicates, aggregates as combinable
// partials, the join of two co-placed arrays) down to where the cells are,
// and repartitions arrays when the scheme changes over time (counting bytes
// moved, the PART and COPART experiments' metric).
//
// Two transports are provided: in-process (direct calls) and TCP with a
// multiplexed binary wire protocol — length-prefixed frames tagged with a
// request id, so many calls pipeline concurrently over each connection
// (see DESIGN.md's "Wire protocol" section). The protocol logic is identical over every transport (see DESIGN.md's
// substitution table).
package cluster

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"scidb/internal/array"
	"scidb/internal/bufcache"
	"scidb/internal/exec"
	"scidb/internal/insitu"
	"scidb/internal/obs"
	"scidb/internal/ops"
	"scidb/internal/storage"
)

// Message is the single request/response envelope exchanged with workers.
type Message struct {
	Op     string // "create", "put", "read", "drop", "ping", "metrics", ...
	Array  string
	Schema *array.Schema
	// BoxLo/BoxHi, Preds and Fold are a "read" request's ops.Fragment: the
	// node answers with its cells inside the box (all of them with no box)
	// that satisfy Preds — as Chunks, or with a Fold as Table, the node's
	// partial state (ops.Fold's accumulate and merge steps ran here, its
	// final merge and terminate steps run at the coordinator). Cells, on the
	// response, counts the cells answered: all a fold without aggregates asks.
	BoxLo []int64
	BoxHi []int64
	Fold  *ops.FoldSpec
	Table *ops.FoldTable
	Cells int64
	Err   string
	// TraceID, when nonzero on a request, asks the worker to trace its
	// execution; the response echoes it and carries the worker-side span
	// tree in Spans for the coordinator to graft into the query profile.
	TraceID uint64
	Spans   []obs.SpanData
	// Metrics is the "metrics" response: the node's registry snapshot.
	Metrics []obs.Sample
	// Preds, on a "read" request, ships zone-map conjuncts: the worker
	// skips whole buckets whose zone maps refute them and drops the cells
	// that fail them from what it reads. The response's Skipped reports how
	// many buckets were pruned without being read, and Seen the live cells of
	// the buckets that were, before Preds: Seen above Cells, or any Skipped,
	// means the predicates withheld stored cells. All ride one presence bit.
	Preds   []array.ZonePred
	Skipped int64
	Seen    int64
	// Chunks carries cells, one storage.EncodeChunk payload per chunk: a
	// "put" request's, a "read" response's (a move's copy of a chunk is a
	// read of its box), and a "loadchunks" batch, whose payloads the worker
	// adopts as buckets verbatim instead of re-ingesting cell by cell. Rides
	// the second presence byte.
	Chunks [][]byte
	// Path and Adaptor, on an "insitu" request, register an external file
	// region as this node's partition of a file-backed array (distributed
	// in-situ scanning); BoxLo/BoxHi carry the node's slab. Second presence
	// byte as well.
	Path    string
	Adaptor string
	// ExclLo/ExclHi, on a "read" request, list grid-chunk boxes this node
	// must NOT answer — another replica is assigned them this query, or the
	// node holds a stale post-migration copy (online rebalancing; second
	// presence byte, one bit).
	ExclLo [][]int64
	ExclHi [][]int64
	// Held is the "chunks" response: the chunks of Array the node's store
	// holds or has heat for (second presence byte, own bit).
	Held []HeatSample
	// Join, on a "read" request, names a right-hand array: the node answers
	// with Array's join with it on every dimension in order, its chunk pairs
	// joined where they lie (joinLocked). Second presence byte, own bit.
	Join string
}

// Worker is one shared-nothing node: a set of local array partitions, each a
// storage.Store (the node's own storage manager: a write buffer served ahead
// of compressed buckets, one per chunk of the array's grid, on disk under
// WorkerOptions.Dir or in memory without one). An in-situ partition's store
// is filled from an external file by its first read.
type Worker struct {
	ID   int
	opts WorkerOptions

	// cache is the node's decoded-bucket pool, shared by all its partitions
	// (and, typically, by every node in-process).
	cache *bufcache.Pool

	// mu guards the partition maps and their content: ops that change a
	// partition take it exclusively, the read op shares it, so
	// statements pipelined onto one node run side by side.
	mu     sync.RWMutex
	stores map[string]*storage.Store
	// fills holds the fill gate of each in-situ partition's store.
	fills map[string]*insitu.FillOnce
	stats workerCounters

	// heat tracks decayed per-chunk access scores for the rebalancer; the
	// storage layer's OnBucketRead hook feeds it, the "chunks" wire op
	// reports it.
	heat *heatTracker

	// reg is the node's metrics registry: worker/cache/store collectors
	// plus the request-latency histogram. The "metrics" op snapshots it so
	// a coordinator can aggregate registries cluster-wide.
	reg     *obs.Registry
	reqHist *obs.Histogram

	// Slow-request log (scidb-server -slow-query): when the threshold is
	// set, every request is traced and offenders get their profile tree
	// written to slowW.
	slowMu     sync.Mutex
	slowThresh time.Duration
	slowW      io.Writer
}

// WorkerStats counts per-node activity for the load-balance experiments.
type WorkerStats struct {
	CellsHeld    int64
	CellsScanned int64
	BytesIn      int64
	BytesOut     int64
	Requests     int64
}

// fields lists the counters under their scidb_worker_* metric names: what
// the node's registry exports and NodeStats reads back.
func (s *WorkerStats) fields() []obs.Field {
	return []obs.Field{
		{Name: "scidb_worker_cells_held", V: &s.CellsHeld},
		{Name: "scidb_worker_cells_scanned_total", V: &s.CellsScanned},
		{Name: "scidb_worker_bytes_in_total", V: &s.BytesIn},
		{Name: "scidb_worker_bytes_out_total", V: &s.BytesOut},
		{Name: "scidb_worker_requests_total", V: &s.Requests},
	}
}

// workerCounters is the live form of WorkerStats: atomics, so concurrent
// read ops count without the partition lock.
type workerCounters struct {
	cellsHeld, cellsScanned, bytesIn, bytesOut, requests atomic.Int64
}

// NewWorker creates an empty worker with the zero WorkerOptions: buckets in
// memory, no pool.
func NewWorker(id int) *Worker {
	return NewWorkerWithOptions(id, WorkerOptions{})
}

// Stats snapshots the worker's counters.
func (w *Worker) Stats() WorkerStats {
	return WorkerStats{
		CellsHeld:    w.stats.cellsHeld.Load(),
		CellsScanned: w.stats.cellsScanned.Load(),
		BytesIn:      w.stats.bytesIn.Load(),
		BytesOut:     w.stats.bytesOut.Load(),
		Requests:     w.stats.requests.Load(),
	}
}

// SetSlowQuery enables the worker's slow-request log: every request is
// traced and any whose wall time reaches threshold gets its profile tree
// written to out. A zero threshold disables both.
func (w *Worker) SetSlowQuery(threshold time.Duration, out io.Writer) {
	w.slowMu.Lock()
	defer w.slowMu.Unlock()
	w.slowThresh, w.slowW = threshold, out
}

func (w *Worker) slowThreshold() time.Duration {
	w.slowMu.Lock()
	defer w.slowMu.Unlock()
	return w.slowThresh
}

func (w *Worker) logSlow(op string, d time.Duration, root *obs.Span) {
	w.slowMu.Lock()
	defer w.slowMu.Unlock()
	if w.slowW == nil {
		return
	}
	fmt.Fprintf(w.slowW, "slow request: node %d op %q took %s\n", w.ID, op, d)
	root.Render(w.slowW)
}

// Registry returns the node's metrics registry.
func (w *Worker) Registry() *obs.Registry { return w.reg }

// Handle processes one request message and returns the response. This is
// the single entry point used by both transports.
//
// A request carrying a nonzero TraceID (or any request while the
// slow-query log is armed) runs under a worker-side trace: the root span
// is tagged with this node's id and collects the request's stat deltas
// (cells scanned, bytes moved, cache hits). Traced responses echo the id
// and return the flattened span tree for the coordinator to graft.
func (w *Worker) Handle(req *Message) *Message {
	w.stats.requests.Add(1)
	start := time.Now()
	var root *obs.Span
	slow := w.slowThreshold()
	if req.TraceID != 0 || slow > 0 {
		tr := obs.NewTrace(spanName(req))
		root = tr.Root()
		root.SetNode(w.ID)
	}
	var before WorkerStats
	var cacheBefore bufcache.Stats
	if root != nil {
		before, cacheBefore = w.Stats(), w.CacheStats()
	}
	resp, err := w.handle(req)
	if err != nil {
		resp = &Message{Op: req.Op, Err: err.Error()}
	} else if resp == nil {
		resp = &Message{Op: req.Op}
	}
	if root != nil {
		after, cacheAfter := w.Stats(), w.CacheStats()
		root.Add("cells_scanned", after.CellsScanned-before.CellsScanned)
		root.Add("bytes_in", after.BytesIn-before.BytesIn)
		root.Add("bytes_out", after.BytesOut-before.BytesOut)
		root.Add("cache_hits", cacheAfter.Hits-cacheBefore.Hits)
		root.Add("cache_misses", cacheAfter.Misses-cacheBefore.Misses)
		root.End()
		if req.TraceID != 0 {
			resp.TraceID = req.TraceID
			resp.Spans = root.Flatten()
		}
		if d := time.Since(start); slow > 0 && d >= slow {
			w.logSlow(spanName(req), d, root)
		}
	}
	if w.reqHist != nil {
		w.reqHist.Observe(time.Since(start).Seconds())
	}
	return resp
}

// spanName names a request's root span, in profiles and the slow-request
// log: the op, and for a read what its fragment asks for.
func spanName(req *Message) string {
	switch {
	case req.Op != "read":
		return req.Op
	case req.Join != "":
		return "read join"
	case req.Fold == nil:
		return "read cells"
	case len(req.Fold.Aggs) == 0:
		return "read count"
	}
	return "read fold"
}

func (w *Worker) handle(req *Message) (*Message, error) {
	switch req.Op {
	case "ping":
		return &Message{Op: "ping"}, nil
	case "create":
		return w.create(req)
	case "put":
		return w.put(req)
	case "loadchunks":
		return w.loadChunks(req)
	case "insitu":
		return w.insituOp(req)
	case "read":
		w.mu.RLock()
		defer w.mu.RUnlock()
		if req.Join != "" {
			return w.joinLocked(req)
		}
		return w.readLocked(req)
	case "flush":
		return w.flushOp(req)
	case "drop":
		return w.drop(req)
	case "chunks":
		return w.chunksOp(req)
	case "metrics":
		return &Message{Op: "metrics", Metrics: w.reg.Snapshot().Samples}, nil
	}
	return nil, fmt.Errorf("cluster: unknown op %q", req.Op)
}

func (w *Worker) create(req *Message) (*Message, error) {
	if req.Schema == nil {
		return nil, fmt.Errorf("cluster: create without schema")
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	_, err := w.createLocked(req.Array, req.Schema)
	return nil, err
}

func (w *Worker) noArray(name string) error {
	return fmt.Errorf("cluster: node %d has no array %q", w.ID, name)
}

// storeLocked resolves a partition the write ops can change: a store that no
// file fills.
func (w *Worker) storeLocked(name string) (*storage.Store, error) {
	if _, ok := w.fills[name]; ok {
		return nil, fmt.Errorf("cluster: %q is an in-situ array and cannot be written", name)
	}
	st, ok := w.stores[name]
	if !ok {
		return nil, w.noArray(name)
	}
	return st, nil
}

// put writes the coordinator's staged cells. A drain is a partial chunk of
// a few thousand cells, so it is merged into the store's buffer rather than
// adopted as a bucket of its own: a bucket per drain would add a version of
// the chunk every time.
func (w *Worker) put(req *Message) (*Message, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	st, err := w.storeLocked(req.Array)
	if err != nil {
		return nil, err
	}
	b, err := storage.DecodeBatch(st.Schema(), req.Chunks)
	if err != nil {
		return nil, err
	}
	b.Raw = nil
	return w.applyLocked(req, st, b)
}

// applyLocked writes b, req's decoded chunks, into the partition's store in
// one Apply. The cells_held gauge moves by the change in the cells the store
// holds — a write that overwrites a cell holds no more of them, a release
// holds fewer — and keeps those a failed batch wrote before it stopped.
func (w *Worker) applyLocked(req *Message, st *storage.Store, b storage.Batch) (*Message, error) {
	held, err := st.Apply(b)
	w.stats.cellsHeld.Add(held)
	if err != nil {
		return nil, err
	}
	w.stats.bytesIn.Add(payloadBytes(req.Chunks))
	var cells int64
	for _, ch := range b.Chunks {
		cells += ch.CellsPresent()
	}
	return &Message{Op: req.Op, Cells: cells}, nil
}

// readLocked answers a "read": a fragment (ops.Fragment: the request's box,
// predicates and fold) over the node's partition, minus the chunks another
// replica answers this query. It is the one body that reads cells: every
// chunk's live mask is trimmed on the pool — excluded boxes, then cells
// failing the predicates — and goes to one of two sinks. A fold folds it into
// a partial table, and the tables merge in delivery order into the node's
// answer (only folds whose state is typed throughout: that is all a table
// carries over the wire); a grand total's row is then marked occupied by the
// cells the node read or pruned, see below. Without a fold the cells
// themselves are shipped, a whole chunk of the grid at a time: a chunk that
// survives whole is encoded straight from storage, one the box, an exclusion
// or the predicates cut is first taken out of the pool by Select, and the
// versions of a chunk that share its origin — their live masks disjoint —
// are unioned by MergeChunk and encoded once the read is done.
func (w *Worker) readLocked(req *Message) (*Message, error) {
	st, err := w.partLocked(req.Array)
	if err != nil {
		return nil, err
	}
	s := st.Schema()
	// The projection: every column for cells; for a fold the columns it
	// folds — none, for a count — and those its predicates test.
	var fold *ops.Fold
	var attrs []int
	var shared *array.Array // the cell sink's chunks that are not Alone
	var mu sync.Mutex       // guards shared
	if req.Fold == nil {
		shared, err = array.New(s.Clone())
	} else if fold, err = ops.NewFold(s, *req.Fold, nil); err == nil {
		attrs = fold.Attrs()
		for _, p := range req.Preds {
			if p.Attr >= 0 && p.Attr < len(s.Attrs) && !slices.Contains(attrs, p.Attr) {
				attrs = append(attrs, p.Attr)
			}
		}
	}
	if err != nil {
		return nil, err
	}
	box, excl := array.Box{Lo: req.BoxLo, Hi: req.BoxHi}, exclBoxes(req)
	if len(box.Lo) == 0 {
		box = array.WholeBox(s) // no box on the wire: everything
	}
	// Predicates over a store prune whole buckets by zone map before reading
	// them — cells the coordinator would have paid to ship, decode, and
	// discard.
	src := st.ScanChunks(box, req.Preds, attrs)
	type piece struct {
		seen, cells int64
		table       *ops.FoldTable // the fold sink's
		payload     []byte         // the cell sink's: the chunk encoded; nil if merged into shared
	}
	pieces, err := foldChunks(src, func(lc storage.LiveChunk) (p piece, err error) {
		ch := lc.Chunk
		live := withoutExcluded(ch, lc.Live, excl)
		p.seen = live.Count()
		live = ops.PredMask(req.Preds, ch, live)
		p.cells = live.Count()
		switch {
		case fold != nil:
			p.table = fold.Chunk(ch, live)
		case p.cells == 0:
		case !lc.Alone:
			sel := ch.Select(live)
			mu.Lock()
			err = shared.MergeChunk(sel)
			mu.Unlock()
		case p.cells < ch.CellsPresent():
			p.payload, err = storage.EncodeChunk(s, ch.Select(live))
		default:
			p.payload, err = storage.EncodeChunk(s, ch)
		}
		return p, err
	})
	if err != nil {
		return nil, err
	}
	resp := &Message{Op: "read", Skipped: src.Skipped()}
	tables := make([]*ops.FoldTable, len(pieces))
	if fold == nil {
		chunks := shared.Chunks()
		resp.Chunks = make([][]byte, len(chunks), len(chunks)+len(pieces))
		if err := exec.Default().Map(context.Background(), len(chunks), func(i int) (err error) {
			resp.Chunks[i], err = storage.EncodeChunk(s, chunks[i])
			return err
		}); err != nil {
			return nil, err
		}
	}
	for i, p := range pieces {
		resp.Seen += p.seen
		resp.Cells += p.cells
		tables[i] = p.table
		if p.payload != nil {
			resp.Chunks = append(resp.Chunks, p.payload)
		}
	}
	if fold == nil {
		w.stats.bytesOut.Add(payloadBytes(resp.Chunks))
	} else if resp.Table, err = fold.Merge(tables); err == nil && len(resp.Table.Shape) == 0 {
		// Predicates under a grand total are a filter under it, and a filter
		// keeps the cells it refutes, all NULL: the one row exists if the node
		// held any cell, passed or not — one it read, or one in a bucket it
		// pruned unread, which always holds one. Over the whole array that is
		// exact; in a narrower box or beside an exclusion a pruned bucket may
		// hold no cell of the node's share, and the row is there regardless.
		// (A grouped fold keeps the groups its passing cells open: a pruned
		// bucket does not say which others it holds, and core builds none.)
		resp.Table.Cells[0] = resp.Seen + resp.Skipped
	}
	// A cell whose columns were read was scanned, whatever the predicates made
	// of it; a count reads presence alone.
	if attrs == nil || len(attrs) > 0 {
		w.stats.cellsScanned.Add(resp.Seen)
	}
	return resp, err
}

func (w *Worker) drop(req *Message) (*Message, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return nil, w.dropLocked(req.Array)
}

// dropLocked destroys the named partition, bucket directory included, so a
// later create cannot recover stale buckets from its manifest. The cells a
// store held leave the node's cells_held gauge.
func (w *Worker) dropLocked(name string) error {
	defer w.heat.Drop(name) // last: the count below is itself a read
	// The fill gate goes first, so the count reads what the store holds: an
	// in-situ partition no read has filled counts 0 without opening its file.
	w.unfillLocked(name)
	st, ok := w.stores[name]
	if !ok {
		return nil
	}
	w.stats.cellsHeld.Add(-w.heldLocked(name))
	if err := st.Close(); err != nil {
		return err
	}
	delete(w.stores, name)
	if w.opts.Dir != "" {
		return os.RemoveAll(filepath.Join(w.opts.Dir, name))
	}
	return nil
}

// heldLocked counts the cells name's partition holds, for the cells_held
// gauge. A partition that does not read counts 0: the count only feeds the
// gauge, so it never stops a create or a drop.
func (w *Worker) heldLocked(name string) int64 {
	held, err := w.readLocked(&Message{Array: name, Fold: &ops.FoldSpec{}})
	if err != nil {
		return 0
	}
	return held.Cells
}

// exclBoxes assembles the request's exclude-chunk boxes (chunks this node
// must not answer because a different replica is assigned them, or because
// this node's copy is a stale post-migration leftover).
func exclBoxes(req *Message) []array.Box {
	var out []array.Box
	for i := 0; i < len(req.ExclLo) && i < len(req.ExclHi); i++ {
		out = append(out, array.Box{Lo: req.ExclLo[i], Hi: req.ExclHi[i]})
	}
	return out
}

// payloadBytes sums the sizes of encoded chunks: the bytes a message's cells
// take on the wire.
func payloadBytes(chunks [][]byte) int64 {
	var n int64
	for _, c := range chunks {
		n += int64(len(c))
	}
	return n
}
