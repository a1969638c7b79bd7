package cluster

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"scidb/internal/array"
	"scidb/internal/bufcache"
	"scidb/internal/exec"
	"scidb/internal/obs"
	"scidb/internal/ops"
	"scidb/internal/partition"
	"scidb/internal/storage"
)

// DistArray is the coordinator's record of one distributed array.
type DistArray struct {
	Name   string
	Schema *array.Schema
	Scheme partition.Scheme
	// staging buffers cells per node until Flush.
	staging map[int]*array.Array
	staged  int64
	// writeSeq counts writes (Put cells and LoadChunks batches) under
	// co.mu. The rebalancer records it before an unlocked chunk copy and
	// re-copies under the lock if it moved — the write-safety half of
	// migration without blocking in-flight reads.
	writeSeq int64
}

// Coordinator routes work to grid nodes through a Transport. It is safe for
// concurrent use.
type Coordinator struct {
	t Transport

	mu         sync.Mutex
	arrays     map[string]*DistArray
	bytesMoved int64
	batchCells int64

	// down marks nodes whose transport calls failed with ErrNodeDown;
	// planning routes around them via surviving replicas. It lives under
	// its own mutex because markDown fires from transport fan-outs that
	// may already be running under co.mu (Repartition's gather, the
	// rebalancer's fenced re-copy at cutover) — recording a death must
	// never need the coordinator lock. Lock order is co.mu → downMu;
	// nothing takes them in the other order.
	downMu sync.Mutex
	down   map[int]bool
	// pending tracks chunks mid-copy (exported but not yet cut over, or
	// orphaned by a failed install): queries exclude them on every node
	// but their current holders, so a half-installed copy is never served.
	pending map[string][]pendingChunk
	// moveMu serializes chunk moves against scheme-replacing operations:
	// moveChunk holds it end to end, and Repartition/Drop take it before
	// co.mu, so a repartition can never interleave with an in-flight copy
	// (which would install pre-repartition payloads under the new scheme,
	// or Release-wipe cells the source legitimately owns after it). Lock
	// order is moveMu → co.mu.
	moveMu sync.Mutex
	// readRR rotates replica reader choices so hot-chunk load spreads.
	readRR atomic.Uint64
}

// pendingChunk is one in-flight migration/replication target region.
type pendingChunk struct {
	origin array.Coord
	box    array.Box
}

// NewCoordinator wraps a transport. batchCells is the staging threshold per
// array before an automatic flush (0 = 4096).
func NewCoordinator(t Transport, batchCells int64) *Coordinator {
	if batchCells <= 0 {
		batchCells = 4096
	}
	return &Coordinator{t: t, arrays: map[string]*DistArray{}, batchCells: batchCells}
}

// BytesMoved reports cumulative inter-node data movement caused by
// repartitioning: read it before and after to scope it.
func (co *Coordinator) BytesMoved() int64 {
	co.mu.Lock()
	defer co.mu.Unlock()
	return co.bytesMoved
}

// Create declares a distributed array on every node with the given
// partitioning scheme.
func (co *Coordinator) Create(name string, schema *array.Schema, scheme partition.Scheme) error {
	if err := schema.Validate(); err != nil {
		return err
	}
	if scheme.NumNodes() > co.t.NumNodes() {
		return fmt.Errorf("cluster: scheme wants %d nodes, transport has %d", scheme.NumNodes(), co.t.NumNodes())
	}
	req := &Message{Op: "create", Array: name, Schema: schema}
	if err := fanout(allNodes(co.t.NumNodes()), func(_, n int) error {
		_, err := co.t.Call(n, req)
		return err
	}); err != nil {
		return err
	}
	co.mu.Lock()
	defer co.mu.Unlock()
	co.arrays[name] = &DistArray{Name: name, Schema: schema, Scheme: scheme, staging: map[int]*array.Array{}}
	return nil
}

func (co *Coordinator) dist(name string) (*DistArray, error) {
	da, ok := co.arrays[name]
	if !ok {
		return nil, fmt.Errorf("cluster: unknown distributed array %q", name)
	}
	return da, nil
}

// Put stages one cell for its owning node (per the scheme) and flushes the
// staging buffer when it reaches the batch size.
func (co *Coordinator) Put(name string, c array.Coord, cell array.Cell) error {
	co.mu.Lock()
	defer co.mu.Unlock()
	da, err := co.dist(name)
	if err != nil {
		return err
	}
	// Replicating schemes (Routing overrides, Replicated) place a cell on
	// several nodes; the write fans to all of them so every replica stays
	// bit-identical. Plain schemes stage to the single owner as before.
	nodes := []int{da.Scheme.NodeFor(c)}
	if rep, ok := da.Scheme.(partition.Replicator); ok {
		nodes = rep.NodesFor(c)
	}
	for _, node := range nodes {
		buf, ok := da.staging[node]
		if !ok {
			buf, err = array.New(PartitionSchema(da.Schema))
			if err != nil {
				return err
			}
			da.staging[node] = buf
		}
		if err := buf.Set(c, cell); err != nil {
			return err
		}
	}
	da.staged++
	da.writeSeq++
	if da.staged >= co.batchCells {
		return co.flushLocked(da)
	}
	return nil
}

// Flush sends all staged cells to their nodes, then asks each node to spill
// its buffered cells into buckets (durable when the node has a data
// directory). Batch-triggered drains skip the spill so stores can build full buckets.
func (co *Coordinator) Flush(name string) error {
	co.mu.Lock()
	defer co.mu.Unlock()
	da, err := co.dist(name)
	if err != nil {
		return err
	}
	if err := co.flushLocked(da); err != nil {
		return err
	}
	req := &Message{Op: "flush", Array: name}
	return fanout(allNodes(co.t.NumNodes()), func(_, n int) error {
		_, err := co.t.Call(n, req)
		return err
	})
}

func (co *Coordinator) flushLocked(da *DistArray) error {
	// Every staged buffer targets a distinct node, so the encode+put calls
	// fan out concurrently; node order only fixes which error is reported.
	nodes := make([]int, 0, len(da.staging))
	for node := range da.staging {
		nodes = append(nodes, node)
	}
	sort.Ints(nodes)
	if err := fanout(nodes, func(_, node int) error {
		buf := da.staging[node]
		chunks, err := storage.EncodeChunks(buf.Schema, buf.Chunks())
		if err != nil {
			return err
		}
		_, err = co.t.Call(node, &Message{Op: "put", Array: da.Name, Chunks: chunks})
		return err
	}); err != nil {
		return err
	}
	da.staging = map[int]*array.Array{}
	da.staged = 0
	return nil
}

// gather is where the cells of one fan-out's responses meet. The parts are
// disjoint — a plan has exactly one replica answer each routed chunk — so
// each merges in as it arrives, whatever the order, and a grid-aligned chunk
// whose region no other part has touched is adopted wholesale (MergeChunk)
// instead of re-setting every cell through the coordinator's write path.
type gather struct {
	s   *array.Schema // the schema the cells are under
	mu  sync.Mutex
	out *array.Array // nil until a part arrives
}

func (g *gather) add(chunks []*array.Chunk) (err error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.out == nil {
		if g.out, err = array.New(g.s.Clone()); err != nil {
			return err
		}
	}
	for _, ch := range chunks {
		if err := g.out.MergeChunk(ch); err != nil {
			return err
		}
	}
	return nil
}

// array returns what was gathered: an empty array under s if no part arrived.
func (g *gather) array() (*array.Array, error) {
	if g.out != nil {
		return g.out, nil
	}
	return array.New(g.s.Clone())
}

// callInto is the per-response step of every gather: one transport call with
// death bookkeeping, and the response's chunks — a fold's carries none —
// decoded on the fan-out's own goroutine and merged into g, so one node's
// cells are decoded and merged while slower nodes are still answering.
func (co *Coordinator) callInto(n int, req *Message, g *gather) (*Message, error) {
	resp, err := co.callNode(n, req)
	if err != nil || len(resp.Chunks) == 0 {
		return resp, err
	}
	chunks := make([]*array.Chunk, len(resp.Chunks))
	for i, payload := range resp.Chunks {
		if chunks[i], err = storage.DecodeChunk(g.s, payload); err != nil {
			return nil, err
		}
	}
	return resp, g.add(chunks)
}

// graft attaches the workers' span trees to the coordinator-side span in the
// order of resps (fan-out completion order is nondeterministic; grafting
// after the barrier keeps profile trees identical from run to run).
func graft(span *obs.Span, resps []*Message) {
	for _, resp := range resps {
		if len(resp.Spans) > 0 {
			span.Graft(obs.Rebuild(resp.Spans))
		}
	}
}

// ask is the fan-out of a read: it sends base to every node of a plan for
// box and returns the responses in plan order and, gathered under s, the
// cells they carried. Exactly one replica answers a routed chunk (the plan's
// exclude lists); one dying mid-query surfaces ErrNodeDown, withPlan re-plans
// against the survivors and every node is asked again, into a fresh gather.
// A traced query's span adopts the workers' span trees.
func (co *Coordinator) ask(ctx context.Context, da *DistArray, box array.Box, base *Message, s *array.Schema) (resps []*Message, g *gather, err error) {
	span := obs.SpanFromContext(ctx)
	base.TraceID = span.TraceID()
	err = co.withPlan(da, box, func(plan queryPlan) error {
		resps, g = make([]*Message, len(plan.nodes)), &gather{s: s}
		return fanout(plan.nodes, func(i, n int) (err error) {
			resps[i], err = co.callInto(n, plan.reqFor(base, n), g)
			return err
		})
	})
	if err != nil {
		return nil, nil, err
	}
	graft(span, resps)
	return resps, g, nil
}

// Read runs a fragment over a distributed array, moving only its answer:
// every node holding part of frag.Box trims its chunks by the box and the
// predicates (skipping buckets whose zone maps refute them — "prune before
// shipping bytes") and ships the cells left, or the partial table frag.Fold
// folds them into. Cells gather here into one array under the partition
// schema; tables merge — in plan order, so the floating-point result is the
// same from run to run — into the array the same fold builds over the
// gathered cells, names, types and bounds alike (only folds whose state is
// typed throughout, ops.NewFold with no registry, run this way). Predicates
// under a grand total are a filter under it, which keeps the cells it
// refutes, all NULL: the one row exists if seen + skipped > 0, a pruned
// bucket holding a cell by itself — exactly the filter's answer over the
// whole array, while in a narrower box a pruned bucket may hold no cell of
// it and the row (count 0, the rest NULL) is there regardless. A grouped fold
// has the groups holding a cell that passed, and no other. A fold
// without aggregates builds no array: cells, which every read reports, is its
// answer. seen counts the live cells the nodes read in the box before the
// predicates, skipped the buckets they pruned unread.
func (co *Coordinator) Read(ctx context.Context, name string, frag ops.Fragment) (a *array.Array, cells, seen, skipped int64, err error) {
	co.mu.Lock()
	da, err := co.dist(name)
	co.mu.Unlock()
	if err != nil {
		return nil, 0, 0, 0, err
	}
	var fold *ops.Fold
	if frag.Fold != nil {
		if fold, err = ops.NewFold(da.Schema, *frag.Fold, nil); err != nil {
			return nil, 0, 0, 0, err
		}
	}
	s := PartitionSchema(da.Schema)
	resps, g, err := co.ask(ctx, da, frag.Box, &Message{Op: "read", Array: name,
		BoxLo: frag.Box.Lo, BoxHi: frag.Box.Hi, Preds: frag.Preds, Fold: frag.Fold}, s)
	if err != nil {
		return nil, 0, 0, 0, err
	}
	tables := make([]*ops.FoldTable, len(resps))
	var gathered int64
	for i, resp := range resps {
		tables[i] = resp.Table
		cells, seen, skipped = cells+resp.Cells, seen+resp.Seen, skipped+resp.Skipped
		gathered += payloadBytes(resp.Chunks)
	}
	span := obs.SpanFromContext(ctx)
	span.Add("nodes", int64(len(resps)))
	if skipped > 0 {
		ops.NoteEncChunksSkipped(ctx, skipped)
	}
	switch {
	case fold == nil:
		span.Add("bytes_gathered", gathered)
		a, err = g.array()
	case len(frag.Fold.Aggs) > 0:
		a, err = fold.Result(tables)
	}
	return a, cells, seen, skipped, err
}

// Count, ScanCtx, ScanPruned and AggregateCtx are Read under the shapes the
// standing benchmark (bench/) calls; queries go through core, which calls
// Read.

// Count sums cell counts across nodes.
func (co *Coordinator) Count(name string) (int64, error) {
	_, n, _, _, err := co.Read(context.Background(), name, ops.Fragment{Fold: &ops.FoldSpec{}})
	return n, err
}

// ScanCtx gathers every cell intersecting the box into one local array.
func (co *Coordinator) ScanCtx(ctx context.Context, name string, box array.Box) (*array.Array, error) {
	a, _, err := co.ScanPruned(ctx, name, box, nil)
	return a, err
}

// ScanPruned gathers only the cells satisfying every pred; skipped totals
// the buckets no worker had to read: a store prunes by zone map, cells still
// in its write buffer are filtered slot by slot.
func (co *Coordinator) ScanPruned(ctx context.Context, name string, box array.Box, preds []array.ZonePred) (a *array.Array, skipped int64, err error) {
	a, _, _, skipped, err = co.Read(ctx, name, ops.Fragment{Box: box, Preds: preds})
	return a, skipped, err
}

// AggregateCtx folds one aggregate grouped on whole dimensions across the
// nodes: agg of attr per combination of groupDims, or a grand total with none.
func (co *Coordinator) AggregateCtx(ctx context.Context, name string, box array.Box, agg, attr string, groupDims []string) (*array.Array, error) {
	a, _, _, _, err := co.Read(ctx, name, ops.Fragment{Box: box,
		Fold: &ops.FoldSpec{Dims: groupDims, Aggs: []ops.AggSpec{{Agg: agg, Attr: attr}}}})
	return a, err
}

// Repartition changes an array's partitioning scheme ("we allow the
// partitioning to change over time"), moving only the cells whose owner
// changes and counting the moved bytes. On a routed array the gather honours
// the override table (replica-served chunks read once, stale migrated copies
// excluded) and the overrides are dropped with the old scheme: after a
// repartition the array is placed purely by newScheme.
func (co *Coordinator) Repartition(name string, newScheme partition.Scheme) error {
	// Exclude in-flight chunk moves for the whole repartition: a migration
	// copy racing the scheme swap would install pre-repartition payloads
	// (or release cells the source owns under the new scheme) after every
	// node's content has been rebuilt.
	co.moveMu.Lock()
	defer co.moveMu.Unlock()
	co.mu.Lock()
	defer co.mu.Unlock()
	da, err := co.dist(name)
	if err != nil {
		return err
	}
	if err := co.flushLocked(da); err != nil {
		return err
	}
	nodes := co.t.NumNodes()
	tmpl := PartitionSchema(da.Schema)
	newContent := make([]*array.Array, nodes)
	for n := range newContent {
		if newContent[n], err = array.New(tmpl.Clone()); err != nil {
			return err
		}
	}
	moved, err := array.New(tmpl.Clone())
	if err != nil {
		return err
	}
	// Gather every node's content concurrently under the query plan (read +
	// decode are the expensive half of a repartition), then redistribute
	// serially so placement and the moved-bytes count stay deterministic.
	// Holding co.mu across the gather keeps the repartition atomic with
	// respect to concurrent writes, so the plan is made once, under the lock
	// already held, and a node dying mid-gather fails the repartition.
	pbox := queryBox(da, array.Box{})
	plan, err := co.planQueryLocked(da, pbox)
	if err != nil {
		return err
	}
	baseReq := &Message{Op: "read", Array: name, BoxLo: pbox.Lo, BoxHi: pbox.Hi}
	g := &gather{s: tmpl}
	if err := fanout(plan.nodes, func(_, n int) error {
		_, err := co.callInto(n, plan.reqFor(baseReq, n), g)
		return err
	}); err != nil {
		return err
	}
	content, err := g.array()
	if err != nil {
		return err
	}
	var werr error
	content.Iter(func(c array.Coord, cell array.Cell) bool {
		target := newScheme.NodeFor(c)
		if err := newContent[target].Set(c.Clone(), cell); err != nil {
			werr = err
			return false
		}
		if target != da.Scheme.NodeFor(c) {
			if err := moved.Set(c.Clone(), cell); err != nil {
				werr = err
				return false
			}
		}
		return true
	})
	if werr != nil {
		return werr
	}
	// Count moved bytes via the wire encoding of the moved cells.
	if moved.Count() > 0 {
		if movedPayload, err := storage.EncodeArray(moved); err == nil {
			co.bytesMoved += int64(len(movedPayload))
		}
	}
	if err := fanout(allNodes(nodes), func(_, n int) error {
		chunks, err := storage.EncodeChunks(newContent[n].Schema, newContent[n].Chunks())
		if err != nil {
			return err
		}
		_, err = co.t.Call(n, &Message{Op: "replace", Array: name, Chunks: chunks})
		return err
	}); err != nil {
		return err
	}
	da.Scheme = newScheme
	// Replace rebuilt every node from scratch, so routing overrides and any
	// half-copied chunks are history.
	delete(co.pending, name)
	return nil
}

// CacheStats gathers every node's buffer-pool counters. With an in-process
// grid all nodes share one pool, so node 0's snapshot is the whole story;
// over TCP each node reports its own process-local pool. It is a thin
// adapter over the unified registry read (the "metrics" op).
func (co *Coordinator) CacheStats() ([]bufcache.Stats, error) {
	return statsPerNode(co, (*bufcache.Stats).Fields)
}

// StorageStats gathers every node's storage counters (disk traffic,
// encoding ratios, prefetch hits, zone-pruned chunks), summed over the
// node's stores. Like CacheStats, it reads through the unified registry.
func (co *Coordinator) StorageStats() ([]storage.Stats, error) {
	return statsPerNode(co, (*storage.Stats).Fields)
}

// NodeStats gathers per-node counters (the PART experiment's load metric).
// Like CacheStats, it reads through the unified registry.
func (co *Coordinator) NodeStats() ([]WorkerStats, error) {
	return statsPerNode(co, (*WorkerStats).fields)
}

// ExecStats gathers every node's worker-pool counters. With an in-process
// grid all nodes share one process-wide pool, so node 0's snapshot is the
// whole story; over TCP each node reports its own pool. Like CacheStats,
// it is a thin adapter over the unified registry read.
func (co *Coordinator) ExecStats() ([]exec.Stats, error) {
	return statsPerNode(co, (*exec.Stats).Fields)
}

// statsPerNode reads every node's registry into a stats snapshot through the
// field list its collector emits.
func statsPerNode[T any](co *Coordinator, fields func(*T) []obs.Field) ([]T, error) {
	per, err := co.metricsPerNode()
	if err != nil {
		return nil, err
	}
	out := make([]T, len(per))
	for n, samples := range per {
		obs.ReadFields(samples, fields(&out[n]))
	}
	return out, nil
}

// TransportStats reports the transport's wire counters (bytes and frames
// in/out, in-flight high-water mark, summed round-trip time), alongside
// ExecStats and CacheStats in the observability surface. ok is false for
// transports without wire counters (Local).
func (co *Coordinator) TransportStats() (TransportStats, bool) {
	if src, ok := co.t.(StatsSource); ok {
		return src.TransportStats(), true
	}
	return TransportStats{}, false
}

// Scheme returns the current scheme of a distributed array.
func (co *Coordinator) Scheme(name string) (partition.Scheme, error) {
	co.mu.Lock()
	defer co.mu.Unlock()
	da, err := co.dist(name)
	if err != nil {
		return nil, err
	}
	return da.Scheme, nil
}

// metricsPerNode fans the "metrics" op to every node and returns each
// node's raw registry snapshot, indexed by node. This is the one unified
// read path; Metrics and the typed stats adapters all go through it.
func (co *Coordinator) metricsPerNode() ([][]obs.Sample, error) {
	nodes := allNodes(co.t.NumNodes())
	per := make([][]obs.Sample, len(nodes))
	if err := fanout(nodes, func(i, n int) error {
		resp, err := co.t.Call(n, &Message{Op: "metrics"})
		if err != nil {
			return err
		}
		per[i] = resp.Metrics
		return nil
	}); err != nil {
		return nil, err
	}
	return per, nil
}

// Metrics fans the "metrics" op to every node and returns the union of
// their registry snapshots, each sample tagged with a node label — the
// cluster-wide aggregation of per-node registries.
func (co *Coordinator) Metrics() ([]obs.Sample, error) {
	per, err := co.metricsPerNode()
	if err != nil {
		return nil, err
	}
	var out []obs.Sample
	for i, samples := range per {
		node := fmt.Sprintf("node=%q", fmt.Sprint(i))
		for _, s := range samples {
			label := node
			if s.Label != "" {
				label = s.Label + "," + node
			}
			out = append(out, obs.Sample{Name: s.Name, Label: label, Value: s.Value})
		}
	}
	return out, nil
}

// NumNodes reports the transport's node count.
func (co *Coordinator) NumNodes() int { return co.t.NumNodes() }

// Has reports whether name is a distributed array on this coordinator.
func (co *Coordinator) Has(name string) bool {
	co.mu.Lock()
	defer co.mu.Unlock()
	_, ok := co.arrays[name]
	return ok
}

// Names lists the coordinator's distributed arrays in sorted order.
func (co *Coordinator) Names() []string {
	co.mu.Lock()
	defer co.mu.Unlock()
	out := make([]string, 0, len(co.arrays))
	for name := range co.arrays {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// ArraySchema returns the declared (coordinator-side) schema of a
// distributed array.
func (co *Coordinator) ArraySchema(name string) (*array.Schema, error) {
	co.mu.Lock()
	defer co.mu.Unlock()
	da, err := co.dist(name)
	if err != nil {
		return nil, err
	}
	return da.Schema, nil
}

// LoadChunks ships a batch of pre-encoded chunk payloads straight to their
// owning node — the parallel bulk loader's fast path. Unlike Put it holds no
// coordinator state, so concurrent calls from loader shards pipeline freely
// over the transport. Cells Put before it and still staged ship first, so
// the batch lands after them, in the order the writes were acknowledged.
func (co *Coordinator) LoadChunks(name string, node int, payloads [][]byte, cells int64) error {
	co.mu.Lock()
	da, err := co.dist(name)
	if err == nil && da.staged > 0 {
		err = co.flushLocked(da)
	}
	if err == nil {
		da.writeSeq++ // any in-flight migration copy must re-copy
	}
	co.mu.Unlock()
	if err != nil {
		return err
	}
	_, err = co.t.Call(node, &Message{Op: "loadchunks", Array: name, Chunks: payloads, Cells: cells})
	return err
}

// RegisterInsitu declares an external file as a distributed array without
// loading it (§2.9 in-situ data): each node is handed its slab of the file's
// coordinate box and copies it through the named adaptor into the
// partition's store at the partition's first read.
// The scheme must describe contiguous per-node boxes (Block or Range), and
// the file must be reachable from every worker at the same path.
func (co *Coordinator) RegisterInsitu(name, path, adaptor string, schema *array.Schema, scheme partition.Scheme) error {
	if err := schema.Validate(); err != nil {
		return err
	}
	boxer, ok := scheme.(partition.Boxer)
	if !ok {
		return fmt.Errorf("cluster: in-situ registration needs a contiguous scheme (Block or Range), got %s", scheme.Name())
	}
	if scheme.NumNodes() > co.t.NumNodes() {
		return fmt.Errorf("cluster: scheme wants %d nodes, transport has %d", scheme.NumNodes(), co.t.NumNodes())
	}
	box := array.WholeBox(schema) // the file's global coordinate box
	if err := fanout(allNodes(co.t.NumNodes()), func(_, n int) error {
		req := &Message{Op: "insitu", Array: name, Schema: schema, Path: path, Adaptor: adaptor}
		if n < scheme.NumNodes() {
			if lo, hi, ok := boxer.BoxFor(n, box.Lo, box.Hi); ok {
				req.BoxLo, req.BoxHi = lo, hi
			}
		}
		_, err := co.t.Call(n, req)
		return err
	}); err != nil {
		return err
	}
	co.mu.Lock()
	defer co.mu.Unlock()
	co.arrays[name] = &DistArray{Name: name, Schema: schema, Scheme: scheme, staging: map[int]*array.Array{}}
	return nil
}

// Drop removes a distributed array from every node and the coordinator's
// catalog.
func (co *Coordinator) Drop(name string) error {
	// Like Repartition, a drop excludes in-flight chunk moves so a
	// migration cannot re-install payloads of (or cut a route over on) an
	// array that no longer exists.
	co.moveMu.Lock()
	defer co.moveMu.Unlock()
	co.mu.Lock()
	_, err := co.dist(name)
	co.mu.Unlock()
	if err != nil {
		return err
	}
	if err := fanout(allNodes(co.t.NumNodes()), func(_, n int) error {
		_, cerr := co.t.Call(n, &Message{Op: "drop", Array: name})
		return cerr
	}); err != nil {
		return err
	}
	co.mu.Lock()
	delete(co.arrays, name)
	delete(co.pending, name)
	co.mu.Unlock()
	return nil
}
