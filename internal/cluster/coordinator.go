package cluster

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
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
	// Scheme places the array's chunks: a partition.Chunked bound to its
	// PartitionSchema grid, or a partition.Routing over one.
	Scheme partition.Scheme
	// staging buffers Put cells on the partition grid until a flush ships
	// each of its chunks whole to the chunk's holders.
	staging *array.Array
	staged  int64
	// writeSeq counts writes (Put cells and LoadChunks batches) under
	// co.mu. A chunk move records it before its unlocked copy and re-copies
	// under the lock if it moved — the write-safety half of migration
	// without blocking in-flight reads.
	writeSeq int64
	// reads is held shared by a read from its planning to its last response,
	// and exclusively by a move's cutover and release, so no read reaches a
	// copy released after it was planned. Lock order is reads → co.mu.
	reads sync.RWMutex
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
	// its own mutex because markDown fires from transport calls that may
	// already be running under co.mu (a move's fenced re-copy, a settle's
	// releases, Repartition's chunk lists) — recording a death must never
	// need the coordinator lock. Lock order is co.mu → downMu; nothing
	// takes them in the other order.
	downMu sync.Mutex
	down   map[int]bool
	// pending tracks, per array and by origin, the chunks some node may hold
	// off their route: mid-copy (copied but not yet cut over, or orphaned by
	// a failed install), or cut over while a node they left was down or
	// failed its release. Queries exclude them on every node but their
	// current holders, so neither a half-installed copy nor a stale one is
	// served; settleLocked releases the off-route copies.
	pending map[string]map[string]chunkMove
	// moveMu serializes chunk moves and scheme changes: a rebalancing round
	// and a Repartition each hold it end to end, and Drop and MarkUp take
	// it. Lock order is moveMu → reads → co.mu.
	moveMu sync.Mutex
	// readRR rotates replica reader choices so hot-chunk load spreads.
	readRR atomic.Uint64
}

// NewCoordinator wraps a transport. batchCells is the staging threshold per
// array before an automatic flush (0 = 4096).
func NewCoordinator(t Transport, batchCells int64) *Coordinator {
	if batchCells <= 0 {
		batchCells = 4096
	}
	return &Coordinator{t: t, arrays: map[string]*DistArray{}, batchCells: batchCells, pending: map[string]map[string]chunkMove{}}
}

// BytesMoved reports cumulative inter-node data movement caused by
// repartitioning: read it before and after to scope it.
func (co *Coordinator) BytesMoved() int64 {
	co.mu.Lock()
	defer co.mu.Unlock()
	return co.bytesMoved
}

// Create declares a distributed array on every node with the given
// partitioning scheme, bound to the array's partition grid so that it
// places whole chunks. Nodes that recover the array from an earlier run
// report the chunks they hold, and a chunk held other than by exactly its
// owner is routed to its holders when the owner holds none of it, and to the
// owner alone otherwise (DESIGN.md, "Online rebalancing": restart).
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
	placed, err := co.recoverRoutes(name, partition.Bind(scheme, PartitionSchema(schema)))
	if err != nil {
		return err
	}
	co.mu.Lock()
	defer co.mu.Unlock()
	co.arrays[name] = &DistArray{Name: name, Schema: schema, Scheme: placed}
	return nil
}

// recoverRoutes places name by bound and Create's rule over the chunks
// bound's nodes hold: bound itself, or a routing table over it.
func (co *Coordinator) recoverRoutes(name string, bound *partition.Chunked) (partition.Scheme, error) {
	held, _, err := co.heldChunks(name, allNodes(bound.NumNodes()))
	if err != nil {
		return nil, err
	}
	rt := partition.NewRouting(bound)
	for _, h := range held {
		route := []int{bound.NodeFor(h.origin)}
		if slices.Equal(h.nodes, route) {
			continue
		}
		if !slices.Contains(h.nodes, route[0]) {
			route = h.nodes
		}
		if err := rt.SetNodes(h.origin, route); err != nil {
			return nil, err
		}
	}
	if rt.Version() == 0 {
		return bound, nil
	}
	return rt, nil
}

func (co *Coordinator) dist(name string) (*DistArray, error) {
	da, ok := co.arrays[name]
	if !ok {
		return nil, fmt.Errorf("cluster: unknown distributed array %q", name)
	}
	return da, nil
}

// Put stages one cell and flushes the staging buffer when it reaches the
// batch size.
func (co *Coordinator) Put(name string, c array.Coord, cell array.Cell) error {
	co.mu.Lock()
	defer co.mu.Unlock()
	da, err := co.dist(name)
	if err != nil {
		return err
	}
	if da.staging == nil {
		if da.staging, err = array.New(PartitionSchema(da.Schema)); err != nil {
			return err
		}
	}
	if err := da.staging.Set(c, cell); err != nil {
		return err
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

// chunkHolders are the nodes the chunk at origin lives on: its owner, or
// under a routing table every replica, so that replicas stay bit-identical.
func chunkHolders(da *DistArray, origin array.Coord) []int {
	if rt, ok := da.Scheme.(*partition.Routing); ok {
		return rt.NodesFor(origin)
	}
	return []int{da.Scheme.NodeFor(origin)}
}

// flushLocked encodes each staged chunk once and ships it whole to its
// holders, one put per node, the nodes concurrently.
func (co *Coordinator) flushLocked(da *DistArray) error {
	if da.staging == nil {
		return nil
	}
	chunks := da.staging.Chunks()
	payloads, err := storage.EncodeChunks(da.staging.Schema, chunks)
	if err != nil {
		return err
	}
	perNode := map[int][][]byte{}
	for i, ch := range chunks {
		for _, n := range chunkHolders(da, ch.Origin) {
			perNode[n] = append(perNode[n], payloads[i])
		}
	}
	nodes := make([]int, 0, len(perNode))
	for n := range perNode {
		nodes = append(nodes, n)
	}
	sort.Ints(nodes)
	if err := fanout(nodes, func(_, n int) error {
		_, err := co.t.Call(n, &Message{Op: "put", Array: da.Name, Chunks: perNode[n]})
		return err
	}); err != nil {
		return err
	}
	da.staging = nil
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
// A response's chunks are decoded on the fan-out's own goroutine and merged
// as they arrive, so one node's cells merge while slower nodes still
// answer; each keeps its payload, EncodeChunk output no one writes once it
// is read, so a chunk the gather adopts whole leaves for a client as those
// bytes. A traced query's span adopts the workers' span trees.
func (co *Coordinator) ask(ctx context.Context, da *DistArray, box array.Box, base *Message, s *array.Schema) (resps []*Message, g *gather, err error) {
	span := obs.SpanFromContext(ctx)
	base.TraceID = span.TraceID()
	err = co.withPlan(da, box, base.Join, func(plan queryPlan) error {
		resps, g = make([]*Message, len(plan.nodes)), &gather{s: s}
		return fanout(plan.nodes, func(i, n int) (err error) {
			if resps[i], err = co.callNode(n, plan.reqFor(base, n)); err != nil || len(resps[i].Chunks) == 0 {
				return err
			}
			chunks := make([]*array.Chunk, len(resps[i].Chunks))
			for j, payload := range resps[i].Chunks {
				if chunks[j], err = storage.DecodeChunk(s, payload); err != nil {
					return err
				}
				chunks[j].KeepEncoded(s, payload)
			}
			return g.add(chunks)
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
//
// A join fragment (frag.Join) is the join of name with that array on every
// dimension in order, the two co-placed (CoPlaced, else ErrNotCoPlaced):
// each node joins its chunk pairs and only the joined chunks travel. Cells
// counts the joined cells, seen the cells the nodes read from both arrays.
func (co *Coordinator) Read(ctx context.Context, name string, frag ops.Fragment) (a *array.Array, cells, seen, skipped int64, err error) {
	co.mu.Lock()
	da, err := co.dist(name)
	var right *DistArray
	if err == nil && frag.Join != "" {
		right, err = co.dist(frag.Join)
	}
	co.mu.Unlock()
	if err != nil {
		return nil, 0, 0, 0, err
	}
	defer readLock(da, right)()
	s := PartitionSchema(da.Schema)
	req := &Message{Op: "read", Array: name, BoxLo: frag.Box.Lo, BoxHi: frag.Box.Hi, Preds: frag.Preds, Fold: frag.Fold}
	var fold *ops.Fold
	switch {
	case right != nil:
		// The plan checks under the lock it is made under that the two are
		// co-placed (withPlan), so a join of arrays a move placed apart since
		// the caller looked fails instead of joining chunks that moved.
		req, frag.Box = &Message{Op: "read", Array: name, Join: right.Name}, array.Box{}
		s, err = ops.PairedSchema(s, PartitionSchema(right.Schema))
	case frag.Fold != nil:
		fold, err = ops.NewFold(da.Schema, *frag.Fold, nil)
	}
	if err != nil {
		return nil, 0, 0, 0, err
	}
	resps, g, err := co.ask(ctx, da, frag.Box, req, s)
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
	ops.NoteEncChunksSkipped(ctx, skipped)
	switch {
	case fold == nil:
		span.Add("bytes_gathered", gathered)
		a, err = g.array()
	case len(frag.Fold.Aggs) > 0:
		a, err = fold.Result(tables)
	}
	return a, cells, seen, skipped, err
}

// readLock takes the read locks of a read of da, joined with r unless r is
// nil, in name order and each array once, and returns their release.
func readLock(da, r *DistArray) (unlock func()) {
	if r == nil || r == da {
		da.reads.RLock()
		return da.reads.RUnlock
	}
	if r.Name < da.Name {
		da, r = r, da
	}
	da.reads.RLock()
	r.reads.RLock()
	return func() { r.reads.RUnlock(); da.reads.RUnlock() }
}

// ErrNotCoPlaced is a join read's error when its two arrays are not
// co-placed (CoPlaced) as the read is planned: the caller reads both and
// joins them itself.
var ErrNotCoPlaced = errors.New("cluster: the arrays of a join are not co-placed")

// CoPlaced reports whether arrays a and b lie chunk pair by chunk pair on
// the same node: both placed by unrouted partition.Chunked bindings, equal
// by value, over one grid — the same chunk lengths and bounds, every
// dimension bounded. A read may then join them where they lie
// (ops.Fragment.Join).
func (co *Coordinator) CoPlaced(a, b string) bool {
	co.mu.Lock()
	defer co.mu.Unlock()
	return co.coPlacedLocked(a, b)
}

// coPlacedLocked is CoPlaced. Caller holds co.mu.
func (co *Coordinator) coPlacedLocked(a, b string) bool {
	da, aerr := co.dist(a)
	db, berr := co.dist(b)
	if aerr != nil || berr != nil {
		return false
	}
	ca, aok := da.Scheme.(*partition.Chunked)
	cb, bok := db.Scheme.(*partition.Chunked)
	if !aok || !bok || !reflect.DeepEqual(ca, cb) || len(da.Schema.Dims) != len(db.Schema.Dims) {
		return false
	}
	ga, gb := PartitionSchema(da.Schema), PartitionSchema(db.Schema)
	for d, x := range ga.Dims {
		y := gb.Dims[d]
		if !x.Bounded() || x.High != y.High || x.GridLen() != y.GridLen() {
			return false
		}
	}
	return true
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
// partitioning to change over time"), bound to the array's grid: every chunk
// held anywhere but on its new owner alone moves there (moveChunk), the bytes
// copied counting as moved, while a routing table keeps each where it lies
// until its cutover. co.mu is held only to bind that table, for each cutover,
// and for the final swap, which places any chunk a write opened meanwhile. A
// chunk some node has still to release (settleLocked) keeps the table: the
// swap waits for a Repartition that finds every release done.
func (co *Coordinator) Repartition(name string, newScheme partition.Scheme) error {
	co.moveMu.Lock()
	defer co.moveMu.Unlock()
	co.mu.Lock()
	da, err := co.dist(name)
	co.mu.Unlock()
	if err != nil {
		return err
	}
	if newScheme.NumNodes() > co.t.NumNodes() {
		return fmt.Errorf("cluster: scheme wants %d nodes, transport has %d", newScheme.NumNodes(), co.t.NumNodes())
	}
	bound := partition.Bind(newScheme, PartitionSchema(da.Schema))
	co.mu.Lock()
	co.settleLocked(da)
	// Over the placement that names more nodes: every holder is routable.
	rt := partition.NewRouting(bound)
	if da.Scheme.NumNodes() > bound.NumNodes() {
		rt = partition.NewRouting(partition.Bind(da.Scheme, PartitionSchema(da.Schema)))
	}
	moves, err := co.placeLocked(da, bound, rt)
	seq := da.writeSeq
	if err == nil {
		da.Scheme = rt
	}
	co.mu.Unlock()
	if err != nil {
		return err
	}
	var moved int64
	defer func() { co.mu.Lock(); co.bytesMoved += moved; co.mu.Unlock() }()
	for _, mv := range moves {
		bytes, err := co.moveChunk(da, rt, mv)
		if moved += bytes; err != nil {
			return err
		}
	}
	da.reads.Lock()
	defer da.reads.Unlock()
	co.mu.Lock()
	defer co.mu.Unlock()
	if da.writeSeq != seq {
		// A write to a chunk no node held went to its owner under rt's base.
		if moves, err = co.placeLocked(da, bound, rt); err != nil {
			return err
		}
		for _, mv := range moves {
			bytes, err := co.cutoverLocked(da, rt, mv, true)
			if moved += bytes; err != nil {
				return err
			}
		}
	}
	co.settleLocked(da)
	for _, mv := range co.pending[name] {
		return fmt.Errorf("cluster: repartition of %q: chunk %v is still to be released on nodes %v", name, mv.origin, mv.release)
	}
	da.Scheme = bound
	return nil
}

// placeLocked flushes da's staged cells, routes each chunk its nodes hold in
// rt to where it lies, and returns the moves that place them by bound: to
// the owner from a holder that holds it (no copy if the owner is a holder),
// releasing every other node that holds it (the cutover adds the nodes it is
// routed to). Holds co.mu.
func (co *Coordinator) placeLocked(da *DistArray, bound *partition.Chunked, rt *partition.Routing) ([]chunkMove, error) {
	if err := co.flushLocked(da); err != nil {
		return nil, err
	}
	held, _, err := co.heldChunks(da.Name, allNodes(co.t.NumNodes()))
	if err != nil {
		return nil, err
	}
	var moves []chunkMove
	for _, h := range held {
		holders := chunkHolders(da, h.origin)
		if !slices.Equal(holders, []int{rt.Base().NodeFor(h.origin)}) {
			if err := rt.SetNodes(h.origin, holders); err != nil {
				return nil, err
			}
		}
		owner := bound.NodeFor(h.origin)
		mv := chunkMove{origin: h.origin, box: chunkBox(da, bound, h.origin), source: -1, nodes: []int{owner}}
		for _, n := range h.nodes {
			if n != owner {
				mv.release = append(mv.release, n)
			}
			if mv.source < 0 && slices.Contains(holders, n) {
				mv.source = n
			}
		}
		if !slices.Contains(holders, owner) {
			mv.targets = mv.nodes
		}
		if mv.source >= 0 && (len(mv.targets) > 0 || len(mv.release) > 0 || len(holders) > 1) {
			moves = append(moves, mv)
		}
	}
	return moves, nil
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
func (co *Coordinator) LoadChunks(name string, node int, payloads [][]byte) error {
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
	_, err = co.t.Call(node, &Message{Op: "loadchunks", Array: name, Chunks: payloads})
	return err
}

// RegisterInsitu declares an external file as a distributed array without
// loading it (§2.9 in-situ data): each node is handed its slab of the file's
// coordinate box — the union of the chunks the scheme, bound to the array's
// grid, places on it — and copies it through the named adaptor into the
// partition's store at the partition's first read.
// The scheme must describe contiguous per-node boxes (Block or Range), and
// the file must be reachable from every worker at the same path.
func (co *Coordinator) RegisterInsitu(name, path, adaptor string, schema *array.Schema, scheme partition.Scheme) error {
	if err := schema.Validate(); err != nil {
		return err
	}
	bound := partition.Bind(scheme, PartitionSchema(schema))
	if _, ok := bound.Scheme.(partition.Boxer); !ok {
		return fmt.Errorf("cluster: in-situ registration needs a contiguous scheme (Block or Range), got %s", scheme.Name())
	}
	if scheme.NumNodes() > co.t.NumNodes() {
		return fmt.Errorf("cluster: scheme wants %d nodes, transport has %d", scheme.NumNodes(), co.t.NumNodes())
	}
	box := array.WholeBox(schema) // the file's global coordinate box
	if err := fanout(allNodes(co.t.NumNodes()), func(_, n int) error {
		req := &Message{Op: "insitu", Array: name, Schema: schema, Path: path, Adaptor: adaptor}
		if n < scheme.NumNodes() {
			if lo, hi, ok := bound.BoxFor(n, box.Lo, box.Hi); ok {
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
	co.arrays[name] = &DistArray{Name: name, Schema: schema, Scheme: bound}
	return nil
}

// Drop removes a distributed array from every node and the coordinator's
// catalog.
func (co *Coordinator) Drop(name string) error {
	// No move may install a chunk of (or cut a route over on) a dropped array.
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
