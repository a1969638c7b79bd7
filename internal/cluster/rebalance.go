package cluster

// The coordinator-side online rebalancer (§2.5 made live). Static block
// partitioning is optimal for uniform access but collapses under skew: an
// 80/20 workload drives most reads through one node's link while the rest
// idle. The rebalancer closes the loop at chunk granularity:
//
//  1. Ask every live node for the chunks it holds of the array, each with
//     its heat tracker's score ("chunks" op).
//  2. Rank chunks by decayed score and take the hottest few per round.
//  3. Migrate each to the least-loaded node (Replicas == 1) or replicate it
//     onto the k-1 least-loaded non-holders (Replicas > 1): a "read" of the
//     chunk box on the source ships its canonical encoded chunks, and a
//     "loadchunks" with the box installs them on each target (adopted
//     verbatim by storage.Store.Apply), so every copy is bit-identical.
//  4. Cut ownership over in the routing table (partition.Routing.SetNodes)
//     and, in the same cutover, release the chunk on every holder the new
//     route leaves: a "loadchunks" with the box and no chunks removes it
//     there, files included, and saves the node's manifest. A holder that is
//     down or whose release fails keeps the chunk pending, excluded from
//     queries there, until a later settle releases it.
//
// Repartition is a set of the same moves (moveChunk).

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"scidb/internal/array"
	"scidb/internal/introspect"
	"scidb/internal/obs"
	"scidb/internal/partition"
)

// Rebalance counters live on the process-default registry so scidb-bench's
// -bench-json snapshot and scidb-server's /metrics both carry them.
var (
	rebOnce       sync.Once
	rebRounds     *obs.Counter
	rebMoved      *obs.Counter
	rebReplicated *obs.Counter
	rebBytes      *obs.Counter
)

func rebCounters() {
	rebOnce.Do(func() {
		r := obs.Default()
		rebRounds = r.Counter("scidb_rebalance_rounds_total", "Rebalance rounds executed.")
		rebMoved = r.Counter("scidb_rebalance_chunks_moved_total", "Chunks migrated between nodes.")
		rebReplicated = r.Counter("scidb_rebalance_chunks_replicated_total", "Hot-chunk replicas installed.")
		rebBytes = r.Counter("scidb_rebalance_bytes_moved_total", "Encoded bytes copied by rebalancing.")
	})
}

// EnableRouting layers a versioned chunk→nodes routing table over the
// array's current scheme, making it eligible for live migration and
// replication. The scheme is bound to the array's PartitionSchema grid, so
// a routed chunk is one bucket on every node that holds it. Idempotent. Note
// the bulk loader's LoadChunks path targets nodes chosen by the caller —
// ingest should finish before rebalancing begins.
func (co *Coordinator) EnableRouting(name string) (*partition.Routing, error) {
	co.mu.Lock()
	defer co.mu.Unlock()
	da, err := co.dist(name)
	if err != nil {
		return nil, err
	}
	if rt, ok := da.Scheme.(*partition.Routing); ok {
		return rt, nil
	}
	rt := partition.NewRouting(da.Scheme.(*partition.Chunked))
	da.Scheme = rt
	return rt, nil
}

// minHeat is the score floor below which a chunk is not worth moving: at
// least one recent touch.
const minHeat = 1.0

// RebalanceOptions tunes one rebalancing round.
type RebalanceOptions struct {
	// TopK bounds how many hot chunks one round acts on (0 = 4).
	TopK int
	// Replicas is the target copy count for a hot chunk: 1 (default)
	// migrates it to the least-loaded node, k > 1 replicates it onto the
	// k-1 least-loaded non-holders.
	Replicas int
}

// RebalanceOnce runs one rebalancing round for the named array, returning
// how many chunks it migrated and how many replica installs it performed.
// The array must have routing enabled.
func (co *Coordinator) RebalanceOnce(name string, opts RebalanceOptions) (moved, replicated int, err error) {
	rebCounters()
	if opts.TopK <= 0 {
		opts.TopK = 4
	}
	if opts.Replicas <= 0 {
		opts.Replicas = 1
	}
	co.moveMu.Lock()
	defer co.moveMu.Unlock()
	co.mu.Lock()
	da, err := co.dist(name)
	if err != nil {
		co.mu.Unlock()
		return 0, 0, err
	}
	rt, ok := da.Scheme.(*partition.Routing)
	if !ok {
		co.mu.Unlock()
		return 0, 0, fmt.Errorf("cluster: %q has no routing table; call EnableRouting first", name)
	}
	co.settleLocked(da)
	co.mu.Unlock()
	down := co.downSnapshot()
	var alive []int
	for n := 0; n < co.t.NumNodes(); n++ {
		if !down[n] {
			alive = append(alive, n)
		}
	}
	rebRounds.Inc()
	if opts.Replicas > len(alive) {
		opts.Replicas = len(alive)
	}
	if len(alive) < 2 {
		return 0, 0, nil // nowhere to move anything
	}

	// Per-node load, the heat of the reads a node served, is what spreading
	// targets.
	held, load, err := co.heldChunks(name, alive)
	if err != nil {
		return 0, 0, err
	}
	ranked := make([]*heldChunk, 0, len(held))
	for _, h := range held {
		if h.score >= minHeat {
			ranked = append(ranked, h)
		}
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].score != ranked[j].score {
			return ranked[i].score > ranked[j].score
		}
		return ranked[i].origin.Key() < ranked[j].origin.Key()
	})
	if len(ranked) > opts.TopK {
		ranked = ranked[:opts.TopK]
	}

	aliveSet := map[int]bool{}
	for _, n := range alive {
		aliveSet[n] = true
	}
	coldest := func(exclude map[int]bool) (int, bool) {
		best, found := -1, false
		for _, n := range alive {
			if exclude[n] {
				continue
			}
			if !found || load[n] < load[best] {
				best, found = n, true
			}
		}
		return best, found
	}

	for _, h := range ranked {
		holders := rt.NodesFor(h.origin)
		// A replica on a dead node neither serves reads nor counts toward
		// the replication target: only live holders matter below, so a
		// lost replica is re-created on a live node instead of silently
		// eroding fault tolerance.
		var liveHolders []int
		for _, n := range holders {
			if aliveSet[n] {
				liveHolders = append(liveHolders, n)
			}
		}
		if len(liveHolders) == 0 {
			continue // can't copy from a dead holder
		}
		source := liveHolders[0]
		holderSet := map[int]bool{}
		for _, n := range holders {
			holderSet[n] = true
		}
		var targets, newNodes []int
		if opts.Replicas == 1 {
			t, ok := coldest(map[int]bool{source: true})
			if !ok || load[t] >= load[source] {
				continue // moving to an equally-hot node buys nothing
			}
			targets, newNodes = []int{t}, []int{t}
		} else {
			if len(liveHolders) >= opts.Replicas {
				continue // enough live replicas already
			}
			// No new copy lands on a current holder, dead or alive. The new
			// route keeps only the live holders — a dead holder's stale copy
			// is excluded from queries by no longer being routed, and is
			// released once the node is marked up (settleLocked).
			exclude := map[int]bool{}
			for n := range holderSet {
				exclude[n] = true
			}
			newNodes = append(newNodes, liveHolders...)
			for len(newNodes) < opts.Replicas {
				t, ok := coldest(exclude)
				if !ok {
					break
				}
				exclude[t] = true
				targets = append(targets, t)
				newNodes = append(newNodes, t)
			}
			if len(targets) == 0 {
				continue
			}
		}
		mv := chunkMove{origin: h.origin, box: chunkBox(da, rt.Base(), h.origin), source: source, targets: targets, nodes: newNodes}
		bytes, err := co.moveChunk(da, rt, mv)
		if err != nil {
			return moved, replicated, err
		}
		if bytes == 0 {
			continue
		}
		if opts.Replicas == 1 {
			moved++
			rebMoved.Inc()
			introspect.Emit(introspect.EvRebalanceMove, targets[0], name,
				fmt.Sprintf("chunk %v moved %d -> %d (heat %.1f)", h.origin, source, targets[0], h.score))
		} else {
			replicated += len(targets)
			rebReplicated.Add(int64(len(targets)))
			introspect.Emit(introspect.EvRebalanceReplicate, source, name,
				fmt.Sprintf("chunk %v replicated from %d onto %v (heat %.1f)", h.origin, source, targets, h.score))
		}
		rebBytes.Add(bytes)
		// Spread subsequent picks: the receivers just inherited this load.
		per := h.score / float64(len(targets))
		for _, t := range targets {
			load[t] += per
		}
		if opts.Replicas == 1 {
			load[source] -= h.score
		}
	}
	return moved, replicated, nil
}

// heldChunk is one chunk of an array as the nodes' chunk lists find it: the
// nodes whose stores hold it, ascending, and its heat summed over the nodes.
type heldChunk struct {
	origin array.Coord
	nodes  []int
	score  float64
}

// heldChunks asks each of nodes, ascending, for its chunk list of name
// ("chunks" op), and returns the chunks some node holds in origin order, with
// each node's load: the heat of the reads it served.
func (co *Coordinator) heldChunks(name string, nodes []int) ([]*heldChunk, map[int]float64, error) {
	resps := make([]*Message, len(nodes))
	if err := fanout(nodes, func(i, n int) (err error) {
		resps[i], err = co.callNode(n, &Message{Op: "chunks", Array: name})
		return err
	}); err != nil {
		return nil, nil, err
	}
	byOrigin := map[string]*heldChunk{}
	load := make(map[int]float64, len(nodes))
	for i, resp := range resps {
		for _, s := range resp.Held {
			k := array.Coord(s.Origin).Key()
			h, ok := byOrigin[k]
			if !ok {
				h = &heldChunk{origin: s.Origin}
				byOrigin[k] = h
			}
			if s.Held {
				h.nodes = append(h.nodes, nodes[i])
			}
			h.score += s.Score
			load[nodes[i]] += s.Score
		}
	}
	held := make([]*heldChunk, 0, len(byOrigin))
	for _, h := range byOrigin {
		if len(h.nodes) > 0 {
			held = append(held, h)
		}
	}
	sort.Slice(held, func(i, j int) bool { return held[i].origin.Key() < held[j].origin.Key() })
	return held, load, nil
}

// chunkMove is one chunk's move to a new set of holders: its copy from
// source onto targets (none when every new holder holds it already), its new
// route, nodes, and the nodes off its old route that hold it too, which
// release it at cutover with the old holders the new route leaves. box is the
// box a store holds it in (chunkBox), which install and release name.
type chunkMove struct {
	origin  array.Coord
	box     array.Box
	source  int
	targets []int
	nodes   []int
	release []int
}

// moveChunk runs one move of a chunk of da, whose scheme must still be rt:
// the copy without the coordinator lock, then the cutover (cutoverLocked),
// fencing concurrent writes with writeSeq. The caller holds moveMu. bytes
// counts the encoded bytes copied: 0 for a move that copies nothing, and
// for one dropped because the chunk turned out empty or da was replaced.
func (co *Coordinator) moveChunk(da *DistArray, rt *partition.Routing, mv chunkMove) (bytes int64, err error) {
	// Flush staged writes so the copy sees them, record the write fence, and
	// hold the chunk in the pending set.
	co.mu.Lock()
	if co.arrays[da.Name] != da || da.Scheme != rt {
		co.mu.Unlock()
		return 0, nil // dropped or replaced since the move was planned
	}
	if err := co.flushLocked(da); err != nil {
		co.mu.Unlock()
		return 0, err
	}
	seq := da.writeSeq
	if len(mv.targets) > 0 {
		co.pendLocked(da.Name, mv)
	}
	co.mu.Unlock()

	// Unlocked copy: queries and writes proceed while the bytes travel. A
	// failure leaves the pending entry in place, so the orphaned bytes on
	// the target stay excluded from queries until a settle releases them.
	if len(mv.targets) > 0 {
		if bytes, err = co.copyChunk(da.Name, mv); err != nil || bytes == 0 {
			return 0, err // an empty chunk's entry goes at the next settle
		}
	}

	da.reads.Lock()
	defer da.reads.Unlock()
	co.mu.Lock()
	defer co.mu.Unlock()
	if co.arrays[da.Name] != da || da.Scheme != rt {
		delete(co.pending[da.Name], mv.origin.Key()) // created again meanwhile
		return 0, nil
	}
	n, err := co.cutoverLocked(da, rt, mv, da.writeSeq != seq)
	return bytes + n, err
}

// cutoverLocked finishes a move under da's read lock and co.mu, both held
// exclusively: if recopy (a write since the copy) the chunk is copied again,
// then routed to mv.nodes, and released (settleLocked) on the old holders the
// route leaves and on mv.release. The route stays on mv.nodes whatever the
// releases answer — a release that failed may have removed the chunk all the
// same —, and a node not released keeps the move pending. bytes counts what
// the re-copy moved.
func (co *Coordinator) cutoverLocked(da *DistArray, rt *partition.Routing, mv chunkMove, recopy bool) (bytes int64, err error) {
	if recopy && len(mv.targets) > 0 {
		introspect.Emit(introspect.EvWriteFenceRecopy, mv.source, da.Name,
			fmt.Sprintf("chunk %v written during copy; re-copying under lock", mv.origin))
		if err := co.flushLocked(da); err != nil {
			return 0, err
		}
		if bytes, err = co.copyChunk(da.Name, mv); err != nil {
			return 0, err
		}
	}
	old := rt.NodesFor(mv.origin)
	if err := rt.SetNodes(mv.origin, mv.nodes); err != nil {
		return bytes, err
	}
	mv.release = slices.Concat(old, mv.release)
	co.pendLocked(da.Name, mv)
	co.settleLocked(da)
	return bytes, nil
}

// pendLocked records mv in da's pending set, keeping every node an earlier
// entry for its chunk has still to release. Holds co.mu.
func (co *Coordinator) pendLocked(name string, mv chunkMove) {
	if co.pending[name] == nil {
		co.pending[name] = map[string]chunkMove{}
	}
	prev := co.pending[name][mv.origin.Key()]
	mv.release = slices.Concat(mv.release, prev.targets, prev.release)
	co.pending[name][mv.origin.Key()] = mv
}

// settleLocked releases each pending chunk of da on the nodes that may hold
// it off its route — the targets of a copy that failed, the nodes a cutover
// left — but not on a node its route names, nor on one that is down: a
// "loadchunks" with the chunk's box and no chunks removes it there, files
// included, and is idempotent. A chunk with no node left to release leaves
// the pending set. The caller holds moveMu, so no copy is in flight, and
// co.mu; a read needs no lock of it, since every plan excludes a pending
// chunk on the nodes off its route.
func (co *Coordinator) settleLocked(da *DistArray) {
	down := co.downSnapshot()
	for k, mv := range co.pending[da.Name] {
		route := chunkHolders(da, mv.origin)
		var left []int
		for _, n := range slices.Concat(mv.targets, mv.release) {
			if slices.Contains(route, n) || slices.Contains(left, n) {
				continue
			}
			if down[n] {
				left = append(left, n)
			} else if _, err := co.callNode(n, &Message{Op: "loadchunks", Array: da.Name, BoxLo: mv.box.Lo, BoxHi: mv.box.Hi}); err != nil {
				left = append(left, n)
			}
		}
		if len(left) == 0 {
			delete(co.pending[da.Name], k)
		} else {
			mv.targets, mv.release = nil, left
			co.pending[da.Name][k] = mv
		}
	}
}

// copyChunk copies the chunk mv moves from mv.source onto mv.targets: a
// read of its box on the source, whose canonical encoded chunk each target
// installs with a loadchunks of the box. bytes is 0 if the read found none.
func (co *Coordinator) copyChunk(name string, mv chunkMove) (bytes int64, err error) {
	resp, err := co.callNode(mv.source, &Message{Op: "read", Array: name, BoxLo: mv.box.Lo, BoxHi: mv.box.Hi})
	if err != nil || resp.Cells == 0 {
		return 0, err
	}
	if err := fanout(mv.targets, func(_, t int) error {
		_, err := co.callNode(t, &Message{Op: "loadchunks", Array: name, BoxLo: mv.box.Lo, BoxHi: mv.box.Hi, Chunks: resp.Chunks})
		return err
	}); err != nil {
		return 0, err
	}
	return payloadBytes(resp.Chunks), nil
}

// chunkBox is the box a store holds da's chunk at origin in: its box on the
// grid, clipped at a bounded dimension's High.
func chunkBox(da *DistArray, grid *partition.Chunked, origin array.Coord) array.Box {
	box, _ := grid.ChunkBox(origin).Intersect(array.WholeBox(da.Schema))
	return box
}
