package cluster

// The coordinator-side online rebalancer (§2.5 made live). Static block
// partitioning is optimal for uniform access but collapses under skew: an
// 80/20 workload drives most reads through one node's link while the rest
// idle. The rebalancer closes the loop at chunk granularity:
//
//  1. Poll every live node's heat tracker ("heat" op) and normalize the
//     reported bucket origins onto the array's routing grid.
//  2. Rank chunks by decayed score and take the hottest few per round.
//  3. Migrate each to the least-loaded node (Replicas == 1) or replicate it
//     onto the k-1 least-loaded non-holders (Replicas > 1): a "read" of the
//     chunk box on the source ships its canonical encoded chunks, and a
//     "loadchunks" with the box installs them on each target (adopted
//     verbatim by storage.Store.Apply), so every copy is bit-identical.
//  4. Cut ownership over in the routing table (partition.Routing.SetNodes)
//     and release a migrated chunk on the source: a "loadchunks" with the
//     box and no chunks drops its buffered cells and buffer-pool entries.
//
// In-flight queries are never blocked: the copy runs without the
// coordinator lock, with the chunk held in the pending set so a
// half-installed copy is never served. Writes are fenced by DistArray's
// writeSeq — recorded after a pre-copy flush, re-checked under co.mu at
// cutover; if anything was written meanwhile the chunk is read and
// installed again while the lock briefly blocks further Puts (reads are
// unaffected — they only take co.mu to look up the plan).

import (
	"fmt"
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

	// Gather heat from every live node; normalize bucket origins onto the
	// routing grid and sum. Per-node load is the heat each node served —
	// the signal the spreading targets.
	type hot struct {
		origin array.Coord
		score  float64
	}
	scores := map[string]*hot{}
	load := make(map[int]float64, len(alive))
	var hmu sync.Mutex
	if err := fanout(alive, func(_, n int) error {
		resp, err := co.callNode(n, &Message{Op: "heat"})
		if err != nil {
			return err
		}
		hmu.Lock()
		defer hmu.Unlock()
		for _, s := range resp.Heat {
			if s.Array != name {
				continue
			}
			o := rt.Base().OriginOf(array.Coord(s.Origin))
			k := o.Key()
			if h, ok := scores[k]; ok {
				h.score += s.Score
			} else {
				scores[k] = &hot{origin: o, score: s.Score}
			}
			load[n] += s.Score
		}
		return nil
	}); err != nil {
		return 0, 0, err
	}
	ranked := make([]*hot, 0, len(scores))
	for _, h := range scores {
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
		cb := rt.Base().ChunkBox(h.origin)
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
			// is excluded from queries by no longer being routed, even if
			// the node later revives.
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
		mv, bytes, err := co.moveChunk(da, rt, h.origin, cb, source, targets, newNodes, opts.Replicas == 1)
		if err != nil {
			return moved, replicated, err
		}
		if !mv {
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

// moveChunk copies one chunk's encoded bytes from source onto targets and
// cuts the routing table over, fencing concurrent writes with writeSeq.
// Returns mv=false when the chunk turned out to be empty.
func (co *Coordinator) moveChunk(da *DistArray, rt *partition.Routing, origin array.Coord, cb array.Box, source int, targets, newNodes []int, migrate bool) (mv bool, bytes int64, err error) {
	// Held for the whole move, including the post-cutover release: while a
	// copy is in flight, Repartition and Drop (which replace every node's
	// content and retire rt) must wait — otherwise the move would install
	// pre-repartition payloads under the new scheme or release cells the
	// source legitimately owns after it.
	co.moveMu.Lock()
	defer co.moveMu.Unlock()

	// Pre-copy: flush staged writes so the copy sees them, record the
	// write fence, and shield the chunk in the pending set so a
	// half-installed copy is never served. A retry of a previously failed
	// move finds its orphaned pending entry still in place and reuses it —
	// inserts dedupe by origin so the set stays bounded however often a
	// move fails.
	co.mu.Lock()
	if co.arrays[da.Name] != da || da.Scheme != rt {
		// The array was repartitioned, dropped, or replaced since this
		// round planned; the route this move would install belongs to a
		// retired scheme.
		co.mu.Unlock()
		return false, 0, nil
	}
	if err := co.flushLocked(da); err != nil {
		co.mu.Unlock()
		return false, 0, err
	}
	seq := da.writeSeq
	if co.pending == nil {
		co.pending = map[string][]pendingChunk{}
	}
	havePending := false
	for _, pc := range co.pending[da.Name] {
		if pc.origin.Key() == origin.Key() {
			havePending = true
			break
		}
	}
	if !havePending {
		co.pending[da.Name] = append(co.pending[da.Name], pendingChunk{origin: origin.Clone(), box: cb})
	}
	co.mu.Unlock()

	clearPending := func() {
		co.mu.Lock()
		pcs := co.pending[da.Name]
		for i := range pcs {
			if pcs[i].origin.Key() == origin.Key() {
				co.pending[da.Name] = append(pcs[:i], pcs[i+1:]...)
				break
			}
		}
		if len(co.pending[da.Name]) == 0 {
			delete(co.pending, da.Name)
		}
		co.mu.Unlock()
	}

	copyOnce := func() (int64, int64, error) {
		resp, err := co.callNode(source, &Message{Op: "read", Array: da.Name, BoxLo: cb.Lo, BoxHi: cb.Hi})
		if err != nil {
			return 0, 0, err
		}
		if resp.Cells == 0 {
			return 0, 0, nil
		}
		if err := fanout(targets, func(_, t int) error {
			_, err := co.callNode(t, &Message{Op: "loadchunks", Array: da.Name,
				BoxLo: cb.Lo, BoxHi: cb.Hi, Chunks: resp.Chunks})
			return err
		}); err != nil {
			return 0, 0, err
		}
		return resp.Cells, payloadBytes(resp.Chunks), nil
	}

	// Unlocked copy: queries and writes proceed while the bytes travel. A
	// failure leaves the chunk's pending entry in place — the orphaned
	// bytes on the target stay excluded from queries, which is correct,
	// and a later retry reuses the entry rather than stacking a new one.
	cells, n, err := copyOnce()
	if err != nil {
		return false, 0, err
	}
	if cells == 0 {
		clearPending()
		return false, 0, nil
	}
	bytes = n

	// Cutover under co.mu: if anything was written since the fence, re-copy
	// while holding the lock (blocks Puts briefly; reads only touch co.mu
	// for planning and are unaffected), then install the route.
	co.mu.Lock()
	if co.arrays[da.Name] != da || da.Scheme != rt {
		// Backstop for the pre-copy check: moveMu keeps Repartition/Drop
		// out for the duration of the move, so this only fires if some
		// future path swaps the scheme without taking it.
		co.mu.Unlock()
		clearPending()
		return false, 0, nil
	}
	if da.writeSeq != seq {
		introspect.Emit(introspect.EvWriteFenceRecopy, source, da.Name,
			fmt.Sprintf("chunk %v written during copy; re-copying under lock", origin))
		if err := co.flushLocked(da); err != nil {
			co.mu.Unlock()
			return false, 0, err
		}
		if _, n2, err := copyOnce(); err != nil {
			co.mu.Unlock()
			return false, 0, err
		} else {
			bytes += n2
		}
	}
	if err := rt.SetNodes(origin, newNodes); err != nil {
		co.mu.Unlock()
		return false, 0, err
	}
	co.mu.Unlock()
	clearPending()

	// Post-cutover: release a migrated chunk on the source — a "loadchunks"
	// of the box with no chunks clears its buffered cells and pool entries
	// (its on-disk buckets stay, permanently excluded by the route). Best
	// effort — a failure costs pool budget, not correctness.
	if migrate {
		_, _ = co.callNode(source, &Message{Op: "loadchunks", Array: da.Name, BoxLo: cb.Lo, BoxHi: cb.Hi})
	}
	return true, bytes, nil
}
