package cluster

// Replica-aware query planning. Before routing existed, fan-out was "ask
// every node the pruner names, merge disjoint partitions". A routed array
// breaks both halves of that: a chunk may live on several nodes (replicas),
// and a node may hold a copy its route no longer names — a down holder's,
// or one a failed move left on its target. The plan restores disjointness
// per query: every overridden chunk intersecting the query box gets exactly
// one live reader (rotated across replicas so hot traffic spreads), and
// every other queried node carries that chunk on its exclude list —
// covering both the "don't answer twice" and the "don't serve the stale
// copy" cases with one mechanism. Chunks mid-copy are excluded everywhere
// but their current holders, so a half-installed replica is never served.
//
// Node death is handled by re-planning: a transport failure wrapped in
// ErrNodeDown marks the node down, and the query retries from scratch
// against surviving replicas — safe because replicas are bit-identical
// copies of the same encoded chunks. A dead node is only survivable when
// every chunk it owns that the query touches has a live replica; planning
// proves that by walking the query box's chunks, asking the base owner of
// each, against the override table, and fails the query otherwise.

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"scidb/internal/array"
	"scidb/internal/introspect"
	"scidb/internal/partition"
)

// queryPlan is one attempt's fan-out: the nodes to query and, per node, the
// chunk boxes it must not answer.
type queryPlan struct {
	nodes []int
	excl  map[int][]array.Box
}

// reqFor specializes the base request for one node, attaching its exclude
// list. Nodes without exclusions reuse the base message unchanged.
func (p queryPlan) reqFor(base *Message, n int) *Message {
	boxes := p.excl[n]
	if len(boxes) == 0 {
		return base
	}
	m := *base
	m.ExclLo = make([][]int64, len(boxes))
	m.ExclHi = make([][]int64, len(boxes))
	for i, b := range boxes {
		m.ExclLo[i] = b.Lo
		m.ExclHi[i] = b.Hi
	}
	return &m
}

// queryBox widens a caller box to the array's whole coordinate box when the
// caller didn't bound the query.
func queryBox(da *DistArray, box array.Box) array.Box {
	if len(box.Lo) == len(da.Schema.Dims) {
		return box
	}
	return array.WholeBox(da.Schema)
}

// markDown records a node whose transport failed; subsequent plans route
// around it. It takes only downMu, never co.mu: transport calls report
// deaths from paths that already hold the coordinator lock (a move's fenced
// re-copy and release, Repartition's chunk lists), and a self-deadlock here
// would wedge every query on the coordinator.
func (co *Coordinator) markDown(n int) {
	co.downMu.Lock()
	if co.down == nil {
		co.down = map[int]bool{}
	}
	already := co.down[n]
	co.down[n] = true
	co.downMu.Unlock()
	if !already {
		introspect.Emit(introspect.EvNodeDown, n, "", "transport failure; plans route around it")
	}
}

// MarkUp clears a node's down marker (operator-driven recovery) and settles
// every array's pending chunks, so the copies a move left on the node while
// it was down are released before any other move runs.
func (co *Coordinator) MarkUp(n int) {
	co.downMu.Lock()
	was := co.down[n]
	delete(co.down, n)
	co.downMu.Unlock()
	if was {
		introspect.Emit(introspect.EvNodeUp, n, "", "marked up by operator")
	}
	co.moveMu.Lock()
	defer co.moveMu.Unlock()
	co.mu.Lock()
	defer co.mu.Unlock()
	for _, da := range co.arrays {
		co.settleLocked(da)
	}
}

// DownNodes lists the nodes currently marked down, sorted.
func (co *Coordinator) DownNodes() []int {
	co.downMu.Lock()
	defer co.downMu.Unlock()
	out := make([]int, 0, len(co.down))
	for n := range co.down {
		out = append(out, n)
	}
	sort.Ints(out)
	return out
}

// downSnapshot copies the down set for lock-free reads during planning.
func (co *Coordinator) downSnapshot() map[int]bool {
	co.downMu.Lock()
	defer co.downMu.Unlock()
	out := make(map[int]bool, len(co.down))
	for n := range co.down {
		out[n] = true
	}
	return out
}

// callNode is a transport call with death bookkeeping: an ErrNodeDown
// failure marks the node so the retry's plan avoids it.
func (co *Coordinator) callNode(n int, req *Message) (*Message, error) {
	resp, err := co.t.Call(n, req)
	if err != nil && errors.Is(err, ErrNodeDown) {
		co.markDown(n)
	}
	return resp, err
}

// withPlan plans the query, runs attempt, and — when a node dies mid-flight
// — re-plans against surviving replicas and retries, bounded by the grid
// size. Planning errors (no live replica for a touched chunk) are terminal.
// A join read names its right-hand array in join: each plan is made only if
// the two are co-placed under the same hold of co.mu, else ErrNotCoPlaced.
func (co *Coordinator) withPlan(da *DistArray, box array.Box, join string, attempt func(plan queryPlan) error) error {
	pbox := queryBox(da, box)
	for tries := 0; ; tries++ {
		co.mu.Lock()
		plan, err := co.planQueryLocked(da, pbox)
		if err == nil && join != "" && !co.coPlacedLocked(da.Name, join) {
			err = fmt.Errorf("%w: %q and %q", ErrNotCoPlaced, da.Name, join)
		}
		co.mu.Unlock()
		if err != nil {
			return err
		}
		err = attempt(plan)
		if err == nil {
			return nil
		}
		if !errors.Is(err, ErrNodeDown) || tries >= co.t.NumNodes() {
			return err
		}
	}
}

// planQueryLocked builds the fan-out plan for one query box. Caller holds
// co.mu.
func (co *Coordinator) planQueryLocked(da *DistArray, box array.Box) (queryPlan, error) {
	rt, routed := da.Scheme.(*partition.Routing)
	base := da.Scheme
	if routed {
		base = rt.Base()
	}
	// Base visit set (pruned when the base scheme can prune).
	var baseNodes []int
	if p, ok := base.(partition.Pruner); ok && len(box.Lo) == len(da.Schema.Dims) {
		baseNodes = p.NodesForBox(box.Lo, box.Hi)
	} else {
		baseNodes = allNodes(co.t.NumNodes())
	}
	down := co.downSnapshot()
	queried := map[int]bool{}
	var deadBase []int
	for _, n := range baseNodes {
		if down[n] {
			deadBase = append(deadBase, n)
		} else {
			queried[n] = true
		}
	}
	if !routed {
		if len(deadBase) > 0 {
			return queryPlan{}, fmt.Errorf("cluster: node %d is down and %q has no replicas", deadBase[0], da.Name)
		}
		nodes := make([]int, 0, len(queried))
		for n := range queried {
			nodes = append(nodes, n)
		}
		sort.Ints(nodes)
		return queryPlan{nodes: nodes}, nil
	}
	// One live reader per overridden chunk, rotated for load spreading.
	type assignment struct {
		origin array.Coord
		box    array.Box
		reader int
	}
	var assigns []assignment
	covered := map[string]bool{}
	for _, o := range rt.OverridesIn(box) {
		var live []int
		for _, n := range o.Nodes {
			if !down[n] {
				live = append(live, n)
			}
		}
		if len(live) == 0 {
			return queryPlan{}, fmt.Errorf("cluster: chunk %v of %q has no live replica", o.Origin, da.Name)
		}
		reader := live[int(co.readRR.Add(1))%len(live)]
		queried[reader] = true
		covered[o.Origin.Key()] = true
		assigns = append(assigns, assignment{origin: o.Origin, box: rt.Base().ChunkBox(o.Origin), reader: reader})
	}
	plan := queryPlan{excl: map[int][]array.Box{}}
	for n := range queried {
		plan.nodes = append(plan.nodes, n)
	}
	sort.Ints(plan.nodes)
	// Everyone but a chunk's reader excludes it: holders skip answering
	// twice, migration sources skip their stale copies, and non-holders
	// have nothing there to skip — the extra entries are free. Track each
	// node's excluded chunk origins so fully-excluded nodes can be dropped
	// below.
	reads := map[int]bool{}
	exclOrigins := map[int]map[string]bool{}
	exclude := func(n int, origin array.Coord, b array.Box) {
		plan.excl[n] = append(plan.excl[n], b)
		if exclOrigins[n] == nil {
			exclOrigins[n] = map[string]bool{}
		}
		exclOrigins[n][origin.Key()] = true
	}
	for _, a := range assigns {
		reads[a.reader] = true
		for _, n := range plan.nodes {
			if n != a.reader {
				exclude(n, a.origin, a.box)
			}
		}
	}
	// Chunks mid-copy are answered only by their current holders.
	for _, mv := range co.pending[da.Name] {
		holders := rt.NodesFor(mv.origin)
		for _, n := range plan.nodes {
			if !slices.Contains(holders, n) {
				exclude(n, mv.origin, mv.box)
			}
		}
	}
	if len(deadBase) == 0 && len(exclOrigins) == 0 {
		return plan, nil
	}
	answers, err := baseAnswers(da, rt.Base(), box, down, covered, exclOrigins)
	if err == nil && answers == nil && len(deadBase) > 0 {
		err = fmt.Errorf("cluster: node %d is down and %q is too large to prove replica coverage", deadBase[0], da.Name)
	}
	if err != nil {
		return queryPlan{}, err
	}
	// Drop nodes with nothing left to answer: a node that reads no routed
	// chunk and whose every base chunk within the box is excluded would only
	// return an empty partition — skipping the call is what actually
	// relieves a hot node's link once its chunk is served elsewhere.
	kept := plan.nodes[:0]
	for _, n := range plan.nodes {
		if answers == nil || reads[n] || len(exclOrigins[n]) == 0 || answers[n] {
			kept = append(kept, n)
		} else {
			delete(plan.excl, n)
		}
	}
	plan.nodes = kept
	return plan, nil
}

// maxPlanChunks bounds the chunks baseAnswers walks for one query.
const maxPlanChunks = 1 << 16

// baseAnswers walks the chunks of the query box once, asking the base
// scheme for each chunk's owner. A chunk whose base owner is down must be
// covered by a replica (the caller checked each override has a live
// reader), or the query fails. The nodes returned own, under the base
// scheme, some chunk of the box that their exclude list leaves them to
// answer. A box of more than maxPlanChunks chunks is not walked: answers is
// nil, and a dead base node then fails the query closed, while otherwise
// every node is kept — correctness never depends on dropping a node, only
// link load does.
func baseAnswers(da *DistArray, base *partition.Chunked, box array.Box, down map[int]bool, covered map[string]bool, excl map[int]map[string]bool) (map[int]bool, error) {
	// Clip the query box to the schema's declared bounds, so the walk over
	// an in-bounds array is finite.
	q := array.Box{Lo: base.OriginOf(box.Lo), Hi: box.Hi.Clone()}
	chunks := int64(1)
	for i, d := range da.Schema.Dims {
		if d.High != array.Unbounded {
			q.Hi[i] = min(q.Hi[i], d.High)
		}
		if q.Hi[i] < q.Lo[i] {
			return map[int]bool{}, nil
		}
		// Compared before it multiplies: an unbounded dimension's extent
		// alone is 2^55 chunks, enough to wrap the product.
		n := (q.Hi[i]-q.Lo[i])/base.ChunkLen[i] + 1
		if n > maxPlanChunks/chunks {
			return nil, nil
		}
		chunks *= n
	}
	answers := map[int]bool{}
	origin := q.Lo.Clone()
	for {
		k := origin.Key()
		owner := base.Scheme.NodeFor(origin)
		if down[owner] && !covered[k] {
			return nil, fmt.Errorf("cluster: node %d is down and chunk %v of %q has no replica", owner, origin, da.Name)
		}
		if !excl[owner][k] {
			answers[owner] = true
		}
		d := len(origin) - 1
		for ; d >= 0; d-- {
			if origin[d] += base.ChunkLen[d]; origin[d] <= q.Hi[d] {
				break
			}
			origin[d] = q.Lo[d]
		}
		if d < 0 {
			return answers, nil
		}
	}
}
