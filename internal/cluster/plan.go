package cluster

// Replica-aware query planning. Before routing existed, fan-out was "ask
// every node the pruner names, merge disjoint partitions". A routed array
// breaks both halves of that: a chunk may live on several nodes (replicas)
// and a migration source keeps stale on-disk buckets forever. The plan
// restores disjointness per query: every overridden chunk intersecting the
// query box gets exactly one live reader (rotated across replicas so hot
// traffic spreads), and every other queried node carries that chunk on its
// exclude list — covering both the "don't answer twice" and the "don't
// serve the stale copy" cases with one mechanism. Chunks mid-copy are
// excluded everywhere but their current holders, so a half-installed
// replica is never served.
//
// Node death is handled by re-planning: a transport failure wrapped in
// ErrNodeDown marks the node down, and the query retries from scratch
// against surviving replicas — safe because replicas are bit-identical
// copies of the same encoded chunks. A dead node is only survivable when
// every chunk of its slab the query touches has a live replica; planning
// proves that by enumerating the slab's grid chunks against the override
// table and fails the query otherwise.

import (
	"errors"
	"fmt"
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
// around it. It takes only downMu, never co.mu: transport fan-outs report
// deaths from paths that already hold the coordinator lock (Repartition's
// gather, the rebalancer's fenced re-copy), and a self-deadlock here would
// wedge every query on the coordinator.
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

// MarkUp clears a node's down marker (operator-driven recovery).
func (co *Coordinator) MarkUp(n int) {
	co.downMu.Lock()
	was := co.down[n]
	delete(co.down, n)
	co.downMu.Unlock()
	if was {
		introspect.Emit(introspect.EvNodeUp, n, "", "marked up by operator")
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
func (co *Coordinator) withPlan(da *DistArray, box array.Box, attempt func(plan queryPlan) error) error {
	pbox := queryBox(da, box)
	for tries := 0; ; tries++ {
		co.mu.Lock()
		plan, err := co.planQueryLocked(da, pbox)
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
		assigns = append(assigns, assignment{origin: o.Origin, box: rt.ChunkBox(o.Origin), reader: reader})
	}
	// A dead base node is survivable only when replicas cover every chunk
	// of its slab the query touches.
	for _, d := range deadBase {
		if err := coverageCheck(da, rt, base, d, box, covered); err != nil {
			return queryPlan{}, err
		}
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
	for _, pc := range co.pending[da.Name] {
		holders := map[int]bool{}
		for _, h := range rt.NodesFor(pc.origin) {
			holders[h] = true
		}
		for _, n := range plan.nodes {
			if !holders[n] {
				exclude(n, pc.origin, pc.box)
			}
		}
	}
	// Drop nodes with nothing left to answer: a node that reads no routed
	// chunk and whose entire base slab within the box is excluded would only
	// return an empty partition — skipping the call is what actually
	// relieves a hot node's link once its chunk is served elsewhere.
	kept := plan.nodes[:0]
	for _, n := range plan.nodes {
		if reads[n] || !fullyExcluded(da, rt, base, n, box, exclOrigins[n]) {
			kept = append(kept, n)
		} else {
			delete(plan.excl, n)
		}
	}
	plan.nodes = kept
	return plan, nil
}

// fullyExcluded reports whether node n's base-scheme share of the query box
// is entirely covered by its excluded chunk origins — every grid chunk of
// the slab-box intersection must be excluded. Unprovable cases (scheme
// can't enumerate, slab too large) keep the node queried: correctness never
// depends on dropping a node, only link load does.
func fullyExcluded(da *DistArray, rt *partition.Routing, base partition.Scheme, n int, box array.Box, excl map[string]bool) bool {
	if len(excl) == 0 {
		return false
	}
	boxer, ok := base.(partition.Boxer)
	if !ok {
		return false
	}
	q := array.Box{Lo: append(array.Coord(nil), box.Lo...), Hi: append(array.Coord(nil), box.Hi...)}
	for i, d := range da.Schema.Dims {
		if q.Lo[i] < 1 {
			q.Lo[i] = 1
		}
		if d.High != array.Unbounded && q.Hi[i] > d.High {
			q.Hi[i] = d.High
		}
	}
	lo, hi, ok := boxer.BoxFor(n, q.Lo, q.Hi)
	if !ok {
		return true // the node owns nothing the query touches
	}
	slab := array.Box{Lo: lo, Hi: hi}
	stride := rt.Stride()
	chunks := int64(1)
	for i := range slab.Lo {
		chunks *= (slab.Hi[i]-slab.Lo[i])/stride[i] + 2
		if chunks > 1<<12 {
			return false // too large to prove; keep the node
		}
	}
	start := rt.OriginOf(slab.Lo)
	origin := start.Clone()
	for {
		if !excl[origin.Key()] {
			return false
		}
		d := len(origin) - 1
		for ; d >= 0; d-- {
			origin[d] += stride[d]
			if origin[d] <= slab.Hi[d] {
				break
			}
			origin[d] = start[d]
		}
		if d < 0 {
			return true
		}
	}
}

// coverageCheck proves a dead base node's slab is replica-covered within the
// query box: every grid chunk of the slab must be an overridden chunk (the
// caller verified each override has a live reader). Enumeration is bounded —
// a slab too large to enumerate cannot be proven covered and fails closed.
func coverageCheck(da *DistArray, rt *partition.Routing, base partition.Scheme, dead int, box array.Box, covered map[string]bool) error {
	boxer, ok := base.(partition.Boxer)
	if !ok {
		return fmt.Errorf("cluster: node %d is down and scheme %s cannot enumerate its slab of %q", dead, base.Name(), da.Name)
	}
	// Clip the query box to the schema's declared bounds so the slab of an
	// in-bounds array is finite.
	q := array.Box{Lo: append(array.Coord(nil), box.Lo...), Hi: append(array.Coord(nil), box.Hi...)}
	for i, d := range da.Schema.Dims {
		if q.Lo[i] < 1 {
			q.Lo[i] = 1
		}
		if d.High != array.Unbounded && q.Hi[i] > d.High {
			q.Hi[i] = d.High
		}
	}
	lo, hi, ok := boxer.BoxFor(dead, q.Lo, q.Hi)
	if !ok {
		return nil // the dead node owns nothing the query touches
	}
	slab := array.Box{Lo: lo, Hi: hi}
	stride := rt.Stride()
	chunks := int64(1)
	for i := range slab.Lo {
		chunks *= (slab.Hi[i]-slab.Lo[i])/stride[i] + 2
		if chunks > 1<<16 {
			return fmt.Errorf("cluster: node %d is down and its slab of %q is too large to prove replica coverage", dead, da.Name)
		}
	}
	start := rt.OriginOf(slab.Lo)
	origin := start.Clone()
	for {
		if !covered[origin.Key()] {
			return fmt.Errorf("cluster: node %d is down and chunk %v of %q has no replica", dead, origin, da.Name)
		}
		d := len(origin) - 1
		for ; d >= 0; d-- {
			origin[d] += stride[d]
			if origin[d] <= slab.Hi[d] {
				break
			}
			origin[d] = start[d]
		}
		if d < 0 {
			return nil
		}
	}
}
