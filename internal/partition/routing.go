package partition

import (
	"fmt"
	"sort"
	"sync"

	"scidb/internal/array"
)

// ChunkRoute is one routing-table override: the chunk at Origin (an origin
// of the base's grid) lives on Nodes, owner first. A single node means the
// chunk was migrated; several mean it is k-replicated.
type ChunkRoute struct {
	Origin array.Coord
	Nodes  []int
}

// Routing is a versioned chunk→nodes map layered over a bound Scheme — the
// placement structure that makes rebalancing live. Placement starts as the
// base scheme's; the rebalancer overrides individual chunks (migrating or
// k-replicating them) without touching the rest of the coordinate space.
// Queries consult the overrides to pick a reader per chunk and to exclude
// stale or duplicate copies; writes fan to every node in a chunk's replica
// set. Every override bumps Version, so cooperating caches and peers can
// detect staleness cheaply. Safe for concurrent use.
type Routing struct {
	base *Chunked

	mu        sync.RWMutex
	version   int64
	overrides map[string]ChunkRoute
}

// NewRouting wraps base with an empty override table keyed on base's grid,
// so a routed chunk is one bucket on every holder.
func NewRouting(base *Chunked) *Routing {
	return &Routing{base: base, overrides: map[string]ChunkRoute{}}
}

// Base returns the underlying bound scheme.
func (r *Routing) Base() *Chunked { return r.base }

// Name implements Scheme.
func (r *Routing) Name() string { return "routed(" + r.base.Name() + ")" }

// NumNodes implements Scheme.
func (r *Routing) NumNodes() int { return r.base.NumNodes() }

// NodeFor implements Scheme: the owner is the override's first node when
// the cell's chunk has been rerouted, the base scheme's owner otherwise.
func (r *Routing) NodeFor(c array.Coord) int { return r.NodesFor(c)[0] }

// NodesFor returns the full replica set of the cell's chunk (owner first),
// or just the base owner when unrouted: writes fan to all of them, readers
// may consult any.
func (r *Routing) NodesFor(c array.Coord) []int {
	o := r.base.OriginOf(c)
	r.mu.RLock()
	route, ok := r.overrides[o.Key()]
	r.mu.RUnlock()
	if ok && len(route.Nodes) > 0 {
		return append([]int(nil), route.Nodes...)
	}
	return []int{r.base.Scheme.NodeFor(o)}
}

// SetNodes installs (or updates) the override for the chunk at origin and
// bumps the table version. origin is floored to the grid; nodes must be
// non-empty, in-range, and duplicate-free — owner first. An override whose
// set is exactly the base owner still counts as an override (it pins the
// chunk, e.g. after a migration back home).
func (r *Routing) SetNodes(origin array.Coord, nodes []int) error {
	if len(nodes) == 0 {
		return fmt.Errorf("partition: routing override needs at least one node")
	}
	seen := map[int]bool{}
	for _, n := range nodes {
		if n < 0 || n >= r.base.NumNodes() {
			return fmt.Errorf("partition: routing override node %d out of range [0,%d)", n, r.base.NumNodes())
		}
		if seen[n] {
			return fmt.Errorf("partition: routing override repeats node %d", n)
		}
		seen[n] = true
	}
	o := r.base.OriginOf(origin)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.version++
	r.overrides[o.Key()] = ChunkRoute{Origin: o, Nodes: append([]int(nil), nodes...)}
	return nil
}

// Version returns the override-table version (0 = never modified).
func (r *Routing) Version() int64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.version
}

// Overrides snapshots the override table in deterministic (origin-key)
// order.
func (r *Routing) Overrides() []ChunkRoute {
	r.mu.RLock()
	defer r.mu.RUnlock()
	keys := make([]string, 0, len(r.overrides))
	for k := range r.overrides {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]ChunkRoute, 0, len(keys))
	for _, k := range keys {
		route := r.overrides[k]
		out = append(out, ChunkRoute{
			Origin: append(array.Coord(nil), route.Origin...),
			Nodes:  append([]int(nil), route.Nodes...),
		})
	}
	return out
}

// OverridesIn snapshots the overrides whose chunk boxes intersect box,
// in deterministic order.
func (r *Routing) OverridesIn(box array.Box) []ChunkRoute {
	all := r.Overrides()
	out := all[:0]
	for _, route := range all {
		if _, ok := r.base.ChunkBox(route.Origin).Intersect(box); ok {
			out = append(out, route)
		}
	}
	return out
}

// NodesForBox implements Pruner: the base scheme's pruned set unioned with
// every override node whose chunk intersects the box — the coordinator
// refines this to per-chunk reader assignments, but the union is already a
// correct (if unspread) visit set.
func (r *Routing) NodesForBox(lo, hi array.Coord) []int {
	base := r.base.NodesForBox(lo, hi)
	seen := map[int]bool{}
	for _, n := range base {
		seen[n] = true
	}
	out := append([]int(nil), base...)
	for _, route := range r.OverridesIn(array.Box{Lo: lo, Hi: hi}) {
		for _, n := range route.Nodes {
			if !seen[n] {
				seen[n] = true
				out = append(out, n)
			}
		}
	}
	sort.Ints(out)
	return out
}
