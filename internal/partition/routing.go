package partition

import (
	"fmt"
	"sort"
	"sync"

	"scidb/internal/array"
)

// Replicator is implemented by schemes that place a cell on more than one
// node. NodesFor returns every node that must hold a copy of the cell at c,
// primary owner first; writers fan each cell to all of them, readers may
// consult any. Replicated (uncertain-location replication, §2.13) and
// Routing (online rebalancing) both satisfy it.
type Replicator interface {
	NodesFor(c array.Coord) []int
}

// ChunkRoute is one routing-table override: the chunk at Origin (grid-
// aligned, stride-sized) lives on Nodes, owner first. A single node means
// the chunk was migrated; several mean it is k-replicated.
type ChunkRoute struct {
	Origin array.Coord
	Nodes  []int
}

// Routing is a versioned chunk→nodes map layered over a base Scheme — the
// placement structure that makes rebalancing live. Placement starts as the
// base scheme's; the rebalancer overrides individual chunks (migrating or
// k-replicating them) without touching the rest of the coordinate space.
// Queries consult the overrides to pick a reader per chunk and to exclude
// stale or duplicate copies; writes fan to every node in a chunk's replica
// set. Every override bumps Version, so cooperating caches and peers can
// detect staleness cheaply. Safe for concurrent use.
type Routing struct {
	base   Scheme
	stride []int64

	mu        sync.RWMutex
	version   int64
	overrides map[string]ChunkRoute
}

// NewRouting wraps base with an empty override table. stride fixes the
// chunk grid the overrides are keyed on (zero/missing entries default to
// 64, the default chunk length); the coordinator passes the array's
// partition grid, so a routed chunk is one bucket on every holder.
func NewRouting(base Scheme, nd int, stride []int64) *Routing {
	st := make([]int64, nd)
	for i := range st {
		if i < len(stride) && stride[i] > 0 {
			st[i] = stride[i]
		} else {
			st[i] = 64
		}
	}
	return &Routing{base: base, stride: st, overrides: map[string]ChunkRoute{}}
}

// Base returns the underlying scheme.
func (r *Routing) Base() Scheme { return r.base }

// Stride returns the chunk grid stride the overrides are keyed on.
func (r *Routing) Stride() []int64 { return append([]int64(nil), r.stride...) }

// Name implements Scheme.
func (r *Routing) Name() string { return "routed(" + r.base.Name() + ")" }

// NumNodes implements Scheme.
func (r *Routing) NumNodes() int { return r.base.NumNodes() }

// OriginOf floors c to the routing chunk grid (1-based strides).
func (r *Routing) OriginOf(c array.Coord) array.Coord {
	o := make(array.Coord, len(c))
	for i := range c {
		cl := int64(64)
		if i < len(r.stride) {
			cl = r.stride[i]
		}
		v := c[i]
		if v < 1 {
			v = 1
		}
		o[i] = ((v-1)/cl)*cl + 1
	}
	return o
}

// ChunkBox is the grid-aligned box of the chunk at origin.
func (r *Routing) ChunkBox(origin array.Coord) array.Box {
	hi := make(array.Coord, len(origin))
	for i := range origin {
		cl := int64(64)
		if i < len(r.stride) {
			cl = r.stride[i]
		}
		hi[i] = origin[i] + cl - 1
	}
	return array.Box{Lo: append(array.Coord(nil), origin...), Hi: hi}
}

// NodeFor implements Scheme: the owner is the override's first node when
// the cell's chunk has been rerouted, the base scheme's owner otherwise.
func (r *Routing) NodeFor(c array.Coord) int {
	r.mu.RLock()
	route, ok := r.overrides[r.OriginOf(c).Key()]
	r.mu.RUnlock()
	if ok && len(route.Nodes) > 0 {
		return route.Nodes[0]
	}
	return r.base.NodeFor(c)
}

// NodesFor implements Replicator: the full replica set of the cell's
// chunk (owner first), or just the base owner when unrouted.
func (r *Routing) NodesFor(c array.Coord) []int {
	r.mu.RLock()
	route, ok := r.overrides[r.OriginOf(c).Key()]
	r.mu.RUnlock()
	if ok && len(route.Nodes) > 0 {
		return append([]int(nil), route.Nodes...)
	}
	return []int{r.base.NodeFor(c)}
}

// SetNodes installs (or updates) the override for the chunk at origin and
// bumps the table version. origin is floored to the grid; nodes must be
// non-empty, in-range, and duplicate-free — owner first. An override whose
// set is exactly the base owner still counts as an override (it pins the
// chunk, e.g. after a migration back home).
func (r *Routing) SetNodes(origin array.Coord, nodes []int) (int64, error) {
	if len(nodes) == 0 {
		return 0, fmt.Errorf("partition: routing override needs at least one node")
	}
	seen := map[int]bool{}
	for _, n := range nodes {
		if n < 0 || n >= r.base.NumNodes() {
			return 0, fmt.Errorf("partition: routing override node %d out of range [0,%d)", n, r.base.NumNodes())
		}
		if seen[n] {
			return 0, fmt.Errorf("partition: routing override repeats node %d", n)
		}
		seen[n] = true
	}
	o := r.OriginOf(origin)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.version++
	r.overrides[o.Key()] = ChunkRoute{Origin: o, Nodes: append([]int(nil), nodes...)}
	return r.version, nil
}

// ClearNodes drops the override for the chunk at origin, returning
// placement to the base scheme, and bumps the version.
func (r *Routing) ClearNodes(origin array.Coord) int64 {
	o := r.OriginOf(origin)
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.overrides[o.Key()]; ok {
		delete(r.overrides, o.Key())
		r.version++
	}
	return r.version
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
		if _, ok := r.ChunkBox(route.Origin).Intersect(box); ok {
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
	var base []int
	if p, ok := r.base.(Pruner); ok {
		base = p.NodesForBox(lo, hi)
	} else {
		base = make([]int, r.base.NumNodes())
		for i := range base {
			base[i] = i
		}
	}
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
