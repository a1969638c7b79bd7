// Package partition implements §2.7 grid partitioning: fixed block
// partitioning of the coordinate system, Gamma-style hash and range
// partitioning, partitioning that changes over time (epochs), and the
// automatic database designer that derives a partitioning from a sample
// workload in the style of C-Store/H-Store.
package partition

import (
	"fmt"
	"slices"
	"sort"

	"scidb/internal/array"
)

// Scheme assigns array coordinates to grid nodes.
type Scheme interface {
	Name() string
	NumNodes() int
	// NodeFor returns the node owning the cell at c.
	NodeFor(c array.Coord) int
}

// Block is fixed partitioning: dimension SplitDim's range [1..High] is cut
// into NumNodes equal contiguous slabs. "For these applications
// [sky surveys], dividing the coordinate system for the sky into fixed
// partitions will probably work well."
type Block struct {
	Nodes    int
	SplitDim int
	High     int64
}

// Name implements Scheme.
func (b Block) Name() string { return fmt.Sprintf("block(dim=%d,n=%d)", b.SplitDim, b.Nodes) }

// NumNodes implements Scheme.
func (b Block) NumNodes() int { return b.Nodes }

// NodeFor implements Scheme.
func (b Block) NodeFor(c array.Coord) int {
	v := c[b.SplitDim]
	if v < 1 {
		v = 1
	}
	if v > b.High {
		v = b.High
	}
	per := (b.High + int64(b.Nodes) - 1) / int64(b.Nodes)
	n := int((v - 1) / per)
	if n >= b.Nodes {
		n = b.Nodes - 1
	}
	return n
}

// Hash is Gamma-style hash partitioning on one or more dimensions. Bound to
// an array's grid (Bind) it hashes chunk origins, so a chunk lands whole on
// one node; unbound it hashes individual cells.
type Hash struct {
	Nodes int
	Dims  []int
}

// Name implements Scheme.
func (h Hash) Name() string { return fmt.Sprintf("hash(dims=%v,n=%d)", h.Dims, h.Nodes) }

// NumNodes implements Scheme.
func (h Hash) NumNodes() int { return h.Nodes }

// NodeFor implements Scheme. The FNV fold over the dimensions is finished by
// a 64-bit mix, so coordinates that share their low bits — chunk origins on
// a power-of-two stride — still spread over the nodes.
func (h Hash) NodeFor(c array.Coord) int {
	var x uint64 = 1469598103934665603 // FNV offset basis
	for _, d := range h.Dims {
		x ^= uint64(c[d] - 1)
		x *= 1099511628211
	}
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	return int(x % uint64(h.Nodes))
}

// Range is Gamma-style range partitioning: Splits[i] is the last coordinate
// value (inclusive) of node i on SplitDim; the final node takes the rest.
type Range struct {
	SplitDim int
	Splits   []int64 // len == nodes-1, ascending
	Nodes    int
}

// Name implements Scheme.
func (r Range) Name() string { return fmt.Sprintf("range(dim=%d,n=%d)", r.SplitDim, r.Nodes) }

// NumNodes implements Scheme.
func (r Range) NumNodes() int { return r.Nodes }

// NodeFor implements Scheme.
func (r Range) NodeFor(c array.Coord) int {
	v := c[r.SplitDim]
	return sort.Search(len(r.Splits), func(i int) bool { return r.Splits[i] >= v })
}

// Epoch allows "the partitioning to change over time. In this way, a first
// partitioning scheme is used for time less than T and a second
// partitioning scheme for time > T." TimeDim is the dominant (load-order)
// dimension consulted for the epoch boundary.
type Epoch struct {
	TimeDim int
	// Boundaries[i] is the first time coordinate governed by Schemes[i+1];
	// Schemes[0] governs everything before Boundaries[0].
	Boundaries []int64
	Schemes    []Scheme
}

// Name implements Scheme.
func (e Epoch) Name() string { return fmt.Sprintf("epoch(%d schemes)", len(e.Schemes)) }

// NumNodes implements Scheme.
func (e Epoch) NumNodes() int {
	n := 0
	for _, s := range e.Schemes {
		if s.NumNodes() > n {
			n = s.NumNodes()
		}
	}
	return n
}

// NodeFor implements Scheme.
func (e Epoch) NodeFor(c array.Coord) int {
	t := c[e.TimeDim]
	i := sort.Search(len(e.Boundaries), func(i int) bool { return e.Boundaries[i] > t })
	return e.Schemes[i].NodeFor(c)
}

// Validate checks epoch construction.
func (e Epoch) Validate() error {
	if len(e.Schemes) != len(e.Boundaries)+1 {
		return fmt.Errorf("partition: epoch needs len(schemes) == len(boundaries)+1")
	}
	for i := 1; i < len(e.Boundaries); i++ {
		if e.Boundaries[i] <= e.Boundaries[i-1] {
			return fmt.Errorf("partition: epoch boundaries must ascend")
		}
	}
	return nil
}

// Pruner is implemented by schemes that can enumerate the nodes whose
// partitions intersect a coordinate box, letting the coordinator skip
// nodes that cannot hold matching cells.
type Pruner interface {
	// NodesForBox returns the nodes that may own cells inside [lo, hi].
	NodesForBox(lo, hi array.Coord) []int
}

// NodesForBox implements Pruner for Block: only the slabs overlapping the
// box's split-dimension range are touched.
func (b Block) NodesForBox(lo, hi array.Coord) []int { return span(b.NodeFor(lo), b.NodeFor(hi)) }

// NodesForBox implements Pruner for Range.
func (r Range) NodesForBox(lo, hi array.Coord) []int { return span(r.NodeFor(lo), r.NodeFor(hi)) }

// span lists the nodes from a to b, in either order.
func span(a, b int) []int {
	if b < a {
		a, b = b, a
	}
	out := make([]int, 0, b-a+1)
	for n := a; n <= b; n++ {
		out = append(out, n)
	}
	return out
}

// Boxer is implemented by contiguous schemes (Block, Range) that can
// describe a node's ownership as a sub-box of a query box: distributed
// in-situ registration uses it to hand each worker its slab of an external
// file. ok is false when the node owns no part of [lo, hi].
type Boxer interface {
	BoxFor(node int, lo, hi array.Coord) (array.Coord, array.Coord, bool)
}

// BoxFor implements Boxer for Block: node n owns split-dimension values
// [n*per+1, (n+1)*per] with per = ceil(High/Nodes), clipped to the box.
func (b Block) BoxFor(node int, lo, hi array.Coord) (array.Coord, array.Coord, bool) {
	per := (b.High + int64(b.Nodes) - 1) / int64(b.Nodes)
	slabLo := int64(node)*per + 1
	slabHi := slabLo + per - 1
	if node == b.Nodes-1 && slabHi < hi[b.SplitDim] {
		// NodeFor clamps out-of-range values to the last node; its slab
		// mirrors that by absorbing everything above.
		slabHi = hi[b.SplitDim]
	}
	return clipSlab(b.SplitDim, slabLo, slabHi, lo, hi)
}

// BoxFor implements Boxer for Range: node n owns (Splits[n-1], Splits[n]]
// on SplitDim, with the first node open below and the last open above.
func (r Range) BoxFor(node int, lo, hi array.Coord) (array.Coord, array.Coord, bool) {
	slabLo := lo[r.SplitDim]
	if node > 0 {
		if node-1 >= len(r.Splits) {
			return nil, nil, false
		}
		slabLo = r.Splits[node-1] + 1
	}
	slabHi := hi[r.SplitDim]
	if node < len(r.Splits) {
		slabHi = r.Splits[node]
	}
	return clipSlab(r.SplitDim, slabLo, slabHi, lo, hi)
}

// clipSlab intersects a split-dimension interval with the query box.
func clipSlab(dim int, slabLo, slabHi int64, lo, hi array.Coord) (array.Coord, array.Coord, bool) {
	if slabLo < lo[dim] {
		slabLo = lo[dim]
	}
	if slabHi > hi[dim] {
		slabHi = hi[dim]
	}
	if slabLo > slabHi {
		return nil, nil, false
	}
	outLo, outHi := lo.Clone(), hi.Clone()
	outLo[dim], outHi[dim] = slabLo, slabHi
	return outLo, outHi, true
}

// Chunked binds a scheme to an array's partition grid, so that it places
// chunks, not cells: the node of a cell is the base scheme's node for the
// origin of its chunk, and every chunk lives whole on one node: a Block or
// Range cut inside a chunk moves to that chunk's end (DesignChunks designs
// cuts there). The coordinator binds every cluster array's scheme (Bind),
// as the loader binds its sites'. Name and NumNodes are the base scheme's.
type Chunked struct {
	Scheme
	// ChunkLen is the grid's chunk length per dimension.
	ChunkLen []int64
}

// Bind returns s bound to grid's chunks. A scheme bound already is rebound
// to grid.
func Bind(s Scheme, grid *array.Schema) *Chunked {
	if b, ok := s.(*Chunked); ok {
		s = b.Scheme
	}
	cl := make([]int64, len(grid.Dims))
	for i, d := range grid.Dims {
		cl[i] = d.GridLen()
	}
	return &Chunked{Scheme: s, ChunkLen: cl}
}

// OriginOf floors c to the origin of its chunk (coordinates below 1 floor
// to the first chunk).
func (b *Chunked) OriginOf(c array.Coord) array.Coord {
	o := make(array.Coord, len(c))
	for i, v := range c {
		cl := b.ChunkLen[i]
		o[i] = (max(v, 1)-1)/cl*cl + 1
	}
	return o
}

// ChunkBox is the grid box of the chunk at origin.
func (b *Chunked) ChunkBox(origin array.Coord) array.Box {
	hi := make(array.Coord, len(origin))
	for i, o := range origin {
		hi[i] = o + b.ChunkLen[i] - 1
	}
	return array.Box{Lo: origin.Clone(), Hi: hi}
}

// NodeFor implements Scheme: the base scheme's node for c's chunk origin.
func (b *Chunked) NodeFor(c array.Coord) int { return b.Scheme.NodeFor(b.OriginOf(c)) }

// NodesForBox implements Pruner over the box's first and last chunk
// origins; a base scheme that cannot prune names every node.
func (b *Chunked) NodesForBox(lo, hi array.Coord) []int {
	if p, ok := b.Scheme.(Pruner); ok {
		return p.NodesForBox(b.OriginOf(lo), b.OriginOf(hi))
	}
	return span(0, b.NumNodes()-1)
}

// BoxFor implements Boxer: the union of the chunks b places on node, clipped
// to [lo, hi]. It is one box when the base scheme is a Boxer (Block, Range),
// whose slabs it snaps to the chunk origins inside them; ok is false when
// node holds no chunk there, or when the base has no slabs.
func (b *Chunked) BoxFor(node int, lo, hi array.Coord) (array.Coord, array.Coord, bool) {
	bx, ok := b.Scheme.(Boxer)
	if !ok {
		return nil, nil, false
	}
	slabLo, slabHi, ok := bx.BoxFor(node, b.OriginOf(lo), b.ChunkBox(b.OriginOf(hi)).Hi)
	if !ok {
		return nil, nil, false
	}
	first, last := b.OriginOf(slabLo), b.OriginOf(slabHi)
	outLo, outHi := lo.Clone(), hi.Clone()
	for i, cl := range b.ChunkLen {
		if first[i] < slabLo[i] {
			first[i] += cl // the chunk at slabLo starts on another node
		}
		outLo[i], outHi[i] = max(outLo[i], first[i]), min(outHi[i], last[i]+cl-1)
		if outLo[i] > outHi[i] {
			return nil, nil, false
		}
	}
	return outLo, outHi, true
}

// SampleAccess is one entry of a sample workload: a cell (or cell region
// representative) and how often it is touched.
type SampleAccess struct {
	Coord  array.Coord
	Weight int64
}

// Design is the automatic database designer (§2.7: "Like C-Store and
// H-Store, we plan an automatic data base designer which will use a sample
// workload to do the partitioning. This designer can be run periodically on
// the actual workload, and suggest modifications.") It derives a Range
// scheme on splitDim whose per-node access weight is balanced.
func Design(workload []SampleAccess, splitDim, nodes int) (Range, error) {
	if nodes < 1 {
		return Range{}, fmt.Errorf("partition: need at least one node")
	}
	if len(workload) == 0 {
		return Range{}, fmt.Errorf("partition: empty sample workload")
	}
	// Histogram of weight per coordinate value on splitDim.
	hist := map[int64]int64{}
	var total int64
	for _, a := range workload {
		hist[a.Coord[splitDim]] += a.Weight
		total += a.Weight
	}
	keys := make([]int64, 0, len(hist))
	for k := range hist {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	// Greedy equal-weight split.
	target := total / int64(nodes)
	splits := make([]int64, 0, nodes-1)
	var acc int64
	for _, k := range keys {
		acc += hist[k]
		if acc >= target && len(splits) < nodes-1 {
			splits = append(splits, k)
			acc = 0
		}
	}
	for len(splits) < nodes-1 {
		last := keys[len(keys)-1]
		if len(splits) > 0 {
			last = splits[len(splits)-1]
		}
		splits = append(splits, last+1)
	}
	return Range{SplitDim: splitDim, Splits: splits, Nodes: nodes}, nil
}

// DesignChunks is the designer at the grain a cluster places: it cuts the
// chunk columns of grid along splitDim into nodes contiguous runs whose
// heaviest workload weight is as light as contiguous runs allow, and
// returns the Range bound to grid. Each split is the last coordinate of a
// chunk, so the Range places every cell where its chunk goes, and Imbalance
// and Loads of the result are the balance its placement gets; a hotspot
// inside one chunk stays on one node. Design's greedy split, whose first
// run takes the key that carries it past its share, is kept as the cell
// grain model PART measures.
func DesignChunks(workload []SampleAccess, grid *array.Schema, splitDim, nodes int) (*Chunked, error) {
	if nodes < 1 {
		return nil, fmt.Errorf("partition: need at least one node")
	}
	if len(workload) == 0 {
		return nil, fmt.Errorf("partition: empty sample workload")
	}
	b := Bind(Range{}, grid)
	cl := b.ChunkLen[splitDim]
	// Weight per chunk column, keyed by the column's last coordinate.
	hist := map[int64]int64{}
	var heaviest, total int64
	for _, a := range workload {
		end := (max(a.Coord[splitDim], 1)-1)/cl*cl + cl
		hist[end] += a.Weight
		heaviest = max(heaviest, hist[end])
		total += a.Weight
	}
	ends := make([]int64, 0, len(hist))
	for e := range hist {
		ends = append(ends, e)
	}
	slices.Sort(ends)
	// cuts fills runs greedily under limit; the lightest limit that needs
	// no more than nodes runs is found by bisection.
	cuts := func(limit int64) []int64 {
		var out []int64
		var acc int64
		for i, e := range ends {
			if acc > 0 && acc+hist[e] > limit {
				out = append(out, ends[i-1])
				acc = 0
			}
			acc += hist[e]
		}
		return out
	}
	lo, hi := heaviest, total
	for lo < hi {
		if mid := lo + (hi-lo)/2; len(cuts(mid)) < nodes {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	splits := cuts(lo)
	for len(splits) < nodes-1 {
		splits = append(splits, ends[len(ends)-1])
	}
	b.Scheme = Range{SplitDim: splitDim, Splits: splits, Nodes: nodes}
	return b, nil
}

// Imbalance computes the load-balance metric used by the PART experiment:
// max node weight / mean node weight under the scheme (1.0 is perfect).
func Imbalance(s Scheme, workload []SampleAccess) float64 {
	loads := make([]int64, s.NumNodes())
	var total int64
	for _, a := range workload {
		loads[s.NodeFor(a.Coord)] += a.Weight
		total += a.Weight
	}
	if total == 0 {
		return 1
	}
	var max int64
	for _, l := range loads {
		if l > max {
			max = l
		}
	}
	mean := float64(total) / float64(len(loads))
	return float64(max) / mean
}

// Loads returns per-node access weights under the scheme.
func Loads(s Scheme, workload []SampleAccess) []int64 {
	loads := make([]int64, s.NumNodes())
	for _, a := range workload {
		loads[s.NodeFor(a.Coord)] += a.Weight
	}
	return loads
}
