package partition

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"scidb/internal/array"
)

func TestBlockScheme(t *testing.T) {
	b := Block{Nodes: 4, SplitDim: 0, High: 100}
	if b.NodeFor(array.Coord{1, 50}) != 0 {
		t.Error("first slab wrong")
	}
	if b.NodeFor(array.Coord{100, 1}) != 3 {
		t.Error("last slab wrong")
	}
	if b.NodeFor(array.Coord{26, 1}) != 1 {
		t.Error("second slab wrong")
	}
	// Out-of-range coordinates clamp rather than panic.
	if n := b.NodeFor(array.Coord{1000, 1}); n != 3 {
		t.Errorf("clamped high = %d", n)
	}
	if n := b.NodeFor(array.Coord{-5, 1}); n != 0 {
		t.Errorf("clamped low = %d", n)
	}
}

func TestBlockCoversAllNodesProperty(t *testing.T) {
	f := func(v uint16) bool {
		b := Block{Nodes: 7, SplitDim: 0, High: 1000}
		n := b.NodeFor(array.Coord{int64(v%1000) + 1})
		return n >= 0 && n < 7
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHashScheme(t *testing.T) {
	grid := &array.Schema{Dims: []array.Dimension{{Name: "x", High: 64, ChunkLen: 8}, {Name: "y", High: 64, ChunkLen: 8}}}
	h := Bind(Hash{Nodes: 4, Dims: []int{0, 1}}, grid)
	// Deterministic.
	a := h.NodeFor(array.Coord{10, 10})
	if h.NodeFor(array.Coord{10, 10}) != a {
		t.Error("hash not deterministic")
	}
	// Bound to the grid: cells of the same 8x8 chunk land together.
	if h.NodeFor(array.Coord{9, 9}) != h.NodeFor(array.Coord{16, 16}) {
		t.Error("same chunk split across nodes")
	}
	// Roughly balanced across many chunks, and over the nodes' power-of-two
	// count although every origin is 1 more than a multiple of 8.
	counts := make([]int, 4)
	for i := int64(1); i <= 64; i++ {
		for j := int64(1); j <= 64; j += 8 {
			counts[h.NodeFor(array.Coord{i, j})]++
		}
	}
	for n, c := range counts {
		if c == 0 {
			t.Errorf("node %d got nothing", n)
		}
	}
}

func TestRangeScheme(t *testing.T) {
	r := Range{SplitDim: 0, Splits: []int64{10, 20, 30}, Nodes: 4}
	cases := map[int64]int{1: 0, 10: 0, 11: 1, 20: 1, 25: 2, 30: 2, 31: 3, 99: 3}
	for v, want := range cases {
		if got := r.NodeFor(array.Coord{v}); got != want {
			t.Errorf("NodeFor(%d) = %d, want %d", v, got, want)
		}
	}
}

func TestEpochScheme(t *testing.T) {
	// First scheme for time < 100, second for time >= 100.
	e := Epoch{
		TimeDim:    0,
		Boundaries: []int64{100},
		Schemes: []Scheme{
			Range{SplitDim: 1, Splits: []int64{50}, Nodes: 2},
			Range{SplitDim: 1, Splits: []int64{10}, Nodes: 2},
		},
	}
	if err := e.Validate(); err != nil {
		t.Fatal(err)
	}
	// Early epoch: y=30 -> node 0.
	if e.NodeFor(array.Coord{50, 30}) != 0 {
		t.Error("early epoch wrong")
	}
	// Late epoch: y=30 -> node 1 (split moved to 10).
	if e.NodeFor(array.Coord{150, 30}) != 1 {
		t.Error("late epoch wrong")
	}
	if e.NumNodes() != 2 {
		t.Errorf("NumNodes = %d", e.NumNodes())
	}
	bad := Epoch{TimeDim: 0, Boundaries: []int64{5, 5}, Schemes: []Scheme{nil, nil, nil}}
	if err := bad.Validate(); err == nil {
		t.Error("non-ascending boundaries accepted")
	}
	bad2 := Epoch{TimeDim: 0, Boundaries: []int64{5}, Schemes: []Scheme{nil}}
	if err := bad2.Validate(); err == nil {
		t.Error("mismatched schemes/boundaries accepted")
	}
}

// skewedWorkload builds an El Niño-style hotspot: most accesses hit a
// narrow band of the coordinate space.
func skewedWorkload(n int, hotLo, hotHi int64) []SampleAccess {
	rng := rand.New(rand.NewSource(5))
	var w []SampleAccess
	for i := 0; i < n; i++ {
		var y int64
		if rng.Float64() < 0.9 {
			y = hotLo + rng.Int63n(hotHi-hotLo+1)
		} else {
			y = rng.Int63n(1000) + 1
		}
		w = append(w, SampleAccess{Coord: array.Coord{int64(i + 1), y}, Weight: 1})
	}
	return w
}

func TestDesignerBalancesSkew(t *testing.T) {
	w := skewedWorkload(5000, 400, 420)
	fixed := Block{Nodes: 8, SplitDim: 1, High: 1000}
	fixedImb := Imbalance(fixed, w)
	designed, err := Design(w, 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	designedImb := Imbalance(designed, w)
	// The paper's claim: fixed partitioning cannot load-balance steerable
	// (skewed) workloads; the designer can.
	if fixedImb < 3 {
		t.Errorf("fixed imbalance = %.2f; hotspot should overload one node", fixedImb)
	}
	if designedImb > 2 {
		t.Errorf("designed imbalance = %.2f; designer should balance", designedImb)
	}
	if designedImb >= fixedImb {
		t.Errorf("designer (%.2f) should beat fixed (%.2f)", designedImb, fixedImb)
	}
}

func TestDesignerUniform(t *testing.T) {
	// Uniform sky-survey scan: fixed partitioning is already fine and the
	// designer should not be much worse.
	var w []SampleAccess
	for i := int64(1); i <= 1000; i++ {
		w = append(w, SampleAccess{Coord: array.Coord{1, i}, Weight: 1})
	}
	fixed := Block{Nodes: 4, SplitDim: 1, High: 1000}
	designed, err := Design(w, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if fi := Imbalance(fixed, w); fi > 1.05 {
		t.Errorf("fixed imbalance on uniform = %.3f", fi)
	}
	if di := Imbalance(designed, w); di > 1.2 {
		t.Errorf("designed imbalance on uniform = %.3f", di)
	}
}

func TestDesignErrors(t *testing.T) {
	if _, err := Design(nil, 0, 4); err == nil {
		t.Error("empty workload accepted")
	}
	if _, err := Design([]SampleAccess{{Coord: array.Coord{1}, Weight: 1}}, 0, 0); err == nil {
		t.Error("zero nodes accepted")
	}
	// More nodes than distinct values still yields a valid scheme.
	r, err := Design([]SampleAccess{{Coord: array.Coord{5}, Weight: 10}}, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if r.NumNodes() != 3 || len(r.Splits) != 2 {
		t.Errorf("scheme = %+v", r)
	}
	n := r.NodeFor(array.Coord{5})
	if n < 0 || n >= 3 {
		t.Errorf("NodeFor = %d", n)
	}
}

// TestDesignChunksSplitsAtChunkEnds: the chunk-grain designer cuts only at
// chunk ends, so its Range places every cell where its chunk goes; its loads
// are those of the chunks each node holds, and its heaviest node is the
// lightest contiguous runs of chunk columns allow — the hot column alone
// when that column outweighs a node's share.
func TestDesignChunksSplitsAtChunkEnds(t *testing.T) {
	grid := &array.Schema{Dims: []array.Dimension{{Name: "x", High: 8}, {Name: "y", High: 100, ChunkLen: 16}}}
	uniform := func() (w []SampleAccess) {
		for y := int64(1); y <= 100; y++ {
			w = append(w, SampleAccess{Coord: array.Coord{1, y}, Weight: 1})
		}
		return w
	}
	hot := append(uniform(), SampleAccess{Coord: array.Coord{3, 70}, Weight: 300})
	for _, c := range []struct {
		name     string
		w        []SampleAccess
		heaviest int64
	}{
		// 100 cells in columns of 16 (the last 4 long) over 4 nodes: runs of
		// 32 are the best contiguous cut.
		{"uniform", uniform(), 32},
		{"hot column", hot, 316},
	} {
		d, err := DesignChunks(c.w, grid, 1, 4)
		if err != nil {
			t.Fatal(err)
		}
		r := d.Scheme.(Range)
		if d.Name() != "range(dim=1,n=4)" || len(r.Splits) != 3 {
			t.Fatalf("%s: designed %s with splits %v", c.name, d.Name(), r.Splits)
		}
		for _, s := range r.Splits {
			if s%16 != 0 && s != 100 {
				t.Errorf("%s: split %d is no chunk end", c.name, s)
			}
		}
		for y := int64(1); y <= 100; y++ {
			if a, b := r.NodeFor(array.Coord{1, y}), d.NodeFor(array.Coord{1, y}); a != b {
				t.Errorf("%s: y %d on node %d by its range, %d by its chunk", c.name, y, a, b)
			}
		}
		if got := slices.Max(Loads(d, c.w)); got != c.heaviest {
			t.Errorf("%s: heaviest node %d, want %d (loads %v)", c.name, got, c.heaviest, Loads(d, c.w))
		}
	}
	if _, err := DesignChunks(nil, grid, 1, 4); err == nil {
		t.Error("empty workload accepted")
	}
}

func TestLoadsAndImbalance(t *testing.T) {
	w := []SampleAccess{
		{Coord: array.Coord{1}, Weight: 3},
		{Coord: array.Coord{100}, Weight: 1},
	}
	r := Range{SplitDim: 0, Splits: []int64{50}, Nodes: 2}
	loads := Loads(r, w)
	if loads[0] != 3 || loads[1] != 1 {
		t.Errorf("loads = %v", loads)
	}
	if got := Imbalance(r, w); got != 1.5 {
		t.Errorf("imbalance = %v, want 1.5", got)
	}
	if got := Imbalance(r, nil); got != 1 {
		t.Errorf("imbalance of empty workload = %v, want 1", got)
	}
}

// TestChunkedPlacesWholeChunks: bound to a grid whose bounds are no multiple
// of its chunks, a scheme cutting inside chunks places each chunk whole on
// the node of its origin; its box for a node is exactly the cells it
// places there, its pruning names every node a box touches, and binding
// again changes nothing.
func TestChunkedPlacesWholeChunks(t *testing.T) {
	grid := &array.Schema{Dims: []array.Dimension{{Name: "x", High: 100, ChunkLen: 16}, {Name: "y", High: 6, ChunkLen: 4}}}
	whole := array.WholeBox(grid)
	for _, base := range []Scheme{
		Block{Nodes: 3, SplitDim: 0, High: 100},
		Range{SplitDim: 0, Splits: []int64{40, 70}, Nodes: 3},
	} {
		b := Bind(base, grid)
		again := Bind(b, grid)
		if b.Name() != base.Name() || again.Name() != base.Name() {
			t.Errorf("bound names %q, %q; want the base's %q", b.Name(), again.Name(), base.Name())
		}
		boxes := make([]array.Box, 3)
		for n := range boxes {
			lo, hi, ok := b.BoxFor(n, whole.Lo, whole.Hi)
			if !ok {
				t.Fatalf("%s: node %d has no box", base.Name(), n)
			}
			boxes[n] = array.Box{Lo: lo, Hi: hi}
		}
		array.IterBox(whole, func(c array.Coord) bool {
			n := b.NodeFor(c)
			if o := b.OriginOf(c); n != base.NodeFor(o) || again.NodeFor(c) != n {
				t.Fatalf("%s: cell %v on node %d, its origin %v on %d", base.Name(), c, n, o, base.NodeFor(o))
			}
			for m, box := range boxes {
				if box.Contains(c) != (m == n) {
					t.Fatalf("%s: node %d's box %v and cell %v on node %d disagree", base.Name(), m, box, c, n)
				}
			}
			near := b.NodesForBox(array.Coord{c[0] - 20, 1}, c)
			if !slices.Contains(near, n) {
				t.Fatalf("%s: NodesForBox up to %v = %v, missing node %d", base.Name(), c, near, n)
			}
			return true
		})
	}
	h := Bind(Hash{Nodes: 3, Dims: []int{0, 1}}, grid)
	if _, _, ok := h.BoxFor(0, whole.Lo, whole.Hi); ok {
		t.Error("a bound hash scheme gave a node one box")
	}
	if got := h.NodesForBox(whole.Lo, whole.Hi); !slices.Equal(got, []int{0, 1, 2}) {
		t.Errorf("bound hash NodesForBox = %v, want every node", got)
	}
}
