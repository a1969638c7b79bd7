package partition

import (
	"reflect"
	"testing"

	"scidb/internal/array"
)

func testRouting(t *testing.T) *Routing {
	t.Helper()
	grid := &array.Schema{Dims: []array.Dimension{{Name: "x", High: 192, ChunkLen: 64}, {Name: "y", High: 192, ChunkLen: 64}}}
	return NewRouting(Bind(Block{Nodes: 3, SplitDim: 0, High: 192}, grid))
}

func TestRoutingOriginAndChunkBox(t *testing.T) {
	rt := testRouting(t)
	for _, tc := range []struct {
		c    array.Coord
		want array.Coord
	}{
		{array.Coord{1, 1}, array.Coord{1, 1}},
		{array.Coord{64, 64}, array.Coord{1, 1}},
		{array.Coord{65, 1}, array.Coord{65, 1}},
		{array.Coord{130, 70}, array.Coord{129, 65}},
		{array.Coord{0, -5}, array.Coord{1, 1}}, // clamped below the grid
	} {
		if got := rt.Base().OriginOf(tc.c); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("OriginOf(%v) = %v, want %v", tc.c, got, tc.want)
		}
	}
	box := rt.Base().ChunkBox(array.Coord{65, 129})
	want := array.Box{Lo: array.Coord{65, 129}, Hi: array.Coord{128, 192}}
	if !reflect.DeepEqual(box, want) {
		t.Errorf("ChunkBox = %v, want %v", box, want)
	}
}

func TestRoutingOverridesAndVersion(t *testing.T) {
	rt := testRouting(t)
	if rt.Version() != 0 {
		t.Fatalf("fresh table version = %d, want 0", rt.Version())
	}
	// Unrouted: base placement, single-node replica set.
	c := array.Coord{100, 10}
	baseOwner := rt.Base().NodeFor(c)
	if got := rt.NodeFor(c); got != baseOwner {
		t.Fatalf("unrouted NodeFor = %d, want base %d", got, baseOwner)
	}
	if got := rt.NodesFor(c); !reflect.DeepEqual(got, []int{baseOwner}) {
		t.Fatalf("unrouted NodesFor = %v, want [%d]", got, baseOwner)
	}
	// Override the chunk: any coordinate inside it re-routes, version bumps.
	if err := rt.SetNodes(c, []int{2, 0}); err != nil || rt.Version() != 1 {
		t.Fatalf("SetNodes: version %d, %v", rt.Version(), err)
	}
	if got := rt.NodeFor(array.Coord{70, 60}); got != 2 {
		t.Errorf("routed NodeFor = %d, want owner 2", got)
	}
	if got := rt.NodesFor(array.Coord{128, 64}); !reflect.DeepEqual(got, []int{2, 0}) {
		t.Errorf("routed NodesFor = %v, want [2 0]", got)
	}
	// Coordinates outside the chunk are untouched.
	if got := rt.NodeFor(array.Coord{1, 1}); got != rt.Base().NodeFor(array.Coord{1, 1}) {
		t.Errorf("neighbour chunk rerouted: NodeFor = %d", got)
	}
	// Invalid overrides are rejected without a version bump.
	for _, nodes := range [][]int{nil, {3}, {-1}, {1, 1}} {
		if err := rt.SetNodes(c, nodes); err == nil {
			t.Errorf("SetNodes(%v) accepted", nodes)
		}
	}
	if rt.Version() != 1 {
		t.Errorf("rejected overrides bumped version to %d", rt.Version())
	}
}

func TestRoutingOverridesInAndPruning(t *testing.T) {
	rt := testRouting(t)
	if err := rt.SetNodes(array.Coord{1, 1}, []int{1}); err != nil {
		t.Fatal(err)
	}
	if err := rt.SetNodes(array.Coord{129, 129}, []int{0, 1}); err != nil {
		t.Fatal(err)
	}
	in := rt.OverridesIn(array.NewBox(array.Coord{1, 1}, array.Coord{64, 64}))
	if len(in) != 1 || !reflect.DeepEqual(in[0].Origin, array.Coord{1, 1}) {
		t.Fatalf("OverridesIn(first chunk) = %+v", in)
	}
	// Base pruning keeps working, unioned with override nodes: the box below
	// covers only base node 2's slab (rows 129-192), but chunk (1,1) was
	// moved to node 1 — it must not appear, while chunk (129,129)'s replica
	// set must.
	got := rt.NodesForBox(array.Coord{129, 1}, array.Coord{192, 192})
	if !reflect.DeepEqual(got, []int{0, 1, 2}) {
		t.Errorf("NodesForBox = %v, want [0 1 2]", got)
	}
	got = rt.NodesForBox(array.Coord{129, 1}, array.Coord{192, 64})
	if !reflect.DeepEqual(got, []int{2}) {
		t.Errorf("NodesForBox (no overrides in box) = %v, want [2]", got)
	}
}

// Routing must satisfy the interfaces the coordinator type-asserts.
var (
	_ Scheme = (*Routing)(nil)
	_ Pruner = (*Routing)(nil)
)
