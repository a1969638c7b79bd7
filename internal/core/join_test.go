package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"scidb/internal/array"
	"scidb/internal/cluster"
	"scidb/internal/ops"
	"scidb/internal/parser"
	"scidb/internal/partition"
	"scidb/internal/storage"
)

// joinSchema is the join tests' grid: bounds that are not a multiple of the
// chunk lengths, so edge chunks are short on both dimensions, and a column
// of each kind a join copies — ints near 2^53 and MaxInt64, floats with NaN
// payloads, per-cell and shared error bars, strings.
func joinSchema(name string) *array.Schema {
	return &array.Schema{
		Name: name,
		Dims: []array.Dimension{{Name: "x", High: 19, ChunkLen: 4}, {Name: "y", High: 13, ChunkLen: 5}},
		Attrs: []array.Attribute{
			{Name: "i", Type: array.TInt64},
			{Name: "f", Type: array.TFloat64},
			{Name: "u", Type: array.TFloat64, Uncertain: true},
			{Name: "e", Type: array.TFloat64, Uncertain: true},
			{Name: "s", Type: array.TString},
		},
	}
}

// joinCells fills an array of s a chunk at a time: each slot present with
// probability density/8, a present value NULL one time in six, and every
// third chunk's e column sharing one error bar.
func joinCells(s *array.Schema, rng *rand.Rand, density int) *array.Array {
	a := array.MustNew(s)
	nan := math.Float64frombits(0x7ff8_0000_dead_beef)
	for x := int64(1); x <= 19; x += 4 {
		for y := int64(1); y <= 13; y += 5 {
			origin := array.Coord{x, y}
			ch := array.NewChunk(s, origin, a.GridShape(origin))
			array.IterBox(ch.Box(), func(c array.Coord) bool {
				if c[1] > 13 || rng.Intn(8) >= density {
					return true
				}
				cell := array.Cell{
					array.Int64([]int64{1<<53 + 1, -(1 << 53) - 1, math.MaxInt64, math.MinInt64 + 1, 7}[rng.Intn(5)] - rng.Int63n(3)),
					array.Float64([]float64{nan, math.Inf(1), math.Copysign(0, -1), rng.NormFloat64()}[rng.Intn(4)]),
					array.UncertainFloat(rng.NormFloat64(), float64(rng.Intn(5))/4),
					array.UncertainFloat(rng.NormFloat64(), 0.5),
					array.String64([]string{"", "east", "west"}[rng.Intn(3)]),
				}
				if rng.Intn(6) == 0 {
					k := rng.Intn(len(cell))
					cell[k] = array.NullValue(cell[k].Type)
				}
				if err := ch.Set(c, cell); err != nil {
					panic(err)
				}
				return true
			})
			if (x+y)%3 == 0 {
				ch.Cols[3].HasShared, ch.Cols[3].SharedSigma = true, 0.25
			}
			if ch.CellsPresent() > 0 {
				a.PutChunk(ch)
			}
		}
	}
	return a
}

// joinGrid holds the join tests' arrays as memory arrays in mem and, on a
// 3-node grid whose coordinator ships every put at once, as cluster arrays
// in grid: each chunk loaded as a bucket on its owner, then a few puts that
// stay in the owners' write buffers, over flushed buckets, at origin (5, 6).
func joinGrid(t *testing.T) (mem, grid *Database, co *cluster.Coordinator) {
	t.Helper()
	tr := cluster.NewLocalWithOptions(3, cluster.WorkerOptions{Dir: t.TempDir(), CacheBytes: 4 << 20})
	t.Cleanup(func() { tr.Close() })
	co = cluster.NewCoordinator(tr, 1)
	mem, grid = testDB(), testDB()
	grid.AttachCluster(co)
	rng := rand.New(rand.NewSource(3))
	block := partition.Block{Nodes: 3, SplitDim: 0, High: 19}
	l, r := joinCells(joinSchema("L"), rng, 6), joinCells(joinSchema("R"), rng, 3)
	unbounded := joinSchema("U")
	unbounded.Dims[1].High = array.Unbounded
	for _, c := range []struct {
		a      *array.Array
		s      *array.Schema
		scheme partition.Scheme
	}{
		{l, l.Schema, block},
		{r, r.Schema, block},
		{r, joinSchema("P"), block}, // routed below
		{r, joinSchema("C"), partition.Block{Nodes: 3, SplitDim: 0, High: 12}}, // another cut
		{r, unbounded, block}, // an unbounded dimension
		{array.MustNew(joinSchema("Z")), joinSchema("Z"), block}, // no cells
	} {
		loadJoinArray(t, mem, co, c.a, c.s, c.scheme)
	}
	// Puts over flushed buckets: the origin then has two versions on its
	// node, and the memory twin takes the same cells.
	for _, name := range []string{"L", "R"} {
		a, err := mem.Array(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []array.Coord{{5, 6}, {6, 7}, {8, 10}} {
			cell := array.Cell{array.Int64(math.MaxInt64), array.Float64(-1.5), array.UncertainFloat(2, 0.75),
				array.UncertainFloat(3, 0.5), array.String64("put")}
			if err := co.Put(name, c, cell); err != nil {
				t.Fatal(err)
			}
			if err := a.Set(c, cell); err != nil {
				t.Fatal(err)
			}
		}
	}
	return mem, grid, co
}

// loadJoinArray registers a's cells under s as a memory array of mem and a
// cluster array of co placed by scheme, each chunk adopted by its owner.
func loadJoinArray(t *testing.T, mem *Database, co *cluster.Coordinator, a *array.Array, s *array.Schema, scheme partition.Scheme) {
	t.Helper()
	if err := co.Create(s.Name, s, scheme); err != nil {
		t.Fatal(err)
	}
	bound, err := co.Scheme(s.Name)
	if err != nil {
		t.Fatal(err)
	}
	// Chunks of another grid (U's unbounded y) are laid out again by cell.
	local, onGrid := array.MustNew(s), true
	for _, ch := range a.Chunks() {
		onGrid = onGrid && slices.Equal(ch.Shape, local.GridShape(ch.Origin))
	}
	if onGrid {
		for _, ch := range a.Chunks() {
			local.PutChunk(ch.Clone())
		}
	} else {
		a.Iter(func(c array.Coord, cell array.Cell) bool {
			err = local.Set(c, cell)
			return err == nil
		})
	}
	if err != nil {
		t.Fatal(err)
	}
	for _, ch := range local.Chunks() {
		payload, err := storage.EncodeChunk(s, ch)
		if err != nil {
			t.Fatal(err)
		}
		if err := co.LoadChunks(s.Name, bound.NodeFor(ch.Origin), [][]byte{payload}); err != nil {
			t.Fatal(err)
		}
	}
	if err := mem.PutArray(s.Name, local); err != nil {
		t.Fatal(err)
	}
}

// requireSameJoin holds got to want: the same schema and cells, floats and
// error bars to the bit.
func requireSameJoin(t *testing.T, label string, got, want *array.Array) {
	t.Helper()
	if !reflect.DeepEqual(got.Schema, want.Schema) {
		t.Fatalf("%s: schema %+v, want %+v", label, got.Schema, want.Schema)
	}
	if got.Count() != want.Count() {
		t.Fatalf("%s: %d cells, want %d", label, got.Count(), want.Count())
	}
	want.Iter(func(c array.Coord, cell array.Cell) bool {
		g, ok := got.PeekAt(c)
		if !ok {
			t.Fatalf("%s: cell %v missing", label, c)
		}
		for k, v := range cell {
			w := g[k]
			if v.Null != w.Null || !v.Null && (v.Int != w.Int || math.Float64bits(v.Float) != math.Float64bits(w.Float) ||
				v.Str != w.Str || math.Float64bits(v.Sigma) != math.Float64bits(w.Sigma)) {
				t.Fatalf("%s: cell %v attribute %d is %+v, want %+v", label, c, k, w, v)
			}
		}
		return true
	})
}

// gatheredJoin runs stmt's sjoin as it runs when no rule pushes it: both
// inputs read whole, then joined here.
func gatheredJoin(t *testing.T, db *Database, stmt string) *array.Array {
	t.Helper()
	parsed, err := parser.Parse(stmt)
	if err != nil {
		t.Fatal(err)
	}
	p, err := db.lower(parsed.(*parser.Query).Expr)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	in := make([]*array.Array, 2)
	for i := range in {
		if in[i], err = db.eval(ctx, p.in[i]); err != nil {
			t.Fatal(err)
		}
	}
	out, err := p.run(ctx, in)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestPushedJoinMatchesGatherAndMemory holds every sjoin that rule 5 pushes
// to the nodes to the same statement gathered and to the memory backing,
// cell for cell and schema included; and every sjoin it must not push —
// one side routed after a rebalance moved a chunk, another Block cut, an
// unbounded dimension, a pair list that skips a dimension — EXPLAINs as a
// gather and answers what memory does.
func TestPushedJoinMatchesGatherAndMemory(t *testing.T) {
	mem, grid, co := joinGrid(t)
	// Route P, and move a chunk of it: read one chunk until it is hot.
	if _, err := co.EnableRouting("P"); err != nil {
		t.Fatal(err)
	}
	hot := ops.Fragment{Box: array.Box{Lo: array.Coord{1, 1}, Hi: array.Coord{4, 5}}}
	for range 20 {
		if _, _, _, _, err := co.Read(context.Background(), "P", hot); err != nil {
			t.Fatal(err)
		}
	}
	if moved, _, err := co.RebalanceOnce("P", cluster.RebalanceOptions{TopK: 1}); err != nil || moved == 0 {
		t.Fatalf("RebalanceOnce moved %d chunks: %v", moved, err)
	}
	for _, c := range []struct {
		stmt   string
		pushed bool
	}{
		{"sjoin(L, R, L.x = R.x and L.y = R.y)", true},
		{"sjoin(R, L, R.x = L.x and R.y = L.y)", true},
		{"sjoin(L, R, L.y = R.y and L.x = R.x)", true}, // the pairs listed out of order
		{"sjoin(L, L, L.x = L.x and L.y = L.y)", true}, // a self-join
		{"sjoin(L, Z, L.x = Z.x and L.y = Z.y)", true}, // an empty side
		{"sjoin(Z, R, Z.x = R.x and Z.y = R.y)", true},
		{"sjoin(L, P, L.x = P.x and L.y = P.y)", false}, // P is routed
		{"sjoin(L, C, L.x = C.x and L.y = C.y)", false}, // C is cut elsewhere
		{"sjoin(L, U, L.x = U.x and L.y = U.y)", false}, // U's y is unbounded
		{"sjoin(U, L, U.x = L.x and U.y = L.y)", false},
		{"sjoin(L, R, L.x = R.x)", false},               // y is not paired
		{"sjoin(L, R, L.x = R.y and L.y = R.x)", false}, // nor in its own position
	} {
		plan := exec(t, grid, "explain "+c.stmt).Msg
		if head, _, _ := strings.Cut(plan, "\n"); (head == "sjoin [per-node chunk pairs]") != c.pushed || !c.pushed && head != "sjoin" {
			t.Errorf("explain %s:\n%s\nwant it pushed: %v", c.stmt, plan, c.pushed)
		}
		got := exec(t, grid, c.stmt).Array
		requireSameJoin(t, c.stmt+" against memory", got, exec(t, mem, c.stmt).Array)
		if c.pushed {
			requireSameJoin(t, c.stmt+" against its gather", got, gatheredJoin(t, grid, c.stmt))
			// The profile shows the read of the pair, with the nodes' spans.
			if prof := exec(t, grid, "explain analyze "+c.stmt).Msg; !strings.Contains(prof, "sjoin [per-node chunk pairs]") ||
				!strings.Contains(prof, "node 2: read join") {
				t.Errorf("explain analyze %s:\n%s", c.stmt, prof)
			}
		}
	}
}

// TestPushedJoinGathersOncePlacedApart plans sjoin(L, R) while the two are
// co-placed, so rule 5 pushes it, then routes R and moves a chunk of it
// before the plan runs: the read answers cluster.ErrNotCoPlaced, and the
// join gathers both inputs instead and answers what memory does.
func TestPushedJoinGathersOncePlacedApart(t *testing.T) {
	mem, grid, co := joinGrid(t)
	const stmt = "sjoin(L, R, L.x = R.x and L.y = R.y)"
	parsed, err := parser.Parse(stmt)
	if err != nil {
		t.Fatal(err)
	}
	p, err := grid.lower(parsed.(*parser.Query).Expr)
	if err != nil {
		t.Fatal(err)
	}
	if p.frag.Join != "R" {
		t.Fatalf("%s was not pushed: %q", stmt, p.label())
	}
	if _, err := co.EnableRouting("R"); err != nil {
		t.Fatal(err)
	}
	hot := ops.Fragment{Box: array.Box{Lo: array.Coord{1, 1}, Hi: array.Coord{4, 5}}}
	for range 20 {
		if _, _, _, _, err := co.Read(context.Background(), "R", hot); err != nil {
			t.Fatal(err)
		}
	}
	if moved, _, err := co.RebalanceOnce("R", cluster.RebalanceOptions{TopK: 1}); err != nil || moved == 0 {
		t.Fatalf("RebalanceOnce moved %d chunks: %v", moved, err)
	}
	if _, _, _, _, err := co.Read(context.Background(), "L", ops.Fragment{Join: "R"}); !errors.Is(err, cluster.ErrNotCoPlaced) {
		t.Fatalf("a join read of L and the routed R: %v, want ErrNotCoPlaced", err)
	}
	got, err := grid.eval(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	requireSameJoin(t, stmt+" planned before R was routed", got, exec(t, mem, stmt).Array)
}

// TestStoreForgetsKeptPayloads: a pushed sjoin over a 3-node grid gathers
// chunks that keep their workers' payloads, and `store … into T` keeps the
// result as a memory array: no chunk of T may hold a kept payload (each
// would pin its whole response frame), and T reads the cells memory does.
func TestStoreForgetsKeptPayloads(t *testing.T) {
	mem, grid, _ := joinGrid(t)
	const stmt = "sjoin(L, R, L.x = R.x and L.y = R.y)"
	kept := 0
	for _, ch := range exec(t, grid, stmt).Array.Chunks() {
		if _, p := ch.Encoded(); p != nil {
			kept++
		}
	}
	if kept == 0 {
		t.Fatalf("%s gathered no chunk that keeps its payload: the test shows nothing", stmt)
	}
	exec(t, grid, "store "+stmt+" into T")
	exec(t, mem, "store "+stmt+" into T")
	got, err := grid.Array("T")
	if err != nil {
		t.Fatal(err)
	}
	for _, ch := range got.Chunks() {
		if _, p := ch.Encoded(); p != nil {
			t.Errorf("stored chunk at %v keeps a payload of %d bytes", ch.Origin, len(p))
		}
	}
	want, err := mem.Array("T")
	if err != nil {
		t.Fatal(err)
	}
	requireSameJoin(t, "store "+stmt+" into T", got, want)
}
