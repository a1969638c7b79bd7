package core

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"scidb/internal/array"
	"scidb/internal/cluster"
	"scidb/internal/insitu"
	"scidb/internal/ops"
	"scidb/internal/partition"
	"scidb/internal/storage"
	"scidb/internal/udf"
)

// spreadAgg is max - min of an integer attribute: an aggregate outside the
// six with typed state, so a fold of it cannot travel as a partial table.
type spreadAgg struct {
	lo, hi int64
	any    bool
}

func (a *spreadAgg) Step(v array.Value) {
	if v.Null {
		return
	}
	if !a.any || v.Int < a.lo {
		a.lo = v.Int
	}
	if !a.any || v.Int > a.hi {
		a.hi = v.Int
	}
	a.any = true
}

func (a *spreadAgg) Result() array.Value {
	if !a.any {
		return array.NullValue(array.TInt64)
	}
	return array.Int64(a.hi - a.lo)
}

func backingSchema(name string) *array.Schema {
	return &array.Schema{
		Name: name,
		Dims: []array.Dimension{{Name: "x", High: 12}, {Name: "y", High: 10}},
		Attrs: []array.Attribute{
			{Name: "v", Type: array.TInt64},
			{Name: "w", Type: array.TFloat64},
			{Name: "big", Type: array.TInt64},
		},
	}
}

// backingCells is a 12x10 grid with v = 10x+y, w = x+y/100 and everything
// the backings could disagree on: a hole (x 5..6, y 3..4), scattered NULLs,
// a row whose v is NULL throughout (x = 9), a sparse row (x = 11 holds one
// cell) and an empty last row, so the declared High is not where cells end;
// a row whose w is NaN throughout (x = 8) and a stray NaN; and big, integers
// no float64 holds — just above 2^53 on even rows, just below MaxInt64 on
// odd ones (whose sums overflow, alike on every backing).
func backingCells(t *testing.T, name string) *array.Array {
	t.Helper()
	a := array.MustNew(backingSchema(name))
	for x := int64(1); x <= 11; x++ {
		for y := int64(1); y <= 10; y++ {
			if (x == 5 || x == 6) && (y == 3 || y == 4) || x == 11 && y != 2 {
				continue
			}
			v, w := array.Int64(x*10+y), array.Float64(float64(x)+float64(y)/100)
			if x == 9 || x == 2 && y == 2 || x == 7 && y == 7 {
				v = array.NullValue(array.TInt64)
			}
			if x == 3 && y == 3 {
				w = array.NullValue(array.TFloat64)
			}
			if x == 8 || x == 4 && y == 4 {
				w = array.Float64(math.NaN())
			}
			big := array.Int64(1<<53 + 1 + 2*y)
			if x%2 == 1 {
				big = array.Int64(math.MaxInt64 - x*10 - y)
			}
			if err := a.Set(array.Coord{x, y}, array.Cell{v, w, big}); err != nil {
				t.Fatal(err)
			}
		}
	}
	return a
}

// fourBackings registers the same cells as "D" (and no cells as "E") in
// four databases: a memory array, an attached store, an ATTACHed file and a
// 2-node persisted cluster array.
func fourBackings(t *testing.T) map[string]*Database {
	t.Helper()
	dbs := map[string]*Database{}
	for _, kind := range []string{"memory", "store", "file", "cluster"} {
		db := testDB()
		db.Registry().RegisterAggregate("spread", func() udf.Aggregate { return &spreadAgg{} })
		dbs[kind] = db
		var co *cluster.Coordinator
		if kind == "cluster" {
			tr := cluster.NewLocalWithOptions(2, cluster.WorkerOptions{
				Dir: t.TempDir(), CacheBytes: 8 << 20,
			})
			t.Cleanup(func() { tr.Close() })
			co = cluster.NewCoordinator(tr, 0)
			db.AttachCluster(co)
		}
		for _, name := range []string{"D", "E"} {
			a := array.MustNew(backingSchema(name))
			if name == "D" {
				a = backingCells(t, name)
			}
			// The store and the cluster hold D on a 4x4 chunk grid.
			grid := a.Schema.Clone()
			grid.Dims[0].ChunkLen, grid.Dims[1].ChunkLen = 4, 4
			var err error
			switch kind {
			case "memory":
				err = db.PutArray(name, a)
			case "store":
				var st *storage.Store
				st, err = storage.NewStore(grid, storage.Options{Dir: t.TempDir(), CacheBytes: 4 << 20})
				if err != nil {
					t.Fatal(err)
				}
				a.Iter(func(c array.Coord, cell array.Cell) bool {
					err = st.Put(c, cell)
					return err == nil
				})
				if err == nil {
					err = st.Flush()
				}
				if err == nil {
					err = db.AttachStore(name, st)
				}
			case "file":
				path := filepath.Join(t.TempDir(), name+".csv")
				if err = insitu.WriteCSV(path, a); err == nil {
					exec(t, db, "attach "+name+" from '"+path+"' using csv")
				}
			case "cluster":
				// Nodes split between x = 5 and 6: inside a storage bucket (x
				// 5..8) and inside the regrid tiles of stride 2 (x 5..6).
				err = co.Create(name, grid, partition.Block{Nodes: 2, SplitDim: 0, High: 10})
				a.Iter(func(c array.Coord, cell array.Cell) bool {
					if err == nil {
						err = co.Put(name, c, cell)
					}
					return err == nil
				})
				if err == nil {
					err = co.Flush(name)
				}
			}
			if err != nil {
				t.Fatalf("%s %s: %v", kind, name, err)
			}
		}
	}
	return dbs
}

// shapeAndCells renders what a statement's answer must agree on across
// backings: attribute names and types, dimension names and High, and every
// cell, in coordinate order whatever chunk grid the answer is on. Floats
// print to 12 digits, which is what merge order alone costs: every backing
// runs the one fold, but each chunks the cells its own way, so float sums
// add up and Welford states merge in a different order.
func shapeAndCells(a *array.Array) string {
	var b strings.Builder
	for _, d := range a.Schema.Dims {
		fmt.Fprintf(&b, "dim %s:%d ", d.Name, d.High)
	}
	for _, at := range a.Schema.Attrs {
		fmt.Fprintf(&b, "attr %s:%s ", at.Name, at.Type)
	}
	var cells []array.Coord
	rows := map[string]string{}
	a.Iter(func(c array.Coord, cell array.Cell) bool {
		var row strings.Builder
		for _, v := range cell {
			switch {
			case v.Null:
				fmt.Fprintf(&row, " %s:NULL", v.Type)
			case v.Type == array.TFloat64 && !math.IsNaN(v.Float):
				fmt.Fprintf(&row, " %.12g", v.Float)
			default:
				fmt.Fprintf(&row, " %s:%s", v.Type, v)
			}
		}
		cells = append(cells, c)
		rows[c.Key()] = row.String()
		return true
	})
	slices.SortFunc(cells, func(p, q array.Coord) int { return slices.Compare(p, q) })
	for _, c := range cells {
		fmt.Fprintf(&b, "\n%v%s", c, rows[c.Key()])
	}
	return b.String()
}

// TestOneStatementFourBackings: the paper's one operator set must answer
// the same over a loaded array, a store, an in-situ file and a grid — same
// cells, same attribute names and types, same dimension bounds.
func TestOneStatementFourBackings(t *testing.T) {
	dbs := fourBackings(t)
	for _, stmt := range []string{
		"D",
		"subsample(D, x <= 4 and y <= 4)",
		"subsample(D, x >= 3 and x <= 7 and y = 4)",
		"subsample(D, even(x))",
		"subsample(D, x >= 5 and x <= 8)",   // middle slab, y unconstrained
		"subsample(D, x >= 10 and x <= 12)", // slab whose cells end before its box does
		"subsample(D, x > 40)",              // empty box
		"aggregate(D, {}, max(v))",
		"aggregate(D, {}, max(v) as m)",
		"aggregate(D, {}, avg(w))",
		"aggregate(D, {}, count(*))",
		"aggregate(D, {x}, max(v))",
		"aggregate(D, {x}, max(v) as m)",
		"aggregate(D, {y}, sum(v) as s)",
		"aggregate(D, {x}, count(v))",
		"aggregate(D, {x, y}, min(w))",
		"aggregate(D, {x}, stdev(w) as sd)",
		"aggregate(D, {x}, sum(v), count(w) as n)",
		"aggregate(D, {x}, min(v), max(v), count(v))",
		"aggregate(D, {x}, min(w), max(w) as hi)", // x = 8 holds only NaNs, x = 4 one
		"aggregate(D, {}, min(w), max(w))",
		"aggregate(D, {x}, min(w))",
		"aggregate(D, {x}, min(big), max(big))", // exact above 2^53
		"aggregate(D, {x}, max(big))",
		"aggregate(D, {y}, sum(big) as s)",
		"aggregate(D, {}, sum(big), avg(big))",
		"regrid(D, [2, 3], avg(v))", // tiles straddle the node boundary
		"regrid(D, [2, 3], stdev(w) as sd)",
		"regrid(D, [5, 4], max(big))",
		"filter(regrid(D, [2, 3], avg(v) as m), m > 50)",
		"filter(aggregate(D, {x}, max(v) as m), m > 20)",
		"aggregate(filter(D, v > 0), {}, sum(v) as s, count(w))",      // prunes none
		"aggregate(subsample(D, x >= 3 and x <= 7), {}, sum(v) as s)", // box under an aggregate
		"E",
		"subsample(E, x <= 4)",
		"aggregate(E, {}, sum(v))",
		"aggregate(E, {x}, max(v) as m)",
		"regrid(E, [2, 3], avg(v))",
		"sjoin(D, E, D.x = E.x and D.y = E.y)", // an empty side
		"sjoin(D, D, D.x = D.x and D.y = D.y)", // a grid array with itself, across the node split
		"sjoin(D, D, D.y = D.y)",               // a pair that is not the split dimension
	} {
		sameOnFourBackings(t, dbs, stmt)
	}
	// The fragment's combinations core builds beyond a lone rule: a grand
	// total over a range-only subsample is folded, box and all, where the
	// cells are, and so is one over a filter (below). plan is what EXPLAIN
	// must show on the grid: the leaf that runs.
	const partials, gathered = "aggregate [per-node partials]\n└─ scan D [cluster]", "aggregate\n└─ subsample\n   └─ scan D [cluster]"
	const filtered = "aggregate\n└─ filter\n   └─ scan D [cluster]"
	for _, c := range []struct{ stmt, plan string }{
		{"aggregate(subsample(D, x >= 4 and x <= 7), {}, sum(v) as s)", partials + " box=[4:7,1:10]"}, // straddles the node split
		{"aggregate(subsample(D, x = 6 and y = 2), {}, max(v), count(w))", partials + " box=[6:6,2:2]"},
		{"aggregate(subsample(D, x = 5 and y = 3), {}, count(*))", partials + " box=[5:5,3:3]"}, // a box over the hole
		{"aggregate(subsample(D, x > 40), {}, sum(v), count(v))", partials + " box=[41:40,1:10]"},
		{"aggregate(subsample(D, x >= 2 and x <= 9), {}, sum(big), min(big), max(big), avg(big))", partials + " box=[2:9,1:10]"},
		{"aggregate(subsample(D, x >= 3 and x <= 8 and y > 1 and y < 9), {}, min(w), max(w), avg(w), stdev(w) as sd, count(w))", partials + " box=[3:8,2:8]"},
		{"aggregate(subsample(D, x >= 8 and x <= 8), {}, min(w), sum(w))", partials + " box=[8:8,1:10]"}, // NaNs only
		{"aggregate(subsample(D, x >= 1), {}, count(v), count(w))", partials},                            // a box that narrows nothing
		{"aggregate(subsample(D, x >= 4 and x <= 7), {}, spread(v))", gathered + " box=[4:7,1:10]"},      // no typed state
		{"aggregate(subsample(D, x >= 4 and x <= 7), {}, sum(v), spread(v) as r)", gathered + " box=[4:7,1:10]"},
		{"aggregate(subsample(D, x >= 4 and x <= 7), {x}, sum(v))", gathered + " box=[4:7,1:10]"}, // grouped: subsample re-indexes x
		{"aggregate(subsample(D, even(x)), {}, sum(v))", gathered},                                // no box to push
		{"aggregate(subsample(E, x >= 4 and x <= 7), {}, sum(v), count(v))", strings.ReplaceAll(partials, " D ", " E ") + " box=[4:7,1:10]"},
		// A grand total over a filter whose predicate is nothing but zone
		// conjuncts is filtered and folded where the cells are; the row is
		// occupied if the array holds any cell, passing or not.
		{"aggregate(filter(D, v > 80), {}, sum(v), count(v))", partials + " preds=v>80"},                         // some cells pass
		{"aggregate(filter(D, v > 1000), {}, sum(v), count(v))", partials + " preds=v>1000"},                     // none pass, every bucket is pruned: NULL sum, zero count
		{"aggregate(filter(E, v > 0), {}, count(v))", strings.ReplaceAll(partials, " D ", " E ") + " preds=v>0"}, // no cell, no row
		{"aggregate(filter(D, v >= 90), {}, count(v), count(w), avg(w))", partials + " preds=v>=90"},             // x = 9: v NULL throughout
		{"aggregate(filter(D, w >= 8), {}, count(w), min(w), max(w), sum(v))", partials + " preds=w>=8"},         // x = 8: NaNs pass >=
		{"aggregate(filter(D, w < 4), {}, count(*), stdev(w) as sd)", partials + " preds=w<4"},                   // a NULL and a stray NaN below
		{"aggregate(filter(D, v > 80 and w < 10.5), {}, sum(v), max(w))", partials + " preds=v>80 and w<10.5"},
		{"aggregate(filter(D, 30 < v), {}, sum(big), min(big), max(big), avg(big), count(big))", partials + " preds=v>30"},
		{"aggregate(filter(D, v > 80 or w < 3), {}, sum(v))", filtered},                  // not a conjunction
		{"aggregate(filter(D, v > 80 and x > 3), {}, sum(v))", filtered + " preds=v>80"}, // a dimension: the conjunct is a hint
		{"aggregate(filter(D, v + 1 > 3), {}, count(v))", filtered},                      // arithmetic
		{"aggregate(filter(D, v > 80), {}, spread(v))", filtered},                        // no typed state, and no NULL contract
		{"aggregate(filter(D, v > 80), {}, sum(v), spread(v) as r)", filtered},           //
		{"aggregate(filter(D, v > 80 and w < 10.5), {x}, count(v))", filtered},           // grouped: a pruned bucket's groups are unknown
	} {
		sameOnFourBackings(t, dbs, c.stmt)
		if got := exec(t, dbs["cluster"], "explain "+c.stmt).Msg; got != c.plan {
			t.Errorf("explain %s on the grid:\n%s\nwant:\n%s", c.stmt, got, c.plan)
		}
	}
	// Where every bucket is pruned no node sees a cell, and the buckets it
	// skipped are all that occupies the row.
	a, cells, seen, skipped, err := dbs["cluster"].cluster.Read(context.Background(), "D", ops.Fragment{
		Preds: []array.ZonePred{{Attr: 0, Op: ">", Val: array.Int64(1000)}},
		Fold:  &ops.FoldSpec{Aggs: []ops.AggSpec{{Agg: "count", Attr: "v"}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if cells != 0 || seen != 0 || skipped == 0 || a.Count() != 1 {
		t.Errorf("v > 1000 on the grid: %d cells of %d seen, %d buckets skipped, %d rows; want none seen, some skipped, one row", cells, seen, skipped, a.Count())
	}
}

// sameOnFourBackings runs stmt over the memory array and demands the same
// shape and cells from the store, the file and the grid.
func sameOnFourBackings(t *testing.T, dbs map[string]*Database, stmt string) {
	t.Helper()
	want := shapeAndCells(exec(t, dbs["memory"], stmt).Array)
	for _, kind := range []string{"store", "file", "cluster"} {
		r, err := dbs[kind].Exec(stmt)
		if err != nil {
			t.Errorf("%s over %s: %v", stmt, kind, err)
			continue
		}
		if got := shapeAndCells(r.Array); got != want {
			t.Errorf("%s over %s:\n%s\nover memory:\n%s", stmt, kind, got, want)
		}
	}
}

// countingTransport counts the calls that reach the grid.
type countingTransport struct {
	cluster.Transport
	calls atomic.Int64
}

func (c *countingTransport) Call(node int, req *cluster.Message) (*cluster.Message, error) {
	c.calls.Add(1)
	return c.Transport.Call(node, req)
}

// TestEmptyFilteredGatherIsOneRoundTrip: array-backed workers filter cell by
// cell and prune nothing, so when no cell passes the filter only the cells
// they saw can say the array is not empty. That rides the read's own
// responses — each node's table when the filter folds where the cells are,
// the gather's Seen when its cells are shipped (a dimension in the predicate)
// — one call per planned node, and the grand-total row is occupied (zero
// count, NULL sum) exactly as over the memory array.
func TestEmptyFilteredGatherIsOneRoundTrip(t *testing.T) {
	tr := &countingTransport{Transport: cluster.NewLocal(2)}
	defer tr.Close()
	co := cluster.NewCoordinator(tr, 0)
	db, mem := testDB(), testDB()
	db.AttachCluster(co)
	a := backingCells(t, "D")
	if err := mem.PutArray("D", a); err != nil {
		t.Fatal(err)
	}
	if err := co.Create("D", a.Schema, partition.Block{Nodes: 2, SplitDim: 0, High: 10}); err != nil {
		t.Fatal(err)
	}
	a.Iter(func(c array.Coord, cell array.Cell) bool {
		if err := co.Put("D", c, cell); err != nil {
			t.Fatal(err)
		}
		return true
	})
	if err := co.Flush("D"); err != nil {
		t.Fatal(err)
	}
	for _, stmt := range []string{
		"aggregate(filter(D, v > 1000), {}, count(v), sum(v))",
		"aggregate(filter(D, v > 1000 and x > 0), {}, count(v), sum(v))",
	} {
		before := tr.calls.Load()
		got := exec(t, db, stmt).Array
		if calls := tr.calls.Load() - before; calls != 2 {
			t.Errorf("%s made %d calls to a 2-node grid, want one per node", stmt, calls)
		}
		cell, ok := got.At(array.Coord{1})
		if !ok || cell[0].Null || cell[0].Int != 0 || !cell[1].Null {
			t.Errorf("%s = %v (occupied %v), want the occupied row: zero count, NULL sum", stmt, cell, ok)
		}
		if want := shapeAndCells(exec(t, mem, stmt).Array); shapeAndCells(got) != want {
			t.Errorf("%s on the grid:\n%s\nover memory:\n%s", stmt, shapeAndCells(got), want)
		}
	}
}

// TestLocalNameShadowsClusterArray: STORE may reuse a cluster array's name,
// and from then on the local array wins for every shape of statement —
// pushed down or not. (The cluster E is empty: a read that reaches it
// counts nothing.)
func TestLocalNameShadowsClusterArray(t *testing.T) {
	db := fourBackings(t)["cluster"]
	if err := db.PutArray("L", backingCells(t, "L")); err != nil {
		t.Fatal(err)
	}
	exec(t, db, "store filter(L, v > 100) into E")
	if got := exec(t, db, "E").Array.Count(); got != 97 {
		t.Errorf("bare E has %d cells, want the local array's 97", got)
	}
	for _, stmt := range []string{
		"aggregate(E, {}, count(v))",
		"aggregate(E, {}, count(v), sum(w))",
		"aggregate(project(E, v), {}, count(v))",
		"aggregate(filter(E, v > 0), {}, count(v))",
		"aggregate(subsample(E, x >= 1), {}, count(v))",
	} {
		cell, ok := exec(t, db, stmt).Array.At(array.Coord{1})
		if !ok || cell[0].Int != 11 {
			t.Errorf("%s = %v, want 11 (the local E)", stmt, cell)
		}
	}
	exec(t, db, "insert into E [12, 10] values (1210, 12.1, 7)")
	if cell, ok := exec(t, db, "aggregate(E, {}, count(v))").Array.At(array.Coord{1}); !ok || cell[0].Int != 12 {
		t.Errorf("count(v) after insert = %v, want 12 (the write must land where reads look)", cell)
	}
	if r := exec(t, db, "explain aggregate(E, {}, count(v))"); !strings.Contains(r.Msg, "scan E [memory]") {
		t.Errorf("plan does not read the local E:\n%s", r.Msg)
	}
}

// TestExplainShowsTheScanThatRuns: plain EXPLAIN renders each leaf through
// the same pushdown call execution uses, and EXPLAIN ANALYZE labels the
// leaf's span the same way.
func TestExplainShowsTheScanThatRuns(t *testing.T) {
	for kind, db := range fourBackings(t) {
		scan := "scan D [" + kind + "]"
		for _, c := range []struct{ stmt, want, never string }{
			{"subsample(D, x >= 3 and x <= 7 and y = 4)", scan + " box=[3:7,4:4]", "preds="},
			{"aggregate(filter(D, v > 80 and w < 10.5), {}, sum(v))", scan + " preds=v>80 and w<10.5", "box="},
			{"aggregate(filter(D, v > 80), {x}, sum(v))", scan, "preds="}, // grouped: nothing pushed
			{"subsample(project(D, v), x <= 4)", scan, "box="},            // not directly over the reference
		} {
			for _, explain := range []string{"explain ", "explain analyze "} {
				r := exec(t, db, explain+c.stmt)
				if !strings.Contains(r.Msg, c.want) || strings.Contains(r.Msg, c.never) {
					t.Errorf("%s%s: want %q and no %q in\n%s", explain, c.stmt, c.want, c.never, r.Msg)
				}
			}
		}
		for stmt, node := range map[string]string{
			"aggregate(D, {x}, max(v) as m)":                              "aggregate [per-node partials]",
			"aggregate(D, {x}, min(v), max(v), count(v))":                 "aggregate [per-node partials]",
			"regrid(D, [2, 3], avg(v))":                                   "regrid [per-node partials]",
			"filter(regrid(D, [2, 3], avg(v) as m), m > 50)":              "regrid [per-node partials]",
			"aggregate(subsample(D, x >= 3 and x <= 7), {}, sum(v) as s)": "aggregate [per-node partials]", // the box rides the fold
			"aggregate(filter(D, v > 80 and w < 10.5), {}, sum(v))":       "aggregate [per-node partials]", // and so do the predicates
		} {
			for _, explain := range []string{"explain ", "explain analyze "} {
				if partials := strings.Contains(exec(t, db, explain+stmt).Msg, node); partials != (kind == "cluster") {
					t.Errorf("%s: %s%s: %q in the plan = %v", kind, explain, stmt, node, partials)
				}
			}
		}
	}
}
