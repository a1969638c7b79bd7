package core

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"scidb/internal/array"
	"scidb/internal/cluster"
	"scidb/internal/partition"
	"scidb/internal/provenance"
	"scidb/internal/ssdb"
)

// ssdbStatements are the ten statement shapes of the standing benchmark
// (bench/workloads.go): the four of its pushdown workloads and the six of
// its gather workload, of which Q7's sjoin runs on the nodes too, with the
// slab offsets fixed.
var ssdbStatements = []string{
	"aggregate(raw, {}, avg(dn))",
	"aggregate(raw, {pass}, max(dn))",
	"aggregate(cooked, {x}, avg(radiance))",
	"aggregate(filter(cooked, radiance > 13), {}, count(radiance))",
	"aggregate(subsample(raw, pass = 1 and x >= 9 and x <= 24 and y >= 9 and y <= 24), {}, avg(dn))",
	"regrid(cooked, [8, 8], avg(radiance))",
	"aggregate(subsample(cooked, x >= 7 and x <= 26 and y >= 7 and y <= 26), {}, sum(radiance))",
	"sjoin(catalog, cooked, catalog.x = cooked.x and catalog.y = cooked.y)",
	"filter(regrid(cooked, [8, 8], avg(radiance) as mean), mean > 13)",
	"window(subsample(cooked, x <= 64 and y <= 64), [1, 1], avg(radiance))",
}

// ssdbDatabases holds SS-DB's raw, cooked and catalog at 32² once as memory
// arrays and once block-partitioned on x over a 2-node grid, each dimension
// bounded where its cells end, as the benchmark loads them.
func ssdbDatabases(t *testing.T) (mem, grid *Database) {
	t.Helper()
	ds, err := ssdb.Setup(ssdb.Config{Size: 32, Passes: 2, Seed: 7, Threshold: 13, Tile: 8})
	if err != nil {
		t.Fatal(err)
	}
	tr := cluster.NewLocal(2)
	t.Cleanup(func() { tr.Close() })
	co := cluster.NewCoordinator(tr, 0)
	mem, grid = testDB(), testDB()
	grid.AttachCluster(co)
	for name, a := range map[string]*array.Array{"raw": ds.Raw, "cooked": ds.Cooked, "catalog": ds.Catalog} {
		sch := a.Schema.Clone()
		sch.Name = name
		for i := range sch.Dims {
			if sch.Dims[i].High == array.Unbounded {
				sch.Dims[i].High = a.Hwm(i)
			}
		}
		x := sch.DimIndex("x")
		if err := co.Create(name, sch, partition.Block{Nodes: 2, SplitDim: x, High: sch.Dims[x].High}); err != nil {
			t.Fatal(err)
		}
		local := array.MustNew(sch)
		a.Iter(func(c array.Coord, cell array.Cell) bool {
			if err = co.Put(name, c.Clone(), cell); err == nil {
				err = local.Set(c.Clone(), cell)
			}
			return err == nil
		})
		if err == nil {
			err = co.Flush(name)
		}
		if err == nil {
			err = mem.PutArray(name, local)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	return mem, grid
}

// TestExplainSSDBGolden pins plain EXPLAIN of the benchmark's statements on
// the grid and over memory arrays, byte for byte.
func TestExplainSSDBGolden(t *testing.T) {
	mem, grid := ssdbDatabases(t)
	var b strings.Builder
	for _, db := range []*Database{grid, mem} {
		for _, stmt := range ssdbStatements {
			fmt.Fprintf(&b, "> %s\n%s\n", stmt, exec(t, db, "explain "+stmt).Msg)
		}
	}
	if got := b.String(); got != ssdbExplainGolden {
		t.Errorf("EXPLAIN of the SS-DB statements:\n%s\nwant:\n%s", got, ssdbExplainGolden)
	}
}

const ssdbExplainGolden = `> aggregate(raw, {}, avg(dn))
aggregate [per-node partials]
└─ scan raw [cluster]
> aggregate(raw, {pass}, max(dn))
aggregate [per-node partials]
└─ scan raw [cluster]
> aggregate(cooked, {x}, avg(radiance))
aggregate [per-node partials]
└─ scan cooked [cluster]
> aggregate(filter(cooked, radiance > 13), {}, count(radiance))
aggregate [per-node partials]
└─ scan cooked [cluster] preds=radiance>13
> aggregate(subsample(raw, pass = 1 and x >= 9 and x <= 24 and y >= 9 and y <= 24), {}, avg(dn))
aggregate [per-node partials]
└─ scan raw [cluster] box=[1:1,9:24,9:24]
> regrid(cooked, [8, 8], avg(radiance))
regrid [per-node partials]
└─ scan cooked [cluster]
> aggregate(subsample(cooked, x >= 7 and x <= 26 and y >= 7 and y <= 26), {}, sum(radiance))
aggregate [per-node partials]
└─ scan cooked [cluster] box=[7:26,7:26]
> sjoin(catalog, cooked, catalog.x = cooked.x and catalog.y = cooked.y)
sjoin [per-node chunk pairs]
├─ scan catalog [cluster]
└─ scan cooked [cluster]
> filter(regrid(cooked, [8, 8], avg(radiance) as mean), mean > 13)
filter
└─ regrid [per-node partials]
   └─ scan cooked [cluster]
> window(subsample(cooked, x <= 64 and y <= 64), [1, 1], avg(radiance))
window
└─ subsample
   └─ scan cooked [cluster]
> aggregate(raw, {}, avg(dn))
aggregate
└─ scan raw [memory]
> aggregate(raw, {pass}, max(dn))
aggregate
└─ scan raw [memory]
> aggregate(cooked, {x}, avg(radiance))
aggregate
└─ scan cooked [memory]
> aggregate(filter(cooked, radiance > 13), {}, count(radiance))
aggregate
└─ filter
   └─ scan cooked [memory] preds=radiance>13
> aggregate(subsample(raw, pass = 1 and x >= 9 and x <= 24 and y >= 9 and y <= 24), {}, avg(dn))
aggregate
└─ subsample
   └─ scan raw [memory] box=[1:1,9:24,9:24]
> regrid(cooked, [8, 8], avg(radiance))
regrid
└─ scan cooked [memory]
> aggregate(subsample(cooked, x >= 7 and x <= 26 and y >= 7 and y <= 26), {}, sum(radiance))
aggregate
└─ subsample
   └─ scan cooked [memory] box=[7:26,7:26]
> sjoin(catalog, cooked, catalog.x = cooked.x and catalog.y = cooked.y)
sjoin
├─ scan catalog [memory]
└─ scan cooked [memory]
> filter(regrid(cooked, [8, 8], avg(radiance) as mean), mean > 13)
filter
└─ regrid
   └─ scan cooked [memory]
> window(subsample(cooked, x <= 64 and y <= 64), [1, 1], avg(radiance))
window
└─ subsample
   └─ scan cooked [memory]
`

// countedGrid is backingCells as D on a 2-node grid whose calls are counted,
// and the same cells as a memory array in a second database.
func countedGrid(t *testing.T) (grid, mem *Database, tr *countingTransport) {
	t.Helper()
	tr = &countingTransport{Transport: cluster.NewLocal(2)}
	t.Cleanup(func() { tr.Close() })
	co := cluster.NewCoordinator(tr, 0)
	grid, mem = testDB(), testDB()
	grid.AttachCluster(co)
	a := backingCells(t, "D")
	if err := mem.PutArray("D", a); err != nil {
		t.Fatal(err)
	}
	// Chunks 5 long on x: the block scheme's two slabs are whole chunk
	// columns, so both nodes hold cells.
	s := a.Schema.Clone()
	s.Dims[0].ChunkLen = 5
	if err := co.Create("D", s, partition.Block{Nodes: 2, SplitDim: 0, High: 10}); err != nil {
		t.Fatal(err)
	}
	var err error
	a.Iter(func(c array.Coord, cell array.Cell) bool {
		err = co.Put("D", c, cell)
		return err == nil
	})
	if err == nil {
		err = co.Flush("D")
	}
	if err != nil {
		t.Fatal(err)
	}
	return grid, mem, tr
}

// TestStoreMakesItsQuerysGridCalls: a STORE logs its derivation from the
// plan that ran, so it reads the grid no more often than its query does.
func TestStoreMakesItsQuerysGridCalls(t *testing.T) {
	db, _, tr := countedGrid(t)
	for i, q := range []string{
		"aggregate(D, {}, count(v))",
		"aggregate(D, {x}, sum(v))",
		"regrid(D, [2, 2], sum(v))",
		"subsample(D, x >= 3)",
		"filter(D, v > 50)",
	} {
		before := tr.calls.Load()
		exec(t, db, q)
		query := tr.calls.Load() - before
		before = tr.calls.Load()
		exec(t, db, fmt.Sprintf("store %s into S%d", q, i))
		if store := tr.calls.Load() - before; store != query {
			t.Errorf("store %s made %d grid calls, its query %d", q, store, query)
		}
	}
	// Below a pushed fold nothing ran, and an unbounded dimension's extent
	// is only where its cells end: that one read remains, one call a node.
	exec(t, db, "define array TU (v = int64) (x, y)")
	exec(t, db, "create array U as TU [8, *]")
	exec(t, db, "insert into U [3, 40] values (1)")
	exec(t, db, "insert into U [6, 7] values (2)")
	before := tr.calls.Load()
	exec(t, db, "store aggregate(U, {x}, sum(v)) into SU")
	if calls := tr.calls.Load() - before; calls != 4 {
		t.Errorf("store over an unbounded dimension made %d grid calls, want the fold's 2 and one bounds read's 2", calls)
	}
	cmds := db.Provenance().Commands()
	if cmd := cmds[len(cmds)-1]; fmt.Sprint(cmd.InBounds, cmd.InDims, cmd.GroupDims) != "[8 40] 2 [0]" {
		t.Errorf("logged InBounds %v, InDims %d, GroupDims %v; want [8 40], 2, [0]", cmd.InBounds, cmd.InDims, cmd.GroupDims)
	}
}

// TestReDeriveAcrossNestedStore: a correction to D re-derives a STORE whose
// input was an intermediate never stored, to the cells a fresh STORE holds.
func TestReDeriveAcrossNestedStore(t *testing.T) {
	grid, mem, _ := countedGrid(t)
	const q = "regrid(apply(D, w2 = v * 2), [2, 2], sum(w2))"
	for kind, db := range map[string]*Database{"memory": mem, "cluster": grid} {
		exec(t, db, "store "+q+" into Nested")
		exec(t, db, "insert into D [3, 4] values (999, 3.04, 7)")
		if _, err := db.ReDerive(provenance.CellRef{Array: "D", Coord: array.Coord{3, 4}}); err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		exec(t, db, "store "+q+" into Fresh")
		nested, _ := db.Array("Nested")
		fresh, _ := db.Array("Fresh")
		if got, want := shapeAndCells(nested), shapeAndCells(fresh); got != want {
			t.Errorf("%s: re-derived Nested:\n%s\nfrom scratch:\n%s", kind, got, want)
		}
	}
}

// TestTraceBackThroughNestedAggregate: a grouped aggregate over an apply
// traces back to the same cells of D as the aggregate over D itself.
func TestTraceBackThroughNestedAggregate(t *testing.T) {
	grid, mem, _ := countedGrid(t)
	for kind, db := range map[string]*Database{"memory": mem, "cluster": grid} {
		exec(t, db, "store aggregate(apply(D, w2 = v * 2), {x}, sum(w2)) into AG")
		exec(t, db, "store aggregate(D, {x}, sum(v)) into AF")
		refsOfD := func(out string) []string {
			steps, err := db.Provenance().TraceBack(provenance.CellRef{Array: out, Coord: array.Coord{2}})
			if err != nil {
				t.Fatal(err)
			}
			var refs []string
			for _, s := range steps {
				for _, r := range s.Refs {
					if r.Array == "D" {
						refs = append(refs, r.String())
					}
				}
			}
			sort.Strings(refs)
			return refs
		}
		flat, nested := refsOfD("AF"), refsOfD("AG")
		if len(flat) != 10 || strings.Join(nested, " ") != strings.Join(flat, " ") {
			t.Errorf("%s: TraceBack(AG[2]) reaches %v in D, TraceBack(AF[2]) %v", kind, nested, flat)
		}
	}
}

// TestExistsReadsOneCell: exists(D, x, y) reads the box of that one cell, so
// on the grid it scans at most one bucket's cells, not the whole array.
func TestExistsReadsOneCell(t *testing.T) {
	db := fourBackings(t)["cluster"] // buckets of 4×4 cells
	if got, want := exec(t, db, "explain exists(D, 3, 4)").Msg, "exists\n└─ scan D [cluster] box=[3:3,4:4]"; got != want {
		t.Errorf("explain exists(D, 3, 4):\n%s\nwant:\n%s", got, want)
	}
	prof := exec(t, db, "explain analyze exists(D, 3, 4)").Msg
	var scanned int64
	for _, f := range strings.Fields(prof) {
		var n int64
		if _, err := fmt.Sscanf(f, "cells_scanned=%d", &n); err == nil {
			scanned += n
		}
	}
	if scanned == 0 || scanned > 16 {
		t.Errorf("exists(D, 3, 4) scanned %d cells, want at most one bucket's 16:\n%s", scanned, prof)
	}
}
