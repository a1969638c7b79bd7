package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"scidb/internal/array"
	"scidb/internal/cluster"
	"scidb/internal/ops"
	"scidb/internal/ssdb"
)

// Data and cache sizes, the same on every commit.
const (
	imageSize   = 256
	imagePasses = 4
	threshold   = 13
	tile        = 8
	warmCache   = 64 << 20  // a decoded partition (~4.3 MB) fits: hit rate 1.0
	coldCache   = 256 << 10 // ~1/16 of a decoded partition: every bucket is re-read
	warmupRuns  = 3         // warm-up rounds discarded before timing
)

// workload is one set of inputs the benchmark runs. The reasons each exists
// are recorded in BENCHMARK.json and README.md.
type workload struct {
	name       string
	cacheBytes int64
	readahead  int
	// stmts builds one round's statements, drawing the round's slab
	// offsets from rng. nil marks the load workload, whose round is
	// Create + LoadParallel + Count instead of a statement set.
	stmts func(e *env, rng *rand.Rand) ([]stmt, error)
}

var workloads = []workload{
	{name: "ssdb.pushdown.warm", cacheBytes: warmCache, stmts: pushdownStmts},
	{name: "ssdb.pushdown.cold", cacheBytes: coldCache, readahead: 4, stmts: pushdownStmts},
	{name: "ssdb.gather", cacheBytes: warmCache, stmts: gatherStmts},
	{name: "load.bulk", cacheBytes: warmCache},
}

func workloadByName(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// answer is what a statement's result is checked by: the number of cells
// returned and one scalar digest of them.
type answer struct {
	cells int64
	value float64
}

// digest says how a result array folds into answer.value.
type digest int

const (
	digestSum     digest = iota // sum of the attribute over all cells (the scalar itself for 1-cell results)
	digestMax                   // maximum of the attribute
	digestNonNull               // count of cells whose attribute is not NULL
)

// stmt is one AQL statement of a round with its expected answer, plus the
// two lower rungs of the traced ladder: the Coordinator calls core makes for
// this text, and the coordinator-side operators core then runs on what they
// gathered.
type stmt struct {
	text   string
	want   answer
	digest digest
	attr   string // digested attribute; "" is the first
	// cellsIn is the stored cells the statement reads, for cells_per_s.
	cellsIn int64
	gather  func(ctx context.Context, co *cluster.Coordinator) ([]*array.Array, error)
	// coord is nil when the statement pushes down whole and the coordinator
	// runs no operator of its own.
	coord func(ctx context.Context, in []*array.Array) error
}

// digestOf folds a result array the way the statement's reference was folded.
func digestOf(a *array.Array, d digest, attr string) (answer, error) {
	if a == nil {
		return answer{}, fmt.Errorf("no array returned")
	}
	ai := 0
	if attr != "" {
		if ai = a.Schema.AttrIndex(attr); ai < 0 {
			return answer{}, fmt.Errorf("result has no attribute %q", attr)
		}
	}
	got := answer{}
	if d == digestMax {
		got.value = math.Inf(-1)
	}
	a.IterReuse(func(_ array.Coord, cell array.Cell) bool {
		got.cells++
		v := cell[ai]
		if v.Null {
			return true
		}
		switch d {
		case digestSum:
			got.value += v.AsFloat()
		case digestMax:
			got.value = math.Max(got.value, v.AsFloat())
		case digestNonNull:
			got.value++
		}
		return true
	})
	return got, nil
}

// relTol absorbs the order in which float partials merge across nodes.
const relTol = 1e-9

// check compares a returned array with the statement's reference.
func (s *stmt) check(a *array.Array) error {
	got, err := digestOf(a, s.digest, s.attr)
	if err != nil {
		return err
	}
	if got.cells != s.want.cells {
		return fmt.Errorf("%s: %d cells, want %d", s.text, got.cells, s.want.cells)
	}
	if diff := math.Abs(got.value - s.want.value); diff > relTol*math.Max(1, math.Abs(s.want.value)) {
		return fmt.Errorf("%s: answer %v, want %v", s.text, got.value, s.want.value)
	}
	return nil
}

// fullBox is the everything-box core hands the coordinator for an
// nd-dimensional cluster array.
func fullBox(nd int) array.Box {
	lo, hi := make(array.Coord, nd), make(array.Coord, nd)
	for i := range lo {
		lo[i], hi[i] = 1, math.MaxInt64/4
	}
	return array.Box{Lo: lo, Hi: hi}
}

func scanAll(name string, nd int) func(context.Context, *cluster.Coordinator) ([]*array.Array, error) {
	return func(ctx context.Context, co *cluster.Coordinator) ([]*array.Array, error) {
		a, err := co.ScanCtx(ctx, name, fullBox(nd))
		return []*array.Array{a}, err
	}
}

func pushAgg(name string, nd int, agg, attr string, groupDims []string) func(context.Context, *cluster.Coordinator) ([]*array.Array, error) {
	return func(ctx context.Context, co *cluster.Coordinator) ([]*array.Array, error) {
		a, err := co.AggregateCtx(ctx, name, fullBox(nd), agg, attr, groupDims)
		return []*array.Array{a}, err
	}
}

func brighter(attr string) ops.Expr {
	return ops.Binary{Op: ops.OpGt, L: ops.AttrRef{Name: attr}, R: ops.Const{V: array.Float64(threshold)}}
}

// refs holds the references that do not change between rounds, computed
// once per set-up from the in-memory dataset.
type refs struct {
	avgDN, maxDNByPass, avgRadByX, q4, q5, q7, q9, window answer
}

func computeRefs(d *ssdb.Dataset) (refs, error) {
	var r refs
	agg := func(a *array.Array, group []string, fn, attr string) (answer, error) {
		res, err := ops.Aggregate(a, group, []ops.AggSpec{{Agg: fn, Attr: attr}}, d.Reg)
		if err != nil {
			return answer{}, err
		}
		return digestOf(res, digestSum, "")
	}
	var err error
	if r.avgDN, err = agg(d.Raw, nil, "avg", "dn"); err != nil {
		return r, err
	}
	if r.maxDNByPass, err = agg(d.Raw, []string{"pass"}, "max", "dn"); err != nil {
		return r, err
	}
	if r.avgRadByX, err = agg(d.Cooked, []string{"x"}, "avg", "radiance"); err != nil {
		return r, err
	}
	fromSSDB := func(dst *answer, cells func(ssdb.Answer) int64, q func() (ssdb.Answer, error)) error {
		a, err := q()
		*dst = answer{cells: cells(a), value: a.Value}
		return err
	}
	one := func(ssdb.Answer) int64 { return 1 }
	own := func(a ssdb.Answer) int64 { return a.Cells }
	if err = fromSSDB(&r.q4, one, d.Q4Array); err != nil {
		return r, err
	}
	if err = fromSSDB(&r.q5, own, d.Q5Array); err != nil {
		return r, err
	}
	if err = fromSSDB(&r.q7, own, d.Q7Array); err != nil {
		return r, err
	}
	if err = fromSSDB(&r.q9, own, d.Q9Array); err != nil {
		return r, err
	}
	sub, err := ops.Subsample(d.Cooked, windowConds())
	if err != nil {
		return r, err
	}
	win, err := ops.Window(sub, []int64{1, 1}, ops.AggSpec{Agg: "avg", Attr: "radiance"}, d.Reg)
	if err != nil {
		return r, err
	}
	r.window, err = digestOf(win, digestSum, "")
	return r, err
}

func mustCond(dim, op string, v int64) ops.DimCond {
	c, err := ops.DimCmp(dim, op, v)
	if err != nil {
		panic(err) // the operators are literals in this file
	}
	return c
}

func windowConds() []ops.DimCond {
	return []ops.DimCond{mustCond("x", "<=", 64), mustCond("y", "<=", 64)}
}

func boxConds(lo, hi int64) []ops.DimCond {
	return []ops.DimCond{
		mustCond("x", ">=", lo), mustCond("x", "<=", hi),
		mustCond("y", ">=", lo), mustCond("y", "<=", hi),
	}
}

// pushdownStmts is SS-DB Q4 plus the group-bys: every statement reduces to
// per-node partials (or, for Q4, to zone-pruned pre-filtered cells).
func pushdownStmts(e *env, _ *rand.Rand) ([]stmt, error) {
	rawCells, cookedCells := e.ds.Raw.Count(), e.ds.Cooked.Count()
	reg := e.ds.Reg
	return []stmt{
		{
			text: "aggregate(raw, {}, avg(dn))", want: e.refs.avgDN, cellsIn: rawCells,
			gather: pushAgg("raw", 3, "avg", "dn", nil),
		},
		{
			text: "aggregate(raw, {pass}, max(dn))", want: e.refs.maxDNByPass, cellsIn: rawCells,
			gather: pushAgg("raw", 3, "max", "dn", []string{"pass"}),
		},
		{
			text: "aggregate(cooked, {x}, avg(radiance))", want: e.refs.avgRadByX, cellsIn: cookedCells,
			gather: pushAgg("cooked", 2, "avg", "radiance", []string{"x"}),
		},
		{
			text: fmt.Sprintf("aggregate(filter(cooked, radiance > %d), {}, count(radiance))", threshold),
			want: e.refs.q4, cellsIn: cookedCells,
			gather: func(ctx context.Context, co *cluster.Coordinator) ([]*array.Array, error) {
				sch, err := co.ArraySchema("cooked")
				if err != nil {
					return nil, err
				}
				a, _, err := co.ScanPruned(ctx, "cooked", fullBox(2), ops.ZonePreds(brighter("radiance"), sch))
				return []*array.Array{a}, err
			},
			coord: func(ctx context.Context, in []*array.Array) error {
				f, err := ops.FilterCtx(ctx, in[0], brighter("radiance"), reg)
				if err != nil {
					return err
				}
				_, err = ops.AggregateCtx(ctx, f, nil, []ops.AggSpec{{Agg: "count", Attr: "radiance"}}, reg)
				return err
			},
		},
	}, nil
}

// gatherStmts is the statements core cannot push down: each gathers its
// whole input array(s) to the coordinator and runs the operators there.
func gatherStmts(e *env, rng *rand.Rand) ([]stmt, error) {
	d, reg := e.ds, e.ds.Reg
	rawCells, cookedCells, catCells := d.Raw.Count(), d.Cooked.Count(), d.Catalog.Count()
	// Q1 reads a 64² slab of pass 1 at a seeded offset, Q6 a 20×20 box.
	a := 1 + rng.Int63n(imageSize-64+1)
	b := a + 63
	c := 1 + rng.Int63n(imageSize-20+1)
	q1, err := d.Q1Array(a, b)
	if err != nil {
		return nil, err
	}
	q6, err := d.Q6Array(c, c+19)
	if err != nil {
		return nil, err
	}
	subAgg := func(conds []ops.DimCond, fn, attr string) func(context.Context, []*array.Array) error {
		return func(ctx context.Context, in []*array.Array) error {
			s, err := ops.SubsampleCtx(ctx, in[0], conds)
			if err != nil {
				return err
			}
			_, err = ops.AggregateCtx(ctx, s, nil, []ops.AggSpec{{Agg: fn, Attr: attr}}, reg)
			return err
		}
	}
	regrid := func(ctx context.Context, in *array.Array, as string) (*array.Array, error) {
		return ops.RegridCtx(ctx, in, []int64{tile, tile}, ops.AggSpec{Agg: "avg", Attr: "radiance", As: as}, reg)
	}
	return []stmt{
		{
			text: fmt.Sprintf("aggregate(subsample(raw, pass = 1 and x >= %d and x <= %d and y >= %d and y <= %d), {}, avg(dn))", a, b, a, b),
			want: answer{cells: 1, value: q1.Value}, cellsIn: rawCells,
			gather: scanAll("raw", 3),
			coord:  subAgg(append([]ops.DimCond{mustCond("pass", "=", 1)}, boxConds(a, b)...), "avg", "dn"),
		},
		{
			text: fmt.Sprintf("regrid(cooked, [%d, %d], avg(radiance))", tile, tile),
			want: e.refs.q5, digest: digestMax, cellsIn: cookedCells,
			gather: scanAll("cooked", 2),
			coord: func(ctx context.Context, in []*array.Array) error {
				_, err := regrid(ctx, in[0], "")
				return err
			},
		},
		{
			text: fmt.Sprintf("aggregate(subsample(cooked, x >= %d and x <= %d and y >= %d and y <= %d), {}, sum(radiance))", c, c+19, c, c+19),
			want: answer{cells: 1, value: q6.Value}, cellsIn: cookedCells,
			gather: scanAll("cooked", 2),
			coord:  subAgg(boxConds(c, c+19), "sum", "radiance"),
		},
		{
			text: "sjoin(catalog, cooked, catalog.x = cooked.x and catalog.y = cooked.y)",
			want: e.refs.q7, attr: "brightness", cellsIn: catCells + cookedCells,
			gather: func(ctx context.Context, co *cluster.Coordinator) ([]*array.Array, error) {
				l, err := co.ScanCtx(ctx, "catalog", fullBox(2))
				if err != nil {
					return nil, err
				}
				r, err := co.ScanCtx(ctx, "cooked", fullBox(2))
				return []*array.Array{l, r}, err
			},
			coord: func(ctx context.Context, in []*array.Array) error {
				_, err := ops.SjoinCtx(ctx, in[0], in[1], []ops.DimPair{{LDim: "x", RDim: "x"}, {LDim: "y", RDim: "y"}})
				return err
			},
		},
		{
			text: fmt.Sprintf("filter(regrid(cooked, [%d, %d], avg(radiance) as mean), mean > %d)", tile, tile, threshold),
			want: e.refs.q9, digest: digestNonNull, cellsIn: cookedCells,
			gather: scanAll("cooked", 2),
			coord: func(ctx context.Context, in []*array.Array) error {
				rg, err := regrid(ctx, in[0], "mean")
				if err != nil {
					return err
				}
				_, err = ops.FilterCtx(ctx, rg, brighter("mean"), reg)
				return err
			},
		},
		{
			text: "window(subsample(cooked, x <= 64 and y <= 64), [1, 1], avg(radiance))",
			want: e.refs.window, cellsIn: cookedCells,
			gather: scanAll("cooked", 2),
			coord: func(ctx context.Context, in []*array.Array) error {
				s, err := ops.SubsampleCtx(ctx, in[0], windowConds())
				if err != nil {
					return err
				}
				_, err = ops.Window(s, []int64{1, 1}, ops.AggSpec{Agg: "avg", Attr: "radiance"}, reg)
				return err
			},
		},
	}, nil
}
