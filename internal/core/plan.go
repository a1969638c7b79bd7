package core

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"scidb/internal/array"
	"scidb/internal/cluster"
	"scidb/internal/obs"
	"scidb/internal/ops"
	"scidb/internal/parser"
	"scidb/internal/provenance"
	"scidb/internal/udf"
)

// plan is one operator of a lowered statement. A statement is lowered once
// (lower), the pushdown rules rewrite the tree as it is built, and then
// execution (eval), EXPLAIN (render) and provenance logging (derivation)
// all walk the same nodes.
type plan struct {
	// name is the operator as EXPLAIN prints it and its span is called; a
	// read's line adds its source and fragment (label).
	name string
	expr parser.ArrayExpr // what p was lowered from
	in   []*plan
	// run computes p's output from its inputs' outputs, in order.
	run func(ctx context.Context, in []*array.Array) (*array.Array, error)
	// sch and bounds are p's output's once p has run: all provenance asks
	// of an input.
	sch    *array.Schema
	bounds []int64

	// How a STORE logs p: an element-wise command reruns run over the
	// affected cells, a fold its spec over their blocks, a subsample run
	// over its input. Any other node is a lineage barrier (KindLoad).
	kind  provenance.Kind
	fold  *ops.FoldSpec // aggregate, regrid
	conds []ops.DimCond // subsample
	pred  ops.Expr      // filter
	// folded is p's input subtree as the statement names it, when a rule
	// pushed p's fold into the read that is now p's only input.
	folded *plan

	// A read of one array reference: the source the name resolved to (or
	// why it did not), and the fragment the source applies while reading.
	// frag.Box is the whole array unless a rule narrowed it, frag.Preds a
	// filter's zone conjuncts; both are hints. With frag.Fold the read
	// answers for the fold above, as per-node partial tables. An sjoin that
	// rule 5 pushed down runs as a read too, of no reference: src is its left
	// input's, frag.Join names the right one, and its two inputs are only
	// shown — run only if the arrays are no longer co-placed when it runs.
	ref  string
	src  source
	err  error
	frag ops.Fragment
}

// lower turns an array expression into its plan, in the one switch over
// parser.ArrayExpr: each node's ops spec is built here, once, and each array
// reference resolved once. A name that does not resolve becomes a read that
// fails when it runs, so EXPLAIN still shows it, as a bare scan.
func (db *Database) lower(e parser.ArrayExpr) (*plan, error) {
	p := &plan{expr: e, kind: provenance.KindLoad}
	var kids []parser.ArrayExpr
	var err error
	switch n := e.(type) {
	case *parser.Ref:
		return db.lowerRead(n.Name), nil
	case *parser.ExistsExpr:
		// The paper's Exists? reads the box of the one cell it asks about.
		r := db.lowerRead(n.Array)
		if r.src != nil && len(n.Coord) == len(r.src.schema().Dims) {
			conds := make([]parser.DimCond, len(n.Coord))
			for d, c := range n.Coord {
				conds[d] = parser.DimCond{Dim: r.src.schema().Dims[d].Name, Op: "=", Value: c}
			}
			r.frag.Box, _ = subsampleBox(r.src.schema(), conds)
		}
		p.name, p.in = "exists", []*plan{r}
		p.run = func(_ context.Context, in []*array.Array) (*array.Array, error) {
			res, err := array.New(&array.Schema{
				Name:  n.Array + "_exists",
				Dims:  []array.Dimension{{Name: "q", High: 1}},
				Attrs: []array.Attribute{{Name: "present", Type: array.TBool}},
			})
			if err != nil {
				return nil, err
			}
			return res, res.Set(array.Coord{1}, array.Cell{array.Bool64(in[0].Exists(n.Coord))})
		}
		return p, nil
	case *parser.VersionExpr:
		p.name = "version " + n.Array + "@" + n.Name
		p.run = func(context.Context, []*array.Array) (*array.Array, error) {
			tree, err := db.VersionTree(n.Array)
			if err != nil {
				return nil, err
			}
			v, err := tree.Get(n.Name)
			if err != nil {
				return nil, err
			}
			return v.Materialize()
		}
	case *parser.SubsampleExpr:
		p.name, p.kind, kids = "subsample", provenance.KindSubsample, []parser.ArrayExpr{n.In}
		if p.conds, err = dimConds(n.Pred); err != nil {
			return nil, err
		}
		p.run = func(ctx context.Context, in []*array.Array) (*array.Array, error) {
			return ops.SubsampleCtx(ctx, in[0], p.conds)
		}
	case *parser.FilterExpr:
		p.name, p.kind, kids = "filter", provenance.KindElementwise, []parser.ArrayExpr{n.In}
		if p.pred, err = valExpr(n.Pred); err != nil {
			return nil, err
		}
		p.run = func(ctx context.Context, in []*array.Array) (*array.Array, error) {
			return ops.FilterCtx(ctx, in[0], p.pred, db.reg)
		}
	case *parser.AggregateExpr:
		p.name, p.kind, kids = "aggregate", provenance.KindAggregate, []parser.ArrayExpr{n.In}
		p.fold = &ops.FoldSpec{Dims: n.GroupDims, Aggs: aggSpecs(n.Aggs)}
		p.run = func(ctx context.Context, in []*array.Array) (*array.Array, error) {
			return ops.AggregateCtx(ctx, in[0], n.GroupDims, p.fold.Aggs, db.reg)
		}
	case *parser.SjoinExpr:
		p.name, kids = "sjoin", []parser.ArrayExpr{n.L, n.R}
		pairs := dimPairs(n)
		p.run = func(ctx context.Context, in []*array.Array) (*array.Array, error) {
			return ops.SjoinCtx(ctx, in[0], in[1], pairs)
		}
	case *parser.CjoinExpr:
		p.name, kids = "cjoin", []parser.ArrayExpr{n.L, n.R}
		pred, err := valExpr(n.Pred)
		if err != nil {
			return nil, err
		}
		p.run = func(ctx context.Context, in []*array.Array) (*array.Array, error) {
			return ops.Cjoin(ctx, in[0], in[1], pred, db.reg)
		}
	case *parser.ApplyExpr:
		p.name, p.kind, kids = "apply", provenance.KindElementwise, []parser.ArrayExpr{n.In}
		specs := make([]ops.ApplySpec, len(n.Names))
		for i := range n.Names {
			if specs[i].Expr, err = valExpr(n.Exprs[i]); err != nil {
				return nil, err
			}
			specs[i].Name = n.Names[i]
		}
		p.run = func(ctx context.Context, in []*array.Array) (*array.Array, error) {
			return ops.ApplyCtx(ctx, in[0], specs, db.reg)
		}
	case *parser.ProjectExpr:
		p.name, p.kind, kids = "project", provenance.KindElementwise, []parser.ArrayExpr{n.In}
		p.run = func(ctx context.Context, in []*array.Array) (*array.Array, error) {
			return ops.Project(ctx, in[0], n.Attrs)
		}
	case *parser.ReshapeExpr:
		p.name, kids = "reshape", []parser.ArrayExpr{n.In}
		dims := make([]array.Dimension, len(n.NewDims))
		for i, d := range n.NewDims {
			dims[i] = array.Dimension{Name: d.Name, High: d.High}
		}
		p.run = func(ctx context.Context, in []*array.Array) (*array.Array, error) {
			return ops.Reshape(ctx, in[0], n.Order, dims)
		}
	case *parser.RegridExpr:
		p.name, p.kind, kids = "regrid", provenance.KindRegrid, []parser.ArrayExpr{n.In}
		p.fold = &ops.FoldSpec{Strides: n.Strides, Aggs: []ops.AggSpec{aggSpec(n.Agg)}}
		p.run = func(ctx context.Context, in []*array.Array) (*array.Array, error) {
			return ops.RegridCtx(ctx, in[0], n.Strides, p.fold.Aggs[0], db.reg)
		}
	case *parser.WindowExpr:
		p.name, kids = "window", []parser.ArrayExpr{n.In}
		p.run = func(ctx context.Context, in []*array.Array) (*array.Array, error) {
			return ops.WindowCtx(ctx, in[0], n.Radius, aggSpec(n.Agg), db.reg)
		}
	case *parser.CrossExpr:
		p.name, kids = "cross", []parser.ArrayExpr{n.L, n.R}
		p.run = func(ctx context.Context, in []*array.Array) (*array.Array, error) {
			return ops.CrossProduct(ctx, in[0], in[1])
		}
	case *parser.ConcatExpr:
		p.name, kids = "concat", []parser.ArrayExpr{n.L, n.R}
		p.run = func(ctx context.Context, in []*array.Array) (*array.Array, error) {
			return ops.Concat(ctx, in[0], in[1], n.Dim)
		}
	case *parser.AddDimExpr:
		p.name, kids = "adddim", []parser.ArrayExpr{n.In}
		p.run = func(ctx context.Context, in []*array.Array) (*array.Array, error) {
			return ops.AddDim(ctx, in[0], n.Name)
		}
	case *parser.RemDimExpr:
		p.name, kids = "remdim", []parser.ArrayExpr{n.In}
		p.run = func(ctx context.Context, in []*array.Array) (*array.Array, error) {
			return ops.RemoveDim(ctx, in[0], n.Name)
		}
	default:
		return nil, fmt.Errorf("core: unsupported array expression %T", e)
	}
	for _, k := range kids {
		in, err := db.lower(k)
		if err != nil {
			return nil, err
		}
		p.in = append(p.in, in)
	}
	db.pushdown(p)
	return p, nil
}

// lowerRead is the leaf for one array reference: a read of the whole array.
func (db *Database) lowerRead(name string) *plan {
	p := &plan{name: "scan " + name, ref: name}
	if p.src, p.err = db.resolve(name); p.err == nil {
		p.frag.Box = array.WholeBox(p.src.schema())
	}
	return p
}

// pushdown is the one rule list, applied to each node as it is lowered,
// over inputs already lowered and rewritten. Each rule either rewrites the
// subtree under p into a read of a narrower fragment or leaves it alone;
// their shapes never overlap, so at most one applies. Without a fold every
// rule is a hint under the read contract, so the operator still runs over
// what comes back.
func (db *Database) pushdown(p *plan) {
	boxRule(p)
	db.filterRule(p)
	foldRule(p)
	boxFoldRule(p)
	joinRule(p)
}

// boxRule is rule 1: a subsample whose conjuncts are all ranges reads only
// their box.
func boxRule(p *plan) {
	if r := readOf(p); r != nil && p.kind == provenance.KindSubsample {
		if box, ok := subsampleBox(r.src.schema(), p.expr.(*parser.SubsampleExpr).Pred); ok {
			r.frag.Box = box
		}
	}
}

// filterRule is rule 2: a grand total over a filter. The filter's zone
// conjuncts go with the read, and the cells they leave out are exactly those
// the filter would have turned into all-NULL rows, so every aggregate must
// ignore NULLs (udf.NullIgnoring). When the conjuncts are the whole
// predicate and the source folds, the fold goes too: each node filters and
// folds where its cells are, and the row exists if any node saw (or pruned)
// a cell. Otherwise they are a hint, the filter runs over what comes back,
// and the predicate must be pure: skipped cells skip evaluation and must not
// swallow its errors.
func (db *Database) filterRule(p *plan) {
	if !grandTotal(p) || p.in[0].pred == nil || !db.ignoreNulls(p.fold.Aggs) {
		return
	}
	r := readOf(p.in[0])
	if r == nil {
		return
	}
	preds, exact := ops.ZonePredsExact(p.in[0].pred, r.src.schema())
	switch {
	case exact && pushable(r.src, p.fold):
		p.foldInto(r, ops.Fragment{Box: r.frag.Box, Preds: preds})
	case ops.PredPure(p.in[0].pred, r.src.schema()):
		r.frag.Preds = preds
	}
}

// foldRule is rule 3: a fold directly over an array held in partitions
// ships partial tables, not cells.
func foldRule(p *plan) {
	if r := readOf(p); r != nil && p.fold != nil && pushable(r.src, p.fold) {
		p.foldInto(r, r.frag)
	}
}

// boxFoldRule is rule 4: a grand total over a range-only subsample is the
// fold of rule 3 over the subsample's box. Subsample re-indexes coordinates,
// so only a fold that drops them all answers the same over the box as over
// the subsample. When it cannot run that way the subsample keeps its own
// read, which rule 1 narrowed.
func boxFoldRule(p *plan) {
	if !grandTotal(p) || p.in[0].kind != provenance.KindSubsample {
		return
	}
	if r := readOf(p.in[0]); r != nil && pushable(r.src, p.fold) {
		if box, ok := subsampleBox(r.src.schema(), p.in[0].expr.(*parser.SubsampleExpr).Pred); ok {
			p.foldInto(r, ops.Fragment{Box: box})
		}
	}
}

// joinRule is rule 5: an sjoin of two whole cluster arrays that pairs every
// dimension with the one in the same position, over arrays whose chunk pairs
// lie together (cluster.Coordinator.CoPlaced), is one read of the pair: each
// node joins its chunk pairs and ships only the joined chunks. Any other
// sjoin gathers its inputs and joins them here, as does a pushed one whose
// arrays are placed apart by the time it runs (cluster.ErrNotCoPlaced).
func joinRule(p *plan) {
	n, ok := p.expr.(*parser.SjoinExpr)
	if !ok || !wholeRead(p.in[0]) || !wholeRead(p.in[1]) {
		return
	}
	l, lok := p.in[0].src.(clusterSource)
	r, rok := p.in[1].src.(clusterSource)
	if lok && rok && ops.Paired(l.sch, r.sch, dimPairs(n)) && l.co.CoPlaced(l.name, r.name) {
		p.name += " [per-node chunk pairs]"
		p.src, p.frag = l, ops.Fragment{Join: r.name}
	}
}

// wholeRead reports whether p reads all of a resolved name, and nothing
// more.
func wholeRead(p *plan) bool {
	return p.ref != "" && p.src != nil && p.frag.Fold == nil && len(p.frag.Preds) == 0 &&
		p.frag.Box.String() == array.WholeBox(p.src.schema()).String()
}

// dimPairs lists an sjoin's dimension pairs.
func dimPairs(n *parser.SjoinExpr) []ops.DimPair {
	pairs := make([]ops.DimPair, len(n.On))
	for i, pr := range n.On {
		pairs[i] = ops.DimPair{LDim: pr.Left, RDim: pr.Right}
	}
	return pairs
}

// grandTotal reports whether p is an aggregate with no group dimensions.
func grandTotal(p *plan) bool {
	return p.kind == provenance.KindAggregate && len(p.fold.Dims) == 0
}

// readOf returns p's only input when it is a read of a resolved name with
// no fold pushed into it yet, else nil.
func readOf(p *plan) *plan {
	if len(p.in) == 1 && p.in[0].ref != "" && p.in[0].src != nil && p.in[0].frag.Fold == nil {
		return p.in[0]
	}
	return nil
}

// foldInto is the rewrite of rules 2–4: the subtree under p becomes one read
// of r's source with frag and p's fold, which answers for it with per-node
// partial tables, and p passes that answer on. The subtree stays in
// p.folded, for provenance.
func (p *plan) foldInto(r *plan, frag ops.Fragment) {
	leaf := *r
	frag.Fold = p.fold
	leaf.frag = frag
	p.folded, p.in = p.in[0], []*plan{&leaf}
	p.name += " [per-node partials]"
	p.run = func(_ context.Context, in []*array.Array) (*array.Array, error) { return in[0], nil }
}

// pushable reports whether src runs fold as per-partition partial tables:
// it folds where its cells are, and all the fold's state is typed — what
// NewFold without a registry admits. (Nor is a malformed fold pushed: the
// operator reports it.)
func pushable(src source, fold *ops.FoldSpec) bool {
	if !src.folds() || len(fold.Aggs) == 0 {
		return false
	}
	_, err := ops.NewFold(src.schema(), *fold, nil)
	return err == nil
}

// eval executes a plan. Every node runs under its own span when the context
// carries a trace, so EXPLAIN ANALYZE renders the plan exactly as executed;
// an untraced query pays one nil context lookup per node.
func (db *Database) eval(ctx context.Context, p *plan) (*array.Array, error) {
	run, err := db.open(ctx, p)
	if err != nil {
		return nil, err
	}
	return run()
}

// open starts p's span and returns p's evaluation to run. evalPair opens
// both inputs of a binary operator, in plan order, before running them.
func (db *Database) open(ctx context.Context, p *plan) (func() (*array.Array, error), error) {
	// Cancellation (session cancel, client disconnect) aborts between
	// operators; the exec pool additionally aborts between chunks.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sp, ctx := obs.StartSpan(ctx, p.label())
	return func() (*array.Array, error) {
		a, err := db.evalInputs(ctx, p)
		if err == nil && a != nil {
			p.sch, p.bounds = a.Schema, a.Bounds()
			sp.Add("cells_out", a.Count())
		}
		sp.End()
		return a, err
	}, nil
}

// evalInputs evaluates p's inputs, then p over them.
func (db *Database) evalInputs(ctx context.Context, p *plan) (*array.Array, error) {
	if p.ref != "" {
		return p.read(ctx)
	}
	// A join rule 5 pushed to the nodes runs as planned unless a rebalance
	// or repartition has since placed its arrays apart; then it gathers.
	if p.frag.Join != "" {
		if a, err := p.read(ctx); !errors.Is(err, cluster.ErrNotCoPlaced) {
			return a, err
		}
	}
	in := make([]*array.Array, len(p.in))
	var err error
	switch len(p.in) {
	case 1:
		in[0], err = db.eval(ctx, p.in[0])
	case 2:
		in[0], in[1], err = db.evalPair(ctx, p.in[0], p.in[1])
	}
	if err != nil {
		return nil, err
	}
	return p.run(ctx, in)
}

// evalPair evaluates the two inputs of a binary operator at once: r on a
// goroutine while l runs on the caller. l's error wins, and cancels r; ctx's
// cancellation stops both. evalPair returns only once r has finished, so the
// goroutine never outlives it.
func (db *Database) evalPair(ctx context.Context, l, r *plan) (*array.Array, *array.Array, error) {
	runL, err := db.open(ctx, l)
	if err != nil {
		return nil, nil, err
	}
	rctx, cancel := context.WithCancel(ctx)
	defer cancel()
	runR, rerr := db.open(rctx, r)
	if rerr != nil {
		if _, err := runL(); err != nil {
			return nil, nil, err
		}
		return nil, nil, rerr
	}
	var ra *array.Array
	done := make(chan struct{})
	go func() {
		defer close(done)
		ra, rerr = runR()
	}()
	la, err := runL()
	if err != nil {
		cancel()
	}
	<-done
	if err != nil {
		return nil, nil, err
	}
	if rerr != nil {
		return nil, nil, rerr
	}
	return la, ra, nil
}

// read runs a read leaf. When the predicates withheld every cell, the filter
// they came from would still have fed its aggregate all-NULL rows, and the
// grand-total row would be occupied (NULL sums, zero counts); one synthetic
// all-NULL cell reproduces that occupancy through the identical pipeline.
func (p *plan) read(ctx context.Context) (*array.Array, error) {
	if p.err != nil {
		return nil, p.err
	}
	a, withheld, err := p.src.read(ctx, p.frag)
	if err != nil || !withheld || a.Count() > 0 {
		return a, err
	}
	null := make(array.Cell, len(a.Schema.Attrs))
	for i, at := range a.Schema.Attrs {
		null[i] = array.NullValue(at.Type)
	}
	return a, a.Set(p.frag.Box.Lo.Clone(), null)
}

// label is p's line in a plan and its span's name: a read shows the source
// and the fragment it runs.
func (p *plan) label() string {
	if p.ref == "" || p.src == nil {
		return p.name
	}
	s := p.name + " [" + p.src.kind() + "]"
	if box := p.frag.Box.String(); box != array.WholeBox(p.src.schema()).String() {
		s += " box=" + strings.ReplaceAll(box, " ", "")
	}
	for i, pr := range p.frag.Preds {
		sep := " and "
		if i == 0 {
			sep = " preds="
		}
		s += sep + p.src.schema().Attrs[pr.Attr].Name + pr.Op + pr.Val.String()
	}
	return s
}

// render writes p's subtree as EXPLAIN prints it.
func (p *plan) render(b *strings.Builder, selfPrefix, childPrefix string) {
	b.WriteString(selfPrefix + p.label() + "\n")
	for i, k := range p.in {
		if i == len(p.in)-1 {
			k.render(b, childPrefix+"└─ ", childPrefix+"   ")
		} else {
			k.render(b, childPrefix+"├─ ", childPrefix+"│  ")
		}
	}
}

// ignoreNulls reports whether every aggregate is NULL-ignoring.
func (db *Database) ignoreNulls(aggs []ops.AggSpec) bool {
	for _, a := range aggs {
		fac, err := db.reg.Aggregate(a.Agg)
		if err != nil {
			return false
		}
		if _, ok := fac().(udf.NullIgnoring); !ok {
			return false
		}
	}
	return true
}

// subsampleBox derives the contiguous coordinate box implied by a
// subsample conjunction, when every conjunct is a range-style comparison.
// ok is false when a conjunct (even/odd/!=) cannot be expressed as a box.
func subsampleBox(s *array.Schema, conds []parser.DimCond) (array.Box, bool) {
	box := array.WholeBox(s)
	lo, hi := box.Lo, box.Hi
	for _, c := range conds {
		d := s.DimIndex(c.Dim)
		if d < 0 {
			return array.Box{}, false
		}
		switch c.Op {
		case "=":
			lo[d], hi[d] = max(lo[d], c.Value), min(hi[d], c.Value)
		case "<":
			hi[d] = min(hi[d], c.Value-1)
		case "<=":
			hi[d] = min(hi[d], c.Value)
		case ">":
			lo[d] = max(lo[d], c.Value+1)
		case ">=":
			lo[d] = max(lo[d], c.Value)
		default:
			return array.Box{}, false
		}
	}
	for i := range lo {
		if lo[i] > hi[i] {
			// Empty box: still pushable (the read returns nothing).
			hi[i] = lo[i] - 1
		}
	}
	return box, true
}

func aggSpec(a parser.AggSpec) ops.AggSpec {
	return ops.AggSpec{Agg: a.Func, Attr: a.Attr, As: a.As}
}

func aggSpecs(in []parser.AggSpec) []ops.AggSpec {
	out := make([]ops.AggSpec, len(in))
	for i, a := range in {
		out[i] = aggSpec(a)
	}
	return out
}

// dimConds converts parsed subsample conjuncts to operator predicates.
func dimConds(in []parser.DimCond) ([]ops.DimCond, error) {
	out := make([]ops.DimCond, len(in))
	for i, c := range in {
		switch c.Op {
		case "even":
			out[i] = ops.DimEven(c.Dim)
		case "odd":
			out[i] = ops.DimOdd(c.Dim)
		default:
			dc, err := ops.DimCmp(c.Dim, c.Op, c.Value)
			if err != nil {
				return nil, err
			}
			out[i] = dc
		}
	}
	return out, nil
}

// valExpr converts a parsed value expression into an executable one.
func valExpr(e parser.ValExpr) (ops.Expr, error) {
	switch n := e.(type) {
	case *parser.Ident:
		return ops.Ref{Name: n.Name}, nil
	case *parser.Lit:
		return ops.Const{V: scalarToValue(n.V)}, nil
	case *parser.BinExpr:
		l, err := valExpr(n.L)
		if err != nil {
			return nil, err
		}
		r, err := valExpr(n.R)
		if err != nil {
			return nil, err
		}
		return ops.Binary{Op: ops.BinOp(n.Op), L: l, R: r}, nil
	case *parser.NotExpr:
		inner, err := valExpr(n.E)
		if err != nil {
			return nil, err
		}
		return ops.Not{E: inner}, nil
	case *parser.CallExpr:
		args := make([]ops.Expr, len(n.Args))
		for i, a := range n.Args {
			x, err := valExpr(a)
			if err != nil {
				return nil, err
			}
			args[i] = x
		}
		return ops.Call{Name: n.Name, Args: args}, nil
	}
	return nil, fmt.Errorf("core: unsupported value expression %T", e)
}
