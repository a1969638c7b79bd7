package core

import (
	"context"
	"fmt"

	"scidb/internal/array"
	"scidb/internal/obs"
	"scidb/internal/ops"
	"scidb/internal/parser"
	"scidb/internal/provenance"
)

// eval executes an array expression tree against the catalog. Every
// operator node runs under its own span when the context carries a trace,
// so EXPLAIN ANALYZE renders the plan exactly as executed; an untraced
// query pays one nil context lookup per node.
func (db *Database) eval(ctx context.Context, e parser.ArrayExpr) (*array.Array, error) {
	return db.evalUnder(ctx, e, nil)
}

// evalUnder is eval for an expression that may lie on a pushed-down path: lf
// is the leaf an operator above already peeled off (see leaf.under), or nil.
func (db *Database) evalUnder(ctx context.Context, e parser.ArrayExpr, lf *leaf) (*array.Array, error) {
	run, err := db.open(ctx, e, lf)
	if err != nil {
		return nil, err
	}
	return run()
}

// open is evalUnder up to the evaluation itself — the leaf resolved and the
// node's span started — and returns the evaluation to run. evalPair opens
// both inputs of a binary operator, in plan order, before running them.
func (db *Database) open(ctx context.Context, e parser.ArrayExpr, lf *leaf) (func() (*array.Array, error), error) {
	// Cancellation (session cancel, client disconnect) aborts between
	// operators; the exec pool additionally aborts between chunks.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if lf == nil {
		var err error
		if lf, err = db.pushdown(e); err != nil {
			return nil, err
		}
	}
	name, _ := planNode(e, lf)
	sp, ctx := obs.StartSpan(ctx, name)
	return func() (*array.Array, error) {
		a, err := db.evalNode(ctx, e, lf)
		if err == nil && a != nil {
			sp.Add("cells_out", a.Count())
		}
		sp.End()
		return a, err
	}, nil
}

// evalPair evaluates the two inputs of a binary operator at once: r on a
// goroutine while l runs on the caller. l's error wins, and cancels r; ctx's
// cancellation stops both. evalPair returns only once r has finished, so the
// goroutine never outlives it.
func (db *Database) evalPair(ctx context.Context, l, r parser.ArrayExpr) (*array.Array, *array.Array, error) {
	runL, err := db.open(ctx, l, nil)
	if err != nil {
		return nil, nil, err
	}
	rctx, cancel := context.WithCancel(ctx)
	defer cancel()
	runR, rerr := db.open(rctx, r, nil)
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

// planNode names an expression node and lists its inputs. EXPLAIN and the
// node's profile span both take the name from here, so a leaf (lf, see
// evalUnder) reads the same in the plan and in the profile.
func planNode(e parser.ArrayExpr, lf *leaf) (string, []parser.ArrayExpr) {
	switch n := e.(type) {
	case *parser.Ref:
		if lf == nil {
			return "scan " + n.Name, nil
		}
		return "scan " + n.Name + lf.describe(), nil
	case *parser.ExistsExpr:
		return "exists " + n.Array, nil
	case *parser.VersionExpr:
		return "version " + n.Array + "@" + n.Name, nil
	case *parser.SubsampleExpr:
		return "subsample", []parser.ArrayExpr{n.In}
	case *parser.FilterExpr:
		return "filter", []parser.ArrayExpr{n.In}
	case *parser.AggregateExpr:
		if lf != nil && lf.frag.Fold != nil {
			// A subsample in between became the fragment's box.
			return "aggregate [per-node partials]", []parser.ArrayExpr{lf.ref}
		}
		return "aggregate", []parser.ArrayExpr{n.In}
	case *parser.SjoinExpr:
		return "sjoin", []parser.ArrayExpr{n.L, n.R}
	case *parser.CjoinExpr:
		return "cjoin", []parser.ArrayExpr{n.L, n.R}
	case *parser.ApplyExpr:
		return "apply", []parser.ArrayExpr{n.In}
	case *parser.ProjectExpr:
		return "project", []parser.ArrayExpr{n.In}
	case *parser.ReshapeExpr:
		return "reshape", []parser.ArrayExpr{n.In}
	case *parser.RegridExpr:
		if lf != nil && lf.frag.Fold != nil {
			return "regrid [per-node partials]", []parser.ArrayExpr{n.In}
		}
		return "regrid", []parser.ArrayExpr{n.In}
	case *parser.WindowExpr:
		return "window", []parser.ArrayExpr{n.In}
	case *parser.CrossExpr:
		return "cross", []parser.ArrayExpr{n.L, n.R}
	case *parser.ConcatExpr:
		return "concat", []parser.ArrayExpr{n.L, n.R}
	case *parser.AddDimExpr:
		return "adddim", []parser.ArrayExpr{n.In}
	case *parser.RemDimExpr:
		return "remdim", []parser.ArrayExpr{n.In}
	}
	return fmt.Sprintf("%T", e), nil
}

func (db *Database) evalNode(ctx context.Context, e parser.ArrayExpr, lf *leaf) (*array.Array, error) {
	if lf != nil && lf.frag.Fold != nil {
		// e is a fold the nodes run over their own cells; its input is
		// never gathered, and the profile shows the plan's leaf doing it.
		name, _ := planNode(lf.ref, lf)
		sp, ctx := obs.StartSpan(ctx, name)
		a, _, err := lf.src.read(ctx, lf.frag)
		sp.End()
		return a, err
	}
	switch n := e.(type) {
	case *parser.Ref:
		return lf.read(ctx)
	case *parser.ExistsExpr:
		a, err := db.scanAll(ctx, n.Array)
		if err != nil {
			return nil, err
		}
		out := &array.Schema{
			Name:  n.Array + "_exists",
			Dims:  []array.Dimension{{Name: "q", High: 1}},
			Attrs: []array.Attribute{{Name: "present", Type: array.TBool}},
		}
		res, err := array.New(out)
		if err != nil {
			return nil, err
		}
		if err := res.Set(array.Coord{1}, array.Cell{array.Bool64(a.Exists(n.Coord))}); err != nil {
			return nil, err
		}
		return res, nil
	case *parser.VersionExpr:
		tree, err := db.VersionTree(n.Array)
		if err != nil {
			return nil, err
		}
		v, err := tree.Get(n.Name)
		if err != nil {
			return nil, err
		}
		return v.Materialize()
	case *parser.SubsampleExpr:
		in, err := db.evalUnder(ctx, n.In, lf.under(n.In))
		if err != nil {
			return nil, err
		}
		conds, err := dimConds(n.Pred)
		if err != nil {
			return nil, err
		}
		return ops.SubsampleCtx(ctx, in, conds)
	case *parser.FilterExpr:
		in, err := db.evalUnder(ctx, n.In, lf.under(n.In))
		if err != nil {
			return nil, err
		}
		pred, err := valExpr(n.Pred)
		if err != nil {
			return nil, err
		}
		return ops.FilterCtx(ctx, in, pred, db.reg)
	case *parser.AggregateExpr:
		in, err := db.evalUnder(ctx, n.In, lf.under(n.In))
		if err != nil {
			return nil, err
		}
		return ops.AggregateCtx(ctx, in, n.GroupDims, aggSpecs(n.Aggs), db.reg)
	case *parser.SjoinExpr:
		l, r, err := db.evalPair(ctx, n.L, n.R)
		if err != nil {
			return nil, err
		}
		pairs := make([]ops.DimPair, len(n.On))
		for i, p := range n.On {
			pairs[i] = ops.DimPair{LDim: p.Left, RDim: p.Right}
		}
		return ops.SjoinCtx(ctx, l, r, pairs)
	case *parser.CjoinExpr:
		l, r, err := db.evalPair(ctx, n.L, n.R)
		if err != nil {
			return nil, err
		}
		pred, err := valExpr(n.Pred)
		if err != nil {
			return nil, err
		}
		return ops.Cjoin(ctx, l, r, pred, db.reg)
	case *parser.ApplyExpr:
		in, err := db.eval(ctx, n.In)
		if err != nil {
			return nil, err
		}
		specs, err := applySpecs(n)
		if err != nil {
			return nil, err
		}
		return ops.ApplyCtx(ctx, in, specs, db.reg)
	case *parser.ProjectExpr:
		in, err := db.eval(ctx, n.In)
		if err != nil {
			return nil, err
		}
		return ops.Project(ctx, in, n.Attrs)
	case *parser.ReshapeExpr:
		in, err := db.eval(ctx, n.In)
		if err != nil {
			return nil, err
		}
		dims := make([]array.Dimension, len(n.NewDims))
		for i, d := range n.NewDims {
			dims[i] = array.Dimension{Name: d.Name, High: d.High}
		}
		return ops.Reshape(ctx, in, n.Order, dims)
	case *parser.RegridExpr:
		in, err := db.evalUnder(ctx, n.In, lf.under(n.In))
		if err != nil {
			return nil, err
		}
		return ops.RegridCtx(ctx, in, n.Strides, aggSpec(n.Agg), db.reg)
	case *parser.WindowExpr:
		in, err := db.eval(ctx, n.In)
		if err != nil {
			return nil, err
		}
		return ops.WindowCtx(ctx, in, n.Radius, aggSpec(n.Agg), db.reg)
	case *parser.CrossExpr:
		l, r, err := db.evalPair(ctx, n.L, n.R)
		if err != nil {
			return nil, err
		}
		return ops.CrossProduct(ctx, l, r)
	case *parser.ConcatExpr:
		l, r, err := db.evalPair(ctx, n.L, n.R)
		if err != nil {
			return nil, err
		}
		return ops.Concat(ctx, l, r, n.Dim)
	case *parser.AddDimExpr:
		in, err := db.eval(ctx, n.In)
		if err != nil {
			return nil, err
		}
		return ops.AddDim(ctx, in, n.Name)
	case *parser.RemDimExpr:
		in, err := db.eval(ctx, n.In)
		if err != nil {
			return nil, err
		}
		return ops.RemoveDim(ctx, in, n.Name)
	}
	return nil, fmt.Errorf("core: unsupported array expression %T", e)
}

// scanAll reads the whole of a named array.
func (db *Database) scanAll(ctx context.Context, name string) (*array.Array, error) {
	lf, err := db.pushdown(&parser.Ref{Name: name})
	if err != nil {
		return nil, err
	}
	return lf.read(ctx)
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

// applySpecs converts an apply's parsed expressions to operator specs.
func applySpecs(n *parser.ApplyExpr) ([]ops.ApplySpec, error) {
	specs := make([]ops.ApplySpec, len(n.Names))
	for i := range n.Names {
		ex, err := valExpr(n.Exprs[i])
		if err != nil {
			return nil, err
		}
		specs[i] = ops.ApplySpec{Name: n.Names[i], Expr: ex}
	}
	return specs, nil
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

// logDerivation records provenance commands for a STORE. Each operator
// level gets one command; intermediate levels use synthetic names so
// backward and forward traces can walk the whole chain. Operators whose
// item-level lineage pattern is not modeled (joins, reshape, cross) are
// logged as lineage barriers with a descriptive text.
func (db *Database) logDerivation(e parser.ArrayExpr, target string) {
	db.logExpr(e, target, target)
}

// logExpr returns the name under which the expression's output is known in
// the provenance graph.
func (db *Database) logExpr(e parser.ArrayExpr, target, prefix string) string {
	child := func(sub parser.ArrayExpr, k int) string {
		if r, ok := sub.(*parser.Ref); ok {
			return r.Name
		}
		name := fmt.Sprintf("%s#%d", prefix, k)
		return db.logExpr(sub, name, name)
	}
	now := db.now()
	switch n := e.(type) {
	case *parser.Ref:
		return n.Name
	case *parser.FilterExpr:
		in := child(n.In, 1)
		cmd := db.log.Append(&provenance.Command{
			Kind: provenance.KindElementwise, Input: in, Output: target, Time: now,
			Text: parser.Format(&parser.Store{Expr: n, Target: target}),
		})
		if pred, err := valExpr(n.Pred); err == nil {
			db.registerRerun(cmd, cellRerun(func(ctx context.Context, in *array.Array) (*array.Array, error) {
				return ops.FilterCtx(ctx, in, pred, db.reg)
			}))
		}
	case *parser.ApplyExpr:
		in := child(n.In, 1)
		cmd := db.log.Append(&provenance.Command{
			Kind: provenance.KindElementwise, Input: in, Output: target, Time: now,
			Text: parser.Format(&parser.Store{Expr: n, Target: target}),
		})
		if specs, err := applySpecs(n); err == nil {
			db.registerRerun(cmd, cellRerun(func(ctx context.Context, in *array.Array) (*array.Array, error) {
				return ops.ApplyCtx(ctx, in, specs, db.reg)
			}))
		}
	case *parser.ProjectExpr:
		in := child(n.In, 1)
		cmd := db.log.Append(&provenance.Command{
			Kind: provenance.KindElementwise, Input: in, Output: target, Time: now,
			Text: parser.Format(&parser.Store{Expr: n, Target: target}),
		})
		db.registerRerun(cmd, cellRerun(func(ctx context.Context, in *array.Array) (*array.Array, error) {
			return ops.Project(ctx, in, n.Attrs)
		}))
	case *parser.RegridExpr:
		in := child(n.In, 1)
		cmd := &provenance.Command{
			Kind: provenance.KindRegrid, Input: in, Output: target, Time: now,
			Strides: n.Strides,
			Text:    parser.Format(&parser.Store{Expr: n, Target: target}),
		}
		if src, err := db.scanAll(context.Background(), in); err == nil {
			cmd.InBounds = src.Bounds()
			cmd.InDims = len(src.Schema.Dims)
		}
		db.log.Append(cmd)
		db.registerRerun(cmd, ops.FoldSpec{Strides: n.Strides, Aggs: []ops.AggSpec{aggSpec(n.Agg)}})
	case *parser.AggregateExpr:
		in := child(n.In, 1)
		cmd := &provenance.Command{
			Kind: provenance.KindAggregate, Input: in, Output: target, Time: now,
			Text: parser.Format(&parser.Store{Expr: n, Target: target}),
		}
		if src, err := db.scanAll(context.Background(), in); err == nil {
			cmd.InBounds = src.Bounds()
			cmd.InDims = len(src.Schema.Dims)
			for _, g := range n.GroupDims {
				if d := src.Schema.DimIndex(g); d >= 0 {
					cmd.GroupDims = append(cmd.GroupDims, d)
				}
			}
		}
		db.log.Append(cmd)
		db.registerRerun(cmd, ops.FoldSpec{Dims: n.GroupDims, Aggs: aggSpecs(n.Aggs)})
	case *parser.SubsampleExpr:
		in := child(n.In, 1)
		cmd := &provenance.Command{
			Kind: provenance.KindSubsample, Input: in, Output: target, Time: now,
			Text: parser.Format(&parser.Store{Expr: n, Target: target}),
		}
		if src, err := db.scanAll(context.Background(), in); err == nil {
			if conds, err := dimConds(n.Pred); err == nil {
				cmd.Sel, _ = ops.Selection(src, conds)
			}
		}
		db.log.Append(cmd)
		if cmd.Sel != nil {
			db.registerRerun(cmd, subsampleRerun{sel: cmd.Sel})
		}
	default:
		// Joins, reshape, cross, concat, dims: logged as lineage barriers.
		db.log.Append(&provenance.Command{
			Kind: provenance.KindLoad, Output: target, Time: now,
			Text: fmt.Sprintf("store %T into %s (lineage barrier)", e, target),
		})
	}
	return target
}
