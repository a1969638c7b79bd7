package core

import (
	"context"
	"strings"

	"scidb/internal/array"
	"scidb/internal/ops"
	"scidb/internal/parser"
	"scidb/internal/udf"
)

// leaf is one array reference as it will be read: the source behind the
// name, and the fragment of the operators directly above it that the source
// runs while reading.
type leaf struct {
	ref *parser.Ref
	// via is the filter between the operator that narrowed the leaf and ref,
	// if any.
	via *parser.FilterExpr
	src source
	// frag.Box is the whole array unless a subsample narrowed it, frag.Preds
	// the zone conjuncts of via's predicate; both are hints. With frag.Fold
	// the fold above (aggregate, regrid) runs as per-node partial tables:
	// the read answers for it, and nothing between it and ref is evaluated —
	// the box is then exact, and the conjuncts are all of via's predicate.
	frag ops.Fragment
}

// pushdown is the one rule list. For an operator sitting directly on an
// array reference — or a grand total with one filter or subsample between —
// it resolves that reference and peels off whatever the source may apply
// while reading; without a fold every rule is a hint under the read contract,
// so the operator still runs over what comes back. It returns nil for any
// other expression.
func (db *Database) pushdown(e parser.ArrayExpr) (*leaf, error) {
	var sub *parser.SubsampleExpr
	var via *parser.FilterExpr
	var aggs []parser.AggSpec
	var fold *ops.FoldSpec
	in := e
	switch n := e.(type) {
	case *parser.SubsampleExpr:
		sub, in = n, n.In
	case *parser.RegridExpr:
		fold, in = &ops.FoldSpec{Strides: n.Strides, Aggs: []ops.AggSpec{aggSpec(n.Agg)}}, n.In
	case *parser.AggregateExpr:
		aggs, fold, in = n.Aggs, &ops.FoldSpec{Dims: n.GroupDims, Aggs: aggSpecs(n.Aggs)}, n.In
		if len(n.GroupDims) > 0 {
			break // grouped aggregates need every cell at its own coordinates
		}
		switch m := in.(type) {
		case *parser.FilterExpr:
			via, in = m, m.In
		case *parser.SubsampleExpr:
			sub, in = m, m.In
		}
	}
	ref, ok := in.(*parser.Ref)
	if !ok {
		return nil, nil
	}
	src, err := db.resolve(ref.Name)
	if err != nil {
		return nil, err
	}
	schema := src.schema()
	lf := &leaf{ref: ref, via: via, src: src, frag: ops.Fragment{Box: array.WholeBox(schema)}}
	switch {
	case sub != nil && fold == nil:
		// Rule 1: a subsample whose conjuncts are all ranges reads only
		// their box.
		if box, ok := subsampleBox(schema, sub.Pred); ok {
			lf.frag.Box = box
		}
	case via != nil:
		// Rule 2: a grand total over a filter. The filter's zone conjuncts go
		// with the read, and the cells they leave out are exactly those the
		// filter would have turned into all-NULL rows, so every aggregate must
		// ignore NULLs (the RunAggregate contract). When the conjuncts are the
		// whole predicate and the source folds, the fold goes too: each node
		// filters and folds where its cells are, and the row exists if any
		// node saw (or pruned) a cell. Otherwise they are a hint, the filter
		// runs over what comes back, and the predicate must be pure: skipped
		// cells skip evaluation and must not swallow its errors.
		pred, err := valExpr(via.Pred)
		if err != nil || !db.ignoreNulls(aggs) {
			break // a bad predicate is the filter's to report
		}
		preds, exact := ops.ZonePredsExact(pred, schema)
		switch {
		case exact && pushable(src, fold):
			lf.frag.Preds, lf.frag.Fold = preds, fold
		case ops.PredPure(pred, schema):
			lf.frag.Preds = preds
		}
	case sub != nil:
		// Rule 4: a grand total over a range-only subsample is the fold of
		// rule 3 over the subsample's box. Subsample re-indexes coordinates,
		// so only a fold that drops them all answers the same over the box
		// as over the subsample. When it cannot run that way the subsample
		// is its own leaf, and rule 1 applies when it is evaluated.
		box, ok := subsampleBox(schema, sub.Pred)
		if !ok || !pushable(src, fold) {
			return nil, nil
		}
		lf.frag.Box, lf.frag.Fold = box, fold
	case fold != nil && pushable(src, fold):
		// Rule 3: a fold directly over an array held in partitions ships
		// partial tables, not cells.
		lf.frag.Fold = fold
	}
	return lf, nil
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

// under returns lf for the child expressions on the path from the operator
// it was peeled off down to its reference, nil for any other child.
func (lf *leaf) under(child parser.ArrayExpr) *leaf {
	if lf != nil && (child == lf.ref || child == lf.via) {
		return lf
	}
	return nil
}

// read runs the leaf. When the predicates withheld every cell, the filter
// they came from would still have fed its aggregate all-NULL rows, and the
// grand-total row would be occupied (NULL sums, zero counts); one synthetic
// all-NULL cell reproduces that occupancy through the identical pipeline.
func (lf *leaf) read(ctx context.Context) (*array.Array, error) {
	a, withheld, err := lf.src.read(ctx, lf.frag)
	if err != nil || !withheld || a.Count() > 0 {
		return a, err
	}
	null := make(array.Cell, len(a.Schema.Attrs))
	for i, at := range a.Schema.Attrs {
		null[i] = array.NullValue(at.Type)
	}
	return a, a.Set(lf.frag.Box.Lo.Clone(), null)
}

// describe renders the leaf's part of a plan line.
func (lf *leaf) describe() string {
	s := " [" + lf.src.kind() + "]"
	if box := lf.frag.Box.String(); box != array.WholeBox(lf.src.schema()).String() {
		s += " box=" + strings.ReplaceAll(box, " ", "")
	}
	for i, p := range lf.frag.Preds {
		sep := " and "
		if i == 0 {
			sep = " preds="
		}
		s += sep + lf.src.schema().Attrs[p.Attr].Name + p.Op + p.Val.String()
	}
	return s
}

// ignoreNulls reports whether every aggregate is NULL-ignoring.
func (db *Database) ignoreNulls(aggs []parser.AggSpec) bool {
	for _, a := range aggs {
		fac, err := db.reg.Aggregate(a.Func)
		if err != nil {
			return false
		}
		if _, ok := fac().(udf.RunAggregate); !ok {
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
