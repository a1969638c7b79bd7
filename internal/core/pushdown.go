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
// name, and how much of it the operators directly above need.
type leaf struct {
	ref *parser.Ref
	// via is the filter between the operator that narrowed the leaf and ref,
	// if any.
	via *parser.FilterExpr
	src source
	// box is the whole array unless a subsample narrowed it (boxed).
	box   array.Box
	boxed bool
	// preds are the zone conjuncts of via's predicate.
	preds []array.ZonePred
	// partials: the fold above (aggregate, regrid) runs as per-node partial
	// tables of fold and the leaf is never read.
	partials bool
	fold     ops.FoldSpec
}

// pushdown is the one rule list. For an operator sitting directly on an
// array reference it resolves that reference and peels off whatever the
// source may apply while reading; every rule but the last is a hint under
// the read contract, so the operator still runs over what comes back. It
// returns nil for any other expression.
func (db *Database) pushdown(e parser.ArrayExpr) (*leaf, error) {
	sub, _ := e.(*parser.SubsampleExpr)
	agg, _ := e.(*parser.AggregateExpr)
	rg, _ := e.(*parser.RegridExpr)
	var via *parser.FilterExpr
	in := e
	switch {
	case sub != nil:
		in = sub.In
	case rg != nil:
		in = rg.In
	case agg != nil:
		if in = agg.In; len(agg.GroupDims) == 0 {
			if via, _ = in.(*parser.FilterExpr); via != nil {
				in = via.In
			}
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
	lf := &leaf{ref: ref, via: via, src: src, box: array.WholeBox(schema)}
	switch {
	case sub != nil:
		// A subsample whose conjuncts are all ranges reads only their box.
		if box, ok := subsampleBox(schema, sub.Pred); ok {
			lf.box, lf.boxed = box, true
		}
	case via != nil:
		// A grand total over a filter reads only what the filter's zone
		// conjuncts cannot refute. The cells left out are exactly those the
		// filter would have turned into all-NULL rows, so every aggregate
		// must ignore NULLs (the RunAggregate contract), and the predicate
		// must be pure: skipped cells skip evaluation and must not swallow
		// its errors. (Grouped aggregates need every cell's coordinates.)
		pred, err := valExpr(via.Pred)
		if err != nil || !db.ignoreNulls(agg.Aggs) {
			break // a bad predicate is the filter's to report
		}
		if pred = lowerRefs(pred, schema); ops.PredPure(pred, schema) {
			lf.preds = ops.ZonePreds(pred, schema)
		}
	case agg != nil || rg != nil:
		// A fold directly over a cluster array ships partial tables, not
		// cells, when all its state is typed: what NewFold without a registry
		// admits. (Nor is a malformed fold pushed: the operator reports it.)
		if _, can := src.(clusterSource); can {
			if agg != nil {
				lf.fold = ops.FoldSpec{Dims: agg.GroupDims, Aggs: aggSpecs(agg.Aggs)}
			} else {
				lf.fold = ops.FoldSpec{Strides: rg.Strides, Aggs: []ops.AggSpec{aggSpec(rg.Agg)}}
			}
			_, err := ops.NewFold(schema, lf.fold, nil)
			lf.partials = err == nil
		}
	}
	return lf, nil
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
	a, withheld, err := lf.src.read(ctx, lf.box, lf.preds)
	if err != nil || !withheld || a.Count() > 0 {
		return a, err
	}
	null := make(array.Cell, len(a.Schema.Attrs))
	for i, at := range a.Schema.Attrs {
		null[i] = array.NullValue(at.Type)
	}
	return a, a.Set(lf.box.Lo.Clone(), null)
}

// describe renders the leaf's part of a plan line.
func (lf *leaf) describe() string {
	s := " [" + lf.src.kind() + "]"
	if lf.boxed {
		s += " box=" + strings.ReplaceAll(lf.box.String(), " ", "")
	}
	for i, p := range lf.preds {
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
