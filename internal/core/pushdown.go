package core

// Compressed-execution pushdown: the planner fuses a grand-total
// AGGREGATE over a FILTER of a store-backed array into one zone-pruned
// store scan. Buckets whose zone maps prove the predicate false
// everywhere are never read from disk; the surviving cells run through
// the ordinary Filter and Aggregate operators so results stay
// bit-identical to the unfused plan.

import (
	"context"

	"scidb/internal/array"
	"scidb/internal/ops"
	"scidb/internal/parser"
	"scidb/internal/udf"
)

// evalStoreFilterAggregate recognizes AGGREGATE(FILTER(store-ref), no
// group dims) and executes it with storage-level bucket pruning. done is
// false when the shape, the predicate, or the aggregates disqualify the
// fusion (the caller then runs the generic plan, which still benefits
// from the chunk-level encoded views).
//
// Correctness rests on three gates. Pruned cells are exactly those the
// Filter would have emitted as all-NULL rows, so (1) every aggregate must
// ignore NULLs — the RunAggregate contract — making those rows
// no-ops; (2) the predicate must be pure, since skipped cells skip
// evaluation and must not swallow evaluation errors; and (3) the store
// only prunes buckets where skipping cannot unshadow older data.
func (db *Database) evalStoreFilterAggregate(ctx context.Context, n *parser.AggregateExpr) (*array.Array, bool, error) {
	if len(n.GroupDims) != 0 {
		return nil, false, nil
	}
	f, ok := n.In.(*parser.FilterExpr)
	if !ok {
		return nil, false, nil
	}
	st := db.storeBackedFor(f.In)
	if st == nil {
		return nil, false, nil
	}
	pred, err := valExpr(f.Pred)
	if err != nil {
		return nil, false, nil // let the generic path surface the error
	}
	schema := st.Schema()
	pred = lowerRefs(pred, schema)
	for _, a := range n.Aggs {
		fac, err := db.reg.Aggregate(a.Func)
		if err != nil {
			return nil, false, nil
		}
		if _, ok := fac().(udf.RunAggregate); !ok {
			return nil, false, nil
		}
	}
	if !ops.PredPure(pred, schema) {
		return nil, false, nil
	}
	zpreds := ops.ZonePreds(pred, schema)
	if len(zpreds) == 0 {
		return nil, false, nil
	}
	box := storeBox(schema)
	// Cost model: fuse only when the zone maps actually eliminate buckets;
	// with nothing to skip the pruned scan is a plain scan and the generic
	// plan's chunk-wise materialization is strictly better (it keeps the
	// encoded views for the operators).
	if skip, _ := st.EstimateSkip(box, zpreds); skip == 0 {
		return nil, false, nil
	}
	in, skipped, err := readStoreBox(st, box, zpreds)
	if err != nil {
		return nil, false, err
	}
	if in.Count() == 0 {
		// Every cell was pruned, but the store is not empty (EstimateSkip
		// found skippable buckets, and buckets always hold cells). The
		// unfused plan would still feed the aggregates their all-NULL
		// filter rows and emit an occupied result row (NULL sums, zero
		// counts); one synthetic all-NULL cell reproduces that occupancy
		// through the identical pipeline.
		nullCell := make(array.Cell, len(schema.Attrs))
		for i, at := range schema.Attrs {
			nullCell[i] = array.NullValue(at.Type)
		}
		if err := in.Set(box.Lo.Clone(), nullCell); err != nil {
			return nil, false, err
		}
	}
	ops.NoteEncChunksSkipped(ctx, skipped)
	filtered, err := ops.FilterCtx(ctx, in, pred, db.reg)
	if err != nil {
		return nil, false, err
	}
	specs := make([]ops.AggSpec, len(n.Aggs))
	for i, a := range n.Aggs {
		specs[i] = ops.AggSpec{Agg: a.Func, Attr: a.Attr, As: a.As}
	}
	res, err := ops.AggregateCtx(ctx, filtered, nil, specs, db.reg)
	if err != nil {
		return nil, false, err
	}
	return res, true, nil
}

// localName reports whether a name resolves locally (local definitions
// shadow cluster arrays, so a pushdown must not hijack them).
func (db *Database) localName(name string) bool {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.nameTakenLocked(name) || db.attached[name] != nil
}

// evalClusterFilterAggregate is the distributed twin: a grand-total
// aggregate over a filtered cluster array gathers only the cells whose
// zone-map conjuncts hold — workers prune whole buckets before shipping
// bytes — then runs the ordinary Filter and Aggregate operators locally,
// so results stay bit-identical to the gather-everything plan (unlike the
// float-partial pushdown, which only applies to bare references).
//
// The shipped conjuncts may be a subset of the predicate: workers then
// return a superset of the matching cells and the local Filter finishes
// the job. The same RunAggregate gate as the store pushdown makes the
// dropped (predicate-false) cells invisible to the aggregates.
func (db *Database) evalClusterFilterAggregate(ctx context.Context, n *parser.AggregateExpr) (*array.Array, bool, error) {
	co := db.Cluster()
	if co == nil || len(n.GroupDims) != 0 {
		return nil, false, nil
	}
	f, ok := n.In.(*parser.FilterExpr)
	if !ok {
		return nil, false, nil
	}
	ref, ok := f.In.(*parser.Ref)
	if !ok || !co.Has(ref.Name) || db.localName(ref.Name) {
		return nil, false, nil
	}
	for _, a := range n.Aggs {
		fac, err := db.reg.Aggregate(a.Func)
		if err != nil {
			return nil, false, nil
		}
		if _, ok := fac().(udf.RunAggregate); !ok {
			return nil, false, nil
		}
	}
	sch, err := co.ArraySchema(ref.Name)
	if err != nil {
		return nil, true, err
	}
	pred, err := valExpr(f.Pred)
	if err != nil {
		return nil, false, nil
	}
	pred = lowerRefs(pred, sch)
	if !ops.PredPure(pred, sch) {
		return nil, false, nil
	}
	zpreds := ops.ZonePreds(pred, sch)
	if len(zpreds) == 0 {
		return nil, false, nil
	}
	box := fullClusterBox(len(sch.Dims))
	in, _, err := co.ScanPruned(ctx, ref.Name, box, zpreds)
	if err != nil {
		return nil, false, err
	}
	if in.Count() == 0 {
		// Distinguish "everything filtered away" from "empty array": the
		// former still occupies the grand-total row in the unfused plan.
		total, err := co.CountCtx(ctx, ref.Name)
		if err != nil {
			return nil, false, err
		}
		if total > 0 {
			nullCell := make(array.Cell, len(sch.Attrs))
			for i, at := range sch.Attrs {
				nullCell[i] = array.NullValue(at.Type)
			}
			if err := in.Set(box.Lo.Clone(), nullCell); err != nil {
				return nil, false, err
			}
		}
	}
	filtered, err := ops.FilterCtx(ctx, in, pred, db.reg)
	if err != nil {
		return nil, false, err
	}
	specs := make([]ops.AggSpec, len(n.Aggs))
	for i, a := range n.Aggs {
		specs[i] = ops.AggSpec{Agg: a.Func, Attr: a.Attr, As: a.As}
	}
	res, err := ops.AggregateCtx(ctx, filtered, nil, specs, db.reg)
	if err != nil {
		return nil, false, err
	}
	return res, true, nil
}
