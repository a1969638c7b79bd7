package ops

// Chunk execution: the one body of the hot operators (Filter, Apply,
// Aggregate, Regrid, Subsample, Sjoin). The paper's premise (§2.4, §2.10) is
// that array operators are per-chunk kernels over a regular chunked layout:
// each task processes one whole input chunk and either writes one disjoint
// output chunk, installed with PutChunk after the barrier — no locking on
// the output — or folds the chunk into a partial accumulator table.
// exec.Pool.Map schedules the tasks: inline and in index order on the caller
// when the pool's parallelism is 1 or there is a single task, spread over
// recruited workers otherwise. There is no second path to select.
//
// Three invariants make the result independent of that schedule:
//
//   - Input arrays are strictly read-only during a run. Tasks use PeekAt /
//     peeker (never At, whose last-chunk cache mutates) and never call
//     CellsPresent on shared chunks (Bitmap.Count trims in place);
//     liveChunks warms Chunks() and presence counts before the fan-out.
//   - Aggregate/Regrid partials are one table per chunk, merged at the
//     barrier in chunk order whichever worker produced them.
//   - The columnar fast paths reuse evalArith/evalCmp/evalLogic and mirror
//     Column.Get, so compiled and boxed evaluation are interchangeable.
//
// Output schemas pin the effective chunk stride explicitly (dimsWithHwm) so
// per-input-chunk tasks land on the output's own grid.

import (
	"context"
	"fmt"

	"scidb/internal/array"
	"scidb/internal/exec"
	"scidb/internal/udf"
)

// liveChunks returns a's non-empty chunks in origin order, warming the
// array's lazy caches (sorted chunk list, presence counts) so tasks only
// ever read.
func liveChunks(a *array.Array) []*array.Chunk {
	var work []*array.Chunk
	for _, ch := range a.Chunks() {
		if ch.CellsPresent() > 0 {
			work = append(work, ch)
		}
	}
	return work
}

// mapChunks runs task(0..n-1) on the process pool and installs the chunks
// they return (nil for none) into res, in task order.
func mapChunks(ctx context.Context, res *array.Array, n int, task func(i int) (*array.Chunk, error)) error {
	pool := exec.Default()
	outCh := make([]*array.Chunk, n)
	err := pool.Map(ctx, n, func(i int) (err error) {
		outCh[i], err = task(i)
		return err
	})
	if err != nil {
		return err
	}
	pool.NoteChunks(int64(n))
	for _, oc := range outCh {
		if oc != nil {
			res.PutChunk(oc)
		}
	}
	return nil
}

// effChunkLen is the stride dimension d of a actually chunks on: the
// declared ChunkLen, the default stride for unbounded dimensions, or 0 for
// bounded dimensions stored as one span.
func effChunkLen(d array.Dimension) int64 {
	if d.ChunkLen > 0 {
		return d.ChunkLen
	}
	if d.High == array.Unbounded {
		return array.DefaultChunkLen
	}
	return 0
}

// dimsWithHwm is the one output-dimensions rule: a's dimensions with
// unbounded ones pinned to their current high-water marks, so operator
// outputs are bounded, and with the effective chunk stride pinned too, so
// the output grid coincides with the input's and a task over one input
// chunk emits one aligned output chunk.
func dimsWithHwm(a *array.Array) []array.Dimension {
	out := make([]array.Dimension, len(a.Schema.Dims))
	for i, d := range a.Schema.Dims {
		out[i] = array.Dimension{Name: d.Name, High: max64(a.Hwm(i), 1), ChunkLen: effChunkLen(d)}
	}
	return out
}

func shapeEq(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// eachPresent walks ch's present slots in row-major order, passing the slot
// index and the coordinate (reused between calls).
func eachPresent(ch *array.Chunk, fn func(idx int64, c array.Coord) error) error {
	nd := len(ch.Origin)
	c := ch.Origin.Clone()
	slots := ch.Slots()
	for idx := int64(0); idx < slots; idx++ {
		if ch.Present.Get(idx) {
			if err := fn(idx, c); err != nil {
				return err
			}
		}
		for d := nd - 1; d >= 0; d-- {
			c[d]++
			if c[d] < ch.Origin[d]+ch.Shape[d] {
				break
			}
			c[d] = ch.Origin[d]
		}
	}
	return nil
}

// boxedCell reads slot idx of ch into cell, one boxed Value per attribute —
// the input of the generic expression evaluator.
func boxedCell(ch *array.Chunk, idx int64, cell array.Cell) {
	for ai, col := range ch.Cols {
		cell[ai] = col.Get(idx)
	}
}

// peeker reads cells of a shared input array through a task-private
// last-chunk cache, so concurrent tasks never touch the array's own mutable
// cache (Array.At is not safe for concurrent use; PeekAt and this are).
type peeker struct {
	a    *array.Array
	last *array.Chunk
	box  array.Box
}

// get resolves c to its chunk and slot; ok is false for absent cells.
func (p *peeker) get(c array.Coord) (*array.Chunk, int64, bool) {
	if !p.a.CoordInside(c) {
		return nil, 0, false
	}
	if p.last == nil || !p.box.Contains(c) {
		ch, ok := p.a.ChunkAt(c)
		if !ok {
			return nil, 0, false
		}
		p.last, p.box = ch, ch.Box()
	}
	idx := p.last.Index(c)
	if !p.last.Present.Get(idx) {
		return nil, 0, false
	}
	return p.last, idx, true
}

// gridOrigins enumerates the chunk origins of a's grid covering its full
// declared bounds, in origin order. The array's dimensions must be bounded.
func gridOrigins(a *array.Array) []array.Coord {
	dims := a.Schema.Dims
	nd := len(dims)
	steps := make([]int64, nd)
	for i, d := range dims {
		steps[i] = effChunkLen(d)
		if steps[i] <= 0 {
			steps[i] = d.High
		}
	}
	var out []array.Coord
	cur := make(array.Coord, nd)
	for i := range cur {
		cur[i] = 1
	}
	for {
		out = append(out, cur.Clone())
		d := nd - 1
		for d >= 0 {
			cur[d] += steps[d]
			if cur[d] <= dims[d].High {
				break
			}
			cur[d] = 1
			d--
		}
		if d < 0 {
			break
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Columnar expression compilation

// colEval is a compiled per-chunk expression: it reads attribute vectors and
// null bitmaps directly instead of boxing the whole cell into a Cell.
type colEval func(idx int64, c array.Coord) (array.Value, error)

func colSigma(col *array.Column, idx int64) float64 {
	switch {
	case col.HasShared:
		return col.SharedSigma
	case col.Sigma != nil:
		return col.Sigma[idx]
	}
	return 0
}

// compileExpr compiles e against one chunk's columns. It returns nil when
// the expression uses features the columnar path doesn't cover (string or
// nested-array attributes, UDF calls); callers fall back to the generic
// boxed-cell evaluator. Compiled evaluation produces identical Values: leaf
// access mirrors Column.Get / DimRef.Eval and operators reuse evalArith,
// evalCmp, and evalLogic.
func compileExpr(e Expr, s *array.Schema, ch *array.Chunk) colEval {
	switch n := e.(type) {
	case Const:
		v := n.V
		return func(int64, array.Coord) (array.Value, error) { return v, nil }
	case AttrRef:
		ai := s.AttrIndex(n.Name)
		if ai < 0 || ai >= len(ch.Cols) {
			return nil
		}
		col := ch.Cols[ai]
		switch col.Type {
		case array.TInt64:
			return func(idx int64, _ array.Coord) (array.Value, error) {
				if col.Nulls.Get(idx) {
					return array.Value{Type: array.TInt64, Null: true}, nil
				}
				return array.Value{Type: array.TInt64, Int: col.Ints[idx], Sigma: colSigma(col, idx)}, nil
			}
		case array.TFloat64:
			return func(idx int64, _ array.Coord) (array.Value, error) {
				if col.Nulls.Get(idx) {
					return array.Value{Type: array.TFloat64, Null: true}, nil
				}
				return array.Value{Type: array.TFloat64, Float: col.Floats[idx], Sigma: colSigma(col, idx)}, nil
			}
		case array.TBool:
			return func(idx int64, _ array.Coord) (array.Value, error) {
				if col.Nulls.Get(idx) {
					return array.Value{Type: array.TBool, Null: true}, nil
				}
				return array.Value{Type: array.TBool, Bool: col.Bools[idx], Sigma: colSigma(col, idx)}, nil
			}
		}
		return nil
	case DimRef:
		d := s.DimIndex(n.Name)
		if d < 0 {
			return nil
		}
		return func(_ int64, c array.Coord) (array.Value, error) { return array.Int64(c[d]), nil }
	case Binary:
		l := compileExpr(n.L, s, ch)
		if l == nil {
			return nil
		}
		r := compileExpr(n.R, s, ch)
		if r == nil {
			return nil
		}
		op := n.Op
		switch op {
		case OpAdd, OpSub, OpMul, OpDiv, OpMod:
			return func(idx int64, c array.Coord) (array.Value, error) {
				lv, err := l(idx, c)
				if err != nil {
					return array.Value{}, err
				}
				rv, err := r(idx, c)
				if err != nil {
					return array.Value{}, err
				}
				return evalArith(op, lv, rv)
			}
		case OpEq, OpNe, OpLt, OpLe, OpGt, OpGe:
			return func(idx int64, c array.Coord) (array.Value, error) {
				lv, err := l(idx, c)
				if err != nil {
					return array.Value{}, err
				}
				rv, err := r(idx, c)
				if err != nil {
					return array.Value{}, err
				}
				return evalCmp(op, lv, rv), nil
			}
		case OpAnd, OpOr:
			return func(idx int64, c array.Coord) (array.Value, error) {
				lv, err := l(idx, c)
				if err != nil {
					return array.Value{}, err
				}
				rv, err := r(idx, c)
				if err != nil {
					return array.Value{}, err
				}
				return evalLogic(op, lv, rv), nil
			}
		}
		return nil
	case Not:
		inner := compileExpr(n.E, s, ch)
		if inner == nil {
			return nil
		}
		return func(idx int64, c array.Coord) (array.Value, error) {
			v, err := inner(idx, c)
			if err != nil || v.Null {
				return v, err
			}
			return array.Bool64(!v.Bool), nil
		}
	}
	return nil
}

// vecPred recognizes the attribute-compare-constant predicate shape and
// returns a tight vector kernel over the column (null bit → NULL → false,
// matching Truthy); nil when the predicate has any other shape. Comparisons
// mirror Value.Compare (AsFloat ordering, so <= is !(a > b) to keep NaN
// behaviour) and Value.Equal (exact int64 equality for int-int).
func vecPred(pred Expr, s *array.Schema, ch *array.Chunk) func(idx int64) bool {
	b, ok := pred.(Binary)
	if !ok {
		return nil
	}
	switch b.Op {
	case OpEq, OpNe, OpLt, OpLe, OpGt, OpGe:
	default:
		return nil
	}
	ar, ok := b.L.(AttrRef)
	if !ok {
		return nil
	}
	co, ok := b.R.(Const)
	if !ok {
		return nil
	}
	ai := s.AttrIndex(ar.Name)
	if ai < 0 || ai >= len(ch.Cols) {
		return nil
	}
	col := ch.Cols[ai]
	cv := co.V
	if cv.Null {
		// Comparing with NULL yields NULL, which Filter treats as false.
		return func(int64) bool { return false }
	}
	if cv.Type != array.TInt64 && cv.Type != array.TFloat64 {
		return nil
	}
	nulls := col.Nulls
	cf := cv.AsFloat()
	switch col.Type {
	case array.TInt64:
		ints := col.Ints
		switch b.Op {
		case OpEq:
			if cv.Type == array.TInt64 {
				ci := cv.Int
				return func(i int64) bool { return !nulls.Get(i) && ints[i] == ci }
			}
			return func(i int64) bool { return !nulls.Get(i) && float64(ints[i]) == cf }
		case OpNe:
			if cv.Type == array.TInt64 {
				ci := cv.Int
				return func(i int64) bool { return !nulls.Get(i) && ints[i] != ci }
			}
			return func(i int64) bool { return !nulls.Get(i) && float64(ints[i]) != cf }
		case OpLt:
			return func(i int64) bool { return !nulls.Get(i) && float64(ints[i]) < cf }
		case OpLe:
			return func(i int64) bool { return !nulls.Get(i) && !(float64(ints[i]) > cf) }
		case OpGt:
			return func(i int64) bool { return !nulls.Get(i) && float64(ints[i]) > cf }
		case OpGe:
			return func(i int64) bool { return !nulls.Get(i) && !(float64(ints[i]) < cf) }
		}
	case array.TFloat64:
		floats := col.Floats
		switch b.Op {
		case OpEq:
			return func(i int64) bool { return !nulls.Get(i) && floats[i] == cf }
		case OpNe:
			return func(i int64) bool { return !nulls.Get(i) && floats[i] != cf }
		case OpLt:
			return func(i int64) bool { return !nulls.Get(i) && floats[i] < cf }
		case OpLe:
			return func(i int64) bool { return !nulls.Get(i) && !(floats[i] > cf) }
		case OpGt:
			return func(i int64) bool { return !nulls.Get(i) && floats[i] > cf }
		case OpGe:
			return func(i int64) bool { return !nulls.Get(i) && !(floats[i] < cf) }
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Grouped folds (Aggregate, Regrid)

// aggCol is one resolved aggregate: the input attribute it reads and the
// accumulator factory.
type aggCol struct {
	attr int
	fac  udf.AggregateFactory
}

// resolveAgg resolves one AggSpec against s: the column it folds and the
// output attribute it produces ("*" or "" aggregates the first attribute;
// count is integer, avg and stdev float, the rest follow the input).
func resolveAgg(s *array.Schema, sp AggSpec, reg *udf.Registry) (aggCol, array.Attribute, error) {
	fac, err := reg.Aggregate(sp.Agg)
	if err != nil {
		return aggCol{}, array.Attribute{}, err
	}
	attr := 0
	if sp.Attr != "*" && sp.Attr != "" {
		if attr = s.AttrIndex(sp.Attr); attr < 0 {
			return aggCol{}, array.Attribute{}, fmt.Errorf("ops: unknown attribute %q in aggregate", sp.Attr)
		}
	}
	name := sp.As
	if name == "" {
		name = sp.Agg + "_" + s.Attrs[attr].Name
	}
	t := s.Attrs[attr].Type
	switch sp.Agg {
	case "count":
		t = array.TInt64
	case "avg", "stdev":
		t = array.TFloat64
	}
	return aggCol{attr: attr, fac: fac}, array.Attribute{Name: name, Type: t, Uncertain: s.Attrs[attr].Uncertain}, nil
}

// groupDim is one dimension of a fold's group space: input dimension dim
// coarsened by stride. A cell at coordinate c falls in group (c-1)/stride
// (zero-based) along it. Aggregate groups with stride 1; Regrid coarsens
// every dimension.
type groupDim struct {
	dim    int
	stride int64
}

// aggTable is a dense table of accumulators over a box of the group space:
// one row of len(cols) accumulators per group, rows in row-major order. A
// row's accumulators are created when its first present cell arrives, so a
// nil row is a group with no cells.
type aggTable struct {
	lo, shape []int64 // the box, in zero-based group indices per groupDim
	cols      []aggCol
	accs      []udf.Aggregate
}

func newAggTable(lo, shape []int64, cols []aggCol) *aggTable {
	rows := int64(1)
	for _, n := range shape {
		rows *= n
	}
	return &aggTable{lo: lo, shape: shape, cols: cols, accs: make([]udf.Aggregate, rows*int64(len(cols)))}
}

// chunkTable sizes a table to the groups ch's box can reach.
func chunkTable(ch *array.Chunk, gdims []groupDim, cols []aggCol) *aggTable {
	lo := make([]int64, len(gdims))
	shape := make([]int64, len(gdims))
	for k, g := range gdims {
		lo[k] = (ch.Origin[g.dim] - 1) / g.stride
		shape[k] = (ch.Origin[g.dim]+ch.Shape[g.dim]-2)/g.stride - lo[k] + 1
	}
	return newAggTable(lo, shape, cols)
}

// row returns the accumulators of row r, creating them on first use.
func (t *aggTable) row(r int64) []udf.Aggregate {
	nc := int64(len(t.cols))
	accs := t.accs[r*nc : (r+1)*nc]
	if accs[0] == nil {
		for k, col := range t.cols {
			accs[k] = col.fac()
		}
	}
	return accs
}

// fold steps every present cell of ch into its group's row, in slot order.
// With an empty group space (a grand total) whole columns go through the
// compressed-execution paths first.
func (t *aggTable) fold(ch *array.Chunk, gdims []groupDim, st *encStats) {
	if len(gdims) == 0 {
		accs := t.row(0)
		var pend []int
		for k, col := range t.cols {
			if !encAggColumn(ch, col.attr, accs[k], st) {
				pend = append(pend, k)
			}
		}
		if len(pend) == 0 {
			return
		}
		for i := ch.Present.NextSet(0); i < ch.Slots(); i = ch.Present.NextSet(i + 1) {
			for _, k := range pend {
				accs[k].Step(ch.Cols[t.cols[k].attr].Get(i))
			}
		}
		return
	}
	// rstride[k] is the row-major stride of group dimension k in t.
	rstride := make([]int64, len(gdims))
	rows := int64(1)
	for k := len(gdims) - 1; k >= 0; k-- {
		rstride[k] = rows
		rows *= t.shape[k]
	}
	last := len(ch.Shape) - 1
	ch.Rows(ch.Box(), func(start, n int64, c array.Coord) {
		// A run varies only the innermost dimension: its first cell lands in
		// row r0, and when that dimension is grouped the row advances by
		// step every `every` cells, the run starting `phase` cells into one.
		var r0, step, phase int64
		every := int64(1)
		for k, g := range gdims {
			r0 += ((c[g.dim]-1)/g.stride - t.lo[k]) * rstride[k]
			if g.dim == last {
				step, every, phase = rstride[k], g.stride, (c[last]-1)%g.stride
			}
		}
		var accs []udf.Aggregate
		cur := int64(-1)
		for i := ch.Present.NextSet(start); i < start+n; i = ch.Present.NextSet(i + 1) {
			r := r0
			if step != 0 {
				r += (phase + i - start) / every * step
			}
			if r != cur {
				accs, cur = t.row(r), r
			}
			t.step(accs, ch, i)
		}
	})
}

// step feeds slot i of ch to one row's accumulators, boxing each input
// column once however many aggregates read it.
func (t *aggTable) step(accs []udf.Aggregate, ch *array.Chunk, i int64) {
	var v array.Value
	boxed := -1
	for k, col := range t.cols {
		if col.attr != boxed {
			v, boxed = ch.Cols[col.attr].Get(i), col.attr
		}
		accs[k].Step(v)
	}
}

// merge folds o's rows into t's rows for the same groups; o's box must lie
// inside t's. A group t has not seen adopts o's accumulators outright.
func (t *aggTable) merge(o *aggTable) error {
	nc := int64(len(t.cols))
	orows := int64(len(o.accs)) / nc
	g := make([]int64, len(o.shape))
	for r := int64(0); r < orows; r++ {
		src := o.accs[r*nc : (r+1)*nc]
		if src[0] == nil {
			continue
		}
		// Decompose r over o's box and recompose over t's.
		rem, tr, mul := r, int64(0), int64(1)
		for k := len(g) - 1; k >= 0; k-- {
			g[k] = o.lo[k] + rem%o.shape[k]
			rem /= o.shape[k]
			tr += (g[k] - t.lo[k]) * mul
			mul *= t.shape[k]
		}
		dst := t.accs[tr*nc : (tr+1)*nc]
		if dst[0] == nil {
			copy(dst, src)
			continue
		}
		for k := range dst {
			if err := dst[k].(udf.MergeableAggregate).Merge(src[k]); err != nil {
				return err
			}
		}
	}
	return nil
}

// foldGroups is the body of Aggregate and Regrid: every present cell of a
// steps the accumulators of its group, and the groups that saw a cell become
// the cells of the result — a single chunk spanning out's dimensions, whose
// row-major slots are the global table's rows.
//
// When every aggregate can Merge, each chunk folds into a table sized to its
// own extent of the group space, as a pool task, and the partials merge in
// chunk order. Otherwise the same kernel runs over the chunks in order on
// the caller, stepping the global table directly.
func foldGroups(ctx context.Context, a *array.Array, gdims []groupDim, cols []aggCol, out *array.Schema) (*array.Array, error) {
	res, err := array.New(out)
	if err != nil {
		return nil, err
	}
	work := liveChunks(a)
	spanChunks(ctx, work)
	shape := make([]int64, len(gdims))
	for k := range gdims {
		shape[k] = out.Dims[k].High
	}
	global := newAggTable(make([]int64, len(gdims)), shape, cols)
	stats := make([]encStats, len(work))
	mergeable := true
	for _, c := range cols {
		if _, ok := c.fac().(udf.MergeableAggregate); !ok {
			mergeable = false
		}
	}
	if mergeable {
		pool := exec.Default()
		locals := make([]*aggTable, len(work))
		err = pool.Map(ctx, len(work), func(i int) error {
			locals[i] = chunkTable(work[i], gdims, cols)
			locals[i].fold(work[i], gdims, &stats[i])
			return nil
		})
		if err != nil {
			return nil, err
		}
		pool.NoteChunks(int64(len(work)))
		for _, local := range locals {
			if err := global.merge(local); err != nil {
				return nil, err
			}
		}
	} else {
		for i, ch := range work {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			global.fold(ch, gdims, &stats[i])
		}
	}
	publishEncStats(ctx, stats)

	origin := make(array.Coord, len(out.Dims))
	for i := range origin {
		origin[i] = 1
	}
	oc := array.NewChunk(out, origin, res.GridShape(origin))
	nc := int64(len(cols))
	for r := int64(0); r < oc.Slots(); r++ {
		accs := global.accs[r*nc : (r+1)*nc]
		if accs[0] == nil {
			continue
		}
		oc.Present.Set(r)
		for k, acc := range accs {
			oc.Cols[k].Set(r, acc.Result())
		}
	}
	if oc.CellsPresent() > 0 {
		res.PutChunk(oc)
	}
	return res, nil
}
