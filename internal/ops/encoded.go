package ops

// Compressed execution (§2.8): operators consult the advisory views the
// storage decoder leaves on chunk columns — zone maps and encoded
// structure (RLE runs, dictionary codes) — to do less work per chunk.
// Three escalating paths, all producing cell-identical results to the
// decoded operators:
//
//   - Zone skip: a chunk whose zone maps prove the Filter predicate false
//     for every cell emits its all-NULL output without evaluating a
//     single cell. Aggregates skip chunks whose aggregated column holds
//     only NULLs.
//   - Dictionary codes: a string comparison is evaluated once per
//     dictionary entry instead of once per cell; cells then select by
//     code.
//   - Run-at-a-time: an RLE column evaluates the predicate (or feeds a
//     RunAggregate) once per run instead of once per cell, gated by a
//     run-density cost check.
//
// Everything here is advisory: a nil plan means "no encoded path
// applies" and the caller runs the decoded path it always had.

import (
	"context"
	"math/bits"

	"scidb/internal/array"
	"scidb/internal/obs"
	"scidb/internal/udf"
)

// Process-wide compressed-execution counters, also mirrored onto the
// query span (EXPLAIN ANALYZE) by publishEncStats.
var (
	encChunksSkipped   = obs.Default().Counter("scidb_enc_chunks_skipped", "Chunks whole-skipped by zone maps during operator execution.")
	encRunsEvaluated   = obs.Default().Counter("scidb_enc_runs_evaluated", "RLE runs evaluated run-at-a-time instead of cell-at-a-time.")
	encFallbackDecodes = obs.Default().Counter("scidb_enc_fallback_decodes", "Chunks carrying encoded views that still took the decoded path.")
)

// encRunDensityMin is the cost-model threshold for the run-at-a-time
// paths: they engage only when the average run covers at least this many
// slots, below which per-run bookkeeping costs more than it saves.
const encRunDensityMin = 2

// encStats accumulates one operator run's compressed-execution activity.
type encStats struct {
	skipped   int64 // chunks zone-skipped
	runs      int64 // RLE runs evaluated run-at-a-time
	fallbacks int64 // chunks with encoded views that went decoded
}

func (e *encStats) add(o encStats) {
	e.skipped += o.skipped
	e.runs += o.runs
	e.fallbacks += o.fallbacks
}

// publishEncStats sums an operator run's per-task stats and flushes them to
// the process counters and, when the query is traced, onto the current
// span. Call once per operator run from the driver goroutine.
func publishEncStats(ctx context.Context, tasks []encStats) {
	var e encStats
	for i := range tasks {
		e.add(tasks[i])
	}
	if e == (encStats{}) {
		return
	}
	encChunksSkipped.Add(e.skipped)
	encRunsEvaluated.Add(e.runs)
	encFallbackDecodes.Add(e.fallbacks)
	if span := obs.SpanFromContext(ctx); span != nil {
		span.Add("enc_chunks_skipped", e.skipped)
		span.Add("enc_runs_evaluated", e.runs)
		span.Add("enc_fallback_decodes", e.fallbacks)
	}
}

// ZonePreds exposes the predicate's zone-map conjuncts to the planner,
// which pushes them down to storage-level bucket pruning. Like every entry
// taking an expression, it resolves pred's names against s first.
func ZonePreds(pred Expr, s *array.Schema) []array.ZonePred {
	preds, _ := zonePreds(resolve(pred, s), s)
	return preds
}

// ZonePredsExact is ZonePreds plus whether the conjuncts are all of pred: its
// top-level AND-tree has no other leaf, so a cell passes pred exactly when
// CellMatchesPreds holds and the conjuncts may stand in for the filter. When
// false they are only a hint — a leaf was left out, and more cells match
// them than match pred.
func ZonePredsExact(pred Expr, s *array.Schema) (preds []array.ZonePred, exact bool) {
	return zonePreds(resolve(pred, s), s)
}

// PredPure exposes the error-freeness check to the planner: only pure
// predicates may have their evaluation skipped wholesale.
func PredPure(pred Expr, s *array.Schema) bool { return predPure(resolve(pred, s), s) }

// NoteEncChunksSkipped records n chunks skipped before decode — the
// storage-level half of compressed execution, called by the planner's
// pruned-scan pushdowns so the process counter and the query span (EXPLAIN
// ANALYZE) agree no matter which layer did the skipping.
func NoteEncChunksSkipped(ctx context.Context, n int64) {
	if n <= 0 {
		return
	}
	encChunksSkipped.Add(n)
	if span := obs.SpanFromContext(ctx); span != nil {
		span.Add("enc_chunks_skipped", n)
	}
}

// CellMatchesPreds applies zone-map conjuncts to one boxed cell with the
// engine's comparison semantics (evalCmp): a NULL attribute never
// matches, and every pred must hold. It is the definition PredMask's
// word kernels are tested against.
func CellMatchesPreds(preds []array.ZonePred, cell array.Cell) bool {
	for _, p := range preds {
		if p.Attr < 0 || p.Attr >= len(cell) {
			return false
		}
		v := evalCmp(BinOp(p.Op), cell[p.Attr], p.Val)
		if v.Null || !v.Bool {
			return false
		}
	}
	return true
}

// PredMask returns live minus every slot of ch whose cell fails some
// conjunct of preds: CellMatchesPreds, a mask word at a time. live is never
// written — it is often a pooled chunk's Present — and is itself the answer
// when no slot is cleared; otherwise the first clear copies it. Filter reads
// its keep bits from the mask, and a cluster worker trims each scanned
// chunk's live mask with it before folding or shipping cells.
func PredMask(preds []array.ZonePred, ch *array.Chunk, live *array.Bitmap) *array.Bitmap {
	out, words := live, live.Words()
	for _, p := range preds {
		for wi := range words {
			w := words[wi]
			if w == 0 {
				continue
			}
			if m := predWord(p, ch, wi, w&tailMask(live.Len(), wi)); m != w {
				if out == live {
					out = live.Clone()
					words = out.Words()
				}
				words[wi] = m
			}
		}
	}
	return out
}

// tailMask is the bits of word wi that stand for one of n slots: a bitmap
// read from bytes is not trimmed, and a bit past the last slot has no value.
func tailMask(n int64, wi int) uint64 {
	if rest := n - int64(wi)<<6; rest < 64 {
		return ^uint64(0) >> uint(64-rest)
	}
	return ^uint64(0)
}

// predWord returns the bits of w, live bits of ch's word wi, whose cell
// matches conjunct p. An attr-cmp-const over an int64 or float64 column by a
// numeric constant compares the typed vector (cmpWord); any other shape
// takes evalCmp slot by slot.
func predWord(p array.ZonePred, ch *array.Chunk, wi int, w uint64) uint64 {
	if p.Attr < 0 || p.Attr >= len(ch.Cols) || p.Val.Null {
		// No such column, or a comparison with NULL: nothing matches.
		return 0
	}
	col, op, cv := ch.Cols[p.Attr], BinOp(p.Op), p.Val
	switch op {
	case OpEq, OpNe, OpLt, OpLe, OpGt, OpGe:
		if cv.Type != array.TInt64 && cv.Type != array.TFloat64 {
			break
		}
		live := w &^ col.Nulls.Words()[wi]
		switch {
		case col.Type == array.TInt64 && cv.Type == array.TInt64 && (op == OpEq || op == OpNe):
			// Equal compares two ints exactly, not through AsFloat.
			return cmpWord(op, col.Ints[wi<<6:], live, cv.Int)
		case col.Type == array.TInt64:
			return cmpWord(op, col.Ints[wi<<6:], live, cv.AsFloat())
		case col.Type == array.TFloat64:
			return cmpWord(op, col.Floats[wi<<6:], live, cv.AsFloat())
		}
	}
	var m uint64
	for ; w != 0; w &= w - 1 {
		b := bits.TrailingZeros64(w)
		if v := evalCmp(op, col.Get(int64(wi)<<6+int64(b)), cv); !v.Null && v.Bool {
			m |= 1 << uint(b)
		}
	}
	return m
}

// cmpWord returns the bits of w whose value in vals (the word's 64 slots
// from its first) satisfies `value op c`, comparing in C's type. evalCmp's
// NaN rules follow from three kernels: <= is not >, >= is not <, and != is
// not =, each over the live bits — so a NaN fails <, > and = and passes
// <=, >= and !=, as Compare (0 against a NaN) and Equal have it.
func cmpWord[T, C int64 | float64](op BinOp, vals []T, w uint64, c C) uint64 {
	switch op {
	case OpLe:
		return w &^ cmpWord(OpGt, vals, w, c)
	case OpGe:
		return w &^ cmpWord(OpLt, vals, w, c)
	case OpNe:
		return w &^ cmpWord(OpEq, vals, w, c)
	}
	if w == ^uint64(0) {
		// Four 16-slot chains, each shifting its bits in from the top, so
		// that the compares of one step do not wait on each other.
		v := vals[:64]
		var m0, m1, m2, m3 uint64
		switch op {
		case OpLt:
			for i := 15; i >= 0; i-- {
				m0, m1 = m0<<1|b2u(C(v[i]) < c), m1<<1|b2u(C(v[i+16]) < c)
				m2, m3 = m2<<1|b2u(C(v[i+32]) < c), m3<<1|b2u(C(v[i+48]) < c)
			}
		case OpGt:
			for i := 15; i >= 0; i-- {
				m0, m1 = m0<<1|b2u(C(v[i]) > c), m1<<1|b2u(C(v[i+16]) > c)
				m2, m3 = m2<<1|b2u(C(v[i+32]) > c), m3<<1|b2u(C(v[i+48]) > c)
			}
		default:
			for i := 15; i >= 0; i-- {
				m0, m1 = m0<<1|b2u(C(v[i]) == c), m1<<1|b2u(C(v[i+16]) == c)
				m2, m3 = m2<<1|b2u(C(v[i+32]) == c), m3<<1|b2u(C(v[i+48]) == c)
			}
		}
		return m0 | m1<<16 | m2<<32 | m3<<48
	}
	var m uint64
	for ; w != 0; w &= w - 1 {
		i := bits.TrailingZeros64(w)
		x := C(vals[i])
		if op == OpLt && x < c || op == OpGt && x > c || op == OpEq && x == c {
			m |= 1 << uint(i)
		}
	}
	return m
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// attrCmpConst recognizes `attr op const` (either operand order) and
// returns the comparison normalized to attribute-on-the-left. Ordered
// mirrors swap direction; =/!= are symmetric. The swap is sound under
// evalCmp even for NaN constants: Compare returns 0 whenever either side
// is NaN, symmetrically.
func attrCmpConst(e Expr, s *array.Schema) (attr int, op string, cv array.Value, ok bool) {
	b, isBin := e.(Binary)
	if !isBin {
		return 0, "", array.Value{}, false
	}
	switch b.Op {
	case OpEq, OpNe, OpLt, OpLe, OpGt, OpGe:
	default:
		return 0, "", array.Value{}, false
	}
	if ar, lok := b.L.(AttrRef); lok {
		if co, rok := b.R.(Const); rok {
			if ai := s.AttrIndex(ar.Name); ai >= 0 {
				return ai, string(b.Op), co.V, true
			}
		}
	}
	if co, lok := b.L.(Const); lok {
		if ar, rok := b.R.(AttrRef); rok {
			if ai := s.AttrIndex(ar.Name); ai >= 0 {
				return ai, mirrorCmp(string(b.Op)), co.V, true
			}
		}
	}
	return 0, "", array.Value{}, false
}

func mirrorCmp(op string) string {
	switch op {
	case "<":
		return ">"
	case "<=":
		return ">="
	case ">":
		return "<"
	case ">=":
		return "<="
	}
	return op // = and != are symmetric
}

// zonePreds extracts the attr-cmp-const members of pred's top-level AND
// conjunction. If any one of them cannot match a chunk's zone maps, the
// whole conjunction is false (or NULL) for every cell — evalLogic's
// three-valued AND returns false whenever one side is false — so Filter
// would NULL the entire chunk. Every other leaf is dropped, and exact
// reports that none was: the AND is then true only where every member is.
func zonePreds(pred Expr, s *array.Schema) (out []array.ZonePred, exact bool) {
	exact = true
	var walk func(e Expr)
	walk = func(e Expr) {
		if b, ok := e.(Binary); ok && b.Op == OpAnd {
			walk(b.L)
			walk(b.R)
			return
		}
		if ai, op, cv, ok := attrCmpConst(e, s); ok {
			out = append(out, array.ZonePred{Attr: ai, Op: op, Val: cv})
		} else {
			exact = false
		}
	}
	walk(pred)
	return out, exact
}

// predPure reports whether evaluating pred can never return an error:
// every leaf resolves and every operator is total. Zone-skipping a chunk
// skips per-cell evaluation, which must not swallow evaluation errors —
// so only pure predicates are eligible. OpMod (errors on non-integers)
// and Call (arbitrary UDF errors) are excluded.
func predPure(pred Expr, s *array.Schema) bool {
	switch n := pred.(type) {
	case Const:
		return true
	case AttrRef:
		return s.AttrIndex(n.Name) >= 0
	case DimRef:
		return s.DimIndex(n.Name) >= 0
	case Not:
		return predPure(n.E, s)
	case Binary:
		switch n.Op {
		case OpAdd, OpSub, OpMul, OpDiv, OpEq, OpNe, OpLt, OpLe, OpGt, OpGe, OpAnd, OpOr:
			return predPure(n.L, s) && predPure(n.R, s)
		}
	}
	return false
}

// chunkZones assembles the per-attribute zone-map view of ch; nil when no
// column carries one.
func chunkZones(ch *array.Chunk) []*array.ZoneMap {
	var zones []*array.ZoneMap
	for i, col := range ch.Cols {
		if col.Zone != nil {
			if zones == nil {
				zones = make([]*array.ZoneMap, len(ch.Cols))
			}
			zones[i] = col.Zone
		}
	}
	return zones
}

// chunkHasEncViews reports whether any column of ch carries an encoded
// view an operator could have exploited.
func chunkHasEncViews(ch *array.Chunk) bool {
	for _, col := range ch.Cols {
		if col.Zone != nil || col.Enc != nil {
			return true
		}
	}
	return false
}

// rawColValue reads the stored value at slot idx ignoring the null bit —
// the RLE paths use it to read a run's representative value, which is
// well-defined for every slot of the run regardless of per-slot nullness.
// Construction mirrors compile's typed column leaves (sigma included, which
// evalCmp ignores but keeps the Values interchangeable).
func rawColValue(col *array.Column, idx int64) array.Value {
	v := array.Value{Type: col.Type, Sigma: colSigma(col, idx)}
	switch col.Type {
	case array.TInt64:
		v.Int = col.Ints[idx]
	case array.TFloat64:
		v.Float = col.Floats[idx]
	case array.TString:
		v.Str = col.Strs[idx]
	case array.TBool:
		v.Bool = col.Bools[idx]
	}
	return v
}

// encFilterPlan is the compressed-execution plan for one chunk of a
// Filter: either skip (the predicate is provably false for every cell —
// emit the all-NULL output without evaluating anything) or keep, a
// decider equivalent to the compiled predicate (NULL counting as false)
// that reads the encoded view. The keep decider must be called with
// ascending slot indices (it carries an RLE run cursor) and only from one
// goroutine.
type encFilterPlan struct {
	skip bool
	keep func(idx int64) bool
	runs *int64 // runs evaluated by the keep decider, for stats
}

// planEncFilter builds the compressed-execution plan for pred over ch,
// or returns nil when no encoded path applies and the caller should run
// its decoded path. preds and pure are precomputed by the driver (they
// depend only on the predicate and schema, not the chunk).
func planEncFilter(pred Expr, s *array.Schema, ch *array.Chunk, preds []array.ZonePred, pure bool) *encFilterPlan {
	if pure && len(preds) > 0 {
		if zones := chunkZones(ch); zones != nil && !array.CanMatchAll(zones, preds) {
			return &encFilterPlan{skip: true}
		}
	}
	// The per-cell encoded deciders require the predicate to be exactly
	// one attr-cmp-const comparison, so keep is the predicate's truth.
	ai, op, cv, ok := attrCmpConst(pred, s)
	if !ok || ai >= len(ch.Cols) {
		return nil
	}
	col := ch.Cols[ai]
	enc := col.Enc
	if enc == nil {
		return nil
	}
	nulls := col.Nulls
	if enc.Dict != nil && enc.Codes != nil && col.Type == array.TString {
		// Evaluate the comparison once per dictionary entry; cells then
		// select by code. evalCmp on the dictionary string is exactly what
		// the compiled predicate computes per cell (NULL handled by the null
		// bit).
		match := make([]bool, len(enc.Dict))
		for k, s := range enc.Dict {
			v := evalCmp(BinOp(op), array.Value{Type: array.TString, Str: s}, cv)
			match[k] = !v.Null && v.Bool
		}
		codes := enc.Codes
		return &encFilterPlan{keep: func(idx int64) bool {
			return !nulls.Get(idx) && match[codes[idx]]
		}}
	}
	if enc.RunLens != nil {
		slots := col.Len()
		if int64(len(enc.RunLens))*encRunDensityMin > slots {
			return nil // runs too short to pay for themselves
		}
		runs := enc.RunLens
		runsEvaluated := new(int64)
		ri, runEnd := 0, runs[0]
		evaluated, runKeep := false, false
		return &encFilterPlan{runs: runsEvaluated, keep: func(idx int64) bool {
			for idx >= runEnd {
				ri++
				runEnd += runs[ri]
				evaluated = false
			}
			if !evaluated {
				// Any slot of the run holds the run's stored value; idx is in
				// this run, so read it right here.
				v := evalCmp(BinOp(op), rawColValue(col, idx), cv)
				runKeep = !v.Null && v.Bool
				evaluated = true
				*runsEvaluated++
			}
			return runKeep && !nulls.Get(idx)
		}}
	}
	return nil
}

// emitNullChunk fills oc — the output chunk for a zone-skipped input
// chunk — with ch's presence pattern and all-NULL attributes, exactly
// what the decoded Filter emits for a predicate-false cell. When the
// shapes coincide this is a handful of bitmap clones.
func emitNullChunk(ch, oc *array.Chunk, same bool) {
	if same {
		oc.Present = ch.Present.Clone()
		for _, col := range oc.Cols {
			col.Nulls = ch.Present.Clone()
		}
		return
	}
	_ = eachPresent(ch, func(idx int64, c array.Coord) error {
		oidx := oc.Index(c)
		oc.Present.Set(oidx)
		for _, col := range oc.Cols {
			col.Nulls.Set(oidx)
		}
		return nil
	})
}

// stepRun folds n copies of the value in slot i — live and non-NULL — into
// column k of the grand-total row under udf.RunAggregate's contract: true is
// exactly the state n single steps leave, false is nothing changed. Counts
// and exact integer sums multiply; min and max see the run's first cell once.
func (f *Fold) stepRun(t *FoldTable, k int, ch *array.Chunk, live *array.Bitmap, i, n int64) bool {
	c, st, col := f.cols[k], &t.Cols[k], ch.Cols[f.cols[k].attr]
	switch {
	case !c.typed:
		return st.boxed[0].(udf.RunAggregate).StepRun(rawColValue(col, i), n)
	case c.agg == "count":
		st.N[0] += n
	case c.agg == "sum":
		st.I[0] += col.Ints[i] * n
		st.N[0] += n
	default:
		f.foldRun(t, k, ch, live, oneRow(i, 1, 0))
		st.N[0] += n - 1
	}
	return true
}

// encColumn folds column k of a grand total over ch's live cells through the
// column's encoded views; false leaves the cells to the caller. Boxed
// accumulators qualify only as RunAggregates, whose contract (ignore NULLs,
// exact batched steps) makes dropping null cells and stepping whole runs
// bit-identical. Step order is kept: runs are walked in slot order and a
// run's representative is its first stepped cell.
func (f *Fold) encColumn(t *FoldTable, k int, ch *array.Chunk, live *array.Bitmap, st *encStats) bool {
	// Float sums and Welford's mean are order-sensitive and never fold a run
	// as one step (see sumAgg, avgAgg and stdevAgg's StepRun): their columns
	// fold fastest through the plain kernels.
	c := f.cols[k]
	if c.attr >= len(ch.Cols) || c.typed && !c.ints() && c.agg != "count" && c.agg != "min" && c.agg != "max" {
		return false
	}
	if !c.typed {
		acc := &t.Cols[k].boxed[0]
		if *acc == nil {
			*acc = c.fac()
		}
		if _, ok := (*acc).(udf.RunAggregate); !ok {
			return false
		}
	}
	col := ch.Cols[c.attr]
	if z := col.Zone; z != nil && !z.HasRange && !z.HasNaN {
		// Every present cell is NULL: all steps are no-ops.
		st.skipped++
		return true
	}
	enc := col.Enc
	if enc == nil || enc.RunLens == nil {
		return false
	}
	if int64(len(enc.RunLens))*encRunDensityMin > col.Len() {
		return false
	}
	lo := int64(0)
	for _, rl := range enc.RunLens {
		hi := lo + rl
		if n := array.CountPresentNotNull(live, col.Nulls, lo, hi); n > 0 {
			idx0 := live.NextSet(lo)
			for col.Nulls.Get(idx0) {
				idx0 = live.NextSet(idx0 + 1)
			}
			if f.stepRun(t, k, ch, live, idx0, n) {
				st.runs++
			} else {
				// Batched update refused (e.g. an uncertain sum): fold the
				// run's cells individually, in slot order.
				f.foldRun(t, k, ch, live, oneRow(idx0, hi-idx0, 0))
			}
		}
		lo = hi
	}
	return true
}
