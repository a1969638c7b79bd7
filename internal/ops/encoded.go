package ops

// Compressed execution (§2.8): the one encoded structure an operator reads
// is the zone map the storage decoder leaves on a chunk column. Filter skips
// a chunk whose zone maps prove a pure predicate false for every cell, and
// otherwise keeps cells by one mask per chunk — PredMask's word kernels
// when the predicate is nothing but attr-cmp-const conjuncts. Storage and
// the cluster prune whole buckets by the same conjuncts before they are
// read; every skip lands on one counter.

import (
	"context"
	"math/bits"

	"scidb/internal/array"
	"scidb/internal/obs"
)

// encChunksSkipped is the process-wide count of chunks zone maps skipped,
// mirrored onto the query span (EXPLAIN ANALYZE) by NoteEncChunksSkipped.
var encChunksSkipped = obs.Default().Counter("scidb_enc_chunks_skipped", "Chunks whole-skipped by zone maps during operator execution.")

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

// NoteEncChunksSkipped records n chunks zone maps skipped — by Filter, or
// by a store or the cluster before decode — on the process counter and,
// when the query is traced, on the current span, so the two agree no matter
// which layer did the skipping.
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
			return cmpRanked(op, col.Ints, col.Rank(), int64(wi), live, cv.Int)
		case col.Type == array.TInt64:
			return cmpRanked(op, col.Ints, col.Rank(), int64(wi), live, cv.AsFloat())
		case col.Type == array.TFloat64:
			return cmpRanked(op, col.Floats, col.Rank(), int64(wi), live, cv.AsFloat())
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

// cmpRanked is cmpWord over word wi of a column whose values rk places: on
// the vector from the word's base value index when all the word's slots have
// a value (every word of a full chunk), else on a copy of the live slots'
// values, each at its slot.
func cmpRanked[T, C int64 | float64](op BinOp, vals []T, rk *array.Rank, wi int64, live uint64, c C) uint64 {
	if rk.Word(wi) == ^uint64(0) {
		return cmpWord(op, vals[rk.Base(wi):], live, c)
	}
	var buf [64]T
	for w := live; w != 0; w &= w - 1 {
		b := bits.TrailingZeros64(w)
		buf[b] = vals[rk.At(wi, b)]
	}
	return cmpWord(op, buf[:], live, c)
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
