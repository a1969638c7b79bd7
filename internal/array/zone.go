package array

import (
	"hash/maphash"
	"math"
	"math/bits"
)

// ZoneMap summarizes one column of one chunk for predicate pruning: the
// min/max over present non-null values, the null count, and a capped
// distinct-count hint. Zone maps are computed by the storage encoder at
// bucket-write time (the paper's §2.8 bet that scan-heavy science
// workloads win when the executor can reason about compressed chunks
// without decoding them) and ride beside the chunk so Filter/Aggregate
// can skip whole chunks whose value range cannot satisfy a predicate.
type ZoneMap struct {
	Kind Type // TInt64, TFloat64, TString, or TBool

	// HasRange is false when the chunk holds no present, non-null (and
	// for floats, non-NaN) value: min/max are then meaningless.
	HasRange bool
	// HasNaN records that a float column contains NaN values, which
	// satisfy "!=", "<=" and ">=" under the engine's comparison
	// semantics and so block pruning for those operators.
	HasNaN bool

	MinInt   int64 // TInt64 and TBool (0/1) bounds
	MaxInt   int64
	MinFloat float64 // TFloat64 bounds over non-NaN values
	MaxFloat float64
	MinStr   string // TString bounds
	MaxStr   string

	// Nulls counts present cells whose value is null.
	Nulls int64
	// Distinct is a capped distinct-count hint over non-null values:
	// an exact count when positive, 0 when unknown (over the cap).
	Distinct int64
}

// zoneDistinctCap bounds the per-column distinct tracking during zone
// computation; columns with more distinct values report Distinct == 0.
const zoneDistinctCap = 256

// distinctSet counts distinct keys up to zoneDistinctCap in a fixed
// open-addressing table — no allocation, and one probe sequence per key —
// and gives up once a key past the cap arrives.
type distinctSet[K comparable] struct {
	keys [2 * zoneDistinctCap]K
	used [2 * zoneDistinctCap]bool
	n    int64
	over bool
}

// add records k, whose hash is h.
func (d *distinctSet[K]) add(k K, h uint64) {
	if d.over {
		return
	}
	const mask = 2*zoneDistinctCap - 1
	for i := h & mask; ; i = (i + 1) & mask {
		if !d.used[i] {
			if d.n == zoneDistinctCap {
				d.over = true
				return
			}
			d.keys[i], d.used[i] = k, true
			d.n++
			return
		}
		if d.keys[i] == k {
			return
		}
	}
}

// count is the distinct hint: the count, or 0 past the cap.
func (d *distinctSet[K]) count() int64 {
	if d.over {
		return 0
	}
	return d.n
}

// mix spreads a 64-bit key over the table's slots (Fibonacci hashing: the
// top bits of the product).
func mix(k uint64) uint64 { return (k * 0x9E3779B97F4A7C15) >> 55 }

// zoneSeed keys the string hash of the distinct count.
var zoneSeed = maphash.MakeSeed()

// ComputeZone builds a zone map for col restricted to the slots marked in
// present. Nested-array columns have no useful ordering and return nil.
func ComputeZone(col *Column, present *Bitmap) *ZoneMap {
	switch col.Type {
	case TInt64, TFloat64, TString, TBool:
	default:
		return nil
	}
	z := &ZoneMap{Kind: col.Type}
	switch col.Type {
	case TInt64:
		var distinct distinctSet[int64]
		eachValue(col, present, z, func(k int64) {
			v := col.Ints[k]
			if !z.HasRange {
				z.HasRange, z.MinInt, z.MaxInt = true, v, v
			} else if v < z.MinInt {
				z.MinInt = v
			} else if v > z.MaxInt {
				z.MaxInt = v
			}
			distinct.add(v, mix(uint64(v)))
		})
		z.Distinct = distinct.count()
	case TFloat64:
		var distinct distinctSet[float64]
		eachValue(col, present, z, func(k int64) {
			v := col.Floats[k]
			if math.IsNaN(v) {
				z.HasNaN = true
				return
			}
			if !z.HasRange {
				z.HasRange, z.MinFloat, z.MaxFloat = true, v, v
			} else if v < z.MinFloat {
				z.MinFloat = v
			} else if v > z.MaxFloat {
				z.MaxFloat = v
			}
			// -0 == +0, so the two are one key: hash them alike.
			h := math.Float64bits(v)
			if v == 0 {
				h = 0
			}
			distinct.add(v, mix(h))
		})
		z.Distinct = distinct.count()
	case TString:
		var distinct distinctSet[string]
		eachValue(col, present, z, func(k int64) {
			v := col.Strs[k]
			if !z.HasRange {
				z.HasRange, z.MinStr, z.MaxStr = true, v, v
			} else if v < z.MinStr {
				z.MinStr = v
			} else if v > z.MaxStr {
				z.MaxStr = v
			}
			distinct.add(v, maphash.String(zoneSeed, v))
		})
		z.Distinct = distinct.count()
	case TBool:
		var seenTrue, seenFalse bool
		eachValue(col, present, z, func(k int64) {
			if col.Bools[k] {
				seenTrue = true
			} else {
				seenFalse = true
			}
		})
		if seenTrue || seenFalse {
			z.HasRange = true
			if seenTrue {
				z.MaxInt = 1
			}
			if !seenFalse {
				z.MinInt = 1
			}
			z.Distinct = 1
			if seenTrue && seenFalse {
				z.Distinct = 2
			}
		}
	}
	return z
}

// eachValue counts into z.Nulls the slots of col set in present that are
// null and calls fn with the value index of each one that is not, in slot
// order, a word of both bitmaps at a time: for a word's slot b, its rank —
// for a full word, the word's first index plus b.
func eachValue(col *Column, present *Bitmap, z *ZoneMap, fn func(k int64)) {
	pw, nw, n, r := present.words, col.Nulls.words, col.Len(), col.rank
	for wi := int64(0); wi<<6 < n; wi++ {
		p := pw[wi]
		if rest := n - wi<<6; rest < 64 {
			p &= 1<<uint(rest) - 1
		}
		z.Nulls += int64(bits.OnesCount64(p & nw[wi]))
		w := p &^ nw[wi]
		if r == nil {
			for ; w != 0; w &= w - 1 {
				fn(wi<<6 + int64(bits.TrailingZeros64(w)))
			}
			continue
		}
		for ; w != 0; w &= w - 1 {
			fn(r.At(wi, bits.TrailingZeros64(w)))
		}
	}
}

// CanMatch reports whether some present, non-null value summarized by z
// could satisfy `value op cv` under the engine's comparison semantics
// (exact int64 for int = int, float64 conversion for ordered numeric
// comparisons, lexicographic for strings). It is conservative: anything
// it cannot reason about returns true, and a false return is a proof
// that the predicate is false-or-NULL for every cell of the chunk.
func (z *ZoneMap) CanMatch(op string, cv Value) bool {
	if z == nil {
		return true
	}
	if cv.Null {
		return false // comparing with NULL yields NULL, never true
	}
	switch z.Kind {
	case TInt64, TFloat64, TBool:
		if !isNumeric(cv.Type) {
			return true
		}
		return z.numericCanMatch(op, cv)
	case TString:
		if cv.Type != TString {
			return true
		}
		return z.stringCanMatch(op, cv.Str)
	}
	return true
}

func (z *ZoneMap) numericCanMatch(op string, cv Value) bool {
	// int64→float64 conversion is monotone, so the float images of the
	// int bounds still bound every converted cell value.
	var lo, hi float64
	hasNaN := false
	switch z.Kind {
	case TInt64, TBool:
		lo, hi = float64(z.MinInt), float64(z.MaxInt)
	case TFloat64:
		lo, hi = z.MinFloat, z.MaxFloat
		hasNaN = z.HasNaN
	}
	cf := cv.AsFloat()
	if math.IsNaN(cf) {
		// value op NaN: =, <, > are always false; != is true for any
		// non-null cell; <= and >= evaluate as "not >" / "not <" which
		// NaN renders vacuously true.
		switch op {
		case "!=", "<=", ">=":
			return z.HasRange || hasNaN
		}
		return false
	}
	if hasNaN {
		switch op {
		case "!=", "<=", ">=":
			return true // NaN cells satisfy these against any constant
		}
	}
	if !z.HasRange {
		return false // every present cell is null (or NaN, handled above)
	}
	switch op {
	case "=":
		if z.Kind == TInt64 && cv.Type == TInt64 {
			return cv.Int >= z.MinInt && cv.Int <= z.MaxInt
		}
		return cf >= lo && cf <= hi
	case "!=":
		if z.Kind == TInt64 && cv.Type == TInt64 {
			return !(z.MinInt == z.MaxInt && z.MinInt == cv.Int)
		}
		return !(lo == hi && lo == cf)
	case "<":
		return lo < cf
	case "<=":
		return !(lo > cf)
	case ">":
		return hi > cf
	case ">=":
		return !(hi < cf)
	}
	return true
}

func (z *ZoneMap) stringCanMatch(op, cs string) bool {
	if !z.HasRange {
		return false
	}
	switch op {
	case "=":
		return cs >= z.MinStr && cs <= z.MaxStr
	case "!=":
		return !(z.MinStr == z.MaxStr && z.MinStr == cs)
	case "<":
		return z.MinStr < cs
	case "<=":
		return z.MinStr <= cs
	case ">":
		return z.MaxStr > cs
	case ">=":
		return z.MaxStr >= cs
	}
	return true
}

// ZonePred is a predicate in zone-map terms: an attribute index, a
// comparison op ("=", "!=", "<", "<=", ">", ">="), and a constant. A
// conjunction of ZonePreds prunes a chunk when any single member cannot
// match — the chunk then contains no cell for which the full predicate
// evaluates to true.
type ZonePred struct {
	Attr int
	Op   string
	Val  Value
}

// CanMatchAll reports whether a chunk with the given per-attribute zone
// maps could contain a cell satisfying every pred. Missing zones (nil
// entries, out-of-range attrs) are conservative matches.
func CanMatchAll(zones []*ZoneMap, preds []ZonePred) bool {
	for _, p := range preds {
		if p.Attr < 0 || p.Attr >= len(zones) {
			continue
		}
		if z := zones[p.Attr]; z != nil && !z.CanMatch(p.Op, p.Val) {
			return false
		}
	}
	return true
}
