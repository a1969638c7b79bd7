package ops

// The grouped fold: the one aggregation engine. Aggregate (§2.2.2, Figure 2)
// and Regrid (§2.3) on one node, a grid worker's share of either and the
// coordinator's merge of those shares run the same four steps — the init /
// accumulate / merge / terminate contract of POSTGRES-style aggregates (§2.1):
//
//	init        newTable: accumulator state for a box of the group space
//	accumulate  Fold.Chunk: a (chunk, live mask) into a table over the chunk's
//	            own extent of the group space
//	merge       Fold.Merge / Fold.Result: partial tables, in the order given
//	terminate   Fold.Result: the groups that saw a cell become the result
//
// so an answer cannot depend on where it ran (§2.7, §2.10): a grid is this
// code with a wire between accumulate and merge.
//
// The six built-ins over plain int64/float64 columns (count over any column)
// keep typed state: vectors indexed by group row, folded a chunk run at a
// time from the column vectors under the mask, with no array.Value and no
// per-group object. Everything else (UDF aggregates, uncertain or non-numeric
// attributes) keeps a boxed udf.Aggregate per group, which defines the same
// arithmetic a value at a time. The choice (typed) depends on the attribute's
// type, its Uncertain flag and the aggregate's name, nothing else. Both skip
// NULLs; min and max also skip NaNs, as zone-map ranges do, and give NaN for
// a group whose non-NULL values are all NaN.

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"scidb/internal/array"
	"scidb/internal/exec"
	"scidb/internal/udf"
)

// FoldSpec names a grouped fold: what a coordinator ships to a worker.
type FoldSpec struct {
	// Dims are the group dimensions and Strides how much each is coarsened:
	// a cell at coordinate c falls in group (c-1)/stride along it. Aggregate
	// names Dims and leaves Strides nil (1 throughout); Regrid gives one
	// stride per dimension of the array and leaves Dims nil (all of them).
	Dims    []string
	Strides []int64
	Aggs    []AggSpec
}

// Fragment is the chunk-local part of a query as one value: what a
// coordinator ships to every node holding part of an array, and what a scan
// leaf hands its source. Box and Preds trim each chunk's live mask. Without a
// Fold the trimmed cells are the answer; with one, the partial table they
// fold into — and a fold with no aggregates reads no column and keeps only
// each group's cell count, so over no dimensions it is a count of the cells.
// Join names a second array, on the same nodes and the same grid, that the
// read joins with every dimension paired in order (Paired): each node joins
// its chunk pairs (JoinChunks), and the joined cells are the answer, under
// PairedSchema; a join fragment has no other field.
type Fragment struct {
	Box   array.Box // the zero Box is the whole array
	Preds []array.ZonePred
	Fold  *FoldSpec
	Join  string
}

// resolveAgg resolves one AggSpec against s: the attribute it folds and the
// output attribute it produces ("*" or "" aggregates the first attribute;
// count is integer, avg and stdev float, the rest follow the input).
func resolveAgg(s *array.Schema, sp AggSpec) (int, array.Attribute, error) {
	attr := 0
	if sp.Attr != "*" && sp.Attr != "" {
		if attr = s.AttrIndex(sp.Attr); attr < 0 {
			return 0, array.Attribute{}, fmt.Errorf("ops: unknown attribute %q in aggregate", sp.Attr)
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
	return attr, array.Attribute{Name: name, Type: t, Uncertain: s.Attrs[attr].Uncertain}, nil
}

// typed is the typed/boxed choice.
func typed(at array.Attribute, agg string) bool {
	switch agg {
	case "count":
		return true
	case "sum", "avg", "min", "max", "stdev":
		return !at.Uncertain && (at.Type == array.TInt64 || at.Type == array.TFloat64)
	}
	return false
}

// foldCol is one resolved aggregate column. A typed column's FoldState is N,
// the non-NULL values folded, and for sum, min, max the value so far in I (an
// int64 column: sums are exact) or F; for avg the float sum in F; for stdev
// Welford's mean in F and sum of squared deviations in M2.
type foldCol struct {
	attr  int
	agg   string
	typed bool
	isInt bool                 // the input column is int64
	fac   udf.AggregateFactory // boxed columns
}

// ints reports whether the column's value state is FoldState.I rather than F.
func (c foldCol) ints() bool {
	return c.typed && c.isInt && (c.agg == "sum" || c.agg == "min" || c.agg == "max")
}

// groupDim is one dimension of a fold's group space: input dimension dim
// coarsened by stride.
type groupDim struct {
	dim    int
	stride int64
}

// Fold is a FoldSpec resolved against a schema.
type Fold struct {
	gdims []groupDim
	cols  []foldCol
	// out is the result's schema; an unbounded group dimension stays so here
	// and ends, in a result, at its last group.
	out *array.Schema
}

// replay makes an aggregate without Merge combinable by deferring it: it
// keeps its group's values — in the array's iteration order, as chunks merge
// in order — and steps them into the real accumulator at the end.
type replay struct {
	fac  udf.AggregateFactory
	vals []array.Value
}

func (a *replay) Step(v array.Value) { a.vals = append(a.vals, v) }

func (a *replay) Merge(o udf.Aggregate) error {
	a.vals = append(a.vals, o.(*replay).vals...)
	return nil
}

func (a *replay) Result() array.Value {
	acc := a.fac()
	for _, v := range a.vals {
		acc.Step(v)
	}
	return acc.Result()
}

// NewFold resolves spec against s. A nil registry admits only folds whose
// every column has typed state — what a worker runs and a table carries
// over the wire; any other needs reg for its boxed accumulators. A spec
// without aggregates resolves to a fold whose tables count cells and whose
// Result has no attribute to build.
func NewFold(s *array.Schema, spec FoldSpec, reg *udf.Registry) (*Fold, error) {
	f := &Fold{out: &array.Schema{Name: s.Name + "_agg"}}
	dims := spec.Dims
	if spec.Strides != nil {
		f.out.Name = s.Name + "_regrid"
		if dims == nil {
			for _, d := range s.Dims {
				dims = append(dims, d.Name)
			}
		}
		if len(spec.Strides) != len(dims) {
			return nil, fmt.Errorf("ops: regrid needs one stride per dimension")
		}
	}
	for k, g := range dims {
		d := s.DimIndex(g)
		if d < 0 {
			if s.AttrIndex(g) >= 0 {
				return nil, fmt.Errorf("ops: cannot group on data attribute %q; grouping is by dimensions only", g)
			}
			return nil, fmt.Errorf("ops: unknown grouping dimension %q", g)
		}
		gd := groupDim{dim: d, stride: 1}
		if spec.Strides != nil {
			if gd.stride = spec.Strides[k]; gd.stride < 1 {
				return nil, fmt.Errorf("ops: regrid strides must be >= 1")
			}
		}
		high := s.Dims[d].High
		if high != array.Unbounded {
			high = (high + gd.stride - 1) / gd.stride
		}
		f.gdims = append(f.gdims, gd)
		f.out.Dims = append(f.out.Dims, array.Dimension{Name: s.Dims[d].Name, High: high})
	}
	if len(f.gdims) == 0 {
		// Grand total: a single-cell 1-D array.
		f.out.Dims = []array.Dimension{{Name: "all", High: 1}}
	}
	for _, sp := range spec.Aggs {
		attr, at, err := resolveAgg(s, sp)
		if err != nil {
			return nil, err
		}
		c := foldCol{attr: attr, agg: sp.Agg, typed: typed(s.Attrs[attr], sp.Agg), isInt: s.Attrs[attr].Type == array.TInt64}
		if !c.typed {
			if reg == nil {
				return nil, fmt.Errorf("ops: %s(%s) keeps no typed state", sp.Agg, s.Attrs[attr].Name)
			}
			if c.fac, err = reg.Aggregate(sp.Agg); err != nil {
				return nil, err
			}
			if _, ok := c.fac().(udf.MergeableAggregate); !ok {
				fac := c.fac
				c.fac = func() udf.Aggregate { return &replay{fac: fac} }
			}
		}
		f.cols = append(f.cols, c)
		f.out.Attrs = append(f.out.Attrs, at)
	}
	return f, nil
}

// Attrs returns the indexes of the attributes the fold reads, each once:
// the projection a chunk reader needs to serve it.
func (f *Fold) Attrs() []int {
	attrs := make([]int, 0, len(f.cols))
	for _, c := range f.cols {
		if !slices.Contains(attrs, c.attr) {
			attrs = append(attrs, c.attr)
		}
	}
	return attrs
}

// FoldTable is accumulator state over a box of the group space, a row per
// group in row-major order: plain data, so that it can cross a wire.
type FoldTable struct {
	// Lo and Shape are the box, in zero-based group indices per group
	// dimension. A grand total has neither and one row.
	Lo, Shape []int64
	// Cells counts the live cells folded into each row; a row with none is a
	// group that does not exist. (Whoever folds under a filter may count the
	// cells it refuted too: they occupy the row and add nothing to Cols.)
	Cells []int64
	Cols  []FoldState
}

// FoldState is one aggregate's accumulators, a vector per field indexed by
// row; the fields a column does not use (see foldCol) stay nil.
type FoldState struct {
	N  []int64
	I  []int64
	F  []float64
	M2 []float64

	boxed []udf.Aggregate // a row's accumulator is made by its first cell
}

// vectors reports which of FoldState's typed fields c keeps.
func (c foldCol) vectors() (n, i, f, m2 bool) {
	return c.typed, c.ints(), c.typed && !c.ints() && c.agg != "count", c.typed && c.agg == "stdev"
}

func (f *Fold) newTable(lo, shape []int64) *FoldTable {
	rows := int64(1)
	for _, n := range shape {
		rows *= n
	}
	t := &FoldTable{Lo: lo, Shape: shape, Cells: make([]int64, rows), Cols: make([]FoldState, len(f.cols))}
	for k, c := range f.cols {
		st := &t.Cols[k]
		if n, i, fl, m2 := c.vectors(); n {
			st.N = make([]int64, rows)
			if i {
				st.I = make([]int64, rows)
			}
			if fl {
				st.F = make([]float64, rows)
			}
			if m2 {
				st.M2 = make([]float64, rows)
			}
		} else {
			st.boxed = make([]udf.Aggregate, rows)
		}
	}
	return t
}

// check reports whether t has every vector this fold reads, at its box's
// size: a table from outside may have any layout.
func (f *Fold) check(t *FoldTable) error {
	bad := t == nil || len(t.Lo) != len(f.gdims) || len(t.Shape) != len(f.gdims) || len(t.Cols) != len(f.cols)
	rows := int64(1)
	for k := 0; !bad && k < len(t.Shape); k++ {
		bad = t.Shape[k] < 0 || t.Shape[k] > int64(len(t.Cells))
		rows *= t.Shape[k]
	}
	bad = bad || rows != int64(len(t.Cells))
	for k := 0; !bad && k < len(f.cols); k++ {
		short := func(on bool, n int) bool { return on && n != len(t.Cells) }
		n, i, fl, m2 := f.cols[k].vectors()
		st := &t.Cols[k]
		bad = short(!n, len(st.boxed)) || short(n, len(st.N)) || short(i, len(st.I)) || short(fl, len(st.F)) || short(m2, len(st.M2))
	}
	if bad {
		return fmt.Errorf("ops: partial table does not fit the fold")
	}
	return nil
}

// run is a stretch of consecutive chunk slots and the rows they fold into:
// the first `first` slots into row, each `seg` after them `step` rows on.
type run struct {
	start, n   int64
	row, step  int64
	first, seg int64
}

// oneRow is a run whose slots all fold into one row.
func oneRow(start, n, row int64) run { return run{start: start, n: n, row: row, first: n, seg: n} }

// Chunk folds the live cells of ch into a table over ch's own extent of the
// group space: a worker's (and a pool task's) unit of work.
func (f *Fold) Chunk(ch *array.Chunk, live *array.Bitmap) *FoldTable {
	lo := make([]int64, len(f.gdims))
	shape := make([]int64, len(f.gdims))
	for k, g := range f.gdims {
		lo[k] = (ch.Origin[g.dim] - 1) / g.stride
		shape[k] = (ch.Origin[g.dim]+ch.Shape[g.dim]-2)/g.stride - lo[k] + 1
	}
	t := f.newTable(lo, shape)
	if len(f.gdims) == 0 {
		t.Cells[0] = live.Count()
		for k := range f.cols {
			f.foldRun(t, k, ch, live, oneRow(0, ch.Slots(), 0))
		}
		return t
	}
	// rstride[k] is the row-major stride of group dimension k in t.
	rstride := make([]int64, len(f.gdims))
	rows := int64(1)
	for k := len(f.gdims) - 1; k >= 0; k-- {
		rstride[k] = rows
		rows *= t.Shape[k]
	}
	// The chunk's slots fold a block at a time: the slots of the dimensions
	// inside the innermost grouped one, which all land in one row, or — when
	// the innermost dimension is grouped — a row of it, along which the group
	// row advances every stride slots, the first stride cut short where the
	// chunk starts mid-stride.
	last, gmax := len(ch.Shape)-1, 0
	for _, g := range f.gdims {
		gmax = max(gmax, g.dim)
	}
	inner := min(gmax+1, last)
	block := int64(1)
	for _, n := range ch.Shape[inner:] {
		block *= n
	}
	c := ch.Origin.Clone()
	for start := int64(0); start < ch.Slots(); start += block {
		q := start / block
		for d := inner - 1; d >= 0; d-- {
			c[d] = ch.Origin[d] + q%ch.Shape[d]
			q /= ch.Shape[d]
		}
		r := oneRow(start, block, 0)
		for k, g := range f.gdims {
			r.row += ((c[g.dim]-1)/g.stride - t.Lo[k]) * rstride[k]
			if g.dim == last {
				r.step, r.seg = rstride[k], g.stride
				r.first = min(block, g.stride-(c[last]-1)%g.stride)
			}
		}
		foldCount(t.Cells, live, nil, r)
		for k := range f.cols {
			f.foldRun(t, k, ch, live, r)
		}
	}
	return t
}

// foldRun folds column k's live, non-NULL values in the slots of r into t.
func (f *Fold) foldRun(t *FoldTable, k int, ch *array.Chunk, live *array.Bitmap, r run) {
	c, st, col := f.cols[k], &t.Cols[k], ch.Cols[f.cols[k].attr]
	lw, nw := live.Words(), col.Nulls.Words()
	switch {
	case !c.typed:
		end := r.start + r.n
		for s, e, row := r.start, r.start+r.first, r.row; s < end; s, e, row = e, min(e+r.seg, end), row+r.step {
			for i := live.NextSet(s); i < e; i = live.NextSet(i + 1) {
				if st.boxed[row] == nil {
					st.boxed[row] = c.fac()
				}
				st.boxed[row].Step(col.Get(i))
			}
		}
	case c.agg == "count":
		foldCount(st.N, live, col.Nulls, r)
	case c.isInt:
		foldTyped(c.agg, st, st.I, col.Ints, col.Rank(), lw, nw, r)
	default:
		foldTyped(c.agg, st, st.F, col.Floats, col.Rank(), lw, nw, r)
	}
}

// foldTyped is foldRun over a column of either numeric type; own is the state
// vector of that type (sum, min, max); rk places the column's values.
func foldTyped[T int64 | float64](agg string, st *FoldState, own, vals []T, rk *array.Rank, live, nulls []uint64, r run) {
	switch agg {
	case "sum":
		foldSum(own, st.N, vals, rk, live, nulls, r)
	case "avg":
		foldSum(st.F, st.N, vals, rk, live, nulls, r)
	case "min", "max":
		foldBest(own, st.N, vals, rk, agg == "max", live, nulls, r)
	case "stdev":
		foldWelford(st.F, st.M2, st.N, vals, rk, live, nulls, r)
	}
}

// The kernels. Each walks the rows of r and, for a row, the slots set in
// live and clear in nulls, a word of both masks at a time, with the row's
// state in locals. A word whose 64 slots are all live and non-NULL folds as
// a plain loop over its 64 values, from the word's base value index rk.Base
// (wi<<6 for a full chunk); any other walks its set bits, each slot's value
// at rk.At. Both go in slot order, so a float sum is the same sum either
// way, to the bit.

// liveWord returns word wi of live&^nulls, less the bits outside slots [s, e).
func liveWord(live, nulls []uint64, wi, s, e int64) uint64 {
	w := live[wi] &^ nulls[wi]
	if lo := wi << 6; s > lo {
		w &= ^uint64(0) << uint(s-lo)
	}
	if hi := wi<<6 + 64; e < hi {
		w &= ^uint64(0) >> uint(hi-e)
	}
	return w
}

// foldCount counts; a nil nulls counts every live slot.
func foldCount(cnt []int64, live, nulls *array.Bitmap, r run) {
	end := r.start + r.n
	for s, e, row := r.start, r.start+r.first, r.row; s < end; s, e, row = e, min(e+r.seg, end), row+r.step {
		if nulls == nil {
			cnt[row] += live.CountRange(s, e)
		} else {
			cnt[row] += array.CountPresentNotNull(live, nulls, s, e)
		}
	}
}

// foldSum adds in the accumulator's type: exactly for an int64 sum of an
// int64 column, in float64 otherwise.
func foldSum[A, T int64 | float64](sum []A, cnt []int64, vals []T, rk *array.Rank, live, nulls []uint64, r run) {
	end := r.start + r.n
	for s, e, row := r.start, r.start+r.first, r.row; s < end; s, e, row = e, min(e+r.seg, end), row+r.step {
		acc, n := sum[row], cnt[row]
		for wi := s >> 6; wi<<6 < e; wi++ {
			w := liveWord(live, nulls, wi, s, e)
			if w == ^uint64(0) {
				for _, x := range vals[rk.Base(wi):][:64] {
					acc += A(x)
				}
				n += 64
				continue
			}
			for ; w != 0; w &= w - 1 {
				acc += A(vals[rk.At(wi, bits.TrailingZeros64(w))])
				n++
			}
		}
		sum[row], cnt[row] = acc, n
	}
}

// beats reports whether x replaces best as a group's min (or max): it is
// strictly better — so the first of equals stays and a NaN x never wins — or
// best is itself a NaN, kept only until a number arrives.
func beats[T int64 | float64](x, best T, max bool) bool {
	if max {
		return x > best || best != best
	}
	return x < best || best != best
}

func foldBest[T int64 | float64](best []T, cnt []int64, vals []T, rk *array.Rank, max bool, live, nulls []uint64, r run) {
	end := r.start + r.n
	for s, e, row := r.start, r.start+r.first, r.row; s < end; s, e, row = e, min(e+r.seg, end), row+r.step {
		b, n := best[row], cnt[row]
		for wi := s >> 6; wi<<6 < e; wi++ {
			w := liveWord(live, nulls, wi, s, e)
			if w == ^uint64(0) {
				v := vals[rk.Base(wi):][:64]
				// Until b holds a number beats decides; after, a NaN x never
				// wins a strict compare, so the compare alone is beats.
				for ; len(v) > 0 && (n == 0 || b != b); v, n = v[1:], n+1 {
					if n == 0 || beats(v[0], b, max) {
						b = v[0]
					}
				}
				if max {
					for _, x := range v {
						if x > b {
							b = x
						}
					}
				} else {
					for _, x := range v {
						if x < b {
							b = x
						}
					}
				}
				n += int64(len(v))
				continue
			}
			for ; w != 0; w &= w - 1 {
				if x := vals[rk.At(wi, bits.TrailingZeros64(w))]; n == 0 || beats(x, b, max) {
					b = x
				}
				n++
			}
		}
		best[row], cnt[row] = b, n
	}
}

func foldWelford[T int64 | float64](mean, m2 []float64, cnt []int64, vals []T, rk *array.Rank, live, nulls []uint64, r run) {
	end := r.start + r.n
	for s, e, row := r.start, r.start+r.first, r.row; s < end; s, e, row = e, min(e+r.seg, end), row+r.step {
		m, q, n := mean[row], m2[row], cnt[row]
		for wi := s >> 6; wi<<6 < e; wi++ {
			w := liveWord(live, nulls, wi, s, e)
			if w == ^uint64(0) {
				for _, v := range vals[rk.Base(wi):][:64] {
					x := float64(v)
					n++
					d := x - m
					m += d / float64(n)
					q += d * (x - m)
				}
				continue
			}
			for ; w != 0; w &= w - 1 {
				x := float64(vals[rk.At(wi, bits.TrailingZeros64(w))])
				n++
				d := x - m
				m += d / float64(n)
				q += d * (x - m)
			}
		}
		mean[row], m2[row], cnt[row] = m, q, n
	}
}

// mergeRow folds row r of o, column k, into row tr of t, as if t's row had
// also folded every value o's saw: sums add, the better extreme stays (the
// receiver's on a tie), Welford states combine by Chan's pairwise update.
func (f *Fold) mergeRow(k int, t *FoldTable, tr int64, o *FoldTable, r int64) error {
	c, dst, src := f.cols[k], &t.Cols[k], &o.Cols[k]
	if !c.typed {
		if dst.boxed[tr] == nil {
			dst.boxed[tr] = src.boxed[r]
			return nil
		}
		return dst.boxed[tr].(udf.MergeableAggregate).Merge(src.boxed[r])
	}
	if src.N[r] == 0 {
		return nil
	}
	switch c.agg {
	case "sum", "avg":
		if c.ints() {
			dst.I[tr] += src.I[r]
		} else {
			dst.F[tr] += src.F[r]
		}
	case "min", "max":
		if c.isInt {
			if dst.N[tr] == 0 || beats(src.I[r], dst.I[tr], c.agg == "max") {
				dst.I[tr] = src.I[r]
			}
		} else if dst.N[tr] == 0 || beats(src.F[r], dst.F[tr], c.agg == "max") {
			dst.F[tr] = src.F[r]
		}
	case "stdev":
		nA, nB := float64(dst.N[tr]), float64(src.N[r])
		d := src.F[r] - dst.F[tr]
		dst.F[tr] += d * nB / (nA + nB)
		dst.M2[tr] += src.M2[r] + d*d*nA*nB/(nA+nB)
	}
	dst.N[tr] += src.N[r]
	return nil
}

// group writes the group indices of row r into g.
func (t *FoldTable) group(r int64, g []int64) {
	for k := len(t.Shape) - 1; k >= 0; k-- {
		g[k] = t.Lo[k] + r%t.Shape[k]
		r /= t.Shape[k]
	}
}

// mergeAll merges parts, in order, into a fresh table over the given box.
func (f *Fold) mergeAll(lo, shape []int64, parts []*FoldTable) (*FoldTable, error) {
	t := f.newTable(lo, shape)
	g := make([]int64, len(shape))
	for _, o := range parts {
		for r, cells := range o.Cells {
			if cells == 0 {
				continue
			}
			o.group(int64(r), g)
			tr := int64(0)
			for k, at := range g {
				if at -= lo[k]; at < 0 || at >= shape[k] {
					return nil, fmt.Errorf("ops: partial table holds a group outside the fold's bounds")
				}
				tr = tr*shape[k] + at
			}
			t.Cells[tr] += cells
			for k := range f.cols {
				if err := f.mergeRow(k, t, tr, o, int64(r)); err != nil {
					return nil, err
				}
			}
		}
	}
	return t, nil
}

// Merge merges tables this fold's Chunk built, in order, into one over the
// union of their boxes: a worker's answer.
func (f *Fold) Merge(parts []*FoldTable) (*FoldTable, error) {
	lo := make([]int64, len(f.gdims))
	shape := make([]int64, len(f.gdims)) // the union's upper edge first
	for i, o := range parts {
		for k := range lo {
			if i == 0 || o.Lo[k] < lo[k] {
				lo[k] = o.Lo[k]
			}
			shape[k] = max(shape[k], o.Lo[k]+o.Shape[k])
		}
	}
	for k := range shape {
		shape[k] -= lo[k]
	}
	return f.mergeAll(lo, shape, parts)
}

// Result merges parts, in order, and terminates: the groups that saw a cell
// become the cells of the result, one chunk whose row-major slots are the
// merged table's rows. parts may come from anywhere; a misfit is an error.
func (f *Fold) Result(parts []*FoldTable) (*array.Array, error) {
	out := f.out.Clone()
	g := make([]int64, len(f.gdims))
	shape := make([]int64, len(g))
	for _, o := range parts {
		if err := f.check(o); err != nil {
			return nil, err
		}
		// An unbounded group dimension ends at the last group holding a cell,
		// where the high-water mark of the gathered cells would be.
		for k := range shape {
			if out.Dims[k].High != array.Unbounded {
				continue
			}
			for r, cells := range o.Cells {
				if cells != 0 {
					o.group(int64(r), g)
					shape[k] = max(shape[k], g[k]+1)
				}
			}
		}
	}
	for k := range shape {
		if d := &out.Dims[k]; d.High == array.Unbounded {
			d.High = max(shape[k], 1)
		}
		shape[k] = out.Dims[k].High
	}
	t, err := f.mergeAll(make([]int64, len(shape)), shape, parts)
	if err != nil {
		return nil, err
	}
	res, err := array.New(out)
	if err != nil {
		return nil, err
	}
	groups := int64(0)
	for _, cells := range t.Cells {
		if cells != 0 {
			groups++
		}
	}
	origin := array.WholeBox(out).Lo
	b := array.NewChunkBuilder(out, origin, res.GridShape(origin), groups)
	for r, cells := range t.Cells {
		if cells != 0 {
			b.Add(int64(r))
			f.terminate(t, int64(r), b.Cols(), int64(r))
		}
	}
	if oc := b.Chunk(); oc != nil {
		res.PutChunk(oc)
	}
	return res, nil
}

// terminate appends row r of t as slot of cols, one column per aggregate,
// the slot just added to their ChunkBuilder: each aggregate's final value,
// or NULL where it folded too few values.
func (f *Fold) terminate(t *FoldTable, r int64, cols []*array.Column, slot int64) {
	for k, c := range f.cols {
		st, col := &t.Cols[k], cols[k]
		switch {
		case !c.typed:
			col.Append(slot, st.boxed[r].Result())
		case c.agg == "count":
			col.AppendInt(slot, st.N[r])
		case st.N[r] == 0 || (c.agg == "stdev" && st.N[r] < 2):
			col.AppendNull(slot)
		case c.agg == "avg":
			col.AppendFloat(slot, st.F[r]/float64(st.N[r]), 0)
		case c.agg == "stdev":
			col.AppendFloat(slot, math.Sqrt(st.M2[r]/float64(st.N[r]-1)), 0)
		case c.ints():
			col.AppendInt(slot, st.I[r])
		default:
			col.AppendFloat(slot, st.F[r], 0)
		}
	}
}

// FoldArray is the body of Aggregate and Regrid: the fold of a's cells inside
// box. Every chunk folds into its own table, as a pool task, and the tables
// merge in chunk order.
func FoldArray(ctx context.Context, a *array.Array, box array.Box, spec FoldSpec, reg *udf.Registry) (*array.Array, error) {
	if len(spec.Aggs) == 0 {
		return nil, fmt.Errorf("ops: aggregate requires at least one aggregate spec")
	}
	// Unbounded dimensions are pinned to their high-water marks, so the
	// result's extent does not depend on where the cells of box end.
	f, err := NewFold(&array.Schema{Name: a.Schema.Name, Dims: dimsWithHwm(a), Attrs: a.Schema.Attrs}, spec, reg)
	if err != nil {
		return nil, err
	}
	var work []*array.Chunk
	for _, ch := range liveChunks(a) {
		if ch.Box().Intersects(box) {
			work = append(work, ch)
		}
	}
	spanChunks(ctx, work)
	pool := exec.Default()
	parts := make([]*FoldTable, len(work))
	err = pool.Map(ctx, len(work), func(i int) error {
		parts[i] = f.Chunk(work[i], work[i].MaskIn(box))
		return nil
	})
	if err != nil {
		return nil, err
	}
	pool.NoteChunks(int64(len(work)))
	return f.Result(parts)
}
