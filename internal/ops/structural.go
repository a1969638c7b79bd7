package ops

import (
	"cmp"
	"context"
	"fmt"
	"slices"

	"scidb/internal/array"
	"scidb/internal/udf"
)

// DimCond is one conjunct of a Subsample predicate: a condition on a single
// dimension, independent of all others. The paper requires the predicate to
// be "a conjunction of conditions on each dimension independently"; this
// structure makes cross-dimension predicates like "X = Y" inexpressible by
// construction.
type DimCond struct {
	Dim  string
	Desc string // printable form, e.g. "even(X)" or "X < 4"
	Pred func(int64) bool
}

// DimEq builds the condition dim = v.
func DimEq(dim string, v int64) DimCond {
	return DimCond{Dim: dim, Desc: fmt.Sprintf("%s = %d", dim, v), Pred: func(x int64) bool { return x == v }}
}

// DimRange builds the condition lo <= dim <= hi.
func DimRange(dim string, lo, hi int64) DimCond {
	return DimCond{Dim: dim, Desc: fmt.Sprintf("%d <= %s <= %d", lo, dim, hi), Pred: func(x int64) bool { return x >= lo && x <= hi }}
}

// DimCmp builds a comparison condition (op in <, <=, >, >=, =, !=).
func DimCmp(dim, op string, v int64) (DimCond, error) {
	var pred func(int64) bool
	switch op {
	case "<":
		pred = func(x int64) bool { return x < v }
	case "<=":
		pred = func(x int64) bool { return x <= v }
	case ">":
		pred = func(x int64) bool { return x > v }
	case ">=":
		pred = func(x int64) bool { return x >= v }
	case "=", "==":
		pred = func(x int64) bool { return x == v }
	case "!=", "<>":
		pred = func(x int64) bool { return x != v }
	default:
		return DimCond{}, fmt.Errorf("ops: unknown dimension comparison %q", op)
	}
	return DimCond{Dim: dim, Desc: fmt.Sprintf("%s %s %d", dim, op, v), Pred: pred}, nil
}

// DimEven builds the paper's even(X) condition.
func DimEven(dim string) DimCond {
	return DimCond{Dim: dim, Desc: fmt.Sprintf("even(%s)", dim), Pred: func(x int64) bool { return x%2 == 0 }}
}

// DimOdd builds odd(X).
func DimOdd(dim string) DimCond {
	return DimCond{Dim: dim, Desc: fmt.Sprintf("odd(%s)", dim), Pred: func(x int64) bool { return x%2 == 1 }}
}

// Subsample selects a "subslab" (§2.2.1): the slices along each dimension
// whose index satisfies that dimension's conjunct. The output has the same
// number of dimensions, generally fewer dimension values; slices are
// concatenated (re-indexed 1..k) and the original index values are retained
// through a "subsample_origin" enhancement, so both the compact and the
// original coordinate systems remain addressable.
//
// Subsample is data-agnostic: it copies whole slices without reading values.
func Subsample(a *array.Array, conds []DimCond) (*array.Array, error) {
	return SubsampleCtx(context.Background(), a, conds)
}

// SubsampleCtx is Subsample under a context (cancellation + span counters).
func SubsampleCtx(ctx context.Context, a *array.Array, conds []DimCond) (*array.Array, error) {
	s := a.Schema
	sel, err := Selection(a, conds)
	if err != nil {
		return nil, err
	}
	// The output keeps the input's chunk strides; output index k of a
	// dimension reads the k-th selected original index.
	out := &array.Schema{Name: s.Name + "_subsample", Dims: dimsWithHwm(a), Attrs: s.Attrs}
	for d := range out.Dims {
		out.Dims[d].High = max(int64(len(sel[d])), 1)
	}
	// An input box lands on the output indices whose selected originals
	// fall inside it: one run per dimension, since sel is ascending.
	res, err := gather(ctx, out, []*array.Array{a}, func(_ int, b array.Box) array.Box {
		o := array.Box{Lo: make(array.Coord, len(sel)), Hi: make(array.Coord, len(sel))}
		for d, s := range sel {
			lo, _ := slices.BinarySearch(s, b.Lo[d])
			hi, _ := slices.BinarySearch(s, b.Hi[d]+1)
			o.Lo[d], o.Hi[d] = int64(lo)+1, int64(hi)
		}
		return o
	}, func(dst, src array.Coord) int {
		for d := range dst {
			if dst[d] > int64(len(sel[d])) {
				return -1
			}
			src[d] = sel[d][dst[d]-1]
		}
		return 0
	})
	if err != nil {
		return nil, err
	}
	// Retain the original index values as pseudo-coordinates.
	selCopy := sel
	names := make([]string, len(s.Dims))
	for d := range names {
		names[d] = "orig_" + s.Dims[d].Name
	}
	res.Enhance(udf.NewDimEnhancement("subsample_origin", names,
		func(c array.Coord) []array.Value {
			out := make([]array.Value, len(c))
			for d := range c {
				if c[d] >= 1 && c[d] <= int64(len(selCopy[d])) {
					out[d] = array.Int64(selCopy[d][c[d]-1])
				} else {
					out[d] = array.NullValue(array.TInt64)
				}
			}
			return out
		},
		func(p []array.Value) (array.Coord, bool) {
			c := make(array.Coord, len(p))
			for d := range p {
				want := p[d].AsInt()
				found := false
				for i, orig := range selCopy[d] {
					if orig == want {
						c[d] = int64(i + 1)
						found = true
						break
					}
				}
				if !found {
					return nil, false
				}
			}
			return c, true
		}))
	return res, nil
}

// Selection lists, per dimension of a, the original indices a Subsample by
// conds keeps, ascending: output index k of the dimension is the k-th.
func Selection(a *array.Array, conds []DimCond) ([][]int64, error) {
	s := a.Schema
	sel := make([][]int64, len(s.Dims))
	for d, dim := range s.Dims {
		var preds []func(int64) bool
		for _, c := range conds {
			if c.Dim == dim.Name {
				preds = append(preds, c.Pred)
			} else if s.DimIndex(c.Dim) < 0 {
				return nil, fmt.Errorf("ops: subsample condition on unknown dimension %q", c.Dim)
			}
		}
	next:
		for v := int64(1); v <= a.Hwm(d); v++ {
			for _, p := range preds {
				if !p(v) {
					continue next
				}
			}
			sel[d] = append(sel[d], v)
		}
	}
	return sel, nil
}

// Reshape converts an array to a new shape with the same number of cells
// (§2.2.1). order lists the input dimensions from slowest- to
// fastest-iterating ("first imagine that G is linearized by iterating over
// X most slowly and Y most quickly"); newDims gives the output dimensions.
// Output cell k in row-major order is input cell k of that linearization.
func Reshape(ctx context.Context, a *array.Array, order []string, newDims []array.Dimension) (*array.Array, error) {
	s := a.Schema
	if len(order) != len(s.Dims) {
		return nil, fmt.Errorf("ops: reshape order lists %d dims, array has %d", len(order), len(s.Dims))
	}
	perm := make([]int, len(order))
	permShape := make([]int64, len(order))
	seen := map[string]bool{}
	inCells := int64(1)
	for i, name := range order {
		d := s.DimIndex(name)
		if d < 0 {
			return nil, fmt.Errorf("ops: reshape order references unknown dimension %q", name)
		}
		if seen[name] {
			return nil, fmt.Errorf("ops: reshape order repeats dimension %q", name)
		}
		seen[name] = true
		perm[i], permShape[i] = d, a.Hwm(d)
		inCells *= a.Hwm(d)
	}
	outCells := int64(1)
	outShape := make([]int64, len(newDims))
	ones := make(array.Coord, len(newDims))
	for i, d := range newDims {
		if d.High == array.Unbounded || d.High < 1 {
			return nil, fmt.Errorf("ops: reshape target dimension %s must be bounded", d.Name)
		}
		outCells *= d.High
		outShape[i], ones[i] = d.High, 1
	}
	if inCells != outCells {
		return nil, fmt.Errorf("ops: reshape cell-count mismatch: %d in, %d out", inCells, outCells)
	}
	out := &array.Schema{Name: s.Name + "_reshape", Dims: newDims, Attrs: s.Attrs}
	return gather(ctx, out, []*array.Array{a}, nil, func(dst, src array.Coord) int {
		k := array.RowMajorIndex(ones, outShape, dst)
		for i := len(perm) - 1; i >= 0; i-- {
			src[perm[i]] = 1 + k%permShape[i]
			k /= permShape[i]
		}
		return 0
	})
}

// DimPair names one equality conjunct of an Sjoin predicate:
// left.LDim = right.RDim.
type DimPair struct{ LDim, RDim string }

// Sjoin is the structured join (§2.2.1, Figure 1): its predicate is
// restricted to dimension values only, as equality pairs. Joining an
// m-dimensional and an n-dimensional array on k dimension pairs yields an
// (m + n − k)-dimensional array with concatenated cell tuples wherever the
// predicate holds.
func Sjoin(a, b *array.Array, on []DimPair) (*array.Array, error) {
	return SjoinCtx(context.Background(), a, b, on)
}

// SjoinCtx is Sjoin under a context (cancellation + span counters).
func SjoinCtx(ctx context.Context, a, b *array.Array, on []DimPair) (*array.Array, error) {
	if len(on) == 0 {
		return nil, fmt.Errorf("ops: sjoin requires at least one dimension pair")
	}
	return join(ctx, a, b, on, "_sjoin_")
}

// CrossProduct pairs every cell of a with every cell of b (§2.2.1 "cross
// product"): an (m+n)-dimensional array of concatenated tuples — the join
// with no dimension pairs.
func CrossProduct(ctx context.Context, a, b *array.Array) (*array.Array, error) {
	return join(ctx, a, b, nil, "_cross_")
}

// joinSchema is the output schema of a's join with b on the pairs, the
// arrays' dimensions bounded by their high-water marks ha and hb: a's
// dimensions with a's chunk strides, then b's free ones (renamed on a
// clash), each spanning its extent in one chunk, so each chunk of a maps to
// exactly one disjoint output chunk; a's attributes, then b's. It also
// returns the pairs' dimension indexes on each side and b's free dimensions.
func joinSchema(sa, sb *array.Schema, ha, hb []int64, on []DimPair, infix string) (out *array.Schema, lidx, ridx, bFree []int, err error) {
	lidx, ridx = make([]int, len(on)), make([]int, len(on))
	joined := make(map[int]bool) // b dims consumed by the join
	for i, p := range on {
		l, r := sa.DimIndex(p.LDim), sb.DimIndex(p.RDim)
		if l < 0 || r < 0 {
			return nil, nil, nil, nil, fmt.Errorf("ops: sjoin pair %s=%s references unknown dimension", p.LDim, p.RDim)
		}
		lidx[i], ridx[i] = l, r
		joined[r] = true
	}
	out = &array.Schema{Name: sa.Name + infix + sb.Name, Dims: boundedDims(sa, ha)}
	for d, dim := range sb.Dims {
		if joined[d] {
			continue
		}
		bFree = append(bFree, d)
		name := dim.Name
		if out.DimIndex(name) >= 0 {
			name = sb.Name + "_" + name
		}
		out.Dims = append(out.Dims, array.Dimension{Name: name, High: max(hb[d], 1)})
	}
	out.Attrs = concatAttrs(sa, sb)
	return out, lidx, ridx, bFree, nil
}

// Paired reports whether on pairs every dimension of sa with the one in the
// same position of sb, and nothing else: the join whose output chunks are
// the input chunk pairs of equal origin, when the two share one grid.
func Paired(sa, sb *array.Schema, on []DimPair) bool {
	if len(on) != len(sa.Dims) || len(on) != len(sb.Dims) {
		return false
	}
	seen := make([]bool, len(on))
	for _, p := range on {
		d := sa.DimIndex(p.LDim)
		if d < 0 || sb.DimIndex(p.RDim) != d || seen[d] {
			return false
		}
		seen[d] = true
	}
	return true
}

// PairedSchema is the schema Sjoin gives arrays of schemas sa and sb, every
// dimension bounded, joined on every dimension in order.
func PairedSchema(sa, sb *array.Schema) (*array.Schema, error) {
	if len(sa.Dims) != len(sb.Dims) {
		return nil, fmt.Errorf("ops: %s has %d dimensions, %s %d", sa.Name, len(sa.Dims), sb.Name, len(sb.Dims))
	}
	on := make([]DimPair, len(sa.Dims))
	ha, hb := make([]int64, len(on)), make([]int64, len(on))
	for d := range on {
		if !sa.Dims[d].Bounded() || !sb.Dims[d].Bounded() {
			return nil, fmt.Errorf("ops: dimension %d of %s or %s is unbounded", d, sa.Name, sb.Name)
		}
		on[d] = DimPair{LDim: sa.Dims[d].Name, RDim: sb.Dims[d].Name}
		ha[d], hb[d] = sa.Dims[d].High, sb.Dims[d].High
	}
	out, _, _, _, err := joinSchema(sa, sb, ha, hb, on, "_sjoin_")
	return out, err
}

// JoinChunks is the chunk-pair join: a and b are chunks of one origin and
// shape, and the output, a chunk of schema out there, holds each slot live
// in both (aLive, bLive), a's columns then b's. It builds the chunk a
// presence word at a time — the AND of the two live words — and copies each
// side's values for the word through AppendWord, one copy where the word is
// a whole rank word of that side. Neither input is written; nil when no slot
// is live in both.
func JoinChunks(out *array.Schema, a *array.Chunk, aLive *array.Bitmap, b *array.Chunk, bLive *array.Bitmap) *array.Chunk {
	ob := array.NewChunkBuilder(out, a.Origin, a.Shape, min(aLive.Count(), bLive.Count()))
	cols := ob.Cols()
	na, n := len(a.Cols), aLive.Len()
	bw := bLive.Words()
	for wi, w := range aLive.Words() {
		w &= bw[wi]
		if rest := n - int64(wi)<<6; rest < 64 {
			w &= 1<<uint(rest) - 1
		}
		if w == 0 {
			continue
		}
		ob.AddWord(int64(wi), w)
		for ai, col := range a.Cols {
			cols[ai].AppendWord(col, int64(wi), w)
		}
		for ai, col := range b.Cols {
			cols[na+ai].AppendWord(col, int64(wi), w)
		}
	}
	return ob.Chunk()
}

// join is the one body of Sjoin and CrossProduct, the output named a's name,
// infix, b's name: a pool task per live chunk of a pairs its cells with the
// cells of b the dimension pairs name — with no pairs, every cell of b.
func join(ctx context.Context, a, b *array.Array, on []DimPair, infix string) (*array.Array, error) {
	sa, sb := a.Schema, b.Schema
	out, lidx, ridx, bFree, err := joinSchema(sa, sb, a.Bounds(), b.Bounds(), on, infix)
	if err != nil {
		return nil, err
	}
	res, err := array.New(out)
	if err != nil {
		return nil, err
	}
	work := liveChunks(a)
	spanChunks(ctx, work)
	na, naAttrs := len(sa.Dims), len(sa.Attrs)
	// Without pairs a task walks b's live cells, not its dense extent: each
	// is listed once with its row-major offset within that extent, in offset
	// order, so a row of output slots is written in order.
	type bCell struct {
		ch       *array.Chunk
		idx, off int64
	}
	var bCells []bCell
	if len(on) == 0 {
		bWork := liveChunks(b)
		spanChunks(ctx, bWork)
		ones, ext := make(array.Coord, len(sb.Dims)), make([]int64, len(sb.Dims))
		for d := range ext {
			ones[d], ext[d] = 1, out.Dims[na+d].High
		}
		for _, bch := range bWork {
			_ = eachPresent(bch, func(idx int64, cb array.Coord) error {
				bCells = append(bCells, bCell{bch, idx, array.RowMajorIndex(ones, ext, cb)})
				return nil
			})
		}
		slices.SortFunc(bCells, func(x, y bCell) int { return cmp.Compare(x.off, y.off) })
	}
	err = mapChunks(ctx, res, len(work), func(i int) (*array.Chunk, error) {
		ch := work[i]
		ocOrigin := make(array.Coord, len(out.Dims))
		copy(ocOrigin, ch.Origin)
		for k := na; k < len(out.Dims); k++ {
			ocOrigin[k] = 1
		}
		// The output's slots are A's cells in slot order, each followed by
		// its B partners in B's free dimensions' order: slot order.
		shape := res.GridShape(ocOrigin)
		ob := array.NewChunkBuilder(out, ocOrigin, shape, ch.CellsPresent()*max(int64(len(bCells)), 1))
		cols := ob.Cols()
		pk := peeker{a: b}
		cb := make(array.Coord, len(sb.Dims))
		dst := ocOrigin.Clone()
		// For each cell of the A chunk (slot idx) derive B's joined
		// coordinates, then scan B's free dimensions.
		var idx int64
		var scan func(k int)
		scan = func(k int) {
			if k == len(bFree) {
				bch, bidx, ok := pk.get(cb)
				if !ok {
					return
				}
				oidx := array.RowMajorIndex(ocOrigin, shape, dst)
				ob.Add(oidx)
				for ai := 0; ai < naAttrs; ai++ {
					cols[ai].AppendFrom(ch.Cols[ai], oidx, idx)
				}
				for ai := range bch.Cols {
					cols[naAttrs+ai].AppendFrom(bch.Cols[ai], oidx, bidx)
				}
				return
			}
			d := bFree[k]
			for v := int64(1); v <= b.Hwm(d); v++ {
				cb[d] = v
				dst[na+k] = v
				scan(k + 1)
			}
		}
		_ = eachPresent(ch, func(slot int64, ca array.Coord) error {
			copy(dst, ca)
			if len(on) == 0 {
				// dst is (ca, 1, …, 1): the first output slot of ca's row.
				row := array.RowMajorIndex(ocOrigin, shape, dst)
				for _, bc := range bCells {
					oidx := row + bc.off
					ob.Add(oidx)
					for ai := 0; ai < naAttrs; ai++ {
						cols[ai].AppendFrom(ch.Cols[ai], oidx, slot)
					}
					for ai, col := range bc.ch.Cols {
						cols[naAttrs+ai].AppendFrom(col, oidx, bc.idx)
					}
				}
				return nil
			}
			idx = slot
			for k := range lidx {
				cb[ridx[k]] = ca[lidx[k]]
			}
			scan(0)
			return nil
		})
		return ob.Chunk(), nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// AddDim adds a new size-1 dimension named name at the front (§2.2.1 "add
// dimension").
func AddDim(ctx context.Context, a *array.Array, name string) (*array.Array, error) {
	s := a.Schema
	if s.DimIndex(name) >= 0 || s.AttrIndex(name) >= 0 {
		return nil, fmt.Errorf("ops: dimension %q already exists", name)
	}
	out := &array.Schema{Name: s.Name + "_adddim", Attrs: s.Attrs}
	out.Dims = append([]array.Dimension{{Name: name, High: 1}}, dimsWithHwm(a)...)
	return gather(ctx, out, []*array.Array{a}, func(_ int, b array.Box) array.Box {
		return array.Box{Lo: append(array.Coord{1}, b.Lo...), Hi: append(array.Coord{1}, b.Hi...)}
	}, func(dst, src array.Coord) int {
		copy(src, dst[1:])
		return 0
	})
}

// RemoveDim removes a dimension whose extent is 1 (§2.2.1 "remove
// dimension").
func RemoveDim(ctx context.Context, a *array.Array, name string) (*array.Array, error) {
	s := a.Schema
	d := s.DimIndex(name)
	if d < 0 {
		return nil, fmt.Errorf("ops: unknown dimension %q", name)
	}
	if a.Hwm(d) != 1 {
		return nil, fmt.Errorf("ops: dimension %q has extent %d; only extent-1 dimensions can be removed", name, a.Hwm(d))
	}
	if len(s.Dims) == 1 {
		return nil, fmt.Errorf("ops: cannot remove the last dimension")
	}
	out := &array.Schema{Name: s.Name + "_rmdim", Attrs: s.Attrs, Dims: slices.Delete(dimsWithHwm(a), d, d+1)}
	return gather(ctx, out, []*array.Array{a}, func(_ int, b array.Box) array.Box {
		return array.Box{Lo: slices.Delete(b.Lo, d, d+1), Hi: slices.Delete(b.Hi, d, d+1)}
	}, func(dst, src array.Coord) int {
		copy(src, dst[:d])
		src[d] = 1
		copy(src[d+1:], dst[d:])
		return 0
	})
}

// Concat concatenates b after a along the named dimension (§2.2.1
// "concatenate"); b's indices in that dimension are shifted by a's extent.
// The arrays must agree on all other dimension extents and on the number of
// attributes; b's values convert to a's attribute types.
func Concat(ctx context.Context, a, b *array.Array, dim string) (*array.Array, error) {
	sa, sb := a.Schema, b.Schema
	d := sa.DimIndex(dim)
	if d < 0 || sb.DimIndex(dim) != d {
		return nil, fmt.Errorf("ops: concat dimension %q must exist at the same position in both arrays", dim)
	}
	if len(sa.Dims) != len(sb.Dims) || len(sa.Attrs) != len(sb.Attrs) {
		return nil, fmt.Errorf("ops: concat arrays must have matching schemas")
	}
	for i := range sa.Dims {
		if i != d && a.Hwm(i) != b.Hwm(i) {
			return nil, fmt.Errorf("ops: concat extent mismatch in dimension %s", sa.Dims[i].Name)
		}
	}
	shift := a.Hwm(d)
	out := &array.Schema{Name: sa.Name + "_concat", Attrs: sa.Attrs, Dims: dimsWithHwm(a)}
	out.Dims[d].High = shift + b.Hwm(d)
	return gather(ctx, out, []*array.Array{a, b}, func(k int, box array.Box) array.Box {
		box.Lo[d] += int64(k) * shift
		box.Hi[d] += int64(k) * shift
		return box
	}, func(dst, src array.Coord) int {
		copy(src, dst)
		if dst[d] <= shift {
			return 0
		}
		src[d] -= shift
		return 1
	})
}

// gather is the one body of the operators that place input cells without
// reading them (Subsample, Reshape, AddDim, RemoveDim, Concat). It fills an
// array of schema out with one pool task per output chunk: the task walks
// the chunk's slots in row-major order, from names where each slot's cell
// lives — the index of its input in ins (-1 for none) and the coordinate
// there, written into src — and the cell's columns are copied. to maps a box
// of input k into out's coordinates (a box with Lo > Hi somewhere lands
// nowhere), so only the output chunks some live input chunk lands on get a
// task, its value vectors sized for the present cells of those input chunks
// (NewChunkBuilder caps a hint at the chunk's slots); nil gives every chunk
// of the output grid one, sized for the input's mean occupancy.
func gather(ctx context.Context, out *array.Schema, ins []*array.Array, to func(k int, b array.Box) array.Box, from func(dst, src array.Coord) int) (*array.Array, error) {
	res, err := array.New(out)
	if err != nil {
		return nil, err
	}
	var origins []array.Coord
	var hints []int64 // per origin, the present cells mapped onto it
	at := map[string]int{}
	var cells int64
	for k, in := range ins {
		work := liveChunks(in)
		spanChunks(ctx, work)
		for _, ch := range work {
			cells += ch.CellsPresent()
			if to == nil {
				continue
			}
			b := to(k, ch.Box())
			empty := false
			for d, dim := range out.Dims {
				b.Hi[d] = min(b.Hi[d], dim.High)
				empty = empty || b.Lo[d] > b.Hi[d]
			}
			if empty {
				continue
			}
			for _, o := range gridOrigins(res, b) {
				key := o.Key()
				i, ok := at[key]
				if !ok {
					i = len(origins)
					at[key] = i
					origins, hints = append(origins, o), append(hints, 0)
				}
				hints[i] += ch.CellsPresent()
			}
		}
	}
	if to == nil {
		whole := array.WholeBox(out)
		origins = gridOrigins(res, whole)
		hints = make([]int64, len(origins))
		for i, o := range origins {
			hints[i] = cells
			for _, e := range res.GridShape(o) {
				hints[i] *= e
			}
			hints[i] = (hints[i] + whole.Cells() - 1) / whole.Cells()
		}
	}
	nd := len(out.Dims)
	err = mapChunks(ctx, res, len(origins), func(i int) (*array.Chunk, error) {
		origin, shape := origins[i], res.GridShape(origins[i])
		slots := int64(1)
		for _, e := range shape {
			slots *= e
		}
		b := array.NewChunkBuilder(out, origin, shape, hints[i])
		cols := b.Cols()
		pks := make([]peeker, len(ins))
		for k, in := range ins {
			pks[k].a = in
		}
		src := make(array.Coord, len(ins[0].Schema.Dims))
		dst := origin.Clone()
		for idx := int64(0); idx < slots; idx++ {
			if k := from(dst, src); k >= 0 {
				if sc, sidx, ok := pks[k].get(src); ok {
					b.Add(idx)
					for ai, col := range cols {
						col.AppendFrom(sc.Cols[ai], idx, sidx)
					}
				}
			}
			for d := nd - 1; d >= 0; d-- {
				dst[d]++
				if dst[d] < origin[d]+shape[d] {
					break
				}
				dst[d] = origin[d]
			}
		}
		return b.Chunk(), nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// concatAttrs concatenates attribute lists, prefixing right-side names that
// collide.
func concatAttrs(sa, sb *array.Schema) []array.Attribute {
	out := append([]array.Attribute(nil), sa.Attrs...)
	for _, at := range sb.Attrs {
		name := at.Name
		for _, existing := range out {
			if existing.Name == name {
				name = sb.Name + "_" + name
				break
			}
		}
		at.Name = name
		out = append(out, at)
	}
	return out
}
