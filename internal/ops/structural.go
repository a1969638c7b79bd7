package ops

import (
	"context"
	"fmt"

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
	// Selected original indices per dimension.
	sel := make([][]int64, len(s.Dims))
	for d, dim := range s.Dims {
		hi := a.Hwm(d)
		var preds []func(int64) bool
		for _, c := range conds {
			if c.Dim == dim.Name {
				preds = append(preds, c.Pred)
			} else if s.DimIndex(c.Dim) < 0 {
				return nil, fmt.Errorf("ops: subsample condition on unknown dimension %q", c.Dim)
			}
		}
		for v := int64(1); v <= hi; v++ {
			keep := true
			for _, p := range preds {
				if !p(v) {
					keep = false
					break
				}
			}
			if keep {
				sel[d] = append(sel[d], v)
			}
		}
	}

	// The output keeps the input's chunk strides; one task fills each chunk
	// of its grid, copying the selected cells' columns directly.
	out := &array.Schema{Name: s.Name + "_subsample", Dims: dimsWithHwm(a), Attrs: s.Attrs}
	for d := range out.Dims {
		out.Dims[d].High = max64(int64(len(sel[d])), 1)
	}
	res, err := array.New(out)
	if err != nil {
		return nil, err
	}
	spanChunks(ctx, liveChunks(a))
	origins := gridOrigins(res)
	nd := len(out.Dims)
	err = mapChunks(ctx, res, len(origins), func(i int) (*array.Chunk, error) {
		oc := array.NewChunk(out, origins[i], res.GridShape(origins[i]))
		pk := peeker{a: a}
		src := make(array.Coord, nd)
		dst := origins[i].Clone()
		any := false
		slots := oc.Slots()
		for idx := int64(0); idx < slots; idx++ {
			inSel := true
			for d := 0; d < nd; d++ {
				if dst[d] > int64(len(sel[d])) {
					inSel = false
					break
				}
				src[d] = sel[d][dst[d]-1]
			}
			if inSel {
				if sc, sidx, ok := pk.get(src); ok {
					oc.Present.Set(idx)
					for ai := range oc.Cols {
						oc.Cols[ai].CopyFrom(sc.Cols[ai], idx, sidx)
					}
					any = true
				}
			}
			for d := nd - 1; d >= 0; d-- {
				dst[d]++
				if dst[d] < oc.Origin[d]+oc.Shape[d] {
					break
				}
				dst[d] = oc.Origin[d]
			}
		}
		if !any {
			return nil, nil
		}
		return oc, nil
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

// Reshape converts an array to a new shape with the same number of cells
// (§2.2.1). order lists the input dimensions from slowest- to
// fastest-iterating ("first imagine that G is linearized by iterating over
// X most slowly and Y most quickly"); newDims gives the output dimensions.
func Reshape(a *array.Array, order []string, newDims []array.Dimension) (*array.Array, error) {
	s := a.Schema
	if len(order) != len(s.Dims) {
		return nil, fmt.Errorf("ops: reshape order lists %d dims, array has %d", len(order), len(s.Dims))
	}
	perm := make([]int, len(order))
	seen := map[string]bool{}
	for i, name := range order {
		d := s.DimIndex(name)
		if d < 0 {
			return nil, fmt.Errorf("ops: reshape order references unknown dimension %q", name)
		}
		if seen[name] {
			return nil, fmt.Errorf("ops: reshape order repeats dimension %q", name)
		}
		seen[name] = true
		perm[i] = d
	}
	inCells := int64(1)
	for d := range s.Dims {
		inCells *= a.Hwm(d)
	}
	outCells := int64(1)
	for _, d := range newDims {
		if d.High == array.Unbounded || d.High < 1 {
			return nil, fmt.Errorf("ops: reshape target dimension %s must be bounded", d.Name)
		}
		outCells *= d.High
	}
	if inCells != outCells {
		return nil, fmt.Errorf("ops: reshape cell-count mismatch: %d in, %d out", inCells, outCells)
	}
	out := &array.Schema{Name: s.Name + "_reshape", Dims: newDims, Attrs: s.Attrs}
	res, err := array.New(out)
	if err != nil {
		return nil, err
	}

	// Walk the input in the linearization order and the output row-major.
	permShape := make([]int64, len(perm))
	for i, d := range perm {
		permShape[i] = a.Hwm(d)
	}
	outShape := make([]int64, len(newDims))
	outOrigin := make(array.Coord, len(newDims))
	for i, d := range newDims {
		outShape[i] = d.High
		outOrigin[i] = 1
	}
	permOrigin := make(array.Coord, len(perm))
	for i := range permOrigin {
		permOrigin[i] = 1
	}
	var linear int64
	var iterErr error
	array.IterBox(array.Box{Lo: permOrigin, Hi: permShape}, func(pc array.Coord) bool {
		// pc is in permuted order; map back to the source coordinate.
		src := make(array.Coord, len(perm))
		for i, d := range perm {
			src[d] = pc[i]
		}
		if cell, ok := a.At(src); ok {
			dst := array.CoordAt(outOrigin, outShape, linear)
			if err := res.Set(dst, cell); err != nil {
				iterErr = err
				return false
			}
		}
		linear++
		return true
	})
	if iterErr != nil {
		return nil, iterErr
	}
	return res, nil
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
	sa, sb := a.Schema, b.Schema
	if len(on) == 0 {
		return nil, fmt.Errorf("ops: sjoin requires at least one dimension pair")
	}
	lidx := make([]int, len(on))
	ridx := make([]int, len(on))
	joined := make(map[int]bool) // b dims consumed by the join
	for i, p := range on {
		l, r := sa.DimIndex(p.LDim), sb.DimIndex(p.RDim)
		if l < 0 || r < 0 {
			return nil, fmt.Errorf("ops: sjoin pair %s=%s references unknown dimension", p.LDim, p.RDim)
		}
		lidx[i], ridx[i] = l, r
		joined[r] = true
	}

	// A's dimensions keep A's chunk strides and B's free dimensions span
	// their full extent, so each A chunk maps to exactly one disjoint output
	// chunk.
	out := &array.Schema{Name: sa.Name + "_sjoin_" + sb.Name, Dims: dimsWithHwm(a)}
	var bFree []int
	for d, dim := range sb.Dims {
		if joined[d] {
			continue
		}
		bFree = append(bFree, d)
		name := dim.Name
		if out.DimIndex(name) >= 0 {
			name = sb.Name + "_" + name
		}
		out.Dims = append(out.Dims, array.Dimension{Name: name, High: max64(b.Hwm(d), 1)})
	}
	out.Attrs = concatAttrs(sa, sb)
	res, err := array.New(out)
	if err != nil {
		return nil, err
	}
	work := liveChunks(a)
	spanChunks(ctx, work)
	na, naAttrs := len(sa.Dims), len(sa.Attrs)
	err = mapChunks(ctx, res, len(work), func(i int) (*array.Chunk, error) {
		ch := work[i]
		ocOrigin := make(array.Coord, len(out.Dims))
		copy(ocOrigin, ch.Origin)
		for k := na; k < len(out.Dims); k++ {
			ocOrigin[k] = 1
		}
		oc := array.NewChunk(out, ocOrigin, res.GridShape(ocOrigin))
		pk := peeker{a: b}
		cb := make(array.Coord, len(sb.Dims))
		dst := make(array.Coord, len(out.Dims))
		any := false
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
				oidx := oc.Index(dst)
				oc.Present.Set(oidx)
				for ai := 0; ai < naAttrs; ai++ {
					oc.Cols[ai].CopyFrom(ch.Cols[ai], oidx, idx)
				}
				for ai := range bch.Cols {
					oc.Cols[naAttrs+ai].CopyFrom(bch.Cols[ai], oidx, bidx)
				}
				any = true
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
			idx = slot
			for k := range lidx {
				cb[ridx[k]] = ca[lidx[k]]
			}
			copy(dst, ca)
			scan(0)
			return nil
		})
		if !any {
			return nil, nil
		}
		return oc, nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// AddDim adds a new size-1 dimension named name at the front (§2.2.1 "add
// dimension").
func AddDim(a *array.Array, name string) (*array.Array, error) {
	s := a.Schema
	if s.DimIndex(name) >= 0 || s.AttrIndex(name) >= 0 {
		return nil, fmt.Errorf("ops: dimension %q already exists", name)
	}
	out := &array.Schema{Name: s.Name + "_adddim", Attrs: s.Attrs}
	out.Dims = append([]array.Dimension{{Name: name, High: 1}}, dimsWithHwm(a)...)
	res, err := array.New(out)
	if err != nil {
		return nil, err
	}
	var setErr error
	a.IterReuse(func(c array.Coord, cell array.Cell) bool {
		dst := append(array.Coord{1}, c...)
		if err := res.Set(dst, cell); err != nil {
			setErr = err
			return false
		}
		return true
	})
	return res, setErr
}

// RemoveDim removes a dimension whose extent is 1 (§2.2.1 "remove
// dimension").
func RemoveDim(a *array.Array, name string) (*array.Array, error) {
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
	out := &array.Schema{Name: s.Name + "_rmdim", Attrs: s.Attrs}
	for i, dim := range dimsWithHwm(a) {
		if i != d {
			out.Dims = append(out.Dims, dim)
		}
	}
	res, err := array.New(out)
	if err != nil {
		return nil, err
	}
	var setErr error
	a.IterReuse(func(c array.Coord, cell array.Cell) bool {
		dst := make(array.Coord, 0, len(c)-1)
		for i, v := range c {
			if i != d {
				dst = append(dst, v)
			}
		}
		if err := res.Set(dst, cell); err != nil {
			setErr = err
			return false
		}
		return true
	})
	return res, setErr
}

// Concat concatenates b after a along the named dimension (§2.2.1
// "concatenate"); b's indices in that dimension are shifted by a's extent.
// The arrays must agree on all other dimension extents and on attributes.
func Concat(a, b *array.Array, dim string) (*array.Array, error) {
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
	out := &array.Schema{Name: sa.Name + "_concat", Attrs: sa.Attrs}
	for i, dm := range dimsWithHwm(a) {
		if i == d {
			dm.High = shift + b.Hwm(d)
		}
		out.Dims = append(out.Dims, dm)
	}
	res, err := array.New(out)
	if err != nil {
		return nil, err
	}
	var setErr error
	a.IterReuse(func(c array.Coord, cell array.Cell) bool {
		if err := res.Set(c.Clone(), cell); err != nil {
			setErr = err
			return false
		}
		return true
	})
	if setErr != nil {
		return nil, setErr
	}
	b.IterReuse(func(c array.Coord, cell array.Cell) bool {
		dst := c.Clone()
		dst[d] += shift
		if err := res.Set(dst, cell); err != nil {
			setErr = err
			return false
		}
		return true
	})
	return res, setErr
}

// CrossProduct pairs every cell of a with every cell of b (§2.2.1 "cross
// product"): an (m+n)-dimensional array of concatenated tuples.
func CrossProduct(a, b *array.Array) (*array.Array, error) {
	sa, sb := a.Schema, b.Schema
	out := &array.Schema{Name: sa.Name + "_cross_" + sb.Name}
	out.Dims = append(out.Dims, dimsWithHwm(a)...)
	for _, dim := range dimsWithHwm(b) {
		name := dim.Name
		if out.DimIndex(name) >= 0 {
			name = sb.Name + "_" + name
		}
		out.Dims = append(out.Dims, array.Dimension{Name: name, High: dim.High})
	}
	out.Attrs = concatAttrs(sa, sb)
	res, err := array.New(out)
	if err != nil {
		return nil, err
	}
	var setErr error
	a.IterReuse(func(ca array.Coord, cellA array.Cell) bool {
		ok := true
		b.IterReuse(func(cb array.Coord, cellB array.Cell) bool {
			dst := append(ca.Clone(), cb...)
			if err := res.Set(dst, append(cellA.Clone(), cellB...)); err != nil {
				setErr = err
				ok = false
				return false
			}
			return true
		})
		return ok
	})
	return res, setErr
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

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
