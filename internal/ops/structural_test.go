package ops

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"scidb/internal/array"
	"scidb/internal/exec"
	"scidb/internal/udf"
)

// The operators below are Reshape, AddDim, RemoveDim, Concat, CrossProduct,
// Cjoin and Project as they were before they ran on the chunk kernels — a
// cell at a time through IterReuse / At and Array.Set — kept as the oracles
// the kernels are held to.

func reshapeCells(a *array.Array, order []string, newDims []array.Dimension) (*array.Array, error) {
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

func addDimCells(a *array.Array, name string) (*array.Array, error) {
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

func removeDimCells(a *array.Array, name string) (*array.Array, error) {
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

func concatCells(a, b *array.Array, dim string) (*array.Array, error) {
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

func crossCells(a, b *array.Array) (*array.Array, error) {
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

func cjoinCells(a, b *array.Array, pred Expr, reg *udf.Registry) (*array.Array, error) {
	sa, sb := a.Schema, b.Schema
	out := &array.Schema{Name: sa.Name + "_cjoin_" + sb.Name}
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
	// The predicate evaluates over the concatenated schema.
	joinedSchema := out
	nullCell := make(array.Cell, len(out.Attrs))
	for i, at := range out.Attrs {
		nullCell[i] = array.NullValue(at.Type)
	}
	var evalErr error
	a.IterReuse(func(ca array.Coord, cellA array.Cell) bool {
		ok := true
		b.IterReuse(func(cb array.Coord, cellB array.Cell) bool {
			dst := append(ca.Clone(), cb...)
			joined := append(cellA.Clone(), cellB...)
			v, err := evalCell(pred, joinedSchema, dst, joined, reg)
			match := !v.Null && v.Bool
			if err != nil {
				evalErr = err
				ok = false
				return false
			}
			var werr error
			if match {
				werr = res.Set(dst, joined)
			} else {
				werr = res.Set(dst, nullCell)
			}
			if werr != nil {
				evalErr = werr
				ok = false
				return false
			}
			return true
		})
		return ok
	})
	if evalErr != nil {
		return nil, evalErr
	}
	return res, nil
}

func projectCells(a *array.Array, attrs []string) (*array.Array, error) {
	s := a.Schema
	idx := make([]int, len(attrs))
	out := &array.Schema{Name: s.Name + "_project", Dims: dimsWithHwm(a)}
	for i, name := range attrs {
		j := s.AttrIndex(name)
		if j < 0 {
			return nil, fmt.Errorf("ops: unknown attribute %q", name)
		}
		idx[i] = j
		out.Attrs = append(out.Attrs, s.Attrs[j])
	}
	res, err := array.New(out)
	if err != nil {
		return nil, err
	}
	var setErr error
	a.IterReuse(func(c array.Coord, cell array.Cell) bool {
		newCell := make(array.Cell, len(idx))
		for i, j := range idx {
			newCell[i] = cell[j]
		}
		if err := res.Set(c.Clone(), newCell); err != nil {
			setErr = err
			return false
		}
		return true
	})
	return res, setErr
}

// withSigma copies a with f made uncertain: every non-null f carries an error
// bar, and a few become NaNs with payload bits set, which a copy through a
// float64 register may not keep.
func withSigma(rng *rand.Rand, a *array.Array) *array.Array {
	s := a.Schema.Clone()
	s.Attrs[1].Uncertain = true
	out := array.MustNew(s)
	a.Iter(func(c array.Coord, cell array.Cell) bool {
		if !cell[1].Null {
			cell[1].Sigma = float64(rng.Intn(4)) / 4
			if rng.Intn(8) == 0 {
				cell[1].Float = math.Float64frombits(0x7ff8_0000_dead_beef)
			}
		}
		if err := out.Set(c, cell); err != nil {
			panic(err)
		}
		return true
	})
	return out
}

// retyped copies a with i stored as float, f as int and s as bool, each cell
// converted by Array.Set: the right side of a Concat whose attribute types
// differ from the left's.
func retyped(a *array.Array) *array.Array {
	s := a.Schema.Clone()
	s.Name = "R"
	s.Attrs[0].Type, s.Attrs[1].Type, s.Attrs[2].Type = array.TFloat64, array.TInt64, array.TBool
	out := array.MustNew(s)
	a.Iter(func(c array.Coord, cell array.Cell) bool {
		if err := out.Set(c, cell); err != nil {
			panic(err)
		}
		return true
	})
	return out
}

// smallSide is the other input of the oracle joins: four slots over x in
// chunks of two (so its dimension and attributes collide with the oracle
// arrays' and are renamed), one absent cell and one NULL.
func smallSide() *array.Array {
	b := array.MustNew(&array.Schema{Name: "B", Dims: []array.Dimension{{Name: "x", High: 4, ChunkLen: 2}}, Attrs: []array.Attribute{
		{Name: "i", Type: array.TInt64}, {Name: "f", Type: array.TFloat64, Uncertain: true},
	}})
	for x, cell := range map[int64]array.Cell{
		1: {array.Int64(-3), array.UncertainFloat(2.5, 0.25)},
		2: {array.NullValue(array.TInt64), array.Float64(math.NaN())},
		4: {array.Int64(7), array.NullValue(array.TFloat64)},
	} {
		if err := b.Set(array.Coord{x}, cell); err != nil {
			panic(err)
		}
	}
	return b
}

// requireSameOutput holds got to want: the same schema, bounds, chunk layout
// and cells to the bit.
func requireSameOutput(t *testing.T, label string, got, want *array.Array) {
	t.Helper()
	if !reflect.DeepEqual(got.Schema, want.Schema) {
		t.Fatalf("%s: schema %+v, want %+v", label, got.Schema, want.Schema)
	}
	if !reflect.DeepEqual(got.Bounds(), want.Bounds()) {
		t.Fatalf("%s: bounds %v, want %v", label, got.Bounds(), want.Bounds())
	}
	gc, wc := got.Chunks(), want.Chunks()
	if len(gc) != len(wc) {
		t.Fatalf("%s: %d chunks, want %d", label, len(gc), len(wc))
	}
	for c := range gc {
		if !gc[c].Origin.Equal(wc[c].Origin) || !shapeEq(gc[c].Shape, wc[c].Shape) {
			t.Fatalf("%s: chunk %d is %v+%v, want %v+%v", label, c, gc[c].Origin, gc[c].Shape, wc[c].Origin, wc[c].Shape)
		}
	}
	requireCellsEqual(t, label, want, got)
}

// TestOracleStructuralMatchesCells holds the seven operators that now run on
// the gather, join and filter kernels to their cell-at-a-time bodies above,
// over the oracle arrays, their storage-decoded twins and an uncertain twin
// (σ, NaN payloads), at parallelism 1 and 4: the same schema, bounds, chunk
// layout and cells to the bit — or, where the old body failed, an error too.
func TestOracleStructuralMatchesCells(t *testing.T) {
	reg := udf.NewRegistry()
	_ = reg.RegisterFunc(&udf.Func{
		Name: "half", In: []array.Type{array.TInt64}, Out: []array.Type{array.TInt64},
		Body: func(args []array.Value) ([]array.Value, error) {
			return []array.Value{array.Int64(args[0].AsInt() / 2)}, nil
		},
	})
	ctx := context.Background()
	small := smallSide()
	preds := []Expr{
		Binary{Op: OpLt, L: AttrRef{Name: "i"}, R: AttrRef{Name: "B_i"}},
		Binary{Op: OpAnd, L: Binary{Op: OpGe, L: AttrRef{Name: "B_f"}, R: AttrRef{Name: "f"}}, R: Binary{Op: OpNe, L: DimRef{Name: "x"}, R: Const{V: array.Int64(2)}}},
		Binary{Op: OpGt, L: Call{Name: "half", Args: []Expr{AttrRef{Name: "i"}}}, R: Const{V: array.Int64(1)}},
		Binary{Op: OpEq, L: AttrRef{Name: "nosuch"}, R: Const{V: array.Int64(1)}},
	}
	// check runs the kernel at both parallelisms against the oracle's answer.
	check := func(t *testing.T, label string, want func() (*array.Array, error), got func() (*array.Array, error)) {
		t.Helper()
		w, werr := want()
		if werr != nil {
			withParallelism(t, 1, func() { _, werr = got() })
			if werr == nil {
				t.Fatalf("%s: the cell body fails, the kernel does not", label)
			}
			return
		}
		requireSameOutput(t, label, atBothParallelisms(t, label, got), w)
	}
	forEachOracleArray(t, func(t *testing.T, rng *rand.Rand, a *array.Array) {
		nd := len(a.Schema.Dims)
		inputs := oracleInputs(t, a)
		inputs["sigma"] = withSigma(rng, a)
		order := make([]string, nd)
		for d := range order {
			order[d] = a.Schema.Dims[nd-1-d].Name
		}
		for name, in := range inputs {
			cells := int64(1)
			for d := 0; d < nd; d++ {
				cells *= in.Hwm(d)
			}
			for _, dims := range [][]array.Dimension{
				{{Name: "u", High: cells}},
				{{Name: "u", High: cells, ChunkLen: 1 + rng.Int63n(7)}},
				{{Name: "u", High: 1}, {Name: "v", High: cells, ChunkLen: 5}},
				{{Name: "u", High: cells + 1}},
			} {
				check(t, fmt.Sprintf("%s reshape %v", name, dims),
					func() (*array.Array, error) { return reshapeCells(in, order, dims) },
					func() (*array.Array, error) { return Reshape(ctx, in, order, dims) })
			}
			check(t, name+" adddim",
				func() (*array.Array, error) { return addDimCells(in, "layer") },
				func() (*array.Array, error) { return AddDim(ctx, in, "layer") })
			check(t, name+" adddim taken",
				func() (*array.Array, error) { return addDimCells(in, "i") },
				func() (*array.Array, error) { return AddDim(ctx, in, "i") })
			up, err := addDimCells(in, "layer")
			if err != nil {
				t.Fatal(err)
			}
			for upName, upIn := range oracleInputs(t, up) {
				for _, dim := range []string{"layer", "x"} {
					check(t, fmt.Sprintf("%s remdim %s over %s", name, dim, upName),
						func() (*array.Array, error) { return removeDimCells(upIn, dim) },
						func() (*array.Array, error) { return RemoveDim(ctx, upIn, dim) })
				}
			}
			for _, attrs := range [][]string{{"s", "i"}, {"f"}, {"f", "i", "s"}, {"q"}} {
				check(t, fmt.Sprintf("%s project %v", name, attrs),
					func() (*array.Array, error) { return projectCells(in, attrs) },
					func() (*array.Array, error) { return Project(ctx, in, attrs) })
			}
			for _, b := range []*array.Array{in, a, retyped(in)} {
				check(t, fmt.Sprintf("%s concat %s", name, b.Schema.Name),
					func() (*array.Array, error) { return concatCells(in, b, "x") },
					func() (*array.Array, error) { return Concat(ctx, in, b, "x") })
			}
			check(t, name+" cross",
				func() (*array.Array, error) { return crossCells(in, small) },
				func() (*array.Array, error) { return CrossProduct(ctx, in, small) })
			check(t, name+" cross as B",
				func() (*array.Array, error) { return crossCells(small, in) },
				func() (*array.Array, error) { return CrossProduct(ctx, small, in) })
			for k, pred := range preds {
				check(t, fmt.Sprintf("%s cjoin pred %d", name, k),
					func() (*array.Array, error) { return cjoinCells(in, small, pred, reg) },
					func() (*array.Array, error) { return Cjoin(ctx, in, small, pred, reg) })
			}
			// With the oracle array on the right its colliding names take the prefix.
			asB := Binary{Op: OpOr, L: Binary{Op: OpLt, L: AttrRef{Name: "i"}, R: AttrRef{Name: "A_i"}},
				R: Binary{Op: OpEq, L: AttrRef{Name: "s"}, R: Const{V: array.String64("aa")}}}
			check(t, name+" cjoin as B",
				func() (*array.Array, error) { return cjoinCells(small, in, asB, reg) },
				func() (*array.Array, error) { return Cjoin(ctx, small, in, asB, reg) })
		}
	})
}

// TestStructuralSparseTasks: over 1-D inputs holding cells at 1 and 1 000 000
// in chunks of 64, AddDim, RemoveDim, Concat, Project, a cross product with
// the sparse input on the right and a Cjoin start at most two pool tasks per
// live input chunk — none per empty chunk of the output grid.
func TestStructuralSparseTasks(t *testing.T) {
	reg := udf.NewRegistry()
	ctx := context.Background()
	sparse := func(name string) *array.Array {
		a := array.MustNew(&array.Schema{Name: name, Dims: []array.Dimension{{Name: "x", High: 1_000_000, ChunkLen: 64}},
			Attrs: []array.Attribute{{Name: "v", Type: array.TInt64}}})
		for _, x := range []int64{1, 1_000_000} {
			if err := a.Set(array.Coord{x}, array.Cell{array.Int64(x)}); err != nil {
				t.Fatal(err)
			}
		}
		return a
	}
	a, b := sparse("A"), sparse("B")
	one := array.MustNew(&array.Schema{Name: "O", Dims: []array.Dimension{{Name: "o", High: 1}}, Attrs: []array.Attribute{{Name: "w", Type: array.TInt64}}})
	if err := one.Set(array.Coord{1}, array.Cell{array.Int64(5)}); err != nil {
		t.Fatal(err)
	}
	up, err := AddDim(ctx, a, "layer")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		live int
		op   func() (*array.Array, error)
	}{
		{"adddim", 2, func() (*array.Array, error) { return AddDim(ctx, a, "layer") }},
		{"remdim", 2, func() (*array.Array, error) { return RemoveDim(ctx, up, "layer") }},
		{"concat", 4, func() (*array.Array, error) { return Concat(ctx, a, b, "x") }},
		{"project", 2, func() (*array.Array, error) { return Project(ctx, a, []string{"v"}) }},
		{"cross", 3, func() (*array.Array, error) { return CrossProduct(ctx, one, b) }},
		{"cjoin", 3, func() (*array.Array, error) {
			return Cjoin(ctx, one, b, Binary{Op: OpLt, L: AttrRef{Name: "w"}, R: AttrRef{Name: "v"}}, reg)
		}},
	} {
		for _, par := range []int{1, 4} {
			withParallelism(t, par, func() {
				before := exec.Default().Stats().TasksRun
				res, err := c.op()
				if err != nil {
					t.Fatalf("%s: %v", c.name, err)
				}
				if tasks := exec.Default().Stats().TasksRun - before; tasks > int64(2*c.live) {
					t.Errorf("%s at parallelism %d: %d tasks over %d live input chunks", c.name, par, tasks, c.live)
				}
				if res.Count() == 0 {
					t.Errorf("%s: no cells", c.name)
				}
			})
		}
	}
}

// pairedCase is an array of s — two dimensions whose bounds are not a
// multiple of their chunk lengths — written a chunk at a time by openCase,
// each chunk sealed or left open at random, and some uncertain columns
// sharing one error bar.
func pairedCase(s *array.Schema, rng *rand.Rand, density int) *array.Array {
	a := array.MustNew(s)
	for _, o := range gridOrigins(a, array.WholeBox(s)) {
		shape := a.GridShape(o)
		ch := openCase(sealSchema(shape[0], shape[1], true), rng, density, false)
		ch.Origin = o
		if rng.Intn(3) == 0 {
			ch.Cols[5].HasShared, ch.Cols[5].SharedSigma = true, float64(rng.Intn(4))/4
		}
		if rng.Intn(2) == 0 {
			ch.Seal()
		}
		if ch.CellsPresent() > 0 {
			a.PutChunk(ch)
		}
	}
	return a
}

// TestJoinChunksMatchesCellModel holds the chunk-pair join kernel to a
// cell-at-a-time model of the join and to Sjoin, over chunk pairs of one
// origin whose live masks drop some present slots: NULLs, NaNs, ints near
// 2^53 and MaxInt64, per-cell and shared error bars, edge chunks, sealed and
// open chunks, an empty side and a self-join.
func TestJoinChunksMatchesCellModel(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	schema := func(name string) *array.Schema {
		s := sealSchema(17, 20, true)
		s.Name = name
		s.Dims[0].ChunkLen, s.Dims[1].ChunkLen = 8, 6
		return s
	}
	// masked is a's chunks each with a live mask, some present slots
	// dropped, and the array of just the live cells.
	masked := func(a *array.Array) (map[string]*array.Bitmap, *array.Array) {
		live, sel := map[string]*array.Bitmap{}, array.MustNew(a.Schema)
		for _, ch := range a.Chunks() {
			m := ch.Present.Clone()
			for i := m.NextSet(0); i < ch.Slots(); i = m.NextSet(i + 1) {
				if rng.Intn(5) == 0 {
					m.Clear(i)
				}
			}
			live[ch.Origin.Key()] = m
			if err := sel.MergeChunk(ch.Select(m)); err != nil {
				t.Fatal(err)
			}
		}
		return live, sel
	}
	for trial := 0; trial < 12; trial++ {
		a := pairedCase(schema("A"), rng, 1+rng.Intn(256))
		b := pairedCase(schema("B"), rng, 1+rng.Intn(256))
		switch trial {
		case 0:
			b = array.MustNew(schema("B")) // an empty side
		case 1:
			b = a // a self-join
		}
		out, err := PairedSchema(a.Schema, b.Schema)
		if err != nil {
			t.Fatal(err)
		}
		aLive, aSel := masked(a)
		bLive, bSel := aLive, aSel
		if trial != 1 {
			bLive, bSel = masked(b)
		}
		got := array.MustNew(out)
		for _, ch := range a.Chunks() {
			bch, ok := b.ChunkAt(ch.Origin)
			if !ok {
				continue
			}
			if err := got.MergeChunk(JoinChunks(out, ch, aLive[ch.Origin.Key()], bch, bLive[ch.Origin.Key()])); err != nil {
				t.Fatal(err)
			}
		}
		want := array.MustNew(out)
		aSel.Iter(func(c array.Coord, ca array.Cell) bool {
			if cb, ok := bSel.PeekAt(c); ok {
				if err := want.Set(c, append(ca, cb...)); err != nil {
					t.Fatal(err)
				}
			}
			return true
		})
		label := fmt.Sprintf("trial %d", trial)
		requireSameArrays(t, label+" against the cell model", got, want)
		on := []DimPair{{LDim: "x", RDim: "x"}, {LDim: "y", RDim: "y"}}
		joined, err := Sjoin(aSel, bSel, on)
		if err != nil {
			t.Fatal(err)
		}
		requireSameArrays(t, label+" against Sjoin", got, joined)
		if full, err := Sjoin(a, b, on); err != nil || !reflect.DeepEqual(out, full.Schema) {
			t.Fatalf("%s: PairedSchema = %+v; Sjoin's schema %+v, %v", label, out, full.Schema, err)
		}
	}
}
