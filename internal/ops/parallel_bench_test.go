package ops

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"scidb/internal/array"
	"scidb/internal/exec"
	"scidb/internal/obs"
	"scidb/internal/udf"
)

// benchGrid builds a dense n×n array of one float attribute, chunked every
// chunkLen cells per dimension (0 = one chunk spanning the array).
func benchGrid(b *testing.B, n, chunkLen int64) *array.Array {
	b.Helper()
	s := &array.Schema{
		Name: "B",
		Dims: []array.Dimension{
			{Name: "x", High: n, ChunkLen: chunkLen},
			{Name: "y", High: n, ChunkLen: chunkLen},
		},
		Attrs: []array.Attribute{{Name: "v", Type: array.TFloat64}},
	}
	a := array.MustNew(s)
	for i := int64(1); i <= n; i++ {
		for j := int64(1); j <= n; j++ {
			if err := a.Set(array.Coord{i, j}, array.Cell{array.Float64(float64((i*31 + j) % 997))}); err != nil {
				b.Fatal(err)
			}
		}
	}
	return a
}

// benchPar runs fn over three inputs: the 1024² array in 128² chunks at
// parallelism 1 ("serial") and at the machine's core count ("par=N"; on a
// single-core host the two coincide), and a 256² array held in one chunk
// ("onechunk", at the core count — a single task runs inline whatever the
// pool's bound). Each row reports ns/cell over the input's cells.
func benchPar(b *testing.B, fn func(b *testing.B, a *array.Array)) {
	big := benchGrid(b, 1024, 128)
	one := benchGrid(b, 256, 0)
	ncpu := runtime.NumCPU()
	for _, row := range []struct {
		name string
		par  int
		a    *array.Array
	}{
		{"serial", 1, big},
		{fmt.Sprintf("par=%d", ncpu), ncpu, big},
		{"onechunk", ncpu, one},
	} {
		b.Run(row.name, func(b *testing.B) {
			old := exec.Parallelism()
			exec.SetParallelism(row.par)
			defer exec.SetParallelism(old)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fn(b, row.a)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(row.a.Count()), "ns/cell")
		})
	}
}

func BenchmarkParallelFilter(b *testing.B) {
	reg := udf.NewRegistry()
	pred := Binary{Op: OpGt, L: AttrRef{Name: "v"}, R: Const{V: array.Float64(500)}}
	benchPar(b, func(b *testing.B, a *array.Array) {
		if _, err := Filter(a, pred, reg); err != nil {
			b.Fatal(err)
		}
	})
}

// BenchmarkParallelFilterTraced is BenchmarkParallelFilter with a live
// span tree attached; comparing the two pairs substantiates the telemetry
// overhead claim (tracing off ~0%, on <3%) made by the OBS experiment.
func BenchmarkParallelFilterTraced(b *testing.B) {
	reg := udf.NewRegistry()
	pred := Binary{Op: OpGt, L: AttrRef{Name: "v"}, R: Const{V: array.Float64(500)}}
	benchPar(b, func(b *testing.B, a *array.Array) {
		root := obs.NewTrace("filter").Root()
		ctx := obs.ContextWithSpan(context.Background(), root)
		if _, err := FilterCtx(ctx, a, pred, reg); err != nil {
			b.Fatal(err)
		}
		root.End()
	})
}

func BenchmarkParallelApply(b *testing.B) {
	reg := udf.NewRegistry()
	specs := []ApplySpec{{Name: "w", Expr: Binary{Op: OpMul, L: AttrRef{Name: "v"}, R: Const{V: array.Float64(2)}}}}
	benchPar(b, func(b *testing.B, a *array.Array) {
		if _, err := Apply(a, specs, reg); err != nil {
			b.Fatal(err)
		}
	})
}

func BenchmarkParallelAggregate(b *testing.B) {
	reg := udf.NewRegistry()
	specs := []AggSpec{{Agg: "sum", Attr: "v"}, {Agg: "avg", Attr: "v"}}
	benchPar(b, func(b *testing.B, a *array.Array) {
		if _, err := Aggregate(a, []string{"x"}, specs, reg); err != nil {
			b.Fatal(err)
		}
	})
}

func BenchmarkParallelRegrid(b *testing.B) {
	reg := udf.NewRegistry()
	benchPar(b, func(b *testing.B, a *array.Array) {
		if _, err := Regrid(a, []int64{8, 8}, AggSpec{Agg: "avg", Attr: "v"}, reg); err != nil {
			b.Fatal(err)
		}
	})
}

func BenchmarkParallelSubsample(b *testing.B) {
	conds := []DimCond{DimEven("x"), DimRange("y", 65, 960)}
	benchPar(b, func(b *testing.B, a *array.Array) {
		if _, err := Subsample(a, conds); err != nil {
			b.Fatal(err)
		}
	})
}

func BenchmarkParallelSjoin(b *testing.B) {
	on := []DimPair{{LDim: "x", RDim: "x"}, {LDim: "y", RDim: "y"}}
	benchPar(b, func(b *testing.B, a *array.Array) {
		if _, err := Sjoin(a, a, on); err != nil {
			b.Fatal(err)
		}
	})
}

// BenchmarkStructural runs the operators on the gather, join and filter
// kernels that no suite statement reaches — reshape, concat, adddim, remdim,
// project, cross and cjoin — at parallelism 1 ("serial") and at the
// machine's core count ("par=N"), each row reporting ns per output cell.
// The unary ones and concat take a 256² array in 64² chunks; cross and cjoin
// pair a 64-cell vector in chunks of 8 with a 64² array.
func BenchmarkStructural(b *testing.B) {
	ctx := context.Background()
	reg := udf.NewRegistry()
	grid := benchGrid(b, 256, 64)
	vec := array.MustNew(&array.Schema{Name: "A", Dims: []array.Dimension{{Name: "i", High: 64, ChunkLen: 8}},
		Attrs: []array.Attribute{{Name: "v", Type: array.TFloat64}}})
	if err := vec.Fill(func(c array.Coord) array.Cell { return array.Cell{array.Float64(float64(c[0] * 16))} }); err != nil {
		b.Fatal(err)
	}
	small := benchGrid(b, 64, 16)
	up, err := AddDim(ctx, grid, "layer")
	if err != nil {
		b.Fatal(err)
	}
	pred := Binary{Op: OpLt, L: AttrRef{Name: "v"}, R: AttrRef{Name: "B_v"}}
	for _, op := range []struct {
		name string
		run  func() (*array.Array, error)
	}{
		{"reshape", func() (*array.Array, error) {
			return Reshape(ctx, grid, []string{"y", "x"}, []array.Dimension{{Name: "u", High: 256 * 256, ChunkLen: 4096}})
		}},
		{"concat", func() (*array.Array, error) { return Concat(ctx, grid, grid, "x") }},
		{"adddim", func() (*array.Array, error) { return AddDim(ctx, grid, "layer") }},
		{"remdim", func() (*array.Array, error) { return RemoveDim(ctx, up, "layer") }},
		{"project", func() (*array.Array, error) { return Project(ctx, grid, []string{"v"}) }},
		{"cross", func() (*array.Array, error) { return CrossProduct(ctx, vec, small) }},
		{"cjoin", func() (*array.Array, error) { return Cjoin(ctx, vec, small, pred, reg) }},
	} {
		for _, par := range []int{1, runtime.NumCPU()} {
			name := fmt.Sprintf("%s/par=%d", op.name, par)
			if par == 1 {
				name = op.name + "/serial"
			}
			b.Run(name, func(b *testing.B) {
				old := exec.Parallelism()
				exec.SetParallelism(par)
				defer exec.SetParallelism(old)
				b.ReportAllocs()
				var cells int64
				for i := 0; i < b.N; i++ {
					res, err := op.run()
					if err != nil {
						b.Fatal(err)
					}
					cells = res.Count()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(cells), "ns/cell")
			})
		}
	}
}

// BenchmarkFoldChunk folds one chunk shaped like SS-DB's raw — pass × x × y =
// 4×64×64 slots, dense, float64 dn and radiance — through Fold.Chunk, the
// kernel a worker runs per scanned chunk: a grand-total sum and max, max
// grouped by the outer dimension (one 4 096-slot block per pass), avg grouped
// by the inner one (the row path), and a count under the mask of
// `radiance > 13`. Each row reports ns per slot.
func BenchmarkFoldChunk(b *testing.B) {
	s := &array.Schema{
		Name:  "raw",
		Dims:  []array.Dimension{{Name: "pass", High: 4}, {Name: "x", High: 64}, {Name: "y", High: 64}},
		Attrs: []array.Attribute{{Name: "dn", Type: array.TFloat64}, {Name: "radiance", Type: array.TFloat64}},
	}
	ch := array.NewChunk(s, array.Coord{1, 1, 1}, []int64{4, 64, 64})
	ch.Present.SetAll()
	rng := rand.New(rand.NewSource(1))
	for x := range ch.Cols[0].Floats {
		ch.Cols[0].Floats[x] = float64(rng.Intn(256))
		ch.Cols[1].Floats[x] = rng.Float64() * 26
	}
	over13 := []array.ZonePred{{Attr: 1, Op: ">", Val: array.Float64(13)}}
	for _, c := range []struct {
		name  string
		spec  FoldSpec
		preds []array.ZonePred
	}{
		{"sum", FoldSpec{Aggs: []AggSpec{{Agg: "sum", Attr: "radiance"}}}, nil},
		{"max", FoldSpec{Aggs: []AggSpec{{Agg: "max", Attr: "dn"}}}, nil},
		{"max-by-outer", FoldSpec{Dims: []string{"pass"}, Aggs: []AggSpec{{Agg: "max", Attr: "dn"}}}, nil},
		{"avg-by-inner", FoldSpec{Dims: []string{"y"}, Aggs: []AggSpec{{Agg: "avg", Attr: "radiance"}}}, nil},
		{"count-under-pred", FoldSpec{Aggs: []AggSpec{{Agg: "count", Attr: "radiance"}}}, over13},
	} {
		f, err := NewFold(s, c.spec, nil)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				f.Chunk(ch, PredMask(c.preds, ch, ch.Present))
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(ch.Slots()), "ns/slot")
		})
	}
}
