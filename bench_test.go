package scidb

// One testing.B benchmark per experiment in DESIGN.md's index. These are
// the stable micro-benchmarks behind the tables that cmd/scidb-bench
// prints; EXPERIMENTS.md records both. Run:
//
//	go test -bench=. -benchmem
import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"scidb/internal/array"
	"scidb/internal/click"
	"scidb/internal/compress"
	"scidb/internal/cook"
	"scidb/internal/insitu"
	"scidb/internal/ops"
	"scidb/internal/partition"
	"scidb/internal/provenance"
	"scidb/internal/ssdb"
	"scidb/internal/storage"
	"scidb/internal/tablesim"
	"scidb/internal/udf"
	"scidb/internal/version"
)

// --- FIG1/FIG2/FIG3: the paper's operator figures -------------------------

func figVec(n int64) *array.Array {
	s := &array.Schema{
		Name:  "A",
		Dims:  []array.Dimension{{Name: "x", High: n}},
		Attrs: []array.Attribute{{Name: "val", Type: array.TInt64}},
	}
	a := array.MustNew(s)
	for i := int64(1); i <= n; i++ {
		_ = a.Set(array.Coord{i}, array.Cell{array.Int64(i % 7)})
	}
	return a
}

func BenchmarkFIG1Sjoin(b *testing.B) {
	l, r := figVec(256), figVec(256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ops.Sjoin(l, r, []ops.DimPair{{LDim: "x", RDim: "x"}}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFIG2Aggregate(b *testing.B) {
	g := benchGrid(64)
	reg := udf.NewRegistry()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ops.Aggregate(g, []string{"j"}, []ops.AggSpec{{Agg: "sum", Attr: "v"}}, reg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFIG3Cjoin(b *testing.B) {
	l, r := figVec(48), figVec(48)
	pred := ops.Binary{Op: ops.OpEq, L: ops.AttrRef{Name: "val"}, R: ops.AttrRef{Name: "A_val"}}
	reg := udf.NewRegistry()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ops.Cjoin(context.Background(), l, r, pred, reg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- ASAP: array-native vs. operator layer vs. table ------------------------

func benchGrid(n int64) *array.Array {
	s := &array.Schema{
		Name: "grid",
		Dims: []array.Dimension{
			{Name: "i", High: n, ChunkLen: n},
			{Name: "j", High: n, ChunkLen: n},
		},
		Attrs: []array.Attribute{{Name: "v", Type: array.TFloat64}},
	}
	a := array.MustNew(s)
	_ = a.Fill(func(c array.Coord) array.Cell {
		return array.Cell{array.Float64(float64(c[0]*31 + c[1]))}
	})
	return a
}

func BenchmarkASAPNativeScan(b *testing.B) {
	a := benchGrid(256)
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		for _, ch := range a.Chunks() {
			for _, v := range ch.Cols[0].Floats {
				sink += v
			}
		}
	}
	_ = sink
}

func BenchmarkASAPOperatorScan(b *testing.B) {
	a := benchGrid(256)
	reg := udf.NewRegistry()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ops.Aggregate(a, nil, []ops.AggSpec{{Agg: "sum", Attr: "v"}}, reg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkASAPTableScan(b *testing.B) {
	a := benchGrid(256)
	tab, err := tablesim.FromArray(a, "pk")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		tab.Scan(func(_ int64, r tablesim.Row) bool {
			sink += r[2].AsFloat()
			return true
		})
	}
	_ = sink
}

func BenchmarkASAPTableWindow(b *testing.B) {
	a := benchGrid(256)
	tab, err := tablesim.FromArray(a, "pk")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		_ = tab.IndexRange("pk", []int64{65, 65}, []int64{192, 192},
			func(_ int64, r tablesim.Row) bool {
				if j := r[1].Int; j < 65 || j > 192 {
					return true
				}
				sink += r[2].AsFloat()
				return true
			})
	}
	_ = sink
}

// --- HIST: no-overwrite updates and history travel ---------------------------

func BenchmarkHistoryUpdate(b *testing.B) {
	s := &array.Schema{
		Name:  "h",
		Dims:  []array.Dimension{{Name: "x", High: 64}, {Name: "y", High: 64}},
		Attrs: []array.Attribute{{Name: "v", Type: array.TFloat64}},
	}
	u, err := version.NewUpdatable(s)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx := u.Begin()
		for k := 0; k < 64; k++ {
			_ = tx.Put(array.Coord{rng.Int63n(64) + 1, rng.Int63n(64) + 1},
				array.Cell{array.Float64(float64(i))})
		}
		if _, err := tx.Commit(int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHistoryTravel(b *testing.B) {
	s := &array.Schema{
		Name:  "h",
		Dims:  []array.Dimension{{Name: "x", High: 8}, {Name: "y", High: 8}},
		Attrs: []array.Attribute{{Name: "v", Type: array.TFloat64}},
	}
	u, _ := version.NewUpdatable(s)
	hot := array.Coord{1, 1}
	for i := 0; i < 100; i++ {
		tx := u.Begin()
		_ = tx.Put(hot, array.Cell{array.Float64(float64(i))})
		_, _ = tx.Commit(int64(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := u.CellHistory(hot); len(got) != 100 {
			b.Fatal("history wrong")
		}
	}
}

// --- PART: the automatic designer --------------------------------------------

func BenchmarkPartitionDesigner(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	sample := make([]partition.SampleAccess, 10000)
	for i := range sample {
		sample[i] = partition.SampleAccess{
			Coord:  array.Coord{int64(i), rng.Int63n(1000) + 1},
			Weight: 1,
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := partition.Design(sample, 1, 8); err != nil {
			b.Fatal(err)
		}
	}
}

// --- STORE: codecs and bucket reads -------------------------------------------

func storeBenchData() (*array.Schema, []array.Coord, []array.Cell) {
	s := &array.Schema{
		Name:  "sensor",
		Dims:  []array.Dimension{{Name: "t", High: 64, ChunkLen: 32}, {Name: "site", High: 64, ChunkLen: 32}},
		Attrs: []array.Attribute{{Name: "v", Type: array.TFloat64}},
	}
	var coords []array.Coord
	var cells []array.Cell
	for t := int64(1); t <= 64; t++ {
		for site := int64(1); site <= 64; site++ {
			coords = append(coords, array.Coord{t, site})
			cells = append(cells, array.Cell{array.Float64(float64(t) + float64(site)*0.001)})
		}
	}
	return s, coords, cells
}

func benchStoreCodec(b *testing.B, codec compress.Codec) {
	s, coords, cells := storeBenchData()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := storage.NewStore(s, storage.Options{Codec: codec})
		if err != nil {
			b.Fatal(err)
		}
		for k := range coords {
			_ = st.Put(coords[k], cells[k])
		}
		if err := st.Flush(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStorageCodecNone(b *testing.B)  { benchStoreCodec(b, compress.None{}) }
func BenchmarkStorageCodecDelta(b *testing.B) { benchStoreCodec(b, compress.Delta{}) }
func BenchmarkStorageCodecGzip(b *testing.B)  { benchStoreCodec(b, compress.Gzip{}) }
func BenchmarkStorageCodecAuto(b *testing.B)  { benchStoreCodec(b, compress.Auto{}) }

func BenchmarkStoragePointRead(b *testing.B) {
	s, coords, cells := storeBenchData()
	st, _ := storage.NewStore(s, storage.Options{})
	for k := range coords {
		_ = st.Put(coords[k], cells[k])
	}
	_ = st.Flush()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok, err := st.Get(array.Coord{32, 32}); !ok || err != nil {
			b.Fatal(ok, err)
		}
	}
}

// benchDiskStore builds an on-disk store with the sensor grid flushed to
// compressed buckets. cacheBytes 0 = uncached (every scan pays disk+decode).
func benchDiskStore(b *testing.B, cacheBytes int64) *storage.Store {
	b.Helper()
	s, coords, cells := storeBenchData()
	st, err := storage.NewStore(s, storage.Options{
		Dir:        b.TempDir(),
		CacheBytes: cacheBytes,
	})
	if err != nil {
		b.Fatal(err)
	}
	for k := range coords {
		_ = st.Put(coords[k], cells[k])
	}
	if err := st.Flush(); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = st.Close() })
	return st
}

func benchScanAll(b *testing.B, st *storage.Store) {
	b.Helper()
	var n int64
	if err := st.Scan(array.NewBox(array.Coord{1, 1}, array.Coord{64, 64}), func(array.Coord, array.Cell) bool {
		n++
		return true
	}); err != nil {
		b.Fatal(err)
	}
	if n != 64*64 {
		b.Fatalf("scan saw %d cells", n)
	}
}

// BenchmarkScanCold: no buffer pool — every scan re-reads and re-decompresses
// all buckets from disk (the pre-pool behaviour).
func BenchmarkScanCold(b *testing.B) {
	st := benchDiskStore(b, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchScanAll(b, st)
	}
	if st.Stats().BucketsRead < int64(b.N) {
		b.Fatal("cold benchmark did not hit disk per scan")
	}
}

// BenchmarkScanWarm: same workload with the pool primed — zero disk reads in
// the measured loop. EXPERIMENTS.md records the cold/warm ratio.
func BenchmarkScanWarm(b *testing.B) {
	st := benchDiskStore(b, 64<<20)
	benchScanAll(b, st) // prime the pool
	primed := st.Stats().BucketsRead
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchScanAll(b, st)
	}
	b.StopTimer()
	if got := st.Stats().BucketsRead - primed; got != 0 {
		b.Fatalf("warm benchmark performed %d disk reads", got)
	}
}

// --- INSITU: box query through the NCL adaptor --------------------------------

func BenchmarkInSituBoxQuery(b *testing.B) {
	src := benchGrid(128)
	path := filepath.Join(b.TempDir(), "bench.ncl")
	if err := insitu.WriteNCL(path, src); err != nil {
		b.Fatal(err)
	}
	ds, err := (insitu.NCLAdaptor{}).Open(path)
	if err != nil {
		b.Fatal(err)
	}
	defer ds.Close()
	box := array.NewBox(array.Coord{1, 1}, array.Coord{16, 16})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var sum float64
		if err := insitu.Scan(ds, box, func(_ array.Coord, c array.Cell) bool {
			sum += c[0].AsFloat()
			return true
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkInSituMaterialize(b *testing.B) {
	src := benchGrid(128)
	path := filepath.Join(b.TempDir(), "bench.ncl")
	if err := insitu.WriteNCL(path, src); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ds, err := (insitu.NCLAdaptor{}).Open(path)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := insitu.Materialize(ds); err != nil {
			b.Fatal(err)
		}
		ds.Close()
	}
}

// --- VER: read through a version chain -----------------------------------------

func BenchmarkVersionChainRead(b *testing.B) {
	s := &array.Schema{
		Name:  "base",
		Dims:  []array.Dimension{{Name: "x", High: 64}, {Name: "y", High: 64}},
		Attrs: []array.Attribute{{Name: "v", Type: array.TFloat64}},
	}
	u, _ := version.NewUpdatable(s)
	tx := u.Begin()
	for x := int64(1); x <= 64; x++ {
		for y := int64(1); y <= 64; y++ {
			_ = tx.Put(array.Coord{x, y}, array.Cell{array.Float64(float64(x * y))})
		}
	}
	_, _ = tx.Commit(1)
	tree := version.NewTree(u)
	parent := ""
	var leaf *version.Version
	for d := 1; d <= 4; d++ {
		name := fmt.Sprintf("v%d", d)
		v, _ := tree.Create(name, parent)
		vtx := v.Begin()
		_ = vtx.Put(array.Coord{int64(d), int64(d)}, array.Cell{array.Float64(float64(d))})
		_, _ = vtx.Commit(int64(d + 1))
		parent = name
		leaf = v
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := array.Coord{int64(i%64 + 1), int64((i*7)%64 + 1)}
		leaf.At(c)
	}
}

// --- PROV: trace latency ---------------------------------------------------------

func provBenchLog() *provenance.Log {
	l := provenance.NewLog()
	l.Append(&provenance.Command{Kind: provenance.KindLoad, Output: "raw"})
	l.Append(&provenance.Command{Kind: provenance.KindElementwise, Input: "raw", Output: "cal"})
	l.Append(&provenance.Command{Kind: provenance.KindRegrid, Input: "cal", Output: "coarse",
		Strides: []int64{4, 4}, InBounds: []int64{64, 64}, InDims: 2})
	l.Append(&provenance.Command{Kind: provenance.KindAggregate, Input: "coarse", Output: "rowsum",
		GroupDims: []int{0}, InDims: 2, InBounds: []int64{16, 16}})
	return l
}

func BenchmarkProvenanceBackward(b *testing.B) {
	l := provBenchLog()
	ref := provenance.CellRef{Array: "rowsum", Coord: array.Coord{2}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.TraceBack(ref); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkProvenanceForward(b *testing.B) {
	l := provBenchLog()
	ref := provenance.CellRef{Array: "raw", Coord: array.Coord{3, 3}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.TraceForward(ref); err != nil {
			b.Fatal(err)
		}
	}
}

// --- UNC: uncertain arithmetic ------------------------------------------------------

func BenchmarkUncertainApply(b *testing.B) {
	s := &array.Schema{
		Name:  "u",
		Dims:  []array.Dimension{{Name: "x", High: 64}, {Name: "y", High: 64}},
		Attrs: []array.Attribute{{Name: "v", Type: array.TFloat64, Uncertain: true}},
	}
	a := array.MustNew(s)
	_ = a.Fill(func(c array.Coord) array.Cell {
		return array.Cell{array.UncertainFloat(float64(c[0]+c[1]), 0.1)}
	})
	expr := ops.Binary{Op: ops.OpMul, L: ops.AttrRef{Name: "v"}, R: ops.AttrRef{Name: "v"}}
	reg := udf.NewRegistry()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ops.Apply(a, []ops.ApplySpec{{Name: "sq", Expr: expr}}, reg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- CLICK: nested-array analytics ----------------------------------------------------

func BenchmarkClickstreamArray(b *testing.B) {
	cfg := click.DefaultConfig()
	cfg.Events = 500
	stream, err := click.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := click.SurfacedNeverClicked(stream); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkClickstreamSQL(b *testing.B) {
	cfg := click.DefaultConfig()
	cfg.Events = 500
	stream, _ := click.Generate(cfg)
	_, impressions, err := click.ToWeblogTables(stream)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := click.SurfacedNeverClickedSQL(impressions); err != nil {
			b.Fatal(err)
		}
	}
}

// --- SSDB: the science benchmark ------------------------------------------------------

var ssdbBench *ssdb.Dataset

func ssdbDataset(b *testing.B) *ssdb.Dataset {
	b.Helper()
	if ssdbBench == nil {
		cfg := ssdb.DefaultConfig()
		cfg.Size = 48
		d, err := ssdb.Setup(cfg)
		if err != nil {
			b.Fatal(err)
		}
		ssdbBench = d
	}
	return ssdbBench
}

func BenchmarkSSDBQ1Array(b *testing.B) {
	d := ssdbDataset(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Q1Array(8, 24); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSSDBQ1Table(b *testing.B) {
	d := ssdbDataset(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Q1Table(8, 24); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSSDBQ5Array(b *testing.B) {
	d := ssdbDataset(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Q5Array(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSSDBQ5Table(b *testing.B) {
	d := ssdbDataset(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Q5Table(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSSDBQ8Array(b *testing.B) {
	d := ssdbDataset(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Q8Array(7, 7); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSSDBQ8Table(b *testing.B) {
	d := ssdbDataset(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Q8Table(7, 7); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSSDBCook(b *testing.B) {
	cfg := cook.Config{Width: 32, Height: 32, Passes: 3, Seed: 1, CloudFraction: 0.3, Gain: 0.01, Offset: -2}
	raw, err := cook.GeneratePasses(cfg)
	if err != nil {
		b.Fatal(err)
	}
	reg := udf.NewRegistry()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cook.Cook(raw, cfg, cook.LeastCloud, reg); err != nil {
			b.Fatal(err)
		}
	}
}

func TestMain(m *testing.M) {
	os.Exit(m.Run())
}
