package cluster

import (
	"net"
	"sync"
	"testing"

	"scidb/internal/array"
	"scidb/internal/ops"
	"scidb/internal/partition"
	"scidb/internal/storage"
)

// benchSetup starts servers, loads a grid over TCP, and returns a ready
// coordinator.
func benchSetup(b *testing.B) (*Coordinator, Transport, func()) {
	b.Helper()
	var addrs []string
	var srvs []*Server
	for i := 0; i < 3; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		srv, _ := NewServer(NewWorker(i), ServeOptions{})
		go func() { _ = srv.Serve(ln) }()
		srvs = append(srvs, srv)
		addrs = append(addrs, ln.Addr().String())
	}
	tr, err := DialTCP(addrs)
	if err != nil {
		b.Fatal(err)
	}
	co := NewCoordinator(tr, 0)
	if err := co.Create("b", gridSchema(), partition.Block{Nodes: 3, SplitDim: 0, High: 24}); err != nil {
		b.Fatal(err)
	}
	for i := int64(1); i <= 24; i++ {
		for j := int64(1); j <= 24; j++ {
			if err := co.Put("b", array.Coord{i, j}, array.Cell{array.Float64(float64(i + j))}); err != nil {
				b.Fatal(err)
			}
		}
	}
	if err := co.Flush("b"); err != nil {
		b.Fatal(err)
	}
	return co, tr, func() {
		_ = tr.Close()
		for _, s := range srvs {
			s.Shutdown()
		}
	}
}

func benchConcurrentOps(b *testing.B, co *Coordinator) {
	const clients = 16
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				var err error
				switch c % 3 {
				case 0:
					_, err = co.Count("b")
				case 1:
					_, err = scan(co, "b", array.NewBox(array.Coord{1, 1}, array.Coord{8, 8}))
				default:
					_, err = aggregate(co, "b", array.NewBox(array.Coord{1, 1}, array.Coord{24, 24}), "sum", "flux", []string{"x"})
				}
				if err != nil {
					b.Error(err)
				}
			}(c)
		}
		wg.Wait()
	}
}

func BenchmarkConcurrentFanoutBinary(b *testing.B) {
	co, _, stop := benchSetup(b)
	defer stop()
	benchConcurrentOps(b, co)
}

func benchPing(b *testing.B, tr Transport) {
	const clients = 16
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := 0; k < 10; k++ {
					if _, err := tr.Call(k%3, &Message{Op: "ping"}); err != nil {
						b.Error(err)
						return
					}
				}
			}()
		}
		wg.Wait()
	}
}

func BenchmarkPingBinary(b *testing.B) {
	_, tr, stop := benchSetup(b)
	defer stop()
	benchPing(b, tr)
}

// benchRawWorker is one persisted node holding raw-shaped SS-DB data — a
// (pass, x, y) slab of three float attributes, 88 064 cells in 64-stride
// buckets — loaded the way the bulk loader does, with a pool big enough to
// keep every decoded bucket resident: the worker half of ssdb.pushdown.warm
// without the wire.
func benchRawWorker(b *testing.B) (w *Worker, cells int64) {
	b.Helper()
	schema := &array.Schema{
		Name: "raw",
		Dims: []array.Dimension{{Name: "pass", High: 4}, {Name: "x", High: 86, ChunkLen: 64}, {Name: "y", High: 256, ChunkLen: 64}},
		Attrs: []array.Attribute{
			{Name: "dn", Type: array.TFloat64}, {Name: "cloud", Type: array.TFloat64}, {Name: "nadir", Type: array.TFloat64},
		},
	}
	w = NewWorkerWithOptions(0, WorkerOptions{Stride: []int64{64, 64, 64}, CacheBytes: 64 << 20})
	b.Cleanup(func() { _ = w.Close() })
	if resp := w.Handle(&Message{Op: "create", Array: "raw", Schema: schema}); resp.Err != "" {
		b.Fatal(resp.Err)
	}
	// The loader's chunk grid: the schema's bounds with the bucket stride,
	// so the pass dimension makes chunks 4 deep, not 64.
	ls := schema.Clone()
	ls.Dims[0].ChunkLen = 64
	a := array.MustNew(ls)
	array.IterBox(array.WholeBox(schema), func(c array.Coord) bool {
		v := float64(c[0]*7+c[1]*3+c[2]) / 16
		if err := a.Set(c, array.Cell{array.Float64(v), array.Float64(v / 2), array.Float64(1)}); err != nil {
			b.Fatal(err)
		}
		return true
	})
	load := &Message{Op: "loadchunks", Array: "raw"}
	for _, ch := range a.Chunks() {
		payload, err := storage.EncodeChunk(ls, ch)
		if err != nil {
			b.Fatal(err)
		}
		load.Chunks = append(load.Chunks, payload)
	}
	for _, req := range []*Message{load, {Op: "flush", Array: "raw"}, {Op: "read", Array: "raw", Fold: &ops.FoldSpec{}}} {
		if resp := w.Handle(req); resp.Err != "" {
			b.Fatal(resp.Err)
		}
	}
	return w, a.Count()
}

// benchWorkerOp times one read op against benchRawWorker with a warm pool,
// reporting the per-cell cost ROADMAP item 1 tracks layer by layer. It
// returns the last response and the cells the node holds.
func benchWorkerOp(b *testing.B, req *Message) (resp *Message, cells int64) {
	w, cells := benchRawWorker(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if resp = w.Handle(req); resp.Err != "" {
			b.Fatal(resp.Err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*cells), "ns/cell")
	return resp, cells
}

func BenchmarkWorkerAggGrandTotal(b *testing.B) {
	benchWorkerOp(b, &Message{Op: "read", Array: "raw", Fold: &ops.FoldSpec{Aggs: []ops.AggSpec{{Agg: "avg", Attr: "dn"}}}})
}

func BenchmarkWorkerAggGroupBy(b *testing.B) {
	benchWorkerOp(b, &Message{Op: "read", Array: "raw", Fold: &ops.FoldSpec{Dims: []string{"pass"}, Aggs: []ops.AggSpec{{Agg: "max", Attr: "dn"}}}})
}

func BenchmarkWorkerScan(b *testing.B) {
	benchWorkerOp(b, &Message{Op: "read", Array: "raw"})
}

// BenchmarkWorkerReadBoxFold is SS-DB Q1's shape: a grand total over a 64²
// slab of one pass that straddles four buckets. ns/cell is still per cell
// held, so it falls with the share of the partition the box leaves out.
func BenchmarkWorkerReadBoxFold(b *testing.B) {
	benchWorkerOp(b, &Message{Op: "read", Array: "raw", BoxLo: []int64{1, 11, 33}, BoxHi: []int64{1, 74, 96},
		Fold: &ops.FoldSpec{Aggs: []ops.AggSpec{{Agg: "avg", Attr: "dn"}}}})
}

// BenchmarkWorkerReadPredsFold is SS-DB Q4's shape: a count under one `>`
// conjunct that most cells pass, over the whole partition — the filter runs
// under the fold, where the cells are. No bucket's zone map refutes the
// conjunct, so every cell held is seen and ns/cell is per cell seen: set it
// beside BenchmarkWorkerScan, which ships those cells instead.
func BenchmarkWorkerReadPredsFold(b *testing.B) {
	resp, cells := benchWorkerOp(b, &Message{Op: "read", Array: "raw",
		Preds: []array.ZonePred{{Attr: 0, Op: ">", Val: array.Float64(4)}},
		Fold:  &ops.FoldSpec{Aggs: []ops.AggSpec{{Agg: "count", Attr: "dn"}}}})
	if resp.Seen != cells || resp.Cells == 0 || resp.Cells == cells {
		b.Fatalf("read saw %d of %d cells and answered %d: want all seen, some refuted", resp.Seen, cells, resp.Cells)
	}
}
