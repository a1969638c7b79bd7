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
	if err := co.Create("b", gridSchema8(), partition.Block{Nodes: 3, SplitDim: 0, High: 24}); err != nil {
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

// BenchmarkWorkerReadBoxCells ships the cells of Q1's box instead of folding
// them: the box cuts each of its four buckets, and each is taken out of the
// pool by Select and encoded as one chunk. ns/cell is per cell held, as in
// BenchmarkWorkerReadBoxFold.
func BenchmarkWorkerReadBoxCells(b *testing.B) {
	resp, _ := benchWorkerOp(b, &Message{Op: "read", Array: "raw", BoxLo: []int64{1, 11, 33}, BoxHi: []int64{1, 74, 96}})
	if resp.Cells != 64*64 || len(resp.Chunks) != 4 {
		b.Fatalf("read shipped %d cells in %d chunks, want the box's 4096 in 4", resp.Cells, len(resp.Chunks))
	}
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

// BenchmarkWorkerSjoin is SS-DB Q7's node half: a persisted node holding an
// 86×256 slab of a dense cooked image and of a sparse catalog (one cell in
// four) on 64² chunks, joined on both dimensions where they lie, the joined
// chunks encoded for the wire. ns/cell is per input cell read.
func BenchmarkWorkerSjoin(b *testing.B) {
	w := NewWorkerWithOptions(0, WorkerOptions{Dir: b.TempDir(), CacheBytes: 64 << 20})
	b.Cleanup(func() { _ = w.Close() })
	var held int64
	for _, name := range []string{"catalog", "cooked"} {
		schema := &array.Schema{Name: name,
			Dims:  []array.Dimension{{Name: "x", High: 86, ChunkLen: 64}, {Name: "y", High: 256, ChunkLen: 64}},
			Attrs: []array.Attribute{{Name: name + "_v", Type: array.TFloat64}}}
		a := array.MustNew(schema)
		array.IterBox(array.WholeBox(schema), func(c array.Coord) bool {
			if name == "cooked" || (c[0]*7+c[1]*3)%4 == 0 {
				if err := a.Set(c, array.Cell{array.Float64(float64(c[0]*c[1]) / 16)}); err != nil {
					b.Fatal(err)
				}
			}
			return true
		})
		held += a.Count()
		load := &Message{Op: "loadchunks", Array: name}
		for _, ch := range a.Chunks() {
			payload, err := storage.EncodeChunk(schema, ch)
			if err != nil {
				b.Fatal(err)
			}
			load.Chunks = append(load.Chunks, payload)
		}
		for _, req := range []*Message{{Op: "create", Array: name, Schema: schema}, load, {Op: "flush", Array: name}} {
			if resp := w.Handle(req); resp.Err != "" {
				b.Fatal(resp.Err)
			}
		}
	}
	req := &Message{Op: "read", Array: "catalog", Join: "cooked"}
	b.ReportAllocs()
	b.ResetTimer()
	var resp *Message
	for i := 0; i < b.N; i++ {
		if resp = w.Handle(req); resp.Err != "" {
			b.Fatal(resp.Err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*held), "ns/cell")
	if resp.Seen != held || resp.Cells == 0 || resp.Cells >= held/4+1 {
		b.Fatalf("join read %d of %d cells and answered %d", resp.Seen, held, resp.Cells)
	}
}

// BenchmarkWorkerPut times the worker's "put" of one coordinator drain: 4 096
// staged cells, every other cell of two 64² chunks, so each chunk arrives
// sealed and half full. The drain lands on an origin the store has never
// held, on one whose chunk sits in the memory buffer (the other half of
// each chunk, then the drain itself, after the first put), and on one whose
// chunk was flushed to a bucket. Only the put is timed; ns/cell is per cell
// put.
func BenchmarkWorkerPut(b *testing.B) {
	schema := &array.Schema{Name: "put",
		Dims: []array.Dimension{{Name: "x", High: 128, ChunkLen: 64}, {Name: "y", High: 64, ChunkLen: 64}},
		Attrs: []array.Attribute{
			{Name: "dn", Type: array.TFloat64}, {Name: "cloud", Type: array.TFloat64}, {Name: "nadir", Type: array.TFloat64},
		},
	}
	drain := func(parity int64) *Message {
		a := array.MustNew(schema.Clone())
		array.IterBox(array.WholeBox(schema), func(c array.Coord) bool {
			if (c[0]+c[1])%2 == parity {
				v := float64(c[0]*7+c[1]*3) / 16
				if err := a.Set(c, array.Cell{array.Float64(v), array.Float64(v / 2), array.Float64(1)}); err != nil {
					b.Fatal(err)
				}
			}
			return true
		})
		payloads, err := encodeForTest(a)
		if err != nil {
			b.Fatal(err)
		}
		return &Message{Op: "put", Array: "put", Chunks: payloads}
	}
	put, other := drain(0), drain(1)
	create := &Message{Op: "create", Array: "put", Schema: schema}
	drop := &Message{Op: "drop", Array: "put"}
	flush := &Message{Op: "flush", Array: "put"}
	for _, c := range []struct {
		name    string
		setup   []*Message // once, before the timer starts
		prepare []*Message // before each put, the timer stopped
	}{
		{"empty", []*Message{create}, []*Message{drop, create}},
		{"buffered", []*Message{create, other}, nil},
		{"flushed", []*Message{create}, []*Message{drop, create, other, flush}},
	} {
		b.Run(c.name, func(b *testing.B) {
			w := NewWorkerWithOptions(0, WorkerOptions{CacheBytes: 64 << 20})
			b.Cleanup(func() { _ = w.Close() })
			handle := func(reqs []*Message) {
				for _, req := range reqs {
					if resp := w.Handle(req); resp.Err != "" {
						b.Fatal(resp.Err)
					}
				}
			}
			handle(c.setup)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if c.prepare != nil {
					b.StopTimer()
					handle(c.prepare)
					b.StartTimer()
				}
				handle([]*Message{put})
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*4096), "ns/cell")
		})
	}
}

// BenchmarkWorkerLoadChunks is the bulk loader's write on one node: a
// 16-chunk "loadchunks" batch of 64×64 chunks (three float columns, every
// cell present) sent over TCP to a real server, whose worker adopts each
// payload as a bucket of a store on disk. The array is dropped and created
// again before each batch, the timer stopped. B/op covers both ends of the
// connection: the request frame the server reads, the buckets it seals and
// writes, the response.
func BenchmarkWorkerLoadChunks(b *testing.B) {
	schema := &array.Schema{Name: "load",
		Dims: []array.Dimension{{Name: "x", High: 256, ChunkLen: 64}, {Name: "y", High: 256, ChunkLen: 64}},
		Attrs: []array.Attribute{
			{Name: "dn", Type: array.TFloat64}, {Name: "cloud", Type: array.TFloat64}, {Name: "nadir", Type: array.TFloat64},
		},
	}
	a := array.MustNew(schema.Clone())
	array.IterBox(array.WholeBox(schema), func(c array.Coord) bool {
		v := float64(c[0]*7+c[1]*3) / 16
		if err := a.Set(c, array.Cell{array.Float64(v), array.Float64(float64(c[0] % 5)), array.Float64(1)}); err != nil {
			b.Fatal(err)
		}
		return true
	})
	payloads, err := encodeForTest(a)
	if err != nil || len(payloads) != 16 {
		b.Fatalf("%d payloads: %v", len(payloads), err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	w := NewWorkerWithOptions(0, WorkerOptions{Dir: b.TempDir()})
	srv, _ := NewServer(w, ServeOptions{})
	go func() { _ = srv.Serve(ln) }()
	tr, err := DialTCP([]string{ln.Addr().String()})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() {
		_ = tr.Close()
		srv.Shutdown()
		_ = w.Close()
	})
	call := func(req *Message) {
		if _, err := tr.Call(0, req); err != nil {
			b.Fatal(err)
		}
	}
	load := &Message{Op: "loadchunks", Array: "load", Chunks: payloads}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		call(&Message{Op: "drop", Array: "load"})
		call(&Message{Op: "create", Array: "load", Schema: schema})
		b.StartTimer()
		call(load)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*a.Count()), "ns/cell")
}
