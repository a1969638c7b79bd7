package session

import (
	"context"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"

	"scidb/internal/array"
	"scidb/internal/cluster"
	"scidb/internal/core"
	"scidb/internal/partition"
	"scidb/internal/storage"
	"scidb/internal/wire"
)

// payloadLog is a grid transport that notes where every chunk payload a
// worker answers with lives.
type payloadLog struct {
	cluster.Transport
	mu   sync.Mutex
	seen map[*byte]bool
}

func (l *payloadLog) Call(node int, req *cluster.Message) (*cluster.Message, error) {
	resp, err := l.Transport.Call(node, req)
	if err == nil {
		l.mu.Lock()
		for _, p := range resp.Chunks {
			l.seen[&p[0]] = true
		}
		l.mu.Unlock()
	}
	return resp, err
}

func (l *payloadLog) received(p []byte) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(p) > 0 && l.seen[&p[0]]
}

// gatherGrid holds two co-placed arrays, L dense and R sparse, on a 3-node
// grid (one chunk column per node) and as memory arrays, and returns the two
// databases and the grid's payload log.
func gatherGrid(t testing.TB) (mem, grid *core.Database, log *payloadLog) {
	t.Helper()
	tr := cluster.NewLocal(3)
	t.Cleanup(func() { _ = tr.Close() })
	log = &payloadLog{Transport: tr, seen: map[*byte]bool{}}
	co := cluster.NewCoordinator(log, 1)
	mem, grid = core.Open(), core.Open()
	grid.AttachCluster(co)
	for name, every := range map[string]int64{"L": 1, "R": 3} {
		s := &array.Schema{
			Name:  name,
			Dims:  []array.Dimension{{Name: "x", High: 12, ChunkLen: 4}, {Name: "y", High: 8, ChunkLen: 4}},
			Attrs: []array.Attribute{{Name: "v", Type: array.TFloat64}, {Name: "n", Type: array.TInt64}},
		}
		a := array.MustNew(s)
		array.IterBox(array.WholeBox(s), func(c array.Coord) bool {
			if k := (c[0]-1)*8 + c[1]; k%every == 0 {
				_ = a.Set(c, array.Cell{array.Float64(float64(k) / 4), array.Int64(k * every)})
			}
			return true
		})
		if err := co.Create(name, s, partition.Block{Nodes: 3, SplitDim: 0, High: 12}); err != nil {
			t.Fatal(err)
		}
		bound, err := co.Scheme(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, ch := range a.Chunks() {
			payload, err := storage.EncodeChunk(s, ch)
			if err == nil {
				err = co.LoadChunks(name, bound.NodeFor(ch.Origin), [][]byte{payload})
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if err := mem.PutArray(name, a); err != nil {
			t.Fatal(err)
		}
	}
	return mem, grid, log
}

// cellText renders every present cell of a, chunk by chunk in origin order.
func cellText(a *array.Array) string {
	out := ""
	a.Iter(func(c array.Coord, cell array.Cell) bool {
		out += fmt.Sprint(c, cell)
		return true
	})
	return out
}

// TestGatheredPagesForwardWorkerPayloads: a pure gather — a co-placed sjoin
// and a box read — leaves the session as the payloads the workers sent the
// coordinator, whole and a cursor page at a time, never encoded again; and a
// client reads, materialised and through Query, the cells the memory
// backing answers.
func TestGatheredPagesForwardWorkerPayloads(t *testing.T) {
	mem, grid, log := gatherGrid(t)
	_, addr := startServer(t, ServerOptions{
		Tenant:      func(string) (*core.Database, error) { return grid, nil },
		FetchChunks: 2,
	})
	c := dialT(t, addr, ClientOptions{})
	ctx := context.Background()
	for _, stmt := range []string{
		"sjoin(L, R, L.x = R.x and L.y = R.y)",
		"L",
	} {
		want, err := core.NewExecutor(mem).ExecCtx(ctx, stmt)
		if err != nil {
			t.Fatal(err)
		}
		if want.Array.Count() == 0 {
			t.Fatalf("%s: the memory backing answers no cell", stmt)
		}
		res, err := core.NewExecutor(grid).ExecCtx(ctx, stmt)
		if err != nil {
			t.Fatal(err)
		}
		chunks := res.Array.Chunks()
		for _, page := range [][]*array.Chunk{chunks, chunks[:1], chunks[1:]} {
			payloads, err := encodePage(ctx, res.Array.Schema, page)
			if err != nil {
				t.Fatal(err)
			}
			for i, p := range payloads {
				if !log.received(p) {
					t.Errorf("%s: page payload %d of %d is not one the coordinator received", stmt, i, len(payloads))
				}
			}
		}

		got, err := c.Exec(stmt)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := c.Query(stmt)
		if err != nil {
			t.Fatal(err)
		}
		paged, err := rows.All()
		if err != nil {
			t.Fatal(err)
		}
		for how, a := range map[string]*array.Array{"materialised": got.Array, "Query": paged} {
			if g, w := cellText(a), cellText(want.Array); g != w {
				t.Errorf("%s %s read\n%s\nwant the memory backing's\n%s", stmt, how, g, w)
			}
		}
	}
}

// BenchmarkSessionGatherPage is one page of a gathered result leaving the
// server: its chunks' payloads (encodePage) written as a response frame
// through the session's writer. Its B/op is what a page costs the server
// beyond the workers' payloads, which it forwards.
func BenchmarkSessionGatherPage(b *testing.B) {
	_, grid, _ := gatherGrid(b)
	ctx := context.Background()
	res, err := core.NewExecutor(grid).ExecCtx(ctx, "sjoin(L, R, L.x = R.x and L.y = R.y)")
	if err != nil {
		b.Fatal(err)
	}
	client, server := net.Pipe()
	defer client.Close()
	go func() { _, _ = io.Copy(io.Discard, client) }()
	ss := &serverSession{srv: NewServer(ServerOptions{}), w: wire.NewWriter(server, 0, nil)}
	chunks := res.Array.Chunks()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		payloads, err := encodePage(ctx, res.Array.Schema, chunks)
		if err != nil {
			b.Fatal(err)
		}
		ss.respond(uint64(i), &response{Kind: kindPage, Chunks: payloads})
	}
	b.StopTimer()
	_ = server.Close()
}
