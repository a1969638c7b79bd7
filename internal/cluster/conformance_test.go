package cluster

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"net"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"scidb/internal/array"
	"scidb/internal/ops"
	"scidb/internal/partition"
	"scidb/internal/wire"
)

// startWireServer runs a Server over real loopback sockets for n workers
// and returns their addresses plus a shutdown function.
func startWireServers(t *testing.T, n int, opts ServeOptions) ([]string, func()) {
	t.Helper()
	var addrs []string
	var shutdowns []func()
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv, err := NewServer(NewWorker(i), opts)
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() { done <- srv.Serve(ln) }()
		addrs = append(addrs, ln.Addr().String())
		shutdowns = append(shutdowns, func() {
			srv.Shutdown()
			if err := <-done; err != nil {
				t.Errorf("Serve returned %v after shutdown, want nil", err)
			}
		})
	}
	return addrs, func() {
		for _, s := range shutdowns {
			s()
		}
	}
}

// serve runs a worker on ln with default options until ln closes.
func serve(ln net.Listener, w *Worker) error {
	srv, err := NewServer(w, ServeOptions{})
	if err != nil {
		return err
	}
	return srv.Serve(ln)
}

// transportFactories enumerates every transport the conformance suite must
// agree across. Each factory builds a fresh 3-node grid.
func transportFactories(t *testing.T) map[string]func(t *testing.T) (Transport, func()) {
	return map[string]func(t *testing.T) (Transport, func()){
		"local": func(t *testing.T) (Transport, func()) {
			tr := NewLocal(3)
			return tr, func() { _ = tr.Close() }
		},
		"tcp-pipelined": func(t *testing.T) (Transport, func()) {
			addrs, stop := startWireServers(t, 3, ServeOptions{})
			tr, err := DialTCP(addrs)
			if err != nil {
				t.Fatal(err)
			}
			return tr, func() { _ = tr.Close(); stop() }
		},
		"tcp-compressed": func(t *testing.T) (Transport, func()) {
			addrs, stop := startWireServers(t, 3, ServeOptions{})
			tr, err := DialTCPOptions(addrs, DialOptions{Codec: "gzip", Conns: 1, CallTimeout: 30 * time.Second})
			if err != nil {
				t.Fatal(err)
			}
			return tr, func() { _ = tr.Close(); stop() }
		},
	}
}

// cellsOf flattens an array into a comparable map.
func cellsOf(a *array.Array) map[string]string {
	out := map[string]string{}
	a.Iter(func(c array.Coord, cell array.Cell) bool {
		out[fmt.Sprint(c)] = fmt.Sprint(cell)
		return true
	})
	return out
}

// conformanceResults is everything the scenario observes through one
// transport; transports must agree on all of it.
type conformanceResults struct {
	count int64
	scan  map[string]string
	agg   map[string]string
	preds map[string]string
	errs  []string
}

// runConformanceScenario drives the full protocol over a transport:
// create, staged puts, flush, box scan, grouped aggregate, a read under
// predicates of a second array, and a set of must-fail calls.
func runConformanceScenario(t *testing.T, tr Transport) conformanceResults {
	t.Helper()
	co := NewCoordinator(tr, 0)
	scheme := partition.Block{Nodes: 3, SplitDim: 0, High: 12}
	schema := &array.Schema{
		Name:  "conf",
		Dims:  []array.Dimension{{Name: "x", High: 12}, {Name: "y", High: 12}},
		Attrs: []array.Attribute{{Name: "v", Type: array.TFloat64}},
	}
	if err := co.Create("conf", schema, scheme); err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 12; i++ {
		for j := int64(1); j <= 12; j++ {
			if err := co.Put("conf", array.Coord{i, j}, array.Cell{array.Float64(float64(i*100 + j))}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := co.Flush("conf"); err != nil {
		t.Fatal(err)
	}
	// A second array, read under a predicate.
	vecSchema := &array.Schema{
		Name:  "confR",
		Dims:  []array.Dimension{{Name: "x", High: 12}, {Name: "y", High: 12}},
		Attrs: []array.Attribute{{Name: "w", Type: array.TInt64}},
	}
	if err := co.Create("confR", vecSchema, scheme); err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 12; i++ {
		for j := int64(1); j <= 12; j++ {
			if err := co.Put("confR", array.Coord{i, j}, array.Cell{array.Int64(i - j)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := co.Flush("confR"); err != nil {
		t.Fatal(err)
	}

	var res conformanceResults
	var err error
	res.count, err = co.Count("conf")
	if err != nil {
		t.Fatal(err)
	}
	cells, err := scan(co, "conf", array.NewBox(array.Coord{2, 3}, array.Coord{9, 7}))
	if err != nil {
		t.Fatal(err)
	}
	res.scan = cellsOf(cells)
	agg, err := aggregate(co, "conf", array.NewBox(array.Coord{1, 1}, array.Coord{12, 12}), "sum", "v", []string{"x"})
	if err != nil {
		t.Fatal(err)
	}
	res.agg = cellsOf(agg)
	passed, _, _, _, err := co.Read(context.Background(), "confR", ops.Fragment{
		Preds: []array.ZonePred{{Attr: 0, Op: ">", Val: array.Int64(3)}}})
	if err != nil {
		t.Fatal(err)
	}
	res.preds = cellsOf(passed)

	// Error propagation: the worker's message must cross every transport.
	for _, bad := range []*Message{
		{Op: "read", Array: "ghost"},
		{Op: "frobnicate"},
		{Op: "read", Array: "conf", Fold: &ops.FoldSpec{Aggs: []ops.AggSpec{{Agg: "sum", Attr: "zzz"}}}},
		{Op: "put", Array: "conf", Chunks: [][]byte{{1, 2, 3}}},
	} {
		_, err := tr.Call(0, bad)
		if err == nil {
			t.Fatalf("call %q should have failed", bad.Op)
		}
		res.errs = append(res.errs, err.Error())
	}
	return res
}

// TestTransportConformance runs the identical scenario over every
// transport and pins all results (and error text) to the Local reference.
func TestTransportConformance(t *testing.T) {
	factories := transportFactories(t)
	mkRef := factories["local"]
	refTr, refStop := mkRef(t)
	ref := runConformanceScenario(t, refTr)
	refStop()
	if ref.count != 144 {
		t.Fatalf("reference count = %d, want 144", ref.count)
	}
	if len(ref.scan) != 8*5 {
		t.Fatalf("reference scan cells = %d, want 40", len(ref.scan))
	}
	if len(ref.preds) != 36 { // w = x - y > 3
		t.Fatalf("reference cells passing the predicate = %d, want 36", len(ref.preds))
	}
	for name, mk := range factories {
		if name == "local" {
			continue
		}
		t.Run(name, func(t *testing.T) {
			tr, stop := mk(t)
			defer stop()
			got := runConformanceScenario(t, tr)
			if got.count != ref.count {
				t.Errorf("count = %d, want %d", got.count, ref.count)
			}
			for field, pair := range map[string][2]map[string]string{
				"scan":  {got.scan, ref.scan},
				"agg":   {got.agg, ref.agg},
				"preds": {got.preds, ref.preds},
			} {
				if len(pair[0]) != len(pair[1]) {
					t.Errorf("%s: %d cells, want %d", field, len(pair[0]), len(pair[1]))
					continue
				}
				for k, v := range pair[1] {
					if pair[0][k] != v {
						t.Errorf("%s cell %s = %q, want %q", field, k, pair[0][k], v)
					}
				}
			}
			if len(got.errs) != len(ref.errs) {
				t.Fatalf("error count = %d, want %d", len(got.errs), len(ref.errs))
			}
			for i := range got.errs {
				if got.errs[i] != ref.errs[i] {
					t.Errorf("error %d = %q, want %q", i, got.errs[i], ref.errs[i])
				}
			}
		})
	}
}

// TestPipelinedConcurrentCalls hammers a single connection per node with
// concurrent calls; under -race this exercises the register/dispatch/
// flush-coalescing machinery, and the in-flight high-water mark proves
// requests actually overlapped on the wire instead of serializing.
func TestPipelinedConcurrentCalls(t *testing.T) {
	addrs, stop := startWireServers(t, 2, ServeOptions{})
	defer stop()
	tr, err := DialTCPOptions(addrs, DialOptions{Conns: 1, CallTimeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	co := NewCoordinator(tr, 0)
	scheme := partition.Block{Nodes: 2, SplitDim: 0, High: 16}
	if err := co.Create("stress", gridSchema(), scheme); err != nil {
		t.Fatal(err)
	}
	loadGrid(t, co, "stress", 16)

	const goroutines = 16
	const callsPer = 25
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < callsPer; k++ {
				switch k % 3 {
				case 0:
					n, err := co.Count("stress")
					if err != nil {
						errs <- err
						return
					}
					if n != 256 {
						errs <- fmt.Errorf("count = %d, want 256", n)
						return
					}
				case 1:
					res, err := scan(co, "stress", array.NewBox(array.Coord{1, 1}, array.Coord{4, 4}))
					if err != nil {
						errs <- err
						return
					}
					if res.Count() != 16 {
						errs <- fmt.Errorf("scan = %d cells, want 16", res.Count())
						return
					}
				default:
					agg, err := aggregate(co, "stress", array.NewBox(array.Coord{1, 1}, array.Coord{16, 16}), "sum", "flux", nil)
					if err != nil {
						errs <- err
						return
					}
					cell, _ := agg.At(array.Coord{1})
					if cell[0].AsFloat() != 4352 { // sum of (i+j) over 16x16
						errs <- fmt.Errorf("sum = %v, want 4352", cell[0])
						return
					}
				}
			}
			errs <- nil
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	st := tr.TransportStats()
	if st.Calls == 0 || st.FramesOut != st.Calls || st.FramesIn != st.Calls {
		t.Errorf("frame counters off: %+v", st)
	}
	if st.InFlight != 0 {
		t.Errorf("in-flight gauge = %d after drain", st.InFlight)
	}
	if st.InFlightHWM < 2 {
		t.Errorf("in-flight high-water = %d; concurrent calls never overlapped", st.InFlightHWM)
	}
	if st.Timeouts != 0 {
		t.Errorf("%d timeouts during stress", st.Timeouts)
	}
}

// TestServeReturnsNilOnListenerClose pins the graceful-shutdown satellite:
// closing the listener is a clean stop, not an error.
func TestServeReturnsNilOnListenerClose(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- serve(ln, NewWorker(0)) }()
	time.Sleep(10 * time.Millisecond)
	_ = ln.Close()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("Serve = %v, want nil", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after listener close")
	}
}

// TestShutdownDrainsInFlight checks that Shutdown waits for a request that
// is already executing, and that its response still reaches the client.
func TestShutdownDrainsInFlight(t *testing.T) {
	addrs, stop := startWireServers(t, 1, ServeOptions{})
	tr, err := DialTCP(addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	co := NewCoordinator(tr, 0)
	if err := co.Create("d", gridSchema(), partition.Block{Nodes: 1, SplitDim: 0, High: 64}); err != nil {
		t.Fatal(err)
	}
	loadGrid(t, co, "d", 8)
	// Fire a burst of scans, then shut down while some may be in flight.
	var wg sync.WaitGroup
	results := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := tr.Call(0, countReq("d"))
			results <- err
		}()
	}
	wg.Wait() // all responses received before shutdown
	stop()    // Shutdown + Serve-returned-nil assertions inside
	close(results)
	for err := range results {
		if err != nil {
			t.Errorf("in-flight call failed: %v", err)
		}
	}
	// After shutdown the server is gone: new calls must fail, not hang.
	errc := make(chan error, 1)
	go func() {
		_, err := tr.Call(0, &Message{Op: "ping"})
		errc <- err
	}()
	select {
	case err := <-errc:
		if err == nil {
			t.Error("call succeeded after shutdown")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("call after shutdown hung")
	}
}

// TestCallTimeout dials a stub that completes the hello but never answers
// any frame; the call must return a timeout error quickly and count it.
func TestCallTimeout(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				if wire.Accept(conn, conn, wire.ClusterMagic, func([]byte) ([]byte, error) { return []byte("none"), nil }) != nil {
					return
				}
				// Swallow frames forever, never respond.
				buf := make([]byte, 4096)
				for {
					if _, err := conn.Read(buf); err != nil {
						return
					}
				}
			}(conn)
		}
	}()
	tr, err := DialTCPOptions([]string{ln.Addr().String()}, DialOptions{
		Conns: 1, CallTimeout: 100 * time.Millisecond, DialTimeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	start := time.Now()
	_, err = tr.Call(0, &Message{Op: "ping"})
	if err == nil || !strings.Contains(err.Error(), "timed out") {
		t.Fatalf("Call = %v, want timeout", err)
	}
	if time.Since(start) > 3*time.Second {
		t.Error("timeout took too long")
	}
	if st := tr.TransportStats(); st.Timeouts != 1 {
		t.Errorf("timeouts = %d, want 1", st.Timeouts)
	}
	// The connection survives a timeout: a later response with an unknown
	// id would just be dropped, and new calls can still be issued (they
	// will also time out here, proving the conn was not torn down).
	if _, err := tr.Call(0, &Message{Op: "ping"}); err == nil || !strings.Contains(err.Error(), "timed out") {
		t.Errorf("second call = %v, want timeout (conn alive)", err)
	}
}

// TestServerCodecOverride pins the negotiation direction: a server with a
// configured codec answers with it even when the client sent none.
func TestServerCodecOverride(t *testing.T) {
	addrs, stop := startWireServers(t, 1, ServeOptions{Codec: "gzip"})
	defer stop()
	tr, err := DialTCPOptions(addrs, DialOptions{Conns: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	co := NewCoordinator(tr, 0)
	if err := co.Create("z", gridSchema(), partition.Block{Nodes: 1, SplitDim: 0, High: 64}); err != nil {
		t.Fatal(err)
	}
	loadGrid(t, co, "z", 16)
	if _, err := scan(co, "z", array.NewBox(array.Coord{1, 1}, array.Coord{16, 16})); err != nil {
		t.Fatal(err)
	}
	st := tr.TransportStats()
	if st.CompressedIn == 0 {
		t.Errorf("no compressed response frames despite server override: %+v", st)
	}
	if st.CompressedOut != 0 {
		t.Errorf("client compressed %d frames without a codec", st.CompressedOut)
	}
}

// TestUnknownMagicClosesConnection: a connection whose first four bytes are
// neither wire.ClusterMagic nor wire.SessionMagic is closed by the server — within
// IOTimeout, with nothing written back — instead of being parsed as some
// other protocol.
func TestUnknownMagicClosesConnection(t *testing.T) {
	const ioTimeout = 2 * time.Second
	addrs, stop := startWireServers(t, 1, ServeOptions{IOTimeout: ioTimeout})
	defer stop()
	conn, err := net.Dial("tcp", addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// What a client of the retired gob protocol would open with, sent in
	// one write: the server may close as soon as it has seen four bytes.
	var hello bytes.Buffer
	if err := gob.NewEncoder(&hello).Encode(&Message{Op: "ping"}); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(hello.Bytes()); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(ioTimeout))
	var buf [1]byte
	if n, err := conn.Read(buf[:]); n != 0 || err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("read after a non-magic first frame = %d bytes, %v; want the connection closed", n, err)
	}
}
