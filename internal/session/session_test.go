package session

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"scidb/internal/array"
	"scidb/internal/core"
	"scidb/internal/obs"
)

// startServer runs a session server on a loopback listener.
func startServer(t *testing.T, opts ServerOptions) (*Server, string) {
	t.Helper()
	if opts.Registry == nil {
		opts.Registry = obs.NewRegistry()
	}
	srv := NewServer(opts)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { ln.Close() })
	return srv, ln.Addr().String()
}

func dialT(t *testing.T, addr string, opts ClientOptions) *Client {
	t.Helper()
	c, err := Dial(addr, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// seed builds a small array through the protocol itself.
func seed(t *testing.T, c *Client, side int) {
	t.Helper()
	mustExec(t, c, "define array T (v = float) (x, y)")
	mustExec(t, c, fmt.Sprintf("create array M as T [%d, %d]", side, side))
	for x := 1; x <= side; x++ {
		for y := 1; y <= side; y++ {
			mustExec(t, c, fmt.Sprintf("insert into M [%d, %d] values (%g)", x, y, float64((x-1)*side+y-1)))
		}
	}
}

func mustExec(t *testing.T, c *Client, sql string) *Result {
	t.Helper()
	res, err := c.Exec(sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	return res
}

// nonNull counts cells whose first attribute is not NULL (filter keeps
// the array's shape and NULLs out failing cells, per the paper).
func nonNull(a *array.Array) int64 {
	var n int64
	if a == nil {
		return 0
	}
	a.Iter(func(_ array.Coord, cell array.Cell) bool {
		if !cell[0].Null {
			n++
		}
		return true
	})
	return n
}

// TestHandshakeAndExec is the basic conformance walk: hello, DDL, DML,
// query, error surface, ping.
func TestHandshakeAndExec(t *testing.T) {
	srv, addr := startServer(t, ServerOptions{})
	c := dialT(t, addr, ClientOptions{Name: "conformance"})
	if c.SessionID() == 0 {
		t.Fatal("session id is zero")
	}
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	seed(t, c, 4)
	res := mustExec(t, c, "filter(M, v > 7.5)")
	if res.Array == nil || nonNull(res.Array) != 8 {
		t.Fatalf("filter returned %d non-null cells, want 8", nonNull(res.Array))
	}
	if _, err := c.Exec("filter(Nope, v > 0)"); err == nil {
		t.Fatal("query on unknown array succeeded")
	}
	if got := srv.SessionCount(); got != 1 {
		t.Fatalf("SessionCount = %d, want 1", got)
	}
}

// TestTenantIsolation checks that namespaces resolve to disjoint
// databases.
func TestTenantIsolation(t *testing.T) {
	_, addr := startServer(t, ServerOptions{})
	a := dialT(t, addr, ClientOptions{Namespace: "alpha"})
	b := dialT(t, addr, ClientOptions{Namespace: "beta"})
	seed(t, a, 2)
	if _, err := b.Exec("filter(M, v > 0)"); err == nil {
		t.Fatal("tenant beta sees tenant alpha's array")
	}
}

// TestPrepareBindExecute covers the prepared-statement protocol: prepare
// reports the parameter count, execute binds per call, close drops the
// template, wrong arity errors.
func TestPrepareBindExecute(t *testing.T) {
	_, addr := startServer(t, ServerOptions{})
	c := dialT(t, addr, ClientOptions{})
	seed(t, c, 4)
	n, err := c.Prepare("pick", "filter(M, v > $1)")
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("NumParams = %d, want 1", n)
	}
	for _, tc := range []struct {
		cut  float64
		want int64
	}{{7.5, 8}, {11.5, 4}, {15.5, 0}} {
		res, err := c.ExecPrepared("pick", Float(tc.cut))
		if err != nil {
			t.Fatal(err)
		}
		if got := nonNull(res.Array); got != tc.want {
			t.Fatalf("pick(%g) = %d non-null cells, want %d", tc.cut, got, tc.want)
		}
	}
	if _, err := c.ExecPrepared("pick"); err == nil {
		t.Fatal("wrong arity bind succeeded")
	}
	if _, err := c.ExecPrepared("nope", Float(1)); err == nil {
		t.Fatal("unknown prepared name succeeded")
	}
	if err := c.ClosePrepared("pick"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ExecPrepared("pick", Float(1)); err == nil {
		t.Fatal("closed prepared statement still executes")
	}
	// Unbound parameters must be rejected on the plain path.
	if _, err := c.Exec("filter(M, v > $1)"); err == nil ||
		!strings.Contains(err.Error(), "unbound") {
		t.Fatalf("unbound $1 error = %v", err)
	}
}

// chunkedTenant seeds a database with a side×side array M chunked cl×cl,
// so streamed results page across several chunks.
func chunkedTenant(t *testing.T, side, cl int64) func(string) (*core.Database, error) {
	t.Helper()
	db := core.Open()
	s := &array.Schema{
		Name: "M",
		Dims: []array.Dimension{
			{Name: "x", High: side, ChunkLen: cl},
			{Name: "y", High: side, ChunkLen: cl},
		},
		Attrs: []array.Attribute{{Name: "v", Type: array.TFloat64}},
	}
	a, err := array.New(s)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Fill(func(c array.Coord) array.Cell {
		return array.Cell{array.Float64(float64((c[0]-1)*side + c[1] - 1))}
	}); err != nil {
		t.Fatal(err)
	}
	if err := db.PutArray("M", a); err != nil {
		t.Fatal(err)
	}
	return func(string) (*core.Database, error) { return db, nil }
}

// TestPagedFetch drives a streamed cursor page by page and checks the
// rebuilt array matches the materialized result.
func TestPagedFetch(t *testing.T) {
	srv, addr := startServer(t, ServerOptions{FetchChunks: 1, Tenant: chunkedTenant(t, 16, 4)})
	c := dialT(t, addr, ClientOptions{})
	mat := mustExec(t, c, "filter(M, v >= 0)")
	rows, err := c.Query("filter(M, v >= 0)")
	if err != nil {
		t.Fatal(err)
	}
	if rows.Schema() == nil {
		t.Fatal("streamed query has no schema")
	}
	var chunks int
	got, err := array.New(rows.Schema())
	if err != nil {
		t.Fatal(err)
	}
	for {
		ch, err := rows.NextChunk()
		if err != nil {
			t.Fatal(err)
		}
		if ch == nil {
			break
		}
		chunks++
		if err := got.MergeChunk(ch); err != nil {
			t.Fatal(err)
		}
	}
	if got.Count() != mat.Array.Count() {
		t.Fatalf("streamed %d cells, materialized %d", got.Count(), mat.Array.Count())
	}
	if chunks < 4 {
		t.Fatalf("result paged in %d chunks; want many with FetchChunks=1", chunks)
	}
	// Streaming must keep the peak response frame below the materialized
	// whole-result frame.
	if srv.MaxResponseBytes() == 0 {
		t.Fatal("no response size recorded")
	}
	// Early close releases the cursor server-side.
	rows2, err := c.Query("filter(M, v >= 0)")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rows2.NextChunk(); err != nil {
		t.Fatal(err)
	}
	if err := rows2.Close(); err != nil {
		t.Fatal(err)
	}
	// DDL over Query degrades to a drained Rows.
	rows3, err := c.Query("define array T2 (v = float) (x)")
	if err != nil {
		t.Fatal(err)
	}
	if ch, err := rows3.NextChunk(); err != nil || ch != nil {
		t.Fatalf("DDL rows: chunk %v err %v", ch, err)
	}
}

// bigTenant seeds a database with a filled side×side array Big, chunked
// 32×32 — slow statements for the cancel/busy tests need real data (and
// chunk granularity, so cancellation can abort between chunks), and
// inserting it cell-by-cell over the wire would dwarf the test.
func bigTenant(t *testing.T, side int64) func(string) (*core.Database, error) {
	t.Helper()
	db := core.Open()
	s := &array.Schema{
		Name: "Big",
		Dims: []array.Dimension{
			{Name: "x", High: side, ChunkLen: 32},
			{Name: "y", High: side, ChunkLen: 32},
		},
		Attrs: []array.Attribute{{Name: "v", Type: array.TFloat64}},
	}
	a, err := array.New(s)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Fill(func(c array.Coord) array.Cell {
		return array.Cell{array.Float64(float64(c[0] + c[1]))}
	}); err != nil {
		t.Fatal(err)
	}
	if err := db.PutArray("Big", a); err != nil {
		t.Fatal(err)
	}
	return func(string) (*core.Database, error) { return db, nil }
}

// TestCancel starts a long statement and cancels it: the statement must
// return promptly with a context error, not run to completion.
func TestCancel(t *testing.T) {
	_, addr := startServer(t, ServerOptions{Slots: 1, Tenant: bigTenant(t, 384)})
	c := dialT(t, addr, ClientOptions{})
	slow := "aggregate(apply(Big, t = v * 2), {}, sum(t))"
	// Occupy the single slot, then cancel a statement queued behind it:
	// its admission wait must abort, deterministically, before it runs.
	occupier, err := c.Start(slow, Interactive)
	if err != nil {
		t.Fatal(err)
	}
	queued, err := c.Start(slow, Interactive)
	if err != nil {
		t.Fatal(err)
	}
	if err := queued.Cancel(); err != nil {
		t.Fatal(err)
	}
	if _, err := queued.Wait(); err == nil {
		t.Fatal("canceled queued statement succeeded")
	}
	// Cancel the occupier in flight; either it aborts with an error or it
	// had already finished — it must not hang.
	if err := occupier.Cancel(); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { occupier.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("canceled in-flight statement never returned")
	}
	// The session stays healthy after cancels.
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
}

// TestServerBusy floods a 1-slot, depth-1 server and expects typed busy
// rejections once the queue is full.
func TestServerBusy(t *testing.T) {
	_, addr := startServer(t, ServerOptions{Slots: 1, QueueDepth: 1, Tenant: bigTenant(t, 256)})
	c := dialT(t, addr, ClientOptions{})
	slow := "aggregate(apply(Big, t = v * 2), {}, sum(t))"
	var pend []*Pending
	for i := 0; i < 8; i++ {
		p, err := c.Start(slow, Batch)
		if err != nil {
			t.Fatal(err)
		}
		pend = append(pend, p)
	}
	var busy int
	for _, p := range pend {
		if _, err := p.Wait(); errors.Is(err, ErrServerBusy) {
			busy++
		}
	}
	if busy == 0 {
		t.Fatal("no server-busy rejections from 8 statements at 1 slot + depth 1")
	}
	// Cancel the stragglers so the test server drains fast.
	for _, p := range pend {
		_ = p.Cancel()
	}
}

// TestInteractiveOvertakesBatch queues batch and interactive statements
// behind a busy slot and checks the interactive one is admitted first.
func TestInteractiveOvertakesBatch(t *testing.T) {
	a := NewAdmission(1, 8, obs.NewRegistry())
	if err := a.Acquire(context.Background(), Batch); err != nil {
		t.Fatal(err)
	}
	order := make(chan Priority, 2)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		if err := a.Acquire(context.Background(), Batch); err == nil {
			order <- Batch
			a.Release()
		}
	}()
	time.Sleep(20 * time.Millisecond) // batch waiter queues first
	go func() {
		defer wg.Done()
		if err := a.Acquire(context.Background(), Interactive); err == nil {
			order <- Interactive
			a.Release()
		}
	}()
	time.Sleep(20 * time.Millisecond)
	a.Release() // free the held slot: interactive must win it
	wg.Wait()
	if first := <-order; first != Interactive {
		t.Fatalf("first admitted class = %v, want interactive", first)
	}
}

// TestIdleTimeout: a silent session is closed by the server.
func TestIdleTimeout(t *testing.T) {
	srv, addr := startServer(t, ServerOptions{IdleTimeout: 100 * time.Millisecond})
	c := dialT(t, addr, ClientOptions{})
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv.SessionCount() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("idle session not closed")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := c.Ping(); err == nil {
		t.Fatal("ping on idle-closed session succeeded")
	}
}

// TestDrain: Shutdown lets in-flight statements finish, then closes
// sessions and rejects new ones.
func TestDrain(t *testing.T) {
	srv, addr := startServer(t, ServerOptions{})
	c := dialT(t, addr, ClientOptions{})
	seed(t, c, 4)
	var execErr error
	var res *Result
	done := make(chan struct{})
	p, err := c.Start("aggregate(M, {}, sum(v))", Interactive)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		defer close(done)
		res, execErr = p.Wait()
	}()
	// Drain waits for statements the server has accepted; wait until the
	// read loop has registered ours before draining, or Shutdown may
	// close the conn with the request still in its receive buffer.
	deadline := time.Now().Add(5 * time.Second)
waitRegistered:
	for srv.InFlightStatements() == 0 {
		select {
		case <-done:
			break waitRegistered // already answered
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("statement never registered server-side")
		}
		time.Sleep(time.Millisecond)
	}
	if !srv.Shutdown(5 * time.Second) {
		t.Fatal("drain was not clean")
	}
	<-done
	if execErr != nil {
		t.Fatalf("in-flight statement failed during drain: %v", execErr)
	}
	if res.Array == nil {
		t.Fatal("in-flight statement lost its result")
	}
	if srv.SessionCount() != 0 {
		t.Fatalf("%d sessions survive drain", srv.SessionCount())
	}
	if _, err := Dial(addr, ClientOptions{DialTimeout: time.Second}); err == nil {
		t.Fatal("new session accepted while draining")
	}
}

// TestSessionsActiveGauge: the scidb_sessions_active gauge tracks
// connects and disconnects.
func TestSessionsActiveGauge(t *testing.T) {
	reg := obs.NewRegistry()
	_, addr := startServer(t, ServerOptions{Registry: reg})
	gaugeVal := func() float64 {
		for _, s := range reg.Snapshot().Samples {
			if s.Name == "scidb_sessions_active" {
				return s.Value
			}
		}
		return -1
	}
	a := dialT(t, addr, ClientOptions{})
	b, err := Dial(addr, ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Hellos complete before Dial returns, so both sessions are tracked.
	if v := gaugeVal(); v != 2 {
		t.Fatalf("scidb_sessions_active = %v, want 2", v)
	}
	b.Close()
	deadline := time.Now().Add(5 * time.Second)
	for gaugeVal() != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("scidb_sessions_active = %v after close, want 1", gaugeVal())
		}
		time.Sleep(5 * time.Millisecond)
	}
	_ = a
}

// TestConcurrentSessions hammers one server from several sessions with
// mixed work (race-detector food).
func TestConcurrentSessions(t *testing.T) {
	_, addr := startServer(t, ServerOptions{Slots: 4, QueueDepth: 256})
	seedc := dialT(t, addr, ClientOptions{Namespace: "shared"})
	seed(t, seedc, 6)
	var wg sync.WaitGroup
	var fails atomic.Int64
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := Dial(addr, ClientOptions{Namespace: "shared"})
			if err != nil {
				fails.Add(1)
				return
			}
			defer c.Close()
			name := fmt.Sprintf("q%d", i)
			if _, err := c.Prepare(name, "filter(M, v > $1)"); err != nil {
				fails.Add(1)
				return
			}
			for j := 0; j < 20; j++ {
				if _, err := c.ExecPrepared(name, Float(float64(j))); err != nil {
					fails.Add(1)
					return
				}
				if j%5 == 0 {
					rows, err := c.Query("filter(M, v >= 0)")
					if err != nil {
						fails.Add(1)
						return
					}
					if _, err := rows.All(); err != nil {
						fails.Add(1)
						return
					}
				}
			}
		}(i)
	}
	wg.Wait()
	if n := fails.Load(); n != 0 {
		t.Fatalf("%d sessions failed", n)
	}
}
