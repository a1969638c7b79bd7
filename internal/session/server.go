package session

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"scidb/internal/array"
	"scidb/internal/core"
	"scidb/internal/introspect"
	"scidb/internal/obs"
	"scidb/internal/storage"
	"scidb/internal/wire"
)

// ServerOptions tunes the serving front end.
type ServerOptions struct {
	// Slots bounds concurrently executing statements (default 8).
	Slots int
	// QueueDepth bounds waiting statements per priority class (default 64);
	// overflow is shed with a server-busy rejection.
	QueueDepth int
	// IdleTimeout closes a session that sends nothing for this long
	// (default 0: never).
	IdleTimeout time.Duration
	// FetchChunks is the default cursor page size in chunks (default 4).
	FetchChunks int
	// Registry receives the server's metrics (nil: obs.Default()).
	Registry *obs.Registry
	// Tenant maps a handshake namespace to its database. The default
	// lazily opens one empty core.Database per namespace and caches it —
	// tenant isolation by construction, since name resolution never
	// crosses a Database.
	Tenant func(namespace string) (*core.Database, error)
}

// Server is the session front end: it owns the admission controller, the
// tenant map, and every live session. Plug ServeConn into
// cluster.ServeOptions.Session to share the cluster listener (the sniffer
// routes SCSE connections here), or call Serve with a dedicated listener.
type Server struct {
	opts ServerOptions
	adm  *Admission

	nextSession atomic.Uint64
	maxResp     atomic.Int64 // largest response frame body, bytes
	stmtCount   atomic.Int64 // statements accepted and not yet answered

	mu       sync.Mutex
	tenants  map[string]*core.Database
	sessions map[uint64]*serverSession
	draining bool

	// stmts counts in-flight statements; drain waits on it.
	stmts sync.WaitGroup
	// conns counts live session loops; Shutdown joins them after closing.
	conns sync.WaitGroup

	active *obs.Gauge
	opened *obs.Counter
	errs   *obs.Counter
}

// NewServer builds a session server.
func NewServer(opts ServerOptions) *Server {
	if opts.Slots <= 0 {
		opts.Slots = 8
	}
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = 64
	}
	if opts.FetchChunks <= 0 {
		opts.FetchChunks = 4
	}
	reg := opts.Registry
	if reg == nil {
		reg = obs.Default()
	}
	s := &Server{
		opts:     opts,
		adm:      NewAdmission(opts.Slots, opts.QueueDepth, reg),
		tenants:  map[string]*core.Database{},
		sessions: map[uint64]*serverSession{},
		active: reg.Gauge("scidb_sessions_active",
			"Client sessions currently connected."),
		opened: reg.Counter("scidb_sessions_opened_total",
			"Client sessions accepted since start."),
		errs: reg.Counter("scidb_session_statement_errors_total",
			"Statements that returned an error to a client."),
	}
	reg.RegisterFunc("scidb_session_max_response_bytes",
		"Largest single response frame body sent to any client (streaming keeps this near one encoded chunk).",
		obs.KindGauge, func(emit func(obs.Sample)) {
			emit(obs.Sample{Name: "scidb_session_max_response_bytes", Value: float64(s.maxResp.Load())})
		})
	return s
}

// Admission exposes the controller (tests, experiments).
func (s *Server) Admission() *Admission { return s.adm }

// MaxResponseBytes reports the largest response frame body sent so far —
// the deterministic proxy for server-side result-buffer memory: a
// streaming session's ceiling is one page, a materializing one's is the
// whole encoded array.
func (s *Server) MaxResponseBytes() int64 { return s.maxResp.Load() }

// InFlightStatements reports statements the read loops have accepted but
// not yet answered (what a clean drain waits out).
func (s *Server) InFlightStatements() int64 { return s.stmtCount.Load() }

// SessionCount reports live sessions.
func (s *Server) SessionCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.sessions)
}

// tenant resolves a namespace to its database.
func (s *Server) tenant(ns string) (*core.Database, error) {
	if ns == "" {
		ns = "default"
	}
	if s.opts.Tenant != nil {
		return s.opts.Tenant(ns)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	db, ok := s.tenants[ns]
	if !ok {
		db = core.Open()
		s.tenants[ns] = db
	}
	return db, nil
}

// Serve accepts session connections on its own listener until the
// listener closes (when the front end is not sharing the cluster port).
func (s *Server) Serve(ln net.Listener) error {
	for {
		conn, err := ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		go func() {
			br := bufio.NewReaderSize(conn, 64<<10)
			s.ServeConn(conn, br)
			_ = conn.Close()
		}()
	}
}

// ServeConn runs one session to completion. br must be positioned at the
// start of the stream with the 4-byte wire.SessionMagic still unread (exactly
// what cluster.ServeOptions.Session delivers after sniffing). The caller
// closes conn after ServeConn returns.
func (s *Server) ServeConn(conn net.Conn, br *bufio.Reader) {
	var ss *serverSession
	err := wire.Accept(conn, br, wire.SessionMagic, func(hello []byte) ([]byte, error) {
		name, ns, pr, err := decodeHello(hello)
		if err != nil {
			return nil, err
		}
		if ns == "" {
			ns = "default"
		}
		db, err := s.tenant(ns)
		if err != nil {
			return nil, err
		}
		ss = &serverSession{
			srv:      s,
			id:       s.nextSession.Add(1),
			name:     name,
			ns:       ns,
			pri:      pr,
			conn:     conn,
			br:       br,
			w:        wire.NewWriter(conn, 0, nil),
			exec:     core.NewExecutor(db),
			cursors:  map[uint64]*cursor{},
			inflight: map[uint64]context.CancelFunc{},
		}
		// Admitted under the lock Shutdown sets draining under, so a drain
		// never misses a session it has to close and join.
		s.mu.Lock()
		defer s.mu.Unlock()
		if s.draining {
			ss = nil
			return nil, errors.New("session: server draining")
		}
		s.sessions[ss.id] = ss
		s.conns.Add(1)
		s.active.Add(1)
		s.opened.Inc()
		return binary.LittleEndian.AppendUint64(nil, ss.id), nil
	})
	if ss == nil {
		return
	}
	defer func() {
		ss.cancelAll()
		s.mu.Lock()
		delete(s.sessions, ss.id)
		s.mu.Unlock()
		s.active.Add(-1)
		s.conns.Done()
	}()
	if err == nil {
		ss.loop()
	}
}

// Shutdown drains the front end: new sessions are rejected, in-flight
// statements get timeout to finish, then every session connection closes
// and their loops are joined. It reports whether the drain was clean
// (every statement finished inside the timeout). A dirty drain cancels the
// stragglers and closes their connections before waiting for them: a
// statement blocked writing its result to a client that stopped reading
// finishes only when its connection goes.
func (s *Server) Shutdown(timeout time.Duration) bool {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.stmts.Wait()
		close(done)
	}()
	clean := true
	select {
	case <-done:
	case <-time.After(timeout):
		clean = false
	}
	s.mu.Lock()
	for _, ss := range s.sessions {
		ss.cancelAll()
		_ = ss.conn.Close()
	}
	s.mu.Unlock()
	<-done
	s.conns.Wait()
	return clean
}

// cursor is one open incremental result: the statement's chunks are held
// decoded (they already live in the tenant's arrays or the query result)
// and encoded one page at a time at fetch, so the server never buffers a
// whole encoded result per client.
type cursor struct {
	schema *array.Schema
	chunks []*array.Chunk
	next   int
}

// serverSession is one client connection's state.
type serverSession struct {
	srv  *Server
	id   uint64
	name string
	ns   string
	pri  Priority
	conn net.Conn
	br   *bufio.Reader
	w    *wire.Writer
	exec *core.Executor

	// cursorMu guards cursors (read loop fetches, exec goroutines create).
	cursorMu   sync.Mutex
	cursors    map[uint64]*cursor
	nextCursor uint64

	// inflightMu guards inflight (read loop registers and cancels, exec
	// goroutines unregister).
	inflightMu sync.Mutex
	inflight   map[uint64]context.CancelFunc
}

// loop reads frames until the connection drops or idles out. Fast ops
// (fetch, cancel, ping, prepare bookkeeping) run inline; statements are
// registered for cancellation here — synchronously, so a cancel frame
// that arrives after its target always finds it — then execute on their
// own goroutine behind admission control.
func (ss *serverSession) loop() {
	for {
		if t := ss.srv.opts.IdleTimeout; t > 0 {
			_ = ss.conn.SetReadDeadline(time.Now().Add(t))
		}
		reqID, body, err := wire.ReadFrame(ss.br, maxRequestBody, nil, nil)
		if err != nil {
			return
		}
		q, err := decodeRequest(body)
		if err != nil {
			ss.respond(reqID, &response{Status: statusErr, Err: err.Error()})
			continue
		}
		switch q.Op {
		case opPing:
			ss.respond(reqID, &response{Kind: kindAck})
		case opCancel:
			ss.cancel(q.Target)
			ss.respond(reqID, &response{Kind: kindAck})
		case opPrepare:
			ss.prepare(reqID, q)
		case opClosePrep:
			if err := ss.exec.ClosePrepared(q.Name); err != nil {
				ss.respond(reqID, &response{Status: statusErr, Err: err.Error()})
			} else {
				ss.respond(reqID, &response{Kind: kindAck})
			}
		case opFetch:
			ss.fetch(reqID, q)
		case opCloseCursor:
			ss.cursorMu.Lock()
			delete(ss.cursors, q.Cursor)
			ss.cursorMu.Unlock()
			ss.respond(reqID, &response{Kind: kindAck})
		case opExec, opExecPrepared:
			ctx, cancel := context.WithCancel(context.Background())
			ss.inflightMu.Lock()
			ss.inflight[reqID] = cancel
			ss.inflightMu.Unlock()
			ss.srv.stmts.Add(1)
			ss.srv.stmtCount.Add(1)
			go ss.runStatement(ctx, cancel, reqID, q)
		default:
			ss.respond(reqID, &response{Status: statusErr, Err: fmt.Sprintf("session: unknown op %d", q.Op)})
		}
	}
}

// cancel fires the cancel func registered under a request id, if any.
func (ss *serverSession) cancel(target uint64) {
	ss.inflightMu.Lock()
	c := ss.inflight[target]
	ss.inflightMu.Unlock()
	if c != nil {
		c()
	}
}

// cancelAll aborts every in-flight statement (disconnect, forced drain).
func (ss *serverSession) cancelAll() {
	ss.inflightMu.Lock()
	for _, c := range ss.inflight {
		c()
	}
	ss.inflightMu.Unlock()
}

// prepare parses and stores a template, answering with its parameter
// count.
func (ss *serverSession) prepare(reqID uint64, q *request) {
	p, err := ss.exec.Prepare(q.Name, q.SQL)
	if err != nil {
		ss.srv.errs.Inc()
		ss.respond(reqID, &response{Status: statusErr, Err: err.Error()})
		return
	}
	ss.respond(reqID, &response{Kind: kindAck, NumParams: uint32(p.NumParams)})
}

// runStatement executes one admitted statement and streams or returns its
// result. The statement registers in the live query registry before
// admission — so queued statements are visible in SHOW QUERIES and
// cancelable — and every exit path below records a terminal state
// (shed/canceled/error/done); the deferred safety net guarantees the
// record is never leaked even on a path added later.
func (ss *serverSession) runStatement(ctx context.Context, cancel context.CancelFunc, reqID uint64, q *request) {
	defer ss.srv.stmts.Done()
	defer ss.srv.stmtCount.Add(-1)
	defer func() {
		ss.inflightMu.Lock()
		delete(ss.inflight, reqID)
		ss.inflightMu.Unlock()
		cancel()
	}()

	sql := q.SQL
	if sql == "" && q.Name != "" {
		sql = "execute " + q.Name
	}
	iq := introspect.Default().Begin(sql, introspect.Origin{
		Namespace: ss.ns, Session: ss.id, Priority: Priority(q.Priority).String(),
	}, cancel)
	iq.SetPhase(introspect.StateQueued)
	ctx = introspect.ContextWithQuery(ctx, iq)
	defer func() {
		// Safety net for unforeseen exits; the first Finish wins, so the
		// specific states recorded below are untouched.
		if ctx.Err() != nil {
			iq.Finish(introspect.StateCanceled)
		} else {
			iq.Finish(introspect.StateError)
		}
	}()

	queued := time.Now()
	if err := ss.srv.adm.Acquire(ctx, Priority(q.Priority)); err != nil {
		if errors.Is(err, ErrServerBusy) {
			iq.Finish(introspect.StateShed)
			introspect.Emit(introspect.EvAdmissionShed, -1, "",
				fmt.Sprintf("session %d: %s statement shed (queue full)", ss.id, Priority(q.Priority)))
			ss.respond(reqID, &response{Status: statusBusy, Err: err.Error()})
		} else {
			iq.Finish(introspect.StateCanceled)
			ss.respond(reqID, &response{Status: statusErr, Err: err.Error()})
		}
		return
	}
	defer ss.srv.adm.Release()
	iq.SetQueueWait(time.Since(queued))
	iq.SetPhase(introspect.StateRunning)

	var res *core.Result
	var err error
	if q.Op == opExec {
		res, err = ss.exec.ExecCtx(ctx, q.SQL)
	} else {
		res, err = ss.exec.ExecPrepared(ctx, q.Name, q.Params)
	}
	if err != nil {
		if errors.Is(err, context.Canceled) {
			iq.Finish(introspect.StateCanceled)
		} else {
			iq.Finish(introspect.StateError)
		}
		ss.srv.errs.Inc()
		ss.respond(reqID, &response{Status: statusErr, Err: err.Error()})
		return
	}
	iq.Finish(introspect.StateDone)
	if res.Array == nil {
		ss.respond(reqID, &response{Kind: kindMsg, Msg: res.Msg})
		return
	}
	if q.Stream {
		ss.cursorMu.Lock()
		ss.nextCursor++
		cid := ss.nextCursor
		ss.cursors[cid] = &cursor{schema: res.Array.Schema, chunks: res.Array.Chunks()}
		ss.cursorMu.Unlock()
		ss.respond(reqID, &response{
			Kind: kindResult, Msg: res.Msg,
			Schema: res.Array.Schema, Streamed: true, Cursor: cid,
			Done: res.Array.Count() == 0,
		})
		return
	}
	chunks, err := encodePage(ctx, res.Array.Schema, res.Array.Chunks())
	if err != nil {
		ss.srv.errs.Inc()
		ss.respond(reqID, &response{Status: statusErr, Err: err.Error()})
		return
	}
	ss.respond(reqID, &response{
		Kind: kindResult, Msg: res.Msg,
		Schema: res.Array.Schema, Chunks: chunks, Done: true,
	})
}

// fetch encodes the next page of a cursor — the only moment result bytes
// exist server-side.
func (ss *serverSession) fetch(reqID uint64, q *request) {
	ss.cursorMu.Lock()
	cur, ok := ss.cursors[q.Cursor]
	if !ok {
		ss.cursorMu.Unlock()
		ss.respond(reqID, &response{Status: statusErr, Err: fmt.Sprintf("session: unknown cursor %d", q.Cursor)})
		return
	}
	n := int(q.Fetch)
	if n <= 0 {
		n = ss.srv.opts.FetchChunks
	}
	lo := cur.next
	hi := lo + n
	if hi > len(cur.chunks) {
		hi = len(cur.chunks)
	}
	cur.next = hi
	page := cur.chunks[lo:hi]
	schema := cur.schema
	done := hi >= len(cur.chunks)
	if done {
		delete(ss.cursors, q.Cursor)
	}
	ss.cursorMu.Unlock()

	chunks, err := encodePage(context.TODO(), schema, page)
	if err != nil {
		ss.respond(reqID, &response{Status: statusErr, Err: err.Error()})
		return
	}
	ss.respond(reqID, &response{Kind: kindPage, Cursor: q.Cursor, Chunks: chunks, Done: done})
}

// respond writes one response frame, tracking the peak frame size: its
// body is recorded from the writer's sizing run, before a byte is written.
func (ss *serverSession) respond(reqID uint64, p *response) {
	_ = ss.w.Write(reqID, func(w *storage.FieldWriter) error {
		writeResponse(w, p)
		for n := w.Written(); ; {
			cur := ss.srv.maxResp.Load()
			if n <= cur || ss.srv.maxResp.CompareAndSwap(cur, n) {
				return nil
			}
		}
	})
}
