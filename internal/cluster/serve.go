package cluster

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"scidb/internal/obs"
	"scidb/internal/storage"
	"scidb/internal/wire"
)

// ServeOptions tunes a worker server.
type ServeOptions struct {
	// IOTimeout bounds the hello read and each response-frame write, so a
	// stalled peer cannot wedge a connection goroutine forever. Zero
	// means no deadlines.
	IOTimeout time.Duration
	// Session, when set, receives connections whose first four bytes are
	// wire.SessionMagic: the client-facing session protocol served on the same
	// listener. The handler owns the connection until it returns (the
	// server closes the conn afterwards); it must manage its own read
	// deadlines. Nil rejects session connections.
	Session func(conn net.Conn, br *bufio.Reader)
}

// Server runs one worker behind a listener, speaking the multiplexed
// binary wire protocol. The first four bytes of every connection select
// its handler: the wire magic starts the framed protocol (requests on one
// connection are handled concurrently and responses return in completion
// order, keyed by request id), wire.SessionMagic hands the connection to
// ServeOptions.Session, and anything else is closed.
type Server struct {
	w    *Worker
	opts ServeOptions

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool
	reqs   sync.WaitGroup

	// stats and wireConns count the server side of the wire protocol, so a
	// scidb-server's /metrics covers transport traffic without a
	// coordinator in the process.
	stats     wire.Counters
	wireConns atomic.Int64
}

// NewServer wraps a worker; its wire counters register into the worker's
// metrics registry. The error is always nil: the result stays only for
// callers that destructure it (ROADMAP item 1).
func NewServer(w *Worker, opts ServeOptions) (*Server, error) {
	s := &Server{w: w, opts: opts, conns: map[net.Conn]struct{}{}}
	w.reg.RegisterFunc("scidb_transport", "Server-side wire protocol counters.", obs.KindGauge,
		func(emit func(obs.Sample)) {
			st := s.stats.Snapshot()
			emit(obs.Sample{Name: "scidb_transport_frames_in_total", Value: float64(st.FramesIn)})
			emit(obs.Sample{Name: "scidb_transport_frames_out_total", Value: float64(st.FramesOut)})
			emit(obs.Sample{Name: "scidb_transport_bytes_in_total", Value: float64(st.BytesIn)})
			emit(obs.Sample{Name: "scidb_transport_bytes_out_total", Value: float64(st.BytesOut)})
			emit(obs.Sample{Name: "scidb_transport_wire_conns_total", Value: float64(s.wireConns.Load())})
		})
	return s, nil
}

// Serve accepts connections until the listener closes. A closed listener
// (Shutdown, or ln.Close by the caller) is a clean nil return, not an
// error.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		if !s.track(conn) {
			_ = conn.Close()
			return nil
		}
		go s.serveConn(conn)
	}
}

// Shutdown closes the listener, waits for every in-flight request to
// finish (its response is written before the request counts as done), then
// closes the remaining connections. Safe to call more than once.
func (s *Server) Shutdown() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	ln := s.ln
	s.mu.Unlock()
	if ln != nil {
		_ = ln.Close()
	}
	s.reqs.Wait()
	s.mu.Lock()
	for c := range s.conns {
		_ = c.Close()
	}
	s.mu.Unlock()
}

func (s *Server) track(conn net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.conns[conn] = struct{}{}
	return true
}

func (s *Server) untrack(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
}

// beginReq admits one request into the in-flight set, refusing once
// shutdown has started (the WaitGroup may already be draining).
func (s *Server) beginReq() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.reqs.Add(1)
	return true
}

// serveConn reads the connection's magic and runs the matching loop; a
// connection that opens with neither magic is closed.
func (s *Server) serveConn(conn net.Conn) {
	defer s.untrack(conn)
	defer conn.Close()
	if s.opts.IOTimeout > 0 {
		_ = conn.SetReadDeadline(time.Now().Add(s.opts.IOTimeout))
	}
	br := bufio.NewReaderSize(conn, 64<<10)
	head, err := br.Peek(4)
	if err != nil {
		return
	}
	switch binary.LittleEndian.Uint32(head) {
	case wire.ClusterMagic:
		s.serveWire(conn, br)
	case wire.SessionMagic:
		if s.opts.Session != nil {
			_ = conn.SetReadDeadline(time.Time{})
			s.opts.Session(conn, br)
		}
	}
}

// serveWire handles one framed-protocol connection: the hello (empty both
// ways), then a read loop that hands each frame to its own goroutine. The
// worker serializes what it must under its own lock; everything else —
// decode, execution of read-mostly ops, encode — overlaps across the
// pipelined requests.
func (s *Server) serveWire(conn net.Conn, br *bufio.Reader) {
	if wire.Accept(conn, br, wire.ClusterMagic, func([]byte) ([]byte, error) { return nil, nil }) != nil {
		return
	}
	if s.opts.IOTimeout > 0 {
		_ = conn.SetReadDeadline(time.Time{})
	}
	s.wireConns.Add(1)
	wr := wire.NewWriter(conn, s.opts.IOTimeout, &s.stats)
	for {
		room := frameRooms.Get()
		id, raw, err := wire.ReadFrame(br, wire.MaxFrameBody, &s.stats, *room)
		if err != nil || !s.beginReq() {
			frameRooms.Put(room)
			return
		}
		*room = raw
		go func() {
			defer s.reqs.Done()
			defer frameRooms.Put(room)
			s.handleFrame(wr, id, raw)
		}()
	}
}

// frameRooms recycles request bodies: each is read into one and goes back
// once handleFrame has written its response (see decodeMessage).
var frameRooms storage.Rooms

// handleFrame decodes one request, runs it, and frames the response. What
// the request carries is a view of raw, valid until handleFrame returns.
func (s *Server) handleFrame(wr *wire.Writer, id uint64, raw []byte) {
	var resp *Message
	req, err := decodeMessage(raw)
	if err != nil {
		resp = &Message{Err: fmt.Sprintf("cluster: corrupt request: %v", err)}
	} else {
		resp = s.w.Handle(req)
	}
	err = wr.Write(id, func(w *storage.FieldWriter) error { return writeMessage(w, resp) })
	if err != nil && !errors.Is(err, wire.ErrClosed) {
		resp = &Message{Op: resp.Op, Err: fmt.Sprintf("cluster: encode response: %v", err)}
		_ = wr.Write(id, func(w *storage.FieldWriter) error { return writeMessage(w, resp) })
	}
}
