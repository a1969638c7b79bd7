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

	"scidb/internal/compress"
	"scidb/internal/obs"
)

// ServeOptions tunes a worker server.
type ServeOptions struct {
	// Codec overrides the response-direction compression codec. Empty
	// mirrors whatever codec each client announced in its hello.
	Codec string
	// IOTimeout bounds the hello read and each response-frame write, so a
	// stalled peer cannot wedge a connection goroutine forever. Zero
	// means no deadlines.
	IOTimeout time.Duration
	// Session, when set, receives connections whose first four bytes are
	// SessionMagic: the client-facing session protocol served on the same
	// listener. The handler owns the connection until it returns (the
	// server closes the conn afterwards); it must manage its own read
	// deadlines. Nil rejects session connections.
	Session func(conn net.Conn, br *bufio.Reader)
}

// Server runs one worker behind a listener, speaking the multiplexed
// binary wire protocol. The first four bytes of every connection select
// its handler: the wire magic starts the framed protocol (requests on one
// connection are handled concurrently and responses return in completion
// order, keyed by request id), SessionMagic hands the connection to
// ServeOptions.Session, and anything else is closed.
type Server struct {
	w    *Worker
	opts ServeOptions

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool
	reqs   sync.WaitGroup

	wire serverWireStats
}

// serverWireStats counts the server side of the wire protocol, mirroring
// the client's TransportStats so a scidb-server's /metrics covers
// transport traffic without a coordinator in the process.
type serverWireStats struct {
	framesIn, framesOut atomic.Int64
	bytesIn, bytesOut   atomic.Int64
	wireConns           atomic.Int64
}

// NewServer wraps a worker. The codec override is validated here so a
// misconfigured server fails at startup, not per connection. The server's
// wire counters register into the worker's metrics registry.
func NewServer(w *Worker, opts ServeOptions) (*Server, error) {
	if _, err := codecByName(opts.Codec); err != nil {
		return nil, err
	}
	s := &Server{w: w, opts: opts, conns: map[net.Conn]struct{}{}}
	w.reg.RegisterFunc("scidb_transport", "Server-side wire protocol counters.", obs.KindGauge,
		func(emit func(obs.Sample)) {
			emit(obs.Sample{Name: "scidb_transport_frames_in_total", Value: float64(s.wire.framesIn.Load())})
			emit(obs.Sample{Name: "scidb_transport_frames_out_total", Value: float64(s.wire.framesOut.Load())})
			emit(obs.Sample{Name: "scidb_transport_bytes_in_total", Value: float64(s.wire.bytesIn.Load())})
			emit(obs.Sample{Name: "scidb_transport_bytes_out_total", Value: float64(s.wire.bytesOut.Load())})
			emit(obs.Sample{Name: "scidb_transport_wire_conns_total", Value: float64(s.wire.wireConns.Load())})
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
	case wireMagic:
		s.serveWire(conn, br)
	case SessionMagic:
		if s.opts.Session != nil {
			_ = conn.SetReadDeadline(time.Time{})
			s.opts.Session(conn, br)
		}
	}
}

// serveWire handles one framed-protocol connection: hello negotiation,
// then a read loop that hands each frame to its own goroutine. The worker
// serializes what it must under its own lock; everything else — decode,
// execution of read-mostly ops, encode, compression — overlaps across the
// pipelined requests.
func (s *Server) serveWire(conn net.Conn, br *bufio.Reader) {
	if _, err := br.Discard(4); err != nil {
		return
	}
	clientCodecName, err := readHello(br)
	if err != nil {
		return
	}
	clientCodec, cerr := codecByName(clientCodecName)
	respName := s.opts.Codec
	if respName == "" {
		respName = clientCodecName
	}
	respCodec, rerr := codecByName(respName)
	if cerr != nil || rerr != nil {
		err := cerr
		if err == nil {
			err = rerr
		}
		_ = writeHelloReply(conn, "", err)
		return
	}
	if err := writeHelloReply(conn, respName, nil); err != nil {
		return
	}
	if s.opts.IOTimeout > 0 {
		_ = conn.SetReadDeadline(time.Time{})
	}
	s.wire.wireConns.Add(1)
	wr := &connWriter{conn: conn, bw: bufio.NewWriterSize(conn, 64<<10), timeout: s.opts.IOTimeout, stats: &s.wire}
	for {
		id, flags, body, err := ReadFrame(br)
		if err != nil {
			return
		}
		s.wire.framesIn.Add(1)
		s.wire.bytesIn.Add(int64(FrameHeaderLen + len(body)))
		raw, err := decodeFrameBody(body, flags, clientCodec)
		if err != nil {
			return
		}
		if !s.beginReq() {
			return
		}
		go func(id uint64, raw []byte) {
			defer s.reqs.Done()
			s.handleFrame(wr, respCodec, id, raw)
		}(id, raw)
	}
}

// handleFrame decodes one request, runs it, and frames the response.
func (s *Server) handleFrame(wr *connWriter, respCodec compress.Codec, id uint64, raw []byte) {
	var resp *Message
	req, err := decodeMessage(raw)
	if err != nil {
		resp = &Message{Err: fmt.Sprintf("cluster: corrupt request: %v", err)}
	} else {
		resp = s.w.Handle(req)
	}
	enc, err := encodeMessage(resp)
	if err != nil {
		enc, err = encodeMessage(&Message{Op: resp.Op, Err: fmt.Sprintf("cluster: encode response: %v", err)})
		if err != nil {
			return
		}
	}
	body, flags := encodeFrameBody(enc, respCodec)
	_ = wr.write(id, flags, body)
}

// connWriter shares one buffered writer between the concurrent response
// goroutines, coalescing flushes exactly like the client side.
type connWriter struct {
	conn    net.Conn
	bw      *bufio.Writer
	timeout time.Duration
	writers atomic.Int32
	mu      sync.Mutex
	stats   *serverWireStats // nil in tests that build a bare writer
}

func (w *connWriter) write(id uint64, flags uint8, body []byte) error {
	w.writers.Add(1)
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.timeout > 0 {
		_ = w.conn.SetWriteDeadline(time.Now().Add(w.timeout))
	}
	err := WriteFrame(w.bw, id, flags, body)
	if err == nil && w.stats != nil {
		w.stats.framesOut.Add(1)
		w.stats.bytesOut.Add(int64(FrameHeaderLen + len(body)))
	}
	if w.writers.Add(-1) == 0 && err == nil {
		err = w.bw.Flush()
	}
	if err != nil {
		// A half-written frame would desynchronize the stream; kill the
		// connection so the client fails fast instead of misparsing.
		_ = w.conn.Close()
	}
	return err
}

// Serve runs a worker on a listener with default options until the
// listener closes; closing the listener returns nil. Kept as the
// one-call path used by tests and simple deployments — scidb-server uses
// NewServer directly for graceful shutdown.
func Serve(ln net.Listener, w *Worker) error {
	srv, err := NewServer(w, ServeOptions{})
	if err != nil {
		return err
	}
	return srv.Serve(ln)
}
