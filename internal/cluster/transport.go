package cluster

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"scidb/internal/bufcache"
	"scidb/internal/compress"
)

// ErrNodeDown marks transport-level failures — a send or receive that broke,
// a call that timed out, a killed in-process node. It deliberately does NOT
// wrap worker-logic errors (a worker that answered with Message.Err is alive
// and in agreement about the request being bad). The coordinator treats
// errors.Is(err, ErrNodeDown) as "this replica is gone": it marks the node
// down, re-plans the query against surviving replicas, and retries.
var ErrNodeDown = errors.New("cluster: node down")

// Transport delivers a request to a numbered node and returns its response.
// The coordinator is transport-agnostic; protocol behaviour is identical
// in-process and over TCP.
type Transport interface {
	Call(node int, req *Message) (*Message, error)
	NumNodes() int
	Close() error
}

// TransportStats are the wire counters a networked transport accumulates
// across all its connections. All fields are cumulative except InFlight
// (current gauge) and InFlightHWM (high-water mark of concurrent calls —
// the direct measure of how much pipelining actually happened).
type TransportStats struct {
	Calls          int64
	FramesOut      int64
	FramesIn       int64
	BytesOut       int64
	BytesIn        int64
	CompressedOut  int64 // frames whose body the wire codec shrank
	CompressedIn   int64
	InFlight       int64
	InFlightHWM    int64
	RoundTripNanos int64 // summed per-call round-trip time
	Timeouts       int64
}

// RoundTrip returns the cumulative round-trip time as a duration.
func (s TransportStats) RoundTrip() time.Duration { return time.Duration(s.RoundTripNanos) }

// StatsSource is implemented by transports that keep wire counters.
type StatsSource interface {
	TransportStats() TransportStats
}

// transportCounters is the atomic backing of TransportStats.
type transportCounters struct {
	calls          atomic.Int64
	framesOut      atomic.Int64
	framesIn       atomic.Int64
	bytesOut       atomic.Int64
	bytesIn        atomic.Int64
	compressedOut  atomic.Int64
	compressedIn   atomic.Int64
	inFlight       atomic.Int64
	inFlightHWM    atomic.Int64
	roundTripNanos atomic.Int64
	timeouts       atomic.Int64
}

func (c *transportCounters) enter() {
	cur := c.inFlight.Add(1)
	for {
		hwm := c.inFlightHWM.Load()
		if cur <= hwm || c.inFlightHWM.CompareAndSwap(hwm, cur) {
			return
		}
	}
}

func (c *transportCounters) exit(start time.Time) {
	c.inFlight.Add(-1)
	c.roundTripNanos.Add(int64(time.Since(start)))
}

func (c *transportCounters) snapshot() TransportStats {
	return TransportStats{
		Calls:          c.calls.Load(),
		FramesOut:      c.framesOut.Load(),
		FramesIn:       c.framesIn.Load(),
		BytesOut:       c.bytesOut.Load(),
		BytesIn:        c.bytesIn.Load(),
		CompressedOut:  c.compressedOut.Load(),
		CompressedIn:   c.compressedIn.Load(),
		InFlight:       c.inFlight.Load(),
		InFlightHWM:    c.inFlightHWM.Load(),
		RoundTripNanos: c.roundTripNanos.Load(),
		Timeouts:       c.timeouts.Load(),
	}
}

// Local is the in-process transport: direct calls into worker objects.
type Local struct {
	Workers []*Worker

	// killed simulates node failure for recovery tests: calls to a killed
	// node fail with ErrNodeDown instead of reaching the worker.
	killMu sync.Mutex
	killed map[int]bool
}

// NewLocal creates n in-process workers and a transport over them.
func NewLocal(n int) *Local {
	return NewLocalWithOptions(n, LocalOptions{})
}

// LocalOptions configures the stores of an in-process grid's partitions.
type LocalOptions struct {
	// Dir is the grid's data root; node i uses Dir/node-i. Empty keeps
	// buckets in memory.
	Dir string
	// Stride is the per-partition bucket stride.
	Stride []int64
	// CacheBytes sizes ONE decoded-bucket pool shared by all n workers —
	// the single-process deployment the pool is built for. Zero leaves
	// reads uncached.
	CacheBytes int64
	// Readahead is the per-store scan prefetch depth. Zero disables it.
	Readahead int
}

// NewLocalWithOptions creates n in-process workers sharing one buffer pool.
func NewLocalWithOptions(n int, opts LocalOptions) *Local {
	var pool *bufcache.Pool
	if opts.CacheBytes > 0 {
		pool = bufcache.New(opts.CacheBytes)
	}
	ws := make([]*Worker, n)
	for i := range ws {
		wo := WorkerOptions{Stride: opts.Stride, Cache: pool, Readahead: opts.Readahead}
		if opts.Dir != "" {
			wo.Dir = filepath.Join(opts.Dir, fmt.Sprintf("node-%d", i))
		}
		ws[i] = NewWorkerWithOptions(i, wo)
	}
	return &Local{Workers: ws}
}

// Kill makes every subsequent call to node fail with ErrNodeDown — the
// in-process stand-in for pulling a machine's plug. Revive undoes it.
func (l *Local) Kill(node int) {
	l.killMu.Lock()
	defer l.killMu.Unlock()
	if l.killed == nil {
		l.killed = map[int]bool{}
	}
	l.killed[node] = true
}

// Revive brings a killed node back.
func (l *Local) Revive(node int) {
	l.killMu.Lock()
	defer l.killMu.Unlock()
	delete(l.killed, node)
}

// Call implements Transport.
func (l *Local) Call(node int, req *Message) (*Message, error) {
	if node < 0 || node >= len(l.Workers) {
		return nil, fmt.Errorf("cluster: no node %d", node)
	}
	l.killMu.Lock()
	dead := l.killed[node]
	l.killMu.Unlock()
	if dead {
		return nil, fmt.Errorf("cluster: node %d: %w", node, ErrNodeDown)
	}
	resp := l.Workers[node].Handle(req)
	if resp.Err != "" {
		return nil, fmt.Errorf("cluster: node %d: %s", node, resp.Err)
	}
	return resp, nil
}

// NumNodes implements Transport.
func (l *Local) NumNodes() int { return len(l.Workers) }

// Close implements Transport, shutting down every worker's stores.
func (l *Local) Close() error {
	var first error
	for _, w := range l.Workers {
		if err := w.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// DialOptions tunes the pipelined TCP transport.
type DialOptions struct {
	// Conns is the per-node connection pool size. Calls round-robin over
	// the pool; every connection pipelines independently. Default 2.
	Conns int
	// Codec names an internal/compress codec used to compress outgoing
	// frame bodies above a size threshold ("" or "none" disables). The
	// server mirrors it for responses unless configured otherwise.
	Codec string
	// DialTimeout bounds connecting plus the hello exchange per
	// connection. Zero means no deadline.
	DialTimeout time.Duration
	// CallTimeout bounds one round trip. A timed-out call returns an
	// error but leaves the connection (and its other in-flight calls)
	// intact; the eventual response is discarded. Zero means no deadline.
	CallTimeout time.Duration
}

// TCP is the multiplexed binary transport: every connection carries many
// concurrent requests as length-prefixed frames tagged with a request id,
// written through a buffered writer with coalesced flushes, while a reader
// goroutine per connection dispatches responses to the waiting calls. No
// lock is held across a round trip, so a fan-out of N concurrent calls to
// one node costs ~one round trip, not N.
type TCP struct {
	opts  DialOptions
	nodes [][]*wireConn
	rr    []atomic.Uint64
	stats transportCounters
}

// DialTCP connects to each address with default options; node i is addrs[i].
func DialTCP(addrs []string) (*TCP, error) {
	return DialTCPOptions(addrs, DialOptions{})
}

// DialTCPOptions connects to each address; node i is addrs[i].
func DialTCPOptions(addrs []string, opts DialOptions) (*TCP, error) {
	if opts.Conns <= 0 {
		opts.Conns = 2
	}
	if opts.Codec == "" {
		opts.Codec = "none"
	}
	if _, err := codecByName(opts.Codec); err != nil {
		return nil, err
	}
	t := &TCP{opts: opts, rr: make([]atomic.Uint64, len(addrs))}
	for _, addr := range addrs {
		conns := make([]*wireConn, opts.Conns)
		for i := range conns {
			c, err := dialWire(addr, opts, &t.stats)
			if err != nil {
				t.nodes = append(t.nodes, conns[:i])
				_ = t.Close()
				return nil, fmt.Errorf("cluster: dial %s: %w", addr, err)
			}
			conns[i] = c
		}
		t.nodes = append(t.nodes, conns)
	}
	return t, nil
}

// callResult is what the reader goroutine hands back to a waiting call.
type callResult struct {
	msg *Message
	err error
}

// wireConn is one pipelined connection: a buffered writer shared by all
// calls (flushes coalesce across concurrently queued writers) and a reader
// goroutine matching response frames to pending request ids.
type wireConn struct {
	conn      net.Conn
	bw        *bufio.Writer
	reqCodec  compress.Codec // nil = uncompressed client→server frames
	respCodec compress.Codec // negotiated server→client codec
	counters  *transportCounters

	// writers counts calls queued at the write lock; the last writer out
	// flushes, so back-to-back requests share one syscall.
	writers atomic.Int32
	wmu     sync.Mutex

	mu      sync.Mutex
	nextID  uint64
	pending map[uint64]chan callResult
	broken  error
}

// dialWire opens and handshakes one connection.
func dialWire(addr string, opts DialOptions, counters *transportCounters) (*wireConn, error) {
	var conn net.Conn
	var err error
	if opts.DialTimeout > 0 {
		conn, err = net.DialTimeout("tcp", addr, opts.DialTimeout)
	} else {
		conn, err = net.Dial("tcp", addr)
	}
	if err != nil {
		return nil, err
	}
	if opts.DialTimeout > 0 {
		_ = conn.SetDeadline(time.Now().Add(opts.DialTimeout))
	}
	if err := writeHello(conn, opts.Codec); err != nil {
		_ = conn.Close()
		return nil, err
	}
	br := bufio.NewReaderSize(conn, 64<<10)
	respName, err := readHelloReply(br)
	if err != nil {
		_ = conn.Close()
		return nil, err
	}
	_ = conn.SetDeadline(time.Time{})
	reqCodec, err := codecByName(opts.Codec)
	if err != nil {
		_ = conn.Close()
		return nil, err
	}
	respCodec, err := codecByName(respName)
	if err != nil {
		_ = conn.Close()
		return nil, fmt.Errorf("cluster: server negotiated unknown codec %q", respName)
	}
	c := &wireConn{
		conn:      conn,
		bw:        bufio.NewWriterSize(conn, 64<<10),
		reqCodec:  reqCodec,
		respCodec: respCodec,
		counters:  counters,
		pending:   map[uint64]chan callResult{},
	}
	go c.readLoop(br)
	return c, nil
}

// send frames and writes one request. Flush coalescing: the writers
// counter is incremented before taking the lock, so a writer that sees
// other writers queued behind it skips its flush — the last one out
// flushes everything in one syscall.
func (c *wireConn) send(id uint64, flags uint8, body []byte) error {
	c.writers.Add(1)
	c.wmu.Lock()
	err := WriteFrame(c.bw, id, flags, body)
	last := c.writers.Add(-1) == 0
	if err == nil && last {
		err = c.bw.Flush()
	}
	c.wmu.Unlock()
	if err == nil {
		c.counters.framesOut.Add(1)
		c.counters.bytesOut.Add(int64(FrameHeaderLen + len(body)))
		if flags&flagCompressed != 0 {
			c.counters.compressedOut.Add(1)
		}
	}
	return err
}

// readLoop is the connection's dispatcher: it reads response frames and
// routes each to the call waiting on its request id. Responses to calls
// that already timed out have no waiter and are dropped.
func (c *wireConn) readLoop(br *bufio.Reader) {
	for {
		id, flags, body, err := ReadFrame(br)
		if err != nil {
			c.fail(err)
			return
		}
		c.counters.framesIn.Add(1)
		c.counters.bytesIn.Add(int64(FrameHeaderLen + len(body)))
		if flags&flagCompressed != 0 {
			c.counters.compressedIn.Add(1)
		}
		raw, err := decodeFrameBody(body, flags, c.respCodec)
		if err != nil {
			c.fail(err)
			return
		}
		msg, err := decodeMessage(raw)
		if err != nil {
			c.fail(err)
			return
		}
		c.mu.Lock()
		ch, ok := c.pending[id]
		delete(c.pending, id)
		c.mu.Unlock()
		if ok {
			ch <- callResult{msg: msg}
		}
	}
}

// register allocates a request id and its result channel.
func (c *wireConn) register() (uint64, chan callResult, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.broken != nil {
		return 0, nil, c.broken
	}
	c.nextID++
	ch := make(chan callResult, 1)
	c.pending[c.nextID] = ch
	return c.nextID, ch, nil
}

// forget drops a pending id (after a timeout); the late response, if it
// ever arrives, is discarded by the read loop.
func (c *wireConn) forget(id uint64) {
	c.mu.Lock()
	delete(c.pending, id)
	c.mu.Unlock()
}

// fail marks the connection broken and wakes every pending call with err.
func (c *wireConn) fail(err error) {
	c.mu.Lock()
	if c.broken == nil {
		c.broken = err
	}
	pend := c.pending
	c.pending = map[uint64]chan callResult{}
	c.mu.Unlock()
	for _, ch := range pend {
		ch <- callResult{err: err}
	}
	_ = c.conn.Close()
}

// Call implements Transport: encode, register, frame out, wait for the
// reader goroutine to deliver the matching response.
func (t *TCP) Call(node int, req *Message) (*Message, error) {
	if node < 0 || node >= len(t.nodes) {
		return nil, fmt.Errorf("cluster: no node %d", node)
	}
	conns := t.nodes[node]
	c := conns[t.rr[node].Add(1)%uint64(len(conns))]
	enc, err := encodeMessage(req)
	if err != nil {
		return nil, fmt.Errorf("cluster: encode for node %d: %w", node, err)
	}
	body, flags := encodeFrameBody(enc, c.reqCodec)
	id, ch, err := c.register()
	if err != nil {
		return nil, fmt.Errorf("cluster: node %d: %w (%v)", node, ErrNodeDown, err)
	}
	t.stats.calls.Add(1)
	t.stats.enter()
	start := time.Now()
	defer t.stats.exit(start)
	if err := c.send(id, flags, body); err != nil {
		c.fail(err)
		<-ch // fail delivered to every pending call, including ours
		return nil, fmt.Errorf("cluster: send to node %d: %w (%v)", node, ErrNodeDown, err)
	}
	var timeout <-chan time.Time
	if t.opts.CallTimeout > 0 {
		timer := time.NewTimer(t.opts.CallTimeout)
		defer timer.Stop()
		timeout = timer.C
	}
	select {
	case res := <-ch:
		if res.err != nil {
			return nil, fmt.Errorf("cluster: recv from node %d: %w (%v)", node, ErrNodeDown, res.err)
		}
		if res.msg.Err != "" {
			return nil, fmt.Errorf("cluster: node %d: %s", node, res.msg.Err)
		}
		return res.msg, nil
	case <-timeout:
		c.forget(id)
		t.stats.timeouts.Add(1)
		return nil, fmt.Errorf("cluster: call to node %d timed out after %v: %w", node, t.opts.CallTimeout, ErrNodeDown)
	}
}

// NumNodes implements Transport.
func (t *TCP) NumNodes() int { return len(t.nodes) }

// Close implements Transport.
func (t *TCP) Close() error {
	var first error
	for _, conns := range t.nodes {
		for _, c := range conns {
			if c == nil {
				continue
			}
			if err := c.conn.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}

// TransportStats implements StatsSource.
func (t *TCP) TransportStats() TransportStats { return t.stats.snapshot() }
