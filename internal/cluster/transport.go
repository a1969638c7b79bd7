package cluster

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"scidb/internal/bufcache"
	"scidb/internal/storage"
	"scidb/internal/wire"
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
// across all its connections.
type TransportStats = wire.Stats

// StatsSource is implemented by transports that keep wire counters.
type StatsSource interface {
	TransportStats() TransportStats
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
	return NewLocalWithOptions(n, WorkerOptions{})
}

// NewLocalWithOptions creates n in-process workers configured by opts, with
// two differences per node: node i keeps its buckets under Dir/node-i (in
// memory for an empty Dir), and all n share one buffer pool — opts.Cache,
// or one of CacheBytes when that is nil, the single-process deployment the
// pool is built for.
func NewLocalWithOptions(n int, opts WorkerOptions) *Local {
	if opts.Cache == nil && opts.CacheBytes > 0 {
		opts.Cache = bufcache.New(opts.CacheBytes)
	}
	dir := opts.Dir
	ws := make([]*Worker, n)
	for i := range ws {
		if dir != "" {
			opts.Dir = filepath.Join(dir, fmt.Sprintf("node-%d", i))
		}
		ws[i] = NewWorkerWithOptions(i, opts)
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
	// DialTimeout bounds connecting plus the hello exchange per
	// connection. Zero means no deadline.
	DialTimeout time.Duration
	// CallTimeout bounds one round trip. A timed-out call returns an
	// error but leaves the connection (and its other in-flight calls)
	// intact; the eventual response is discarded. Zero means no deadline.
	CallTimeout time.Duration
}

// TCP is the multiplexed binary transport: a pool of pipelined wire.Conn
// connections per node, so a fan-out of N concurrent calls to one node costs
// ~one round trip, not N.
type TCP struct {
	nodes [][]*wire.Conn
	rr    []atomic.Uint64
	stats wire.Counters
}

// DialTCP connects to each address with default options; node i is addrs[i].
func DialTCP(addrs []string) (*TCP, error) {
	return DialTCPOptions(addrs, DialOptions{})
}

// DialTCPOptions connects to each address; node i is addrs[i]. The hello
// is empty both ways.
func DialTCPOptions(addrs []string, opts DialOptions) (*TCP, error) {
	if opts.Conns <= 0 {
		opts.Conns = 2
	}
	t := &TCP{rr: make([]atomic.Uint64, len(addrs))}
	wo := wire.Options{DialTimeout: opts.DialTimeout, CallTimeout: opts.CallTimeout, Stats: &t.stats}
	accept := func([]byte) error { return nil }
	for _, addr := range addrs {
		var conns []*wire.Conn
		for len(conns) < opts.Conns {
			c, err := wire.Dial(addr, wire.ClusterMagic, nil, wo, accept)
			if err != nil {
				t.nodes = append(t.nodes, conns)
				_ = t.Close()
				return nil, fmt.Errorf("cluster: dial %s: %w", addr, err)
			}
			conns = append(conns, c)
		}
		t.nodes = append(t.nodes, conns)
	}
	return t, nil
}

// Call implements Transport: round-trip over the node's next connection,
// the request written straight into it, and decode. A broken connection, a
// timeout or an undecodable response is ErrNodeDown; a request that does not
// encode (the connection then carries on) and a worker's own error are not.
func (t *TCP) Call(node int, req *Message) (*Message, error) {
	if node < 0 || node >= len(t.nodes) {
		return nil, fmt.Errorf("cluster: no node %d", node)
	}
	conns := t.nodes[node]
	body, err := conns[t.rr[node].Add(1)%uint64(len(conns))].RoundTrip(func(w *storage.FieldWriter) error { return writeMessage(w, req) })
	if err != nil && !errors.Is(err, wire.ErrClosed) && !errors.Is(err, wire.ErrTimeout) {
		return nil, fmt.Errorf("cluster: encode for node %d: %w", node, err)
	}
	var resp *Message
	if err == nil {
		resp, err = decodeMessage(body)
	}
	if err != nil {
		return nil, fmt.Errorf("cluster: node %d: %w (%v)", node, ErrNodeDown, err)
	}
	if resp.Err != "" {
		return nil, fmt.Errorf("cluster: node %d: %s", node, resp.Err)
	}
	return resp, nil
}

// NumNodes implements Transport.
func (t *TCP) NumNodes() int { return len(t.nodes) }

// Close implements Transport.
func (t *TCP) Close() error {
	for _, conns := range t.nodes {
		for _, c := range conns {
			c.Close()
		}
	}
	return nil
}

// TransportStats implements StatsSource.
func (t *TCP) TransportStats() TransportStats { return t.stats.Snapshot() }
