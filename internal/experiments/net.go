package experiments

import (
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"time"

	"scidb/internal/array"
	"scidb/internal/cluster"
	"scidb/internal/partition"
)

var (
	// netWireCompress is the codec the NET experiment's compressed row
	// dials with (scidb-bench forwards -wire-compress here).
	netWireCompress = "gzip"
	// netCallTimeout bounds each round trip in the NET experiment; zero
	// disables per-call deadlines.
	netCallTimeout time.Duration
	// netAddrs, when set, points the NET experiment at external
	// scidb-server processes instead of in-process loopback listeners.
	netAddrs []string
)

// SetWireCompress overrides the wire codec used by the NET experiment's
// compressed transport row ("" or "none" falls back to gzip so the row
// still demonstrates compression).
func SetWireCompress(name string) {
	if name == "" || name == "none" {
		name = "gzip"
	}
	netWireCompress = name
}

// SetCallTimeout overrides the per-call deadline the NET experiment dials
// its pipelined transports with.
func SetCallTimeout(d time.Duration) { netCallTimeout = d }

// SetNetAddrs points the NET experiment at already-running scidb-server
// addresses (real sockets across machines) instead of in-process loopback
// listeners. The servers' worker state is overwritten by the run, and the
// emulated-link block is skipped (the real link provides the latency).
func SetNetAddrs(addrs []string) { netAddrs = append([]string(nil), addrs...) }

// delayListener emulates link latency the way netem does: every read on an
// accepted connection is held for the configured delay, so each request
// burst pays one link traversal. Pipelined frames arriving in one batch
// share a delay; lockstep protocols pay it per round trip.
type delayListener struct {
	net.Listener
	d time.Duration
}

func (l delayListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return delayConn{Conn: c, d: l.d}, nil
}

type delayConn struct {
	net.Conn
	d time.Duration
}

func (c delayConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		time.Sleep(c.d)
	}
	return n, err
}

// linkListener emulates one shared finite-bandwidth link per node the way a
// single NIC behaves: every read that delivers n bytes holds the node-wide
// link for n×perByte, so concurrent requests from different connections
// serialize at the node in proportion to the bytes they ship — batching
// buys nothing, exactly like wire serialization. This is the regime where a
// skewed workload saturates the hot node's link while the other links idle
// (the SKEW experiment's bottleneck model); delayListener above keeps the
// per-connection latency model the NET experiment's pipelining comparison
// is written against.
type linkListener struct {
	net.Listener
	perByte time.Duration
	mu      *sync.Mutex
}

func (l linkListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return linkConn{Conn: c, perByte: l.perByte, mu: l.mu}, nil
}

type linkConn struct {
	net.Conn
	perByte time.Duration
	mu      *sync.Mutex
}

func (c linkConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.mu.Lock()
		time.Sleep(time.Duration(n) * c.perByte)
		c.mu.Unlock()
	}
	return n, err
}

// netServers starts one wire-protocol server per node on a loopback
// listener, with an optional emulated link delay in front of each.
func netServers(nodes int, delay time.Duration) (addrs []string, shutdown func(), err error) {
	wrap := func(ln net.Listener) net.Listener { return ln }
	if delay > 0 {
		wrap = func(ln net.Listener) net.Listener { return delayListener{Listener: ln, d: delay} }
	}
	addrs, stops, err := netServersWithOptions(nodes, wrap, cluster.WorkerOptions{})
	if err != nil {
		return nil, nil, err
	}
	return addrs, func() {
		for _, stop := range stops {
			stop()
		}
	}, nil
}

// netServersWithOptions is netServers generalized: configurable worker
// stores (stride-8 buckets behind a pool for the SKEW experiment), a
// caller-chosen listener wrapper (per-connection delay vs shared-link
// serialization), and per-node shutdowns so an experiment can kill one node
// mid-workload and keep the rest serving. wrap is called once per node's
// listener.
func netServersWithOptions(nodes int, wrap func(net.Listener) net.Listener, wo cluster.WorkerOptions) (addrs []string, stops []func(), err error) {
	shutdownAll := func() {
		for _, stop := range stops {
			stop()
		}
	}
	for i := 0; i < nodes; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			shutdownAll()
			return nil, nil, err
		}
		srv, err := cluster.NewServer(cluster.NewWorkerWithOptions(i, wo), cluster.ServeOptions{})
		if err != nil {
			shutdownAll()
			return nil, nil, err
		}
		addrs = append(addrs, ln.Addr().String())
		go func(use net.Listener) { _ = srv.Serve(use) }(wrap(ln))
		stops = append(stops, srv.Shutdown)
	}
	return addrs, stops, nil
}

// netWorkload loads the grid through tr and then runs clients × opsPer
// mixed queries (count / box scan / grouped aggregate) concurrently,
// returning the measured wall time of the concurrent phase.
func netWorkload(tr cluster.Transport, side int64, clients, opsPer int) (time.Duration, error) {
	co := cluster.NewCoordinator(tr, 0)
	scheme := partition.Block{Nodes: tr.NumNodes(), SplitDim: 0, High: side}
	s := &array.Schema{
		Name:  "netbench",
		Dims:  []array.Dimension{{Name: "x", High: side}, {Name: "y", High: side}},
		Attrs: []array.Attribute{{Name: "v", Type: array.TFloat64}},
	}
	if err := co.Create("netbench", s, scheme); err != nil {
		return 0, err
	}
	for i := int64(1); i <= side; i++ {
		for j := int64(1); j <= side; j++ {
			if err := co.Put("netbench", array.Coord{i, j}, array.Cell{array.Float64(float64((i*31 + j) % 97))}); err != nil {
				return 0, err
			}
		}
	}
	if err := co.Flush("netbench"); err != nil {
		return 0, err
	}
	// Warm up one round trip per node before the clock starts.
	if _, err := co.Count("netbench"); err != nil {
		return 0, err
	}
	all := array.NewBox(array.Coord{1, 1}, array.Coord{side, side})
	box := array.NewBox(array.Coord{1, 1}, array.Coord{8, 8})
	errs := make(chan error, clients)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; k < opsPer; k++ {
				var err error
				switch (c + k) % 3 {
				case 0:
					_, err = co.Count("netbench")
				case 1:
					_, err = co.Scan("netbench", box)
				default:
					_, err = co.Aggregate("netbench", all, "sum", "v", []string{"x"})
				}
				if err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	close(errs)
	for err := range errs {
		if err != nil {
			return 0, err
		}
	}
	return wall, nil
}

// netRow is one transport configuration under test.
type netRow struct {
	name string
	dial func(addrs []string) (cluster.Transport, func() cluster.TransportStats, error)
}

// lockstepTCP is the NET experiment's baseline: the binary transport dialled
// with one connection per node and a per-node mutex held across each round
// trip, so concurrent calls to one node run one at a time — the discipline
// of the gob transport the wire protocol replaced.
type lockstepTCP struct {
	*cluster.TCP
	mu []sync.Mutex
}

func (t *lockstepTCP) Call(node int, req *cluster.Message) (*cluster.Message, error) {
	if node >= 0 && node < len(t.mu) {
		t.mu[node].Lock()
		defer t.mu[node].Unlock()
	}
	return t.TCP.Call(node, req)
}

func netRows() []netRow {
	return []netRow{
		{"binary lockstep", func(addrs []string) (cluster.Transport, func() cluster.TransportStats, error) {
			tr, err := cluster.DialTCPOptions(addrs, cluster.DialOptions{Conns: 1, CallTimeout: netCallTimeout})
			if err != nil {
				return nil, nil, err
			}
			return &lockstepTCP{TCP: tr, mu: make([]sync.Mutex, len(addrs))}, tr.TransportStats, nil
		}},
		{"binary pipelined", func(addrs []string) (cluster.Transport, func() cluster.TransportStats, error) {
			tr, err := cluster.DialTCPOptions(addrs, cluster.DialOptions{CallTimeout: netCallTimeout})
			if err != nil {
				return nil, nil, err
			}
			return tr, tr.TransportStats, nil
		}},
		{"binary + " + netWireCompress, func(addrs []string) (cluster.Transport, func() cluster.TransportStats, error) {
			tr, err := cluster.DialTCPOptions(addrs, cluster.DialOptions{
				Codec: netWireCompress, CallTimeout: netCallTimeout,
			})
			if err != nil {
				return nil, nil, err
			}
			return tr, tr.TransportStats, nil
		}},
	}
}

// netBlock runs every transport row against the given servers and prints
// one table; the lockstep row is the 1.00x baseline.
func netBlock(w io.Writer, addrs []string, side int64, clients, opsPer int) error {
	fmt.Fprintf(w, "%-18s %10s %9s %8s %11s %11s %8s %8s\n",
		"transport", "wall", "ops/s", "vs lock", "bytes-out", "bytes-in", "frames", "hwm")
	var baseWall time.Duration
	for _, r := range netRows() {
		tr, stats, err := r.dial(addrs)
		if err != nil {
			return err
		}
		runtime.GC()
		wall, err := netWorkload(tr, side, clients, opsPer)
		st := stats()
		_ = tr.Close()
		if err != nil {
			return err
		}
		if baseWall == 0 {
			baseWall = wall
		}
		ops := float64(clients*opsPer) / wall.Seconds()
		fmt.Fprintf(w, "%-18s %10s %9.0f %7.2fx %11d %11d %8d %8d\n",
			r.name, wall.Round(time.Microsecond), ops, ratio(baseWall, wall),
			st.BytesOut, st.BytesIn, st.FramesOut, st.InFlightHWM)
	}
	return nil
}

// NET measures the cluster wire protocol: the same concurrent fan-out
// workload over (a) a lockstep baseline — the binary transport behind a
// per-node mutex held across each round trip, so concurrent calls to one
// node run one at a time, (b) the multiplexed binary transport as shipped,
// which pipelines every in-flight call over shared connections, and (c) the
// binary transport with wire compression. All rows run against the very
// same worker processes. (The baseline used to be the gob transport; its
// last measured numbers are recorded in EXPERIMENTS.md.)
//
// Two regimes are reported. On raw loopback inside one process there is no
// latency to hide, so the rows mostly compare per-call CPU overhead. The
// emulated-link block inserts a netem-style per-read delay in front of each
// server — the regime a shared-nothing grid actually runs in — and there
// lockstep round trips stack up per node while pipelined frames share link
// traversals; that factor is the pipelining payoff. With -net-addrs the
// workload instead runs against real remote servers and the real link
// supplies the latency.
func init() {
	register(&Experiment{
		ID:    "NET",
		Title: "§2.7 wire protocol: pipelined vs lockstep fan-out",
		Run: func(w io.Writer, quick bool) error {
			header(w, "NET", "concurrent mixed ops per transport (count/scan/agg)")
			const nodes = 3
			side, clients, opsPer := int64(24), 16, 30
			linkDelay := time.Millisecond
			if quick {
				side, clients, opsPer = 24, 4, 9
			}
			if len(netAddrs) > 0 {
				fmt.Fprintf(w, "external servers %v: %d clients x %d ops, %dx%d grid\n\n",
					netAddrs, clients, opsPer, side, side)
				return netBlock(w, netAddrs, side, clients, opsPer)
			}
			fmt.Fprintf(w, "%d nodes, %d clients x %d ops, %dx%d grid\n\n",
				nodes, clients, opsPer, side, side)

			fmt.Fprintf(w, "-- loopback, no added latency (CPU-bound: protocol overhead only)\n")
			addrs, shutdown, err := netServers(nodes, 0)
			if err != nil {
				return err
			}
			if err := netBlock(w, addrs, side, clients, opsPer); err != nil {
				shutdown()
				return err
			}
			shutdown()

			fmt.Fprintf(w, "\n-- emulated %v link in front of each node (latency-bound: pipelining pays)\n", linkDelay)
			addrs, shutdown, err = netServers(nodes, linkDelay)
			if err != nil {
				return err
			}
			defer shutdown()
			return netBlock(w, addrs, side, clients, opsPer)
		},
	})
}
