package experiments

import (
	"context"
	"fmt"
	"io"
	"net"
	"sort"
	"sync"
	"time"

	"scidb/internal/array"
	"scidb/internal/cluster"
	"scidb/internal/ops"
	"scidb/internal/partition"
)

// skewStats is one workload phase's latency/throughput summary.
type skewStats struct {
	wall     time.Duration
	p50, p99 time.Duration
	ops      int
}

func (s skewStats) throughput() float64 {
	if s.wall <= 0 {
		return 0
	}
	return float64(s.ops) / s.wall.Seconds()
}

// linkListener emulates one shared finite-bandwidth link per node the way a
// single NIC behaves: every read that delivers n bytes holds the node-wide
// link for n×perByte, so concurrent requests from different connections
// serialize at the node in proportion to the bytes they ship — batching
// buys nothing, exactly like wire serialization. This is the regime where a
// skewed workload saturates the hot node's link while the other links idle
// (the SKEW experiment's bottleneck model).
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

// netServersWithOptions starts one wire-protocol server per node on a
// loopback listener: configurable worker stores (buckets behind a
// pool for the SKEW experiment), a caller-chosen listener wrapper (the
// shared-link model above), and per-node shutdowns so an experiment can kill
// one node mid-workload and keep the rest serving. wrap is called once per
// node's listener.
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

// skewWorkload runs clients × opsPer steerable 80/20 reads: 80% of ops scan
// the hot band (one chunk on node 0), the rest rotate over the whole array.
// Per-op latencies feed the percentile summary. Cell values are checked on
// every hot probe, so a wrong replica or stale copy fails the run, not just
// the report.
func skewWorkload(co *cluster.Coordinator, high int64, clients, opsPer int) (skewStats, error) {
	hot := array.Box{Lo: array.Coord{1}, Hi: array.Coord{8}}
	nChunks := int(high / 8)
	durs := make([][]time.Duration, clients)
	errs := make(chan error, clients)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			mine := make([]time.Duration, 0, opsPer)
			for k := 0; k < opsPer; k++ {
				box := hot
				if k%5 == 4 { // the 20% uniform tail
					ci := int64(((c+1)*(k+1)*7)%nChunks) * 8
					box = array.Box{Lo: array.Coord{ci + 1}, Hi: array.Coord{ci + 8}}
				}
				t0 := time.Now()
				got, _, _, _, err := co.Read(context.Background(), "skew", ops.Fragment{Box: box})
				mine = append(mine, time.Since(t0))
				if err != nil {
					errs <- err
					return
				}
				if got.Count() != 8 {
					errs <- fmt.Errorf("scan %v returned %d cells, want 8", box, got.Count())
					return
				}
				if box.Lo[0] == 1 { // hot probes also verify content
					for x := int64(1); x <= 8; x++ {
						if cell, ok := got.At(array.Coord{x}); !ok || cell[0].Float != float64(x*10) {
							errs <- fmt.Errorf("hot cell %d = %v, %v", x, cell, ok)
							return
						}
					}
				}
			}
			durs[c] = mine
			errs <- nil
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	close(errs)
	for err := range errs {
		if err != nil {
			return skewStats{}, err
		}
	}
	var all []time.Duration
	for _, d := range durs {
		all = append(all, d...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	pct := func(p float64) time.Duration {
		i := int(p * float64(len(all)-1))
		return all[i]
	}
	return skewStats{wall: wall, p50: pct(0.50), p99: pct(0.99), ops: len(all)}, nil
}

// SKEW measures live skew-aware rebalancing (§2.5 made live). A steerable
// 80/20 read workload hammers one chunk of a block-partitioned array behind
// emulated 1 ms links: statically partitioned, every hot read queues on the
// owner's link while the other nodes idle. The rebalancer then reads the
// workers' decayed heat trackers, migrates the hot chunk off its owner and
// k-replicates it across the grid — copying encoded bytes verbatim, fencing
// concurrent writes, never blocking in-flight queries — and the same
// workload runs again with hot reads rotating over every replica's link.
// The run verifies results are bit-identical across the static, migrated,
// and replica-served paths, then kills one server mid-workload and answers
// the hot band from the surviving replicas.
func init() {
	register(&Experiment{
		ID:    "SKEW",
		Title: "§2.5 online rebalancing: heat-driven migration + replication under 80/20 skew",
		Run: func(w io.Writer, quick bool) error {
			header(w, "SKEW", "80/20 hot-chunk workload, static vs rebalanced, 1ms links")
			const nodes = 3
			high, clients, opsPer := int64(96), 8, 100
			if quick {
				high, clients, opsPer = 48, 4, 25
			}
			// Each node sits behind its own finite-bandwidth link (~10 µs
			// per byte, so a scan request costs on the order of 1 ms of
			// link time): a skewed workload queues on the hot node's link
			// while the others idle.
			link := func(ln net.Listener) net.Listener {
				return linkListener{Listener: ln, perByte: 10 * time.Microsecond, mu: &sync.Mutex{}}
			}
			addrs, stops, err := netServersWithOptions(nodes, link,
				cluster.WorkerOptions{CacheBytes: 1 << 20})
			if err != nil {
				return err
			}
			defer func() {
				for _, stop := range stops {
					stop()
				}
			}()
			tr, err := cluster.DialTCP(addrs)
			if err != nil {
				return err
			}
			defer tr.Close()
			co := cluster.NewCoordinator(tr, 0)
			schema := &array.Schema{
				Name:  "skew",
				Dims:  []array.Dimension{{Name: "x", High: high, ChunkLen: 8}},
				Attrs: []array.Attribute{{Name: "v", Type: array.TFloat64}},
			}
			if err := co.Create("skew", schema, partition.Block{Nodes: nodes, SplitDim: 0, High: high}); err != nil {
				return err
			}
			// Integer-valued cells: sums stay exact no matter how replica
			// serving reorders the partial-aggregate merge.
			for x := int64(1); x <= high; x++ {
				if err := co.Put("skew", array.Coord{x}, array.Cell{array.Float64(float64(x * 10))}); err != nil {
					return err
				}
			}
			if err := co.Flush("skew"); err != nil {
				return err
			}
			ctx := context.Background()
			sumV := ops.Fragment{Box: array.Box{Lo: array.Coord{1}, Hi: array.Coord{high}},
				Fold: &ops.FoldSpec{Aggs: []ops.AggSpec{{Agg: "sum", Attr: "v"}}}}
			refSum, _, _, _, err := co.Read(ctx, "skew", sumV)
			if err != nil {
				return err
			}
			refCell, _ := refSum.At(array.Coord{1})

			fmt.Fprintf(w, "%d nodes, %d clients x %d ops, %d cells, hot chunk = x[1,8]\n\n", nodes, clients, opsPer, high)
			fmt.Fprintf(w, "%-22s %10s %10s %10s %9s\n", "phase", "wall", "p50", "p99", "ops/s")
			row := func(name string, s skewStats) {
				fmt.Fprintf(w, "%-22s %10s %10s %10s %9.0f\n",
					name, s.wall.Round(time.Microsecond), s.p50.Round(time.Microsecond),
					s.p99.Round(time.Microsecond), s.throughput())
			}

			static, err := skewWorkload(co, high, clients, opsPer)
			if err != nil {
				return err
			}
			row("static partitioning", static)

			// The static phase already heated the workers' trackers; close
			// the loop: migrate the hot chunk off its overloaded owner, then
			// replicate it across the grid so reads rotate over every link.
			if _, err := co.EnableRouting("skew"); err != nil {
				return err
			}
			moved, _, err := co.RebalanceOnce("skew", cluster.RebalanceOptions{TopK: 1})
			if err != nil {
				return err
			}
			if moved < 1 {
				return fmt.Errorf("skew: rebalancer migrated %d chunks, want >= 1", moved)
			}
			_, replicated, err := co.RebalanceOnce("skew", cluster.RebalanceOptions{TopK: 1, Replicas: nodes})
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%-22s %d chunk migrated, %d replicas installed\n", "-- rebalance", moved, replicated)

			rebal, err := skewWorkload(co, high, clients, opsPer)
			if err != nil {
				return err
			}
			row("rebalanced (replicas)", rebal)
			fmt.Fprintf(w, "\np99 %0.2fx, throughput %0.2fx vs static\n",
				ratio(static.p99, rebal.p99), rebal.throughput()/static.throughput())

			// Bit-identity across placements: the full scan content was
			// verified cell-by-cell inside both workloads; the aggregate
			// must not drift either.
			sum, _, _, _, err := co.Read(ctx, "skew", sumV)
			if err != nil {
				return err
			}
			cell, _ := sum.At(array.Coord{1})
			if cell[0].AsFloat() != refCell[0].AsFloat() {
				return fmt.Errorf("skew: aggregate drifted across rebalancing: %v -> %v", refCell[0], cell[0])
			}
			if _, n, _, _, err := co.Read(ctx, "skew", ops.Fragment{Fold: &ops.FoldSpec{}}); err != nil || n != high {
				return fmt.Errorf("skew: count = %d, %v; want %d", n, err, high)
			}
			fmt.Fprintf(w, "bit-identity: scan cells verified per-op, sum %v and count %d unchanged\n", cell[0], high)

			// Kill the hot chunk's base owner mid-workload: the hot band
			// must keep answering from the surviving replicas.
			stops[0]()
			hot := array.Box{Lo: array.Coord{1}, Hi: array.Coord{8}}
			for i := 0; i < 5; i++ {
				got, _, _, _, err := co.Read(ctx, "skew", ops.Fragment{Box: hot})
				if err != nil {
					return fmt.Errorf("skew: hot scan after node kill: %w", err)
				}
				for x := int64(1); x <= 8; x++ {
					if cell, ok := got.At(array.Coord{x}); !ok || cell[0].Float != float64(x*10) {
						return fmt.Errorf("skew: post-kill hot cell %d = %v, %v", x, cell, ok)
					}
				}
			}
			fmt.Fprintf(w, "node 0 killed: hot band served from replicas (nodes down: %v)\n", co.DownNodes())
			return nil
		},
	})
}
