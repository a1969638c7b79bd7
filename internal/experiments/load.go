package experiments

import (
	"context"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"slices"
	"time"

	"scidb/internal/array"
	"scidb/internal/cluster"
	"scidb/internal/exec"
	"scidb/internal/insitu"
	"scidb/internal/loader"
	"scidb/internal/obs"
	"scidb/internal/ops"
	"scidb/internal/partition"
)

// loadServers starts one persist-backed wire-protocol server per node, each
// behind an emulated link delay (the regime a shared-nothing grid loads
// across). Workers share no state; every partition is an encoded store of
// the array's grid chunks with a private decoded-bucket pool.
func loadServers(nodes int, delay time.Duration, dir string) (addrs []string, shutdown func(), err error) {
	var srvs []*cluster.Server
	shutdown = func() {
		for _, s := range srvs {
			s.Shutdown()
		}
	}
	for i := 0; i < nodes; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			shutdown()
			return nil, nil, err
		}
		w := cluster.NewWorkerWithOptions(i, cluster.WorkerOptions{
			Dir:        filepath.Join(dir, fmt.Sprintf("node-%d", i)),
			CacheBytes: 8 << 20,
		})
		srv, err := cluster.NewServer(w, cluster.ServeOptions{})
		if err != nil {
			shutdown()
			return nil, nil, err
		}
		addrs = append(addrs, ln.Addr().String())
		use := net.Listener(ln)
		if delay > 0 {
			use = delayListener{Listener: ln, d: delay}
		}
		go func(use net.Listener) { _ = srv.Serve(use) }(use)
		srvs = append(srvs, srv)
	}
	return addrs, shutdown, nil
}

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

// LOAD quantifies the parallel partition-on-load pipeline of §2.8 against
// the cell-at-a-time path it replaces, and the §2.9 alternative of not
// loading at all. Part one loads the same CSV grid two ways into a
// persist-backed grid behind a modelled link: cell-at-a-time (one Put
// round trip per cell — the link is paid per cell) and the ingest pipeline
// (the file is sharded, shards parse concurrently, chunks are encoded —
// zone maps included — on the loader, and the owning worker adopts the
// batched payloads verbatim). Both loaded arrays must be cell-for-cell
// bit-identical. Part two registers the same file in situ: a constant-time
// fan-out after which the first distributed query has each node run the
// same pipeline over its slab into its store, again bit-identical to the
// loaded array.
func init() {
	register(&Experiment{
		ID:    "LOAD",
		Title: "§2.8/§2.9 parallel bulk load + in-situ registration vs cell-at-a-time",
		Run: func(w io.Writer, quick bool) error {
			header(w, "LOAD", "shard-parallel chunk shipping vs per-cell round trips")
			const nodes = 2
			sideX, sideY, chunk := int64(80), int64(40), int64(8)
			linkDelay := time.Millisecond
			if quick {
				sideX, sideY = 40, 20
			}

			// The external file: a sparse bounded grid ((x+y)%3 == 0 holes)
			// written through the CSV adaptor, dimension bounds in the header.
			s := &array.Schema{
				Name: "grid",
				Dims: []array.Dimension{
					{Name: "x", High: sideX, ChunkLen: chunk},
					{Name: "y", High: sideY, ChunkLen: chunk}},
				Attrs: []array.Attribute{{Name: "v", Type: array.TFloat64}},
			}
			src := array.MustNew(s)
			for x := int64(1); x <= sideX; x++ {
				for y := int64(1); y <= sideY; y++ {
					if (x+y)%3 == 0 {
						continue
					}
					if err := src.Set(array.Coord{x, y}, array.Cell{array.Float64(float64(x*1000 + y))}); err != nil {
						return err
					}
				}
			}
			dir, err := os.MkdirTemp("", "scidb-load-exp")
			if err != nil {
				return err
			}
			defer os.RemoveAll(dir)
			csvPath := filepath.Join(dir, "grid.csv")
			if err := insitu.WriteCSV(csvPath, src); err != nil {
				return err
			}

			addrs, shutdown, err := loadServers(nodes, linkDelay, dir)
			if err != nil {
				return err
			}
			defer shutdown()
			tr, err := cluster.DialTCP(addrs)
			if err != nil {
				return err
			}
			defer tr.Close()
			co := cluster.NewCoordinator(tr, 0)
			scheme := partition.Block{Nodes: nodes, SplitDim: 0, High: sideX}
			box := array.WholeBox(s)
			ad, err := insitu.ByName("csv")
			if err != nil {
				return err
			}

			// Cell-at-a-time baseline: every Put is its own round trip — the
			// path the pipeline replaces.
			coCell := cluster.NewCoordinator(tr, 1)
			cellSchema := s.Clone()
			cellSchema.Name = "grid_cell"
			if err := coCell.Create("grid_cell", cellSchema, scheme); err != nil {
				return err
			}
			cellDS, err := ad.Open(csvPath)
			if err != nil {
				return err
			}
			// A cell's site is its chunk's: the scheme bound to the grid.
			bound := partition.Bind(scheme, cluster.PartitionSchema(cellSchema))
			cellStats := loader.Stats{PerSite: make([]int64, nodes)}
			var putErr error
			start := time.Now()
			err = insitu.Scan(cellDS, box, func(c array.Coord, cell array.Cell) bool {
				if putErr = coCell.Put("grid_cell", c, cell); putErr != nil {
					return false
				}
				cellStats.Records++
				cellStats.PerSite[bound.NodeFor(c)]++
				return true
			})
			if err == nil {
				err = putErr
			}
			if err == nil {
				err = coCell.Flush("grid_cell")
			}
			cellDur := time.Since(start)
			cellDS.Close()
			if err != nil {
				return err
			}

			// Parallel pipeline: shard, parse concurrently, encode on the
			// loader, ship chunk batches.
			parSchema := s.Clone()
			parSchema.Name = "grid_par"
			if err := co.Create("grid_par", parSchema, scheme); err != nil {
				return err
			}
			ds, err := ad.Open(csvPath)
			if err != nil {
				return err
			}
			chunksShipped := obs.Default().Counter("scidb_load_chunks_shipped_total", "")
			shippedBefore := chunksShipped.Value()
			start = time.Now()
			parStats, err := loader.LoadParallel(ds, box, parSchema, scheme,
				loader.ClusterDest{Co: co, Array: "grid_par"}, loader.Options{})
			parDur := time.Since(start)
			ds.Close()
			if err != nil {
				return err
			}
			shipped := chunksShipped.Value() - shippedBefore

			fmt.Fprintf(w, "%d nodes behind %v emulated links; %dx%d grid, %d cells\n\n",
				nodes, linkDelay, sideX, sideY, parStats.Records)
			fmt.Fprintf(w, "%-36s %14s %10s %12s\n", "path", "time", "cells", "per-site")
			fmt.Fprintf(w, "%-36s %14v %10d %12v\n", "cell-at-a-time (1 RPC/cell)", cellDur,
				cellStats.Records, cellStats.PerSite)
			fmt.Fprintf(w, "%-36s %14v %10d %12v\n",
				fmt.Sprintf("parallel x%d (pre-encoded batches)", exec.Parallelism()), parDur,
				parStats.Records, parStats.PerSite)
			fmt.Fprintf(w, "speedup vs cell-at-a-time: %.2fx   chunks shipped: %d\n",
				ratio(cellDur, parDur), shipped)

			ctx := context.Background()
			cellScan, _, _, _, err := coCell.Read(ctx, "grid_cell", ops.Fragment{Box: box})
			if err != nil {
				return err
			}
			parScan, _, _, _, err := co.Read(ctx, "grid_par", ops.Fragment{Box: box})
			if err != nil {
				return err
			}

			// Part 2: §2.9 — skip the load entirely. Registration is a
			// constant-time fan-out; the first query reads each node's slab
			// of the file once, through the same pipeline.
			storedBefore, err := co.StorageStats()
			if err != nil {
				return err
			}
			insituSchema := s.Clone()
			insituSchema.Name = "grid_insitu"
			start = time.Now()
			if err := co.RegisterInsitu("grid_insitu", csvPath, "csv", insituSchema, scheme); err != nil {
				return err
			}
			regDur := time.Since(start)
			start = time.Now()
			_, n, _, _, err := co.Read(ctx, "grid_insitu", ops.Fragment{Fold: &ops.FoldSpec{}})
			if err != nil {
				return err
			}
			firstQuery := time.Since(start)
			storedAfter, err := co.StorageStats()
			if err != nil {
				return err
			}
			filled := make([]int64, nodes)
			for i := range filled {
				filled[i] = storedAfter[i].BucketsWritten - storedBefore[i].BucketsWritten
			}
			insituScan, _, _, _, err := co.Read(ctx, "grid_insitu", ops.Fragment{Box: box})
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "\nin-situ registration (no load): %v; first distributed count (%d cells): %v\n",
				regDur, n, firstQuery)
			fmt.Fprintf(w, "in-situ fill: %v buckets per node\n", filled)
			fmt.Fprintln(w, "claim shape: partition-on-load ships pre-encoded chunk batches, so the")
			fmt.Fprintln(w, "link is paid per batch instead of per cell; in-situ registration answers")
			fmt.Fprintln(w, "the first query before a load would have finished — both loads and the")
			fmt.Fprintln(w, "in-situ scan agree cell for cell.")

			// Hard assertions.
			if cellStats.Records != parStats.Records {
				return fmt.Errorf("LOAD: record counts diverged: cell %d, parallel %d",
					cellStats.Records, parStats.Records)
			}
			if !slices.Equal(cellStats.PerSite, parStats.PerSite) {
				return fmt.Errorf("LOAD: per-site counts diverged: cell %v, parallel %v",
					cellStats.PerSite, parStats.PerSite)
			}
			if err := sameArray(cellScan, parScan); err != nil {
				return fmt.Errorf("LOAD: parallel load diverged from cell-at-a-time: %w", err)
			}
			if err := sameArray(parScan, insituScan); err != nil {
				return fmt.Errorf("LOAD: in-situ scan diverged from loaded array: %w", err)
			}
			if n != parStats.Records {
				return fmt.Errorf("LOAD: in-situ count %d != loaded %d", n, parStats.Records)
			}
			if shipped == 0 {
				return fmt.Errorf("LOAD: parallel path shipped no chunks")
			}
			if sp := ratio(cellDur, parDur); sp < 4 {
				return fmt.Errorf("LOAD: speedup %.2fx < 4x (cell-at-a-time %v, parallel %v)", sp, cellDur, parDur)
			}
			if regDur+firstQuery >= cellDur {
				return fmt.Errorf("LOAD: in-situ first answer (%v) not faster than a cell-at-a-time load (%v)",
					regDur+firstQuery, cellDur)
			}
			return nil
		},
	})
}
