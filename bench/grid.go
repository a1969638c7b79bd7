package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"time"

	"scidb/internal/cluster"
	"scidb/internal/core"
	"scidb/internal/obs"
	"scidb/internal/session"
)

const (
	nodes = 3
	// bucketStride is the per-dimension bucket stride of every worker store
	// and of the loader's chunk grid, so shipped chunks are adopted whole.
	bucketStride = 64
)

// grid is the system under test, all in this process: three persisted
// workers behind real loopback TCP, a coordinator over them, a database
// attached to the coordinator, and a session server in front of that,
// driven by one session client.
type grid struct {
	dir     string // data root; node i persists under dir/node-i
	workers []*cluster.Worker
	servers []*cluster.Server
	tcp     *cluster.TCP
	co      *cluster.Coordinator
	db      *core.Database
	sessReg *obs.Registry // the session server's metrics (admission wait)
	sess    *session.Server
	sessLn  net.Listener
	client  *session.Client
}

// startGrid brings the whole stack up under dir. rec, when non-nil, wraps
// the coordinator's transport so every Call becomes a cluster.call span;
// untraced runs hand the coordinator the bare *cluster.TCP.
func startGrid(dir string, cacheBytes int64, readahead int, rec *recorder) (g *grid, err error) {
	g = &grid{dir: dir, sessReg: obs.NewRegistry()}
	defer func() {
		if err != nil {
			_ = g.stop()
		}
	}()
	var addrs []string
	for i := 0; i < nodes; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		w := cluster.NewWorkerWithOptions(i, cluster.WorkerOptions{
			Persist:    true,
			Dir:        filepath.Join(dir, fmt.Sprintf("node-%d", i)),
			Stride:     []int64{bucketStride, bucketStride, bucketStride},
			CacheBytes: cacheBytes,
			Readahead:  readahead,
		})
		g.workers = append(g.workers, w)
		srv, err := cluster.NewServer(w, cluster.ServeOptions{})
		if err != nil {
			_ = ln.Close()
			return nil, err
		}
		g.servers = append(g.servers, srv)
		addrs = append(addrs, ln.Addr().String())
		// Serve returns when Shutdown closes the listener.
		go func() { _ = srv.Serve(ln) }()
	}
	if g.tcp, err = cluster.DialTCP(addrs); err != nil {
		return nil, err
	}
	var tr cluster.Transport = g.tcp
	if rec != nil {
		tr = &tracedTransport{TCP: g.tcp, rec: rec}
	}
	g.co = cluster.NewCoordinator(tr, 0)
	g.db = core.Open()
	g.db.AttachCluster(g.co)
	g.sess = session.NewServer(session.ServerOptions{
		Registry: g.sessReg,
		Tenant:   func(string) (*core.Database, error) { return g.db, nil },
	})
	if g.sessLn, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		return nil, err
	}
	go func() { _ = g.sess.Serve(g.sessLn) }()
	g.client, err = session.Dial(g.sessLn.Addr().String(), session.ClientOptions{Name: "ssdb-bench"})
	return g, err
}

// stop tears the stack down front to back — client, session server,
// transport, cluster servers, workers — and reports every error it met.
// It tolerates a partially started grid.
func (g *grid) stop() error {
	var errs []error
	if g.client != nil {
		errs = append(errs, g.client.Close())
	}
	if g.sessLn != nil {
		errs = append(errs, g.sessLn.Close())
	}
	if g.sess != nil && !g.sess.Shutdown(10*time.Second) {
		errs = append(errs, errors.New("session server: drain timed out"))
	}
	if g.tcp != nil {
		errs = append(errs, g.tcp.Close())
	}
	for _, s := range g.servers {
		s.Shutdown()
	}
	for _, w := range g.workers {
		errs = append(errs, w.Close())
	}
	return errors.Join(errs...)
}

// diskBytes sums the sizes of the regular files under the grid's data root.
func (g *grid) diskBytes() (int64, error) {
	var n int64
	err := filepath.Walk(g.dir, func(_ string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.Mode().IsRegular() {
			n += info.Size()
		}
		return nil
	})
	return n, err
}
