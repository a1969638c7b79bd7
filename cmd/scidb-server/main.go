// Command scidb-server runs one shared-nothing grid worker (§2.7) and the
// multi-tenant session front end on the same listener. A coordinator
// (cmd/scidb-load, the examples, or library users via cluster.DialTCP)
// connects over TCP and drives it with the multiplexed binary wire
// protocol; client sessions (cmd/scidb -connect, session.Dial) speak the
// session protocol. The first four bytes of a connection select its
// protocol; a connection that opens with neither magic is closed.
//
//	scidb-server -listen 127.0.0.1:7101 -id 0
//	scidb-server -listen 127.0.0.1:7101 -id 0 -data-dir /var/scidb -cache-bytes 268435456 -readahead 4
//	scidb-server -listen 127.0.0.1:7101 -id 0 -parallelism 8 -call-timeout 30s
//	scidb-server -listen 127.0.0.1:7101 -id 0 -metrics-addr 127.0.0.1:9101 -slow-query 250ms
//	scidb-server -listen 127.0.0.1:7101 -slots 8 -queue-depth 64 -idle-timeout 5m -drain-timeout 30s
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"scidb/internal/bufcache"
	"scidb/internal/cluster"
	"scidb/internal/exec"
	"scidb/internal/introspect"
	"scidb/internal/obs"
	"scidb/internal/session"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:7101", "address to listen on")
	id := flag.Int("id", 0, "node id")
	dataDir := flag.String("data-dir", "", "bucket directory root (empty: in-memory buckets)")
	cacheBytes := flag.Int64("cache-bytes", bufcache.DefaultBudget, "decoded-bucket buffer pool budget (0 disables)")
	readahead := flag.Int("readahead", 0, "scan prefetch depth: buckets loaded ahead of a scan (0 disables)")
	parallelism := flag.Int("parallelism", 0, "chunk-parallel worker bound (1 = serial, 0 = NumCPU)")
	callTimeout := flag.Duration("call-timeout", 0, "per-connection I/O deadline for hello reads and response writes (0 = none)")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics, /healthz, /debug/pprof on this address (empty disables)")
	slowQuery := flag.Duration("slow-query", 0, "log the profile tree of requests slower than this (0 disables)")
	slots := flag.Int("slots", 8, "session statements executing concurrently")
	queueDepth := flag.Int("queue-depth", 64, "queued session statements per priority class before busy rejection")
	idleTimeout := flag.Duration("idle-timeout", 0, "close client sessions idle this long (0 = never)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "SIGTERM: wait this long for in-flight session statements before canceling them")
	flag.Parse()

	introspect.Init()
	exec.SetParallelism(*parallelism)

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fmt.Fprintln(os.Stderr, "listen:", err)
		os.Exit(1)
	}
	w := cluster.NewWorkerWithOptions(*id, cluster.WorkerOptions{Dir: *dataDir, CacheBytes: *cacheBytes,
		Readahead: *readahead})
	if *slowQuery > 0 {
		w.SetSlowQuery(*slowQuery, os.Stderr)
	}
	sess := session.NewServer(session.ServerOptions{
		Slots:       *slots,
		QueueDepth:  *queueDepth,
		IdleTimeout: *idleTimeout,
		Registry:    w.Registry(),
	})
	srv, _ := cluster.NewServer(w, cluster.ServeOptions{
		IOTimeout: *callTimeout,
		Session:   sess.ServeConn,
	})
	var metricsSrv interface{ Close() error }
	if *metricsAddr != "" {
		obs.RegisterProcessMetrics(w.Registry())
		introspect.AttachMetrics(w.Registry())
		ms, err := obs.Serve(*metricsAddr, w.Registry())
		if err != nil {
			fmt.Fprintln(os.Stderr, "metrics listen:", err)
			os.Exit(1)
		}
		metricsSrv = ms
		fmt.Printf("scidb-server node %d metrics on http://%s/metrics (pprof under /debug/pprof/)\n", *id, *metricsAddr)
	}
	fmt.Printf("scidb-server %s\n", introspect.Build())
	fmt.Printf("scidb-server node %d listening on %s, store-backed partitions (cache %d bytes, readahead %d), parallelism %d\n",
		*id, ln.Addr(), *cacheBytes, *readahead, exec.Parallelism())
	fmt.Printf("scidb-server sessions: %d slots, queue depth %d, idle timeout %v\n",
		*slots, *queueDepth, *idleTimeout)
	introspect.Emit(introspect.EvServerStart, *id, "",
		fmt.Sprintf("listening on %s (%s)", ln.Addr(), introspect.Build()))
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		fmt.Println("scidb-server: shutting down, draining client sessions and in-flight requests")
		// Client sessions drain first: no new sessions, in-flight
		// statements get -drain-timeout, stragglers are canceled.
		if sess.Shutdown(*drainTimeout) {
			fmt.Println("scidb-server: session drain clean")
		} else {
			fmt.Println("scidb-server: session drain forced (canceled stragglers)")
		}
		srv.Shutdown() // close listener, wait for in-flight requests, drop conns
	}()
	// Serve returns nil once Shutdown closes the listener; every in-flight
	// request has been answered by then, so the stores can flush safely.
	if err := srv.Serve(ln); err != nil {
		fmt.Fprintln(os.Stderr, "serve:", err)
		os.Exit(1)
	}
	if metricsSrv != nil {
		metricsSrv.Close()
	}
	if err := w.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "close:", err)
		os.Exit(1)
	}
	fmt.Println("scidb-server: stopped")
}
