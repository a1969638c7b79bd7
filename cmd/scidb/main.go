// Command scidb is an interactive AQL shell over an in-process engine or a
// remote session server.
//
//	scidb                         # REPL on stdin
//	scidb -c 'statement'          # run one statement
//	scidb -f script.aql           # run a statement-per-line script
//	scidb -grid 2                 # attach a 2-node in-process cluster (EXPLAIN
//	                              # ANALYZE then shows per-node breakdowns)
//	scidb -connect 127.0.0.1:7101 # client session against scidb-server
//	scidb -connect 127.0.0.1:7101 -namespace lsst -batch
//
// Shell commands: \l lists arrays, \d NAME describes one, \prov shows the
// provenance log, \metrics dumps the metrics registry, \queries lists live
// statements (SHOW QUERIES; works over -connect too), \q quits.
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"scidb"
	"scidb/internal/bufcache"
	"scidb/internal/cluster"
	"scidb/internal/introspect"
	"scidb/internal/obs"
	"scidb/internal/session"
)

func main() {
	cmd := flag.String("c", "", "execute one statement and exit")
	file := flag.String("f", "", "execute a script file (one statement per line)")
	grid := flag.Int("grid", 0, "attach an in-process shared-nothing grid of N worker nodes (0 = none)")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics, /healthz, /debug/pprof on this address (empty disables)")
	slowQuery := flag.Duration("slow-query", 0, "print the profile tree of statements slower than this (0 disables)")
	connect := flag.String("connect", "", "run against a scidb-server session endpoint (host:port) instead of in-process")
	namespace := flag.String("namespace", "", "tenant namespace for -connect (empty: the server default)")
	batch := flag.Bool("batch", false, "submit -connect statements at batch priority (default interactive)")
	flag.Parse()

	if *connect != "" {
		pr := session.Interactive
		if *batch {
			pr = session.Batch
		}
		r := &remote{addr: *connect, opts: session.ClientOptions{
			Name: "scidb-shell", Namespace: *namespace, Priority: pr,
		}}
		defer r.close()
		runMain(*cmd, *file, nil, r.exec)
		return
	}

	db := scidb.Open()
	if *grid > 0 {
		// The pool a scidb-server gets by default: an interactive grid reads
		// flushed buckets the way a served one does.
		tr := cluster.NewLocalWithOptions(*grid, cluster.WorkerOptions{CacheBytes: bufcache.DefaultBudget})
		defer tr.Close()
		db.AttachCluster(cluster.NewCoordinator(tr, 0))
	}
	if *slowQuery > 0 {
		db.SetSlowQuery(*slowQuery, os.Stderr)
	}
	if *metricsAddr != "" {
		obs.RegisterProcessMetrics(scidb.Metrics())
		if _, err := obs.Serve(*metricsAddr, scidb.Metrics()); err != nil {
			fmt.Fprintln(os.Stderr, "metrics listen:", err)
			os.Exit(1)
		}
	}
	runMain(*cmd, *file, db, func(stmt string) error { return run(db, stmt) })
}

// runMain dispatches -c / -f / REPL over either execution path. db is nil
// in -connect mode (shell introspection commands need the local engine).
func runMain(cmd, file string, db *scidb.DB, exec func(string) error) {
	switch {
	case cmd != "":
		if err := exec(cmd); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
	case file != "":
		f, err := os.Open(file)
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		defer f.Close()
		sc := bufio.NewScanner(f)
		line := 0
		for sc.Scan() {
			line++
			stmt := strings.TrimSpace(sc.Text())
			if stmt == "" || strings.HasPrefix(stmt, "--") {
				continue
			}
			if err := exec(stmt); err != nil {
				fmt.Fprintf(os.Stderr, "%s:%d: %v\n", file, line, err)
				os.Exit(1)
			}
		}
	default:
		repl(db, exec)
	}
}

// remote runs statements through a session client, redialing once per
// statement when the connection drops (server restart, drain, network).
type remote struct {
	addr string
	opts session.ClientOptions
	c    *session.Client
}

func (r *remote) client() (*session.Client, error) {
	if r.c != nil {
		return r.c, nil
	}
	c, err := session.Dial(r.addr, r.opts)
	if err != nil {
		return nil, err
	}
	r.c = c
	return c, nil
}

func (r *remote) close() {
	if r.c != nil {
		r.c.Close()
	}
}

func (r *remote) exec(stmt string) error {
	for attempt := 0; ; attempt++ {
		c, err := r.client()
		if err != nil {
			return fmt.Errorf("connect %s: %w", r.addr, err)
		}
		res, err := c.Exec(stmt)
		if err == nil {
			if res.Array != nil {
				fmt.Print(scidb.Render(res.Array))
				fmt.Printf("(%d cells)\n", res.Array.Count())
			} else {
				fmt.Println(res.Msg)
			}
			return nil
		}
		if errors.Is(err, session.ErrConnClosed) && attempt == 0 {
			fmt.Fprintf(os.Stderr, "scidb: connection to %s lost; reconnecting\n", r.addr)
			r.c = nil
			continue
		}
		return err
	}
}

func repl(db *scidb.DB, exec func(string) error) {
	fmt.Printf("SciDB-Go shell (%s)\n", introspect.Build())
	fmt.Println("AQL statements, \\l, \\d NAME, \\df, \\prov, \\metrics, \\queries, \\q")
	sc := bufio.NewScanner(os.Stdin)
	for {
		fmt.Print("scidb> ")
		if !sc.Scan() {
			fmt.Println()
			return
		}
		line := strings.TrimSpace(sc.Text())
		if line == "\\queries" {
			// SHOW QUERIES is a statement, so it works on both paths — over
			// -connect it lists the server's registry, not ours.
			if err := exec("show queries"); err != nil {
				fmt.Println("error:", err)
			}
			continue
		}
		if db == nil && strings.HasPrefix(line, "\\") && line != "\\q" {
			// Introspection commands read the in-process engine; over
			// -connect, use AQL statements instead.
			fmt.Println("shell commands are not available over -connect")
			continue
		}
		switch {
		case line == "":
			continue
		case line == "\\q":
			return
		case line == "\\l":
			for _, n := range db.Names() {
				fmt.Println(" ", n)
			}
			continue
		case strings.HasPrefix(line, "\\d "):
			name := strings.TrimSpace(strings.TrimPrefix(line, "\\d "))
			if a, err := db.Array(name); err == nil {
				fmt.Println(" ", a.Schema.String())
				fmt.Printf("  %d cells present\n", a.Count())
			} else if u, err := db.Updatable(name); err == nil {
				fmt.Println(" ", u.FullSchema().String(), "(updatable)")
				fmt.Printf("  history high-water mark: %d\n", u.History())
			} else {
				fmt.Println("  unknown array", name)
			}
			continue
		case line == "\\df":
			for _, n := range db.UDFNames() {
				fmt.Println(" ", n)
			}
			continue
		case line == "\\prov":
			// The provenance log of this session's derivations.
			for _, c := range provCommands(db) {
				fmt.Printf("  [%d] %s\n", c.id, c.text)
			}
			continue
		case line == "\\metrics":
			printMetrics(db)
			continue
		}
		if err := exec(line); err != nil {
			fmt.Println("error:", err)
		}
	}
}

type provLine struct {
	id   int64
	text string
}

func provCommands(db *scidb.DB) []provLine {
	var out []provLine
	// Reach the log through a trace of a nonexistent element is not
	// possible; use the exported accessor pattern instead: the DB facade
	// exposes TraceBack/TraceForward, and command listing comes via the
	// shell-oriented helper below.
	for _, c := range db.ProvenanceCommands() {
		out = append(out, provLine{id: c.ID, text: c.Text})
	}
	return out
}

// printMetrics dumps this process's registry in Prometheus text form; on a
// grid it additionally fans the "metrics" op out and prints every node's
// samples with their node labels (the cluster-wide aggregation).
func printMetrics(db *scidb.DB) {
	scidb.Metrics().WriteProm(os.Stdout)
	co := db.Cluster()
	if co == nil {
		return
	}
	samples, err := co.Metrics()
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	for _, s := range samples {
		fmt.Printf("%s{%s} %g\n", s.Name, s.Label, s.Value)
	}
}

func run(db *scidb.DB, stmt string) error {
	res, err := db.Exec(stmt)
	if err != nil {
		return err
	}
	if res.Array != nil {
		fmt.Print(scidb.Render(res.Array))
		fmt.Printf("(%d cells)\n", res.Array.Count())
		return nil
	}
	fmt.Println(res.Msg)
	return nil
}
