// Command scidb-bench runs the paper-reproduction experiment suite: one
// experiment per figure and quantified claim (see DESIGN.md and
// EXPERIMENTS.md). With no flags it runs everything at full size.
//
//	scidb-bench [-exp ID[,ID...]] [-quick] [-list] [-parallelism N] [-bench-json DIR] [-metrics-addr host:port]
//	scidb-bench -serve-addr host:port -serve-smoke 8       # CI: scripted concurrent client sessions
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"scidb/internal/exec"
	"scidb/internal/experiments"
	"scidb/internal/obs"
)

func main() {
	exp := flag.String("exp", "", "comma-separated experiment ids (default: all)")
	quick := flag.Bool("quick", false, "shrink workloads for a fast smoke run")
	list := flag.Bool("list", false, "list experiments and exit")
	parallelism := flag.Int("parallelism", 0, "chunk-parallel worker bound (1 = serial, 0 = NumCPU)")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics and /debug/pprof while experiments run (profile the suite live)")
	serveAddr := flag.String("serve-addr", "", "session-server address for -serve-smoke")
	serveSmoke := flag.Int("serve-smoke", 0, "run this many scripted concurrent clients against -serve-addr and exit")
	benchJSON := flag.String("bench-json", "", "directory to write BENCH_<ID>.json snapshots (wall time, bytes, metric deltas) per experiment")
	flag.Parse()

	if (*serveSmoke > 0) != (*serveAddr != "") {
		fmt.Fprintln(os.Stderr, "usage: scidb-bench -serve-addr host:port -serve-smoke N (each needs the other)")
		os.Exit(2)
	}

	if *metricsAddr != "" {
		obs.RegisterProcessMetrics(obs.Default())
		if _, err := obs.Serve(*metricsAddr, obs.Default()); err != nil {
			fmt.Fprintln(os.Stderr, "metrics listen:", err)
			os.Exit(1)
		}
		fmt.Printf("metrics on http://%s/metrics (pprof under /debug/pprof/)\n", *metricsAddr)
	}

	exec.SetParallelism(*parallelism)

	if *serveSmoke > 0 {
		if err := experiments.ServeSmoke(os.Stdout, *serveAddr, *serveSmoke); err != nil {
			fmt.Fprintln(os.Stderr, "serve-smoke failed:", err)
			os.Exit(1)
		}
		return
	}

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
		return
	}
	var runs []*experiments.Experiment
	if *exp == "" {
		runs = experiments.All()
	} else {
		for _, id := range strings.Split(*exp, ",") {
			id = strings.TrimSpace(strings.ToUpper(id))
			e, ok := experiments.ByID(id)
			if !ok {
				fmt.Fprintf(os.Stderr, "unknown experiment %q; use -list\n", id)
				os.Exit(2)
			}
			runs = append(runs, e)
		}
	}
	if *benchJSON != "" {
		if err := os.MkdirAll(*benchJSON, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "bench-json:", err)
			os.Exit(1)
		}
	}
	for _, e := range runs {
		var err error
		if *benchJSON != "" {
			err = experiments.RunJSON(os.Stdout, e, *quick, *benchJSON)
		} else {
			err = e.Run(os.Stdout, *quick)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", e.ID, err)
			os.Exit(1)
		}
	}
}
