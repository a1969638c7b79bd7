// Command bench is the standing SS-DB suite: AQL statements issued by one
// closed-loop session client against a persisted three-node grid on loopback
// TCP, all in this process. See README.md for what is measured and why.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"

	"scidb/internal/exec"
)

// The metric names this program prints; a test holds them equal to
// BENCHMARK.json, which also records each end-to-end metric's bound.
var (
	endToEndMetrics = []metricDef{
		{"round_p50_ms", "ms"},
		{"alloc_mb_per_round", "MB"},
		{"stored_bytes_per_cell", "bytes"},
		{"setup_s", "s"},
	}
	perLayerMetrics = []metricDef{
		{"traced.round_ms", "ms"},
		{"parser.parse_ms", "ms"},
		{"session.overhead_ms", "ms"},
		{"session.admission_wait_ms", "ms"},
		{"core.self_ms", "ms"},
		{"cluster.calls", "count"},
		{"cluster.call_ms", "ms"},
		{"cluster.self_ms", "ms"},
		{"cluster.slowest_node_ratio", "ratio"},
		{"wire.bytes_in", "bytes"},
		{"wire.bytes_out", "bytes"},
		{"wire.ms", "ms"},
		{"worker.busy_ms", "ms"},
		{"worker.cells_scanned", "count"},
		{"exec.tasks", "count"},
		{"exec.saturation", "count"},
		{"ops.coord_ms", "ms"},
		{"storage.buckets_read", "count"},
		{"storage.bytes_read", "bytes"},
		{"storage.chunks_skipped_ratio", "ratio"},
		{"storage.prefetch_wasted_ratio", "ratio"},
		{"storage.scan_ms_per_bucket", "ms"},
		{"bufcache.hit_rate", "ratio"},
		{"bufcache.evictions", "count"},
		{"loader.self_ms", "ms"},
		{"loader.parse_ms", "ms"},
		{"loader.encode_ms", "ms"},
		{"loader.ship_ms", "ms"},
		{"loader.batches", "count"},
		{"loader.bytes_shipped", "bytes"},
		{"unattributed_ms", "ms"},
		{"trace_overhead_pct", "%"},
	}
)

type metricDef struct{ name, unit string }

// contract is the part of BENCHMARK.json this program reads.
type contract struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// contractPath is relative to the root of the checkout, where run.sh starts
// the program.
const contractPath = "BENCHMARK.json"

func readContract(path string) (*contract, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	c := new(contract)
	if err := json.Unmarshal(data, c); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return c, nil
}

const (
	// setupRuns is how many times a run sets the workload up; setup_s is
	// their median and each is measured on for an equal share of the time.
	setupRuns = 3
	// minRounds is the fewest rounds a timed section runs however short
	// -seconds is.
	minRounds = 3
)

type options struct {
	seed     int64
	seconds  float64
	rounds   int // when > 0, a fixed number of timed rounds instead of seconds
	buildDir string
}

// value is one measured metric as the result line carries it.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run of one workload; its JSON form is the line the driver
// reads.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func newResult(defs []metricDef, vals map[string]float64, attempted, failed int) *result {
	r := &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]value{}}
	for _, d := range defs {
		r.Metrics[d.name] = value{Value: vals[d.name], Unit: d.unit}
	}
	return r
}

// timedRounds runs round until opts.seconds have passed (or opts.rounds
// rounds), collecting the time of each that succeeds.
func timedRounds(opts options, share float64, round func() (time.Duration, error)) (ms []float64, attempted, failed int) {
	deadline := time.Now().Add(time.Duration(opts.seconds * share * float64(time.Second)))
	for {
		if opts.rounds > 0 {
			if attempted >= opts.rounds {
				break
			}
		} else if attempted >= minRounds && !time.Now().Before(deadline) {
			break
		}
		d, err := round()
		attempted++
		if err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "round %d failed: %v\n", attempted, err)
			continue
		}
		ms = append(ms, d.Seconds()*1e3)
	}
	return ms, attempted, failed
}

// runEndToEnd is the untraced run: setupRuns times over, it sets the
// workload up, times rounds for an equal share of the seconds, and tears the
// grid down. Pooling the rounds of several set-ups keeps one grid's luck
// with memory placement out of the median.
func runEndToEnd(wl *workload, opts options) (*result, error) {
	var (
		setups, ms        []float64
		attempted, failed int
		allocated         uint64
		stored, cells     int64
		cellsPerRound     int64
	)
	segment := func() (err error) {
		e, err := newEnv(wl, opts.seed, opts.buildDir, nil)
		if err != nil {
			return err
		}
		defer func() {
			if cerr := e.close(); err == nil {
				err = cerr
			}
		}()
		setups = append(setups, e.setup.Seconds())
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		segMs, segAttempted, segFailed := timedRounds(opts, 1.0/setupRuns, e.round)
		runtime.ReadMemStats(&after)
		ms = append(ms, segMs...)
		attempted += segAttempted
		failed += segFailed
		allocated += after.TotalAlloc - before.TotalAlloc
		cellsPerRound = e.cellsPerRound
		stored, cells, err = e.stored()
		return err
	}
	for i := 0; i < setupRuns; i++ {
		if err := segment(); err != nil {
			return nil, err
		}
	}
	if len(ms) == 0 {
		return nil, errors.New("no round succeeded")
	}
	sort.Float64s(ms)

	vals := map[string]float64{
		"round_p50_ms":          percentile(ms, 50),
		"alloc_mb_per_round":    float64(allocated) / 1e6 / float64(attempted),
		"stored_bytes_per_cell": float64(stored) / float64(cells),
		"setup_s":               median(setups),
	}
	w := os.Stdout
	fmt.Fprintf(w, "workload %s: %d rounds attempted, %d failed\n", wl.name, attempted, failed)
	for _, d := range endToEndMetrics {
		fmt.Fprintf(w, "  %-24s %14.4f %s\n", d.name, vals[d.name], d.unit)
	}
	fmt.Fprintf(w, "  the %d set-ups took %.3f s\n", setupRuns, setups)
	// Information only: on a shared two-core box these are not claimed to
	// repeat within a tenth, so they carry no bound.
	if p, ok := tailPercentile(len(ms)); ok && p > 50 {
		fmt.Fprintf(w, "  round_p%v_ms (info)      %14.4f ms over %d rounds\n", p, percentile(ms, p), len(ms))
	} else {
		fmt.Fprintf(w, "  no percentile above p50 has ten of %d rounds beyond it\n", len(ms))
	}
	fmt.Fprintf(w, "  cells_per_s (info)       %14.0f 1/s (%d stored cells read or loaded per round)\n",
		float64(cellsPerRound)/(vals["round_p50_ms"]/1e3), cellsPerRound)
	return newResult(endToEndMetrics, vals, attempted, failed), nil
}

// runTraced is the separate traced run: a third of the time goes to untraced
// baseline rounds on the same grid, the rest to traced rounds.
func runTraced(wl *workload, opts options, tf *traceFile) (res *result, err error) {
	rec := newRecorder()
	e, err := newEnv(wl, opts.seed, opts.buildDir, rec)
	if err != nil {
		return nil, err
	}
	defer func() {
		if cerr := e.close(); err == nil {
			err = cerr
		}
	}()
	probe, err := newScanProbe(e)
	if err != nil {
		return nil, err
	}
	defer func() {
		if cerr := probe.Close(); err == nil {
			err = cerr
		}
	}()

	runtime.GC()
	base, _, baseFailed := timedRounds(opts, 1.0/3, e.round)
	if baseFailed > 0 || len(base) == 0 {
		return nil, errors.New("untraced baseline rounds failed")
	}
	var samples []sample
	runtime.GC()
	_, attempted, failed := timedRounds(opts, 2.0/3, func() (time.Duration, error) {
		m, spans, err := e.tracedRound(rec, probe)
		if tf != nil {
			tf.Rounds = append(tf.Rounds, roundSpans{Workload: wl.name, Round: len(tf.Rounds), Spans: spans})
		}
		if err == nil {
			samples = append(samples, m)
		}
		return 0, err
	})
	if len(samples) == 0 {
		return nil, errors.New("no traced round succeeded")
	}
	m := medians(samples)
	m["trace_overhead_pct"] = (m["traced.round_ms"] - median(base)) / median(base) * 100

	w := os.Stdout
	fmt.Fprintf(w, "workload %s, traced: %d rounds attempted, %d failed; %d untraced baseline rounds\n",
		wl.name, attempted, failed, len(base))
	for _, d := range perLayerMetrics {
		fmt.Fprintf(w, "  %-30s %16.4f %s\n", d.name, m[d.name], d.unit)
	}
	fmt.Fprintf(w, "  share of the round's client-observed time (median %.3f ms):\n", m["traced.round_ms"])
	for _, l := range layerShares {
		fmt.Fprintf(w, "    %-38s %10.3f ms %6.1f %%\n", l.label, m[l.key], m[l.key]/m["traced.round_ms"]*100)
	}
	fmt.Fprintf(w, "    %-38s %10.3f ms %6.1f %%\n", "unattributed", m["unattributed_ms"], m["unattributed_ms"]/m["traced.round_ms"]*100)
	return newResult(perLayerMetrics, m, attempted, failed), nil
}

// printResult writes the line the driver reads.
func printResult(r *result) error {
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Printf("%s\n", line)
	return err
}

// checkRepeat compares the end-to-end metrics of two passes over the suite
// against each metric's bound.
func checkRepeat(w io.Writer, c *contract, passes []map[string]*result) error {
	var bad int
	for _, wl := range workloads {
		first, last := passes[0][wl.name], passes[len(passes)-1][wl.name]
		if first == nil || last == nil {
			continue
		}
		for _, d := range c.EndToEnd {
			a, b := first.Metrics[d.Name].Value, last.Metrics[d.Name].Value
			diff := relDiff(a, b)
			verdict := "ok"
			if diff > d.Bound {
				verdict = "EXCEEDS BOUND"
				bad++
			}
			fmt.Fprintf(w, "repeat %-20s %-22s %12.4f %12.4f  diff %6.2f %% bound %4.0f %%  %s\n",
				wl.name, d.Name, a, b, diff*100, d.Bound*100, verdict)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d metrics differ between passes by more than their bound", bad)
	}
	return nil
}

func run() error {
	var (
		opts         options
		workloadName = flag.String("workload", "", "run only this workload (default: all)")
		trace        = flag.Int("trace", -1, "0: the end-to-end run, 1: the traced per-layer run, -1: both")
		traceOut     = flag.String("trace-out", "", "write the traced runs' spans to this JSON file")
		repeat       = flag.Int("repeat", 1, "passes over the suite; with 2 or more the first and last are compared against the bounds")
	)
	flag.Int64Var(&opts.seed, "seed", 1, "seed for the generated data and the per-round slab offsets")
	flag.Float64Var(&opts.seconds, "seconds", 0, "how long each run measures (default: run_seconds of the contract)")
	flag.IntVar(&opts.rounds, "rounds", 0, "measure this many rounds instead of -seconds")
	flag.StringVar(&opts.buildDir, "dir", ".bench_build", "existing directory for the grid's files; each set-up is removed on exit")
	flag.Parse()

	c, err := readContract(contractPath)
	if err != nil {
		return err
	}
	if opts.seconds <= 0 {
		opts.seconds = float64(c.RunSeconds)
	}
	selected := workloads
	if *workloadName != "" {
		wl, err := workloadByName(*workloadName)
		if err != nil {
			return err
		}
		selected = []workload{*wl}
	}
	if err := os.MkdirAll(opts.buildDir, 0o755); err != nil {
		return err
	}

	fmt.Fprintf(os.Stdout, "ssdb-bench seed=%d nproc=%d GOMAXPROCS=%d exec_parallelism=%d %s nodes=%d image=%dx%dx%d threshold=%d tile=%d cache warm=%d cold=%d bytes stride=%d seconds=%v rounds=%d\n",
		opts.seed, runtime.NumCPU(), runtime.GOMAXPROCS(0), exec.Parallelism(), runtime.Version(), nodes,
		imageSize, imageSize, imagePasses, threshold, tile, warmCache, coldCache, bucketStride, opts.seconds, opts.rounds)

	var tf *traceFile
	if *traceOut != "" {
		tf = &traceFile{Seed: opts.seed}
	}
	failed := 0
	var passes []map[string]*result
	for pass := 0; pass < *repeat; pass++ {
		endToEnd := map[string]*result{}
		passes = append(passes, endToEnd)
		for i := range selected {
			wl := &selected[i]
			if *trace != 1 {
				r, err := runEndToEnd(wl, opts)
				if err != nil {
					return fmt.Errorf("%s: %w", wl.name, err)
				}
				endToEnd[wl.name] = r
				failed += r.Failed
				if err := printResult(r); err != nil {
					return err
				}
			}
			if *trace != 0 {
				r, err := runTraced(wl, opts, tf)
				if err != nil {
					return fmt.Errorf("%s traced: %w", wl.name, err)
				}
				failed += r.Failed
				if err := printResult(r); err != nil {
					return err
				}
			}
		}
	}
	if tf != nil {
		if err := writeTrace(*traceOut, tf); err != nil {
			return err
		}
		if _, err := loadTrace(*traceOut); err != nil {
			return err
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d rounds failed", failed)
	}
	if *repeat > 1 && *trace != 1 {
		return checkRepeat(os.Stdout, c, passes)
	}
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}
