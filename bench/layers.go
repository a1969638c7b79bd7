package main

import (
	"context"
	"fmt"
	"path/filepath"
	"time"

	"scidb/internal/array"
	"scidb/internal/cluster"
	"scidb/internal/obs"
	"scidb/internal/parser"
	"scidb/internal/storage"
)

// sample is one traced round's per-layer numbers, by metric name.
type sample map[string]float64

// counters is what the traced run reads at the boundaries of the rung that
// carries the real work (session.exec, or load.round). wire holds the
// counts that cost a fan-out of stats calls to read; they are read outside
// the others so that those calls fall outside the transport and worker
// deltas.
type counters struct {
	wire struct {
		hits, misses, evictions int64
		store                   storage.Stats
		execTasks, execSat      int64
		cellsScanned            int64
	}
	tr        cluster.TransportStats
	busy      float64 // Σ scidb_worker_request_seconds over the workers
	admission float64 // scidb_admission_wait_seconds_interactive
	load      [len(loadCounters)]int64
}

// loadCounters maps the parallel loader's process-wide counters to the
// metrics their deltas become; per is the counter's units per metric unit.
var loadCounters = [...]struct {
	counter, metric string
	per             float64
}{
	{"scidb_load_parse_nanos_total", "loader.parse_ms", 1e6},
	{"scidb_load_encode_nanos_total", "loader.encode_ms", 1e6},
	{"scidb_load_ship_nanos_total", "loader.ship_ms", 1e6},
	{"scidb_load_batches_shipped_total", "loader.batches", 1},
	{"scidb_load_bytes_shipped_total", "loader.bytes_shipped", 1},
}

func histSum(r *obs.Registry, name string) float64 {
	return r.Histogram(name, "", nil).Snapshot().Sum
}

// readWire reads the counts that travel over the wire, through the
// coordinator like any operator would.
func (e *env) readWire(c *counters) error {
	co := e.g.co
	cs, err := co.CacheStats()
	if err != nil {
		return err
	}
	ss, err := co.StorageStats()
	if err != nil {
		return err
	}
	es, err := co.ExecStats()
	if err != nil {
		return err
	}
	ns, err := co.NodeStats()
	if err != nil {
		return err
	}
	w := &c.wire
	for i := range cs {
		w.hits += cs[i].Hits
		w.misses += cs[i].Misses
		w.evictions += cs[i].Evictions
		w.store = w.store.Add(ss[i])
		w.cellsScanned += ns[i].CellsScanned
	}
	// The exec pool is process-wide: every node reports the same counters,
	// which include the coordinator-side operators.
	w.execTasks, w.execSat = es[0].TasksRun, es[0].Saturation
	return nil
}

// readLocal reads the counts that are free to read in this process.
func (e *env) readLocal(c *counters) {
	c.tr, _ = e.g.co.TransportStats()
	c.busy = 0
	for _, w := range e.g.workers {
		c.busy += histSum(w.Registry(), "scidb_worker_request_seconds")
	}
	c.admission = histSum(e.g.sessReg, "scidb_admission_wait_seconds_interactive")
	for i, lc := range loadCounters {
		c.load[i] = obs.Default().Counter(lc.counter, "").Value()
	}
}

// measured runs fn between two reads of the counters and adds the deltas to
// m.
func (e *env) measured(m sample, fn func() error) error {
	var a, b counters
	if err := e.readWire(&a); err != nil {
		return err
	}
	e.readLocal(&a)
	if err := fn(); err != nil {
		return err
	}
	e.readLocal(&b)
	if err := e.readWire(&b); err != nil {
		return err
	}
	d := func(x, y int64) float64 { return float64(y - x) }
	m["_hits"] += d(a.wire.hits, b.wire.hits)
	m["_misses"] += d(a.wire.misses, b.wire.misses)
	m["bufcache.evictions"] += d(a.wire.evictions, b.wire.evictions)
	sa, sb := a.wire.store, b.wire.store
	m["storage.buckets_read"] += d(sa.BucketsRead, sb.BucketsRead)
	m["storage.bytes_read"] += d(sa.BytesRead, sb.BytesRead)
	m["_visited"] += d(sa.ChunksVisited, sb.ChunksVisited)
	m["_skipped"] += d(sa.ChunksSkipped, sb.ChunksSkipped)
	m["_prefetch_issued"] += d(sa.PrefetchIssued, sb.PrefetchIssued)
	m["_prefetch_wasted"] += d(sa.PrefetchWasted, sb.PrefetchWasted)
	m["exec.tasks"] += d(a.wire.execTasks, b.wire.execTasks)
	m["exec.saturation"] += d(a.wire.execSat, b.wire.execSat)
	m["worker.cells_scanned"] += d(a.wire.cellsScanned, b.wire.cellsScanned)
	m["wire.bytes_in"] += d(a.tr.BytesIn, b.tr.BytesIn)
	m["wire.bytes_out"] += d(a.tr.BytesOut, b.tr.BytesOut)
	m["worker.busy_ms"] += (b.busy - a.busy) * 1e3
	m["session.admission_wait_ms"] += (b.admission - a.admission) * 1e3
	for i, lc := range loadCounters {
		m[lc.metric] += d(a.load[i], b.load[i]) / lc.per
	}
	return nil
}

// tracedStatement walks one statement down the ladder, one rung per public
// entry point: the real statement through the session client, the same text
// through core, the Coordinator calls core makes for it, the operators core
// runs on what they gather, and the parse on its own.
func (e *env) tracedStatement(rec *recorder, s *stmt, m sample) error {
	ctx := context.Background()
	return rec.statement(func() error {
		err := e.measured(m, func() error {
			return rec.rung("session.exec", func() error {
				res, err := e.g.client.Exec(s.text)
				if err != nil {
					return fmt.Errorf("%s: %w", s.text, err)
				}
				return s.check(res.Array)
			})
		})
		if err != nil {
			return err
		}
		if err := rec.rung("core.exec", func() error {
			_, err := e.g.db.Exec(s.text)
			return err
		}); err != nil {
			return err
		}
		var in []*array.Array
		if err := rec.rung("cluster.op", func() (err error) {
			in, err = s.gather(ctx, e.g.co)
			return err
		}); err != nil {
			return err
		}
		if s.coord != nil {
			if err := rec.rung("ops.coord", func() error { return s.coord(ctx, in) }); err != nil {
				return err
			}
		}
		return rec.rung("parser.parse", func() error {
			_, err := parser.Parse(s.text)
			return err
		})
	})
}

// tracedLoad is load.bulk's traced round: there is no ladder below the
// loader's public entry point, so the round is split where its own three
// calls split it.
func (e *env) tracedLoad(rec *recorder, m sample) error {
	raw := &e.arrays[0]
	return rec.statement(func() error {
		err := e.measured(m, func() error {
			return rec.rung("load.round", func() error {
				if err := rec.rung("cluster.create", func() error { return e.create(raw, loadTarget) }); err != nil {
					return err
				}
				if err := rec.rung("loader.load", func() error { return e.fill(raw, loadTarget) }); err != nil {
					return err
				}
				return rec.rung("cluster.count", func() error { return e.countLoaded(raw, loadTarget) })
			})
		})
		if dropErr := e.g.co.Drop(loadTarget); err == nil {
			err = dropErr
		}
		return err
	})
}

// newScanProbe builds a benchmark-owned store holding partition 0 of cooked
// under the workload's cache budget. It is scanned once per traced round:
// storage.Store.Scan timed from outside, per bucket. Across the workloads
// that covers both budgets.
func newScanProbe(e *env) (*storage.Store, error) {
	cooked := &e.arrays[1]
	lo, hi, _ := cooked.scheme.BoxFor(0, array.Coord{1, 1}, array.Coord{imageSize, imageSize})
	st, err := storage.NewStore(cooked.schema, storage.Options{
		Dir:        filepath.Join(e.dir, "probe"),
		Stride:     []int64{bucketStride, bucketStride},
		CacheBytes: e.wl.cacheBytes,
		Readahead:  e.wl.readahead,
	})
	if err != nil {
		return nil, err
	}
	var putErr error
	e.ds.Cooked.IterBoxReuse(array.Box{Lo: lo, Hi: hi}, func(c array.Coord, cell array.Cell) bool {
		putErr = st.Put(c.Clone(), cell.Clone())
		return putErr == nil
	})
	if putErr == nil {
		putErr = st.Flush()
	}
	if putErr != nil {
		_ = st.Close()
		return nil, putErr
	}
	return st, nil
}

// tracedRound runs one traced round and turns its spans and counter deltas
// into one sample.
func (e *env) tracedRound(rec *recorder, probe *storage.Store) (sample, []span, error) {
	m := sample{}
	err := e.tracedWork(rec, m)
	if err == nil {
		start := time.Now()
		err = rec.statement(func() error {
			return rec.rung("storage.scan", func() error {
				return probe.Scan(fullBox(2), func(array.Coord, array.Cell) bool { return true })
			})
		})
		m["storage.scan_ms_per_bucket"] = time.Since(start).Seconds() * 1e3 / float64(probe.NumBuckets())
	}
	spans := rec.take()
	if err != nil {
		return nil, spans, err
	}
	addSpanTimes(m, spans)
	finishSample(m)
	return m, spans, nil
}

// tracedWork is the round proper: the load, or each statement's ladder.
func (e *env) tracedWork(rec *recorder, m sample) error {
	if e.wl.stmts == nil {
		return e.tracedLoad(rec, m)
	}
	stmts, err := e.wl.stmts(e, e.rng)
	if err != nil {
		return err
	}
	for i := range stmts {
		if err := e.tracedStatement(rec, &stmts[i], m); err != nil {
			return err
		}
	}
	return nil
}

// addSpanTimes adds the time each rung of each statement took to m. The
// rungs of a statement are separate executions, so a layer's time is a
// difference between rungs: session.overhead = session.exec − core.exec,
// core.self = core.exec − cluster.op − ops.coord − parser.parse,
// cluster.self = cluster.op − the union of its calls.
func addSpanTimes(m sample, spans []span) {
	children := map[int][]span{}
	byStmt := map[int]map[string]span{}
	for _, s := range spans {
		if s.Name == leafSpan {
			children[s.Parent] = append(children[s.Parent], s)
			continue
		}
		if byStmt[s.Stmt] == nil {
			byStmt[s.Stmt] = map[string]span{}
		}
		byStmt[s.Stmt][s.Name] = s
	}
	var ratios []float64
	for _, rungs := range byStmt {
		// real is the rung(s) that carried the statement's real work; base is
		// what the layer shares are shares of.
		var real []span
		if base, ok := rungs["session.exec"]; ok {
			real = []span{base}
			m["traced.round_ms"] += base.millis()
			k := rungs["cluster.op"]
			m["session.overhead_ms"] += base.millis() - rungs["core.exec"].millis()
			m["parser.parse_ms"] += rungs["parser.parse"].millis()
			m["ops.coord_ms"] += rungs["ops.coord"].millis()
			m["core.self_ms"] += rungs["core.exec"].millis() - k.millis() -
				rungs["ops.coord"].millis() - rungs["parser.parse"].millis()
			m["cluster.self_ms"] += float64(selfNanos(k, children[k.ID])) / 1e6
		} else if base, ok := rungs["load.round"]; ok {
			real = []span{rungs["cluster.create"], rungs["loader.load"], rungs["cluster.count"]}
			m["traced.round_ms"] += base.millis()
			m["cluster.self_ms"] += float64(selfNanos(real[0], children[real[0].ID])+selfNanos(real[2], children[real[2].ID])) / 1e6
			m["loader.self_ms"] += float64(selfNanos(real[1], children[real[1].ID])) / 1e6
		}
		perNode := map[int]float64{}
		for _, r := range real {
			calls := children[r.ID]
			m["cluster.calls"] += float64(len(calls))
			m["_blocked_ms"] += float64(coveredNanos(r.Start, r.End, calls)) / 1e6
			for _, c := range calls {
				m["cluster.call_ms"] += c.millis()
				perNode[c.Node] += c.millis()
			}
		}
		if len(perNode) > 1 {
			var sum, slowest float64
			for _, ms := range perNode {
				sum += ms
				slowest = max(slowest, ms)
			}
			ratios = append(ratios, slowest/(sum/float64(len(perNode))))
		}
	}
	if len(ratios) > 0 {
		m["cluster.slowest_node_ratio"] = median(ratios)
	}
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// finishSample derives the ratios and the split of the time the coordinator
// spent blocked on calls into worker service and everything else on the
// path (frame encode and decode, loopback transfer, queueing).
func finishSample(m sample) {
	m["wire.ms"] = m["cluster.call_ms"] - m["worker.busy_ms"]
	m["bufcache.hit_rate"] = ratio(m["_hits"], m["_hits"]+m["_misses"])
	m["storage.chunks_skipped_ratio"] = ratio(m["_skipped"], m["_skipped"]+m["_visited"])
	m["storage.prefetch_wasted_ratio"] = ratio(m["_prefetch_wasted"], m["_prefetch_issued"])
	busyShare := min(1, ratio(m["worker.busy_ms"], m["cluster.call_ms"]))
	m["_worker_blocking_ms"] = m["_blocked_ms"] * busyShare
	m["_wire_blocking_ms"] = m["_blocked_ms"] - m["_worker_blocking_ms"]
}

// layerShares lists, in stack order, the keys whose sum is compared with
// traced.round_ms; what is left over is reported as unattributed.
var layerShares = []struct{ label, key string }{
	{"session", "session.overhead_ms"},
	{"parser", "parser.parse_ms"},
	{"core", "core.self_ms"},
	{"loader (parse, encode)", "loader.self_ms"},
	{"cluster (fan-out, merge)", "cluster.self_ms"},
	{"ops at coordinator", "ops.coord_ms"},
	{"wire (frames, transfer, queueing)", "_wire_blocking_ms"},
	{"worker (ops/exec, storage, bufcache)", "_worker_blocking_ms"},
}

// medians reduces the traced rounds to one value per key and adds the
// residual.
func medians(samples []sample) sample {
	keys := map[string]bool{}
	for _, s := range samples {
		for k := range s {
			keys[k] = true
		}
	}
	out := sample{}
	for k := range keys {
		vals := make([]float64, len(samples))
		for i, s := range samples {
			vals[i] = s[k]
		}
		out[k] = median(vals)
	}
	attributed := 0.0
	for _, l := range layerShares {
		attributed += out[l.key]
	}
	out["unattributed_ms"] = out["traced.round_ms"] - attributed
	return out
}
