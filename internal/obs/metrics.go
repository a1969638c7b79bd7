// Package obs is the engine's unified telemetry layer: a lock-cheap metrics
// registry (counters, gauges, bounded histograms with atomic buckets) that
// the per-subsystem stat silos register into, plus per-query tracing with
// operator spans (trace.go) and the HTTP observability endpoints (http.go).
//
// The paper's provenance (§2.6) and benchmark (§2.15) requirements both
// presume the engine can answer "what did this query do, where, and at what
// cost". Before this package each subsystem grew its own snapshot struct
// (bufcache.Stats, exec.Stats, cluster.TransportStats, storage.Stats)
// reachable only through separate calls; the registry gives them one
// scrapeable surface (Prometheus text format) and one consistent Snapshot
// taken in a single pass, so monitoring code never mixes counter values
// read at different moments.
//
// Hot-path cost: a Counter.Add is one atomic add; a Histogram.Observe is a
// binary search over a small fixed bucket slice plus two atomic adds.
// Collector funcs (the silo adapters) run only when a snapshot or scrape
// asks for them — never on the data path.
package obs

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind classifies a metric family for the Prometheus TYPE line.
type Kind int

const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "untyped"
}

// Counter is a monotonically increasing metric. The zero value is usable
// but unregistered; get one from Registry.Counter.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (negative deltas are ignored: counters only go up).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a metric that can go up and down.
type Gauge struct{ bits atomic.Uint64 }

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adjusts the gauge by delta.
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a bounded histogram: a fixed set of upper bounds chosen at
// construction, one atomic counter per bucket, plus atomic sum and count.
// Observe is wait-free apart from the sum's CAS loop.
type Histogram struct {
	bounds  []float64 // sorted upper bounds; implicit +Inf bucket after
	buckets []atomic.Int64
	count   atomic.Int64
	sumBits atomic.Uint64
}

// DefBuckets are latency-oriented bounds in seconds, 100µs to ~100s.
var DefBuckets = []float64{1e-4, 5e-4, 1e-3, 5e-3, 0.01, 0.05, 0.1, 0.5, 1, 5, 10, 30, 100}

func newHistogram(bounds []float64) *Histogram {
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	return &Histogram{bounds: bs, buckets: make([]atomic.Int64, len(bs)+1)}
}

// Observe records one value. A value lands in the first bucket whose upper
// bound is >= v (Prometheus "le" semantics: bounds are inclusive).
func (h *Histogram) Observe(v float64) {
	// Binary search for the first bound >= v.
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if h.bounds[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	h.buckets[lo].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// HistSnapshot is one histogram's state: per-bucket (non-cumulative)
// counts aligned with Bounds (the final entry is the +Inf bucket), plus
// Sum and Count.
type HistSnapshot struct {
	Bounds  []float64
	Buckets []int64
	Sum     float64
	Count   int64
}

// Snapshot reads the histogram once. Buckets are read individually (each
// atomically); the total is recomputed from the buckets so Count and the
// bucket sum always agree within the snapshot.
func (h *Histogram) Snapshot() HistSnapshot {
	s := HistSnapshot{Bounds: h.bounds, Buckets: make([]int64, len(h.buckets))}
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
		s.Count += s.Buckets[i]
	}
	s.Sum = math.Float64frombits(h.sumBits.Load())
	return s
}

// Quantile estimates the q-th quantile (0 <= q <= 1) from the bucket
// counts by linear interpolation inside the bucket the rank lands in —
// the same estimate Prometheus's histogram_quantile computes, so load
// generators and the slow-query log no longer hand-roll percentiles from
// recorded samples. The lowest bucket interpolates from zero, and a rank
// landing in the +Inf overflow bucket reports the highest finite bound (a
// bounded histogram cannot see past it). An empty histogram reports NaN.
func (s HistSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || math.IsNaN(q) {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	cum := int64(0)
	for i, b := range s.Buckets {
		if b == 0 {
			continue
		}
		below := cum
		cum += b
		if float64(cum) < rank {
			continue
		}
		if i >= len(s.Bounds) {
			// Overflow bucket: unbounded above, clamp to the last bound.
			if len(s.Bounds) == 0 {
				return math.NaN()
			}
			return s.Bounds[len(s.Bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = s.Bounds[i-1]
		}
		hi := s.Bounds[i]
		frac := (rank - float64(below)) / float64(b)
		if frac < 0 {
			frac = 0
		}
		return lo + (hi-lo)*frac
	}
	if len(s.Bounds) == 0 {
		return math.NaN()
	}
	return s.Bounds[len(s.Bounds)-1]
}

// Quantiles estimates several quantiles in one pass over the snapshot.
func (s HistSnapshot) Quantiles(qs ...float64) []float64 {
	out := make([]float64, len(qs))
	for i, q := range qs {
		out[i] = s.Quantile(q)
	}
	return out
}

// Sample is one exported value: a metric family name, an optional rendered
// label set (e.g. `node="0"`, without braces), and the value.
type Sample struct {
	Name  string
	Label string
	Value float64
}

// Field is one int64 counter of a typed stats snapshot under its metric
// name. A stats type lists its fields once, in a Fields method; the
// collector that exports a snapshot (EmitFields) and the reader that rebuilds
// one from a node's samples (ReadFields) both walk that list, so neither can
// leave a counter out.
type Field struct {
	Name string
	V    *int64
}

// EmitFields emits every field as a sample under label.
func EmitFields(emit func(Sample), label string, fields []Field) {
	for _, f := range fields {
		emit(Sample{Name: f.Name, Label: label, Value: float64(*f.V)})
	}
}

// ReadFields sets every field to the first sample of its name, or to 0 when
// samples carry none (a family the node does not register).
func ReadFields(samples []Sample, fields []Field) {
	for _, f := range fields {
		*f.V = 0
		for _, s := range samples {
			if s.Name == f.Name {
				*f.V = int64(s.Value)
				break
			}
		}
	}
}

// CollectFunc contributes samples under a registered family; it runs only
// during Snapshot/WriteProm, never on the data path. Silo adapters
// (bufcache, exec, storage, transport) are CollectFuncs that read their
// existing atomic counters once per scrape.
type CollectFunc func(emit func(Sample))

// entry is one registered family: a typed metric or a collector func.
type entry struct {
	name string
	help string
	kind Kind

	counter *Counter
	gauge   *Gauge
	hist    *Histogram
	collect CollectFunc
}

// Registry is a named set of metric families. Registration takes the
// registry lock; reading or updating a registered metric does not.
type Registry struct {
	mu      sync.Mutex
	entries []*entry
	byName  map[string]*entry
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry { return &Registry{byName: map[string]*entry{}} }

var def = NewRegistry()

// Default returns the process-wide registry.
func Default() *Registry { return def }

func (r *Registry) lookupOrAdd(name, help string, kind Kind, build func() *entry) *entry {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.byName[name]; ok {
		if e.kind != kind {
			panic(fmt.Sprintf("obs: metric %q re-registered as %v, was %v", name, kind, e.kind))
		}
		return e
	}
	e := build()
	e.name, e.help, e.kind = name, help, kind
	r.entries = append(r.entries, e)
	r.byName[name] = e
	return e
}

// Counter returns the counter registered under name, creating it on first
// use (idempotent, so several subsystems can share one family).
func (r *Registry) Counter(name, help string) *Counter {
	e := r.lookupOrAdd(name, help, KindCounter, func() *entry { return &entry{counter: &Counter{}} })
	return e.counter
}

// Gauge returns the gauge registered under name, creating it on first use.
func (r *Registry) Gauge(name, help string) *Gauge {
	e := r.lookupOrAdd(name, help, KindGauge, func() *entry { return &entry{gauge: &Gauge{}} })
	return e.gauge
}

// Histogram returns the histogram registered under name, creating it with
// the given bounds on first use (nil bounds select DefBuckets).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if bounds == nil {
		bounds = DefBuckets
	}
	e := r.lookupOrAdd(name, help, KindHistogram, func() *entry { return &entry{hist: newHistogram(bounds)} })
	return e.hist
}

// RegisterFunc installs (or replaces) a collector under name. kind applies
// to every sample the collector emits under that family; collectors that
// emit several families should register once per family or use KindGauge.
func (r *Registry) RegisterFunc(name, help string, kind Kind, fn CollectFunc) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.byName[name]; ok {
		e.collect = fn
		e.help, e.kind = help, kind
		return
	}
	e := &entry{name: name, help: help, kind: kind, collect: fn}
	r.entries = append(r.entries, e)
	r.byName[name] = e
}

// Unregister removes a family (tests, replaced subsystems).
func (r *Registry) Unregister(name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.byName[name]; !ok {
		return
	}
	delete(r.byName, name)
	for i, e := range r.entries {
		if e.name == name {
			r.entries = append(r.entries[:i], r.entries[i+1:]...)
			break
		}
	}
}

// Snapshot is a consistent single-pass read of a registry: every family is
// read exactly once, in registration order, under one traversal. Counter
// silos that used to be snapshotted field-by-field at different call sites
// now produce one coherent set of values per Snapshot call.
type Snapshot struct {
	Samples []Sample
	Hists   map[string]HistSnapshot
}

// Get returns the sample value for name with an empty label.
func (s Snapshot) Get(name string) (float64, bool) { return s.GetLabel(name, "") }

// GetLabel returns the sample value for (name, label).
func (s Snapshot) GetLabel(name, label string) (float64, bool) {
	for _, sm := range s.Samples {
		if sm.Name == name && sm.Label == label {
			return sm.Value, true
		}
	}
	return 0, false
}

// Delta returns a snapshot holding s minus prev for every sample present in
// s (experiment scoping without racy counter resets: diff two snapshots
// instead of zeroing shared counters).
func (s Snapshot) Delta(prev Snapshot) Snapshot {
	out := Snapshot{Samples: make([]Sample, 0, len(s.Samples))}
	for _, sm := range s.Samples {
		v := sm.Value
		if pv, ok := prev.GetLabel(sm.Name, sm.Label); ok {
			v -= pv
		}
		out.Samples = append(out.Samples, Sample{Name: sm.Name, Label: sm.Label, Value: v})
	}
	return out
}

// Snapshot reads every family once in one pass.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	entries := append([]*entry(nil), r.entries...)
	r.mu.Unlock()
	snap := Snapshot{Hists: map[string]HistSnapshot{}}
	for _, e := range entries {
		switch {
		case e.counter != nil:
			snap.Samples = append(snap.Samples, Sample{Name: e.name, Value: float64(e.counter.Value())})
		case e.gauge != nil:
			snap.Samples = append(snap.Samples, Sample{Name: e.name, Value: e.gauge.Value()})
		case e.hist != nil:
			hs := e.hist.Snapshot()
			snap.Hists[e.name] = hs
			snap.Samples = append(snap.Samples,
				Sample{Name: e.name + "_count", Value: float64(hs.Count)},
				Sample{Name: e.name + "_sum", Value: hs.Sum})
		case e.collect != nil:
			e.collect(func(s Sample) { snap.Samples = append(snap.Samples, s) })
		}
	}
	return snap
}

// promFloat renders a value the way the Prometheus text format expects.
func promFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case v == math.Trunc(v) && math.Abs(v) < 1e15:
		return fmt.Sprintf("%d", int64(v))
	default:
		return fmt.Sprintf("%g", v)
	}
}

func promLine(w io.Writer, name, label string, v float64) {
	if label == "" {
		fmt.Fprintf(w, "%s %s\n", name, promFloat(v))
	} else {
		fmt.Fprintf(w, "%s{%s} %s\n", name, label, promFloat(v))
	}
}

// WriteProm writes the registry in Prometheus text exposition format.
func (r *Registry) WriteProm(w io.Writer) {
	r.mu.Lock()
	entries := append([]*entry(nil), r.entries...)
	r.mu.Unlock()
	for _, e := range entries {
		if e.help != "" {
			fmt.Fprintf(w, "# HELP %s %s\n", e.name, e.help)
		}
		fmt.Fprintf(w, "# TYPE %s %s\n", e.name, e.kind)
		switch {
		case e.counter != nil:
			promLine(w, e.name, "", float64(e.counter.Value()))
		case e.gauge != nil:
			promLine(w, e.name, "", e.gauge.Value())
		case e.hist != nil:
			hs := e.hist.Snapshot()
			cum := int64(0)
			for i, b := range hs.Buckets {
				cum += b
				le := "+Inf"
				if i < len(hs.Bounds) {
					le = promFloat(hs.Bounds[i])
				}
				promLine(w, e.name+"_bucket", fmt.Sprintf("le=%q", le), float64(cum))
			}
			promLine(w, e.name+"_sum", "", hs.Sum)
			promLine(w, e.name+"_count", "", float64(hs.Count))
		case e.collect != nil:
			e.collect(func(s Sample) { promLine(w, e.name+sampleSuffix(s, e.name), s.Label, s.Value) })
		}
	}
}

// sampleSuffix lets a collector registered under a family prefix emit
// samples whose Name extends the prefix (e.g. family "scidb_cache",
// sample "scidb_cache_hits_total"); a sample whose name already carries
// the prefix is used as-is, anything else is appended.
func sampleSuffix(s Sample, family string) string {
	if s.Name == "" || s.Name == family {
		return ""
	}
	if strings.HasPrefix(s.Name, family) {
		return strings.TrimPrefix(s.Name, family)
	}
	return "_" + s.Name
}

// RegisterProcessMetrics registers Go runtime gauges (goroutines, heap
// bytes, GC cycles) under scidb_process_*.
func RegisterProcessMetrics(r *Registry) {
	r.RegisterFunc("scidb_process", "Go runtime state of this process.", KindGauge, func(emit func(Sample)) {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		emit(Sample{Name: "scidb_process_goroutines", Value: float64(runtime.NumGoroutine())})
		emit(Sample{Name: "scidb_process_heap_bytes", Value: float64(ms.HeapAlloc)})
		emit(Sample{Name: "scidb_process_gc_cycles_total", Value: float64(ms.NumGC)})
	})
}
