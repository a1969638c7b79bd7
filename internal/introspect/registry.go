// Package introspect is the cluster-introspection layer (§2.9: a science
// DB must be administrable at scale — you cannot tune or trust a cluster
// you cannot inspect). It holds the live query registry every statement
// entering core.Executor passes through, the bounded cluster event log the
// cluster/rebalance/session hooks append to, and the build-info export.
// The core package materializes both as virtual system arrays
// (sys.queries, sys.events, ...) so they are filterable with the normal
// query language; obs exports them at /statusz and as
// scidb_events_total{kind} counters.
//
// Everything here is nil-safe and O(1) on the statement path: Begin is one
// lock-guarded map insert, Finish one delete plus a ring append. The
// INTROSPECT experiment pins the overhead at ≤ 2% on the PAR workload.
package introspect

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"scidb/internal/obs"
)

// Terminal and live states of a registered query.
const (
	StateQueued   = "queued"   // waiting for an admission slot
	StateRunning  = "running"  // executing
	StateDone     = "done"     // finished successfully
	StateError    = "error"    // finished with an error
	StateCanceled = "canceled" // terminated by CANCEL QUERY, disconnect, or ctx
	StateShed     = "shed"     // rejected by admission control (server busy)
)

// Query is one registered statement. All methods are nil-safe so callers
// on the statement path never branch on whether a statement registered.
type Query struct {
	reg *Registry

	// ID is the process-wide query id (CANCEL QUERY's handle).
	ID uint64
	// Session and Namespace identify the issuing client session (0/"" for
	// in-process statements).
	Session   uint64
	Namespace string
	// Priority is the admission class ("interactive", "batch", or "").
	Priority string

	start time.Time

	mu        sync.Mutex
	sql       string
	phase     string
	state     string // terminal state once set
	queueWait time.Duration
	span      *obs.Span
	cancel    context.CancelFunc
}

// Info is one query's snapshot row: identity, state, and the live counter
// roll-up from its trace span.
type Info struct {
	ID        uint64        `json:"id"`
	Session   uint64        `json:"session,omitempty"`
	Namespace string        `json:"namespace,omitempty"`
	Priority  string        `json:"priority,omitempty"`
	SQL       string        `json:"sql"`
	Phase     string        `json:"phase"`
	State     string        `json:"state"`
	Elapsed   time.Duration `json:"elapsed_ns"`
	QueueWait time.Duration `json:"queue_wait_ns"`
	Chunks    int64         `json:"chunks"`
	Cells     int64         `json:"cells"`
	Bytes     int64         `json:"bytes"`
	CacheHits int64         `json:"cache_hits"`
	Nodes     int64         `json:"nodes"` // coordinator fan-out calls so far
}

// Registry is the live query table plus a bounded ring of recently
// finished queries. One process-wide instance (Default) serves every
// Database/Executor in the process — CANCEL QUERY works across sessions
// because they all register here.
type Registry struct {
	next atomic.Uint64

	mu     sync.Mutex
	active map[uint64]*Query
	recent []Info // ring, newest last
	cap    int

	startedN  atomic.Uint64
	finishedN atomic.Uint64
	gauge     sync.Once
}

// NewRegistry builds a registry keeping up to recentCap finished queries
// (0 selects 64).
func NewRegistry(recentCap int) *Registry {
	if recentCap <= 0 {
		recentCap = 64
	}
	return &Registry{active: map[uint64]*Query{}, cap: recentCap}
}

var defaultRegistry = NewRegistry(0)

// Default returns the process-wide registry.
func Default() *Registry { return defaultRegistry }

// initMetrics lazily registers the registry's obs families on the default
// obs registry (done on first Begin so importing the package costs
// nothing, and only for the default registry so tests with private
// instances cannot hijack the families).
func (r *Registry) initMetrics() {
	r.gauge.Do(func() {
		if r == defaultRegistry {
			r.registerCollectors(obs.Default())
		}
	})
}

// registerCollectors installs the query-registry families on reg. The
// counters read this registry's internal atomics, so the same numbers can
// be exported on any number of obs registries (see AttachMetrics).
func (r *Registry) registerCollectors(reg *obs.Registry) {
	reg.RegisterFunc("scidb_queries_started_total", "Statements registered by the query registry.",
		obs.KindCounter, func(emit func(obs.Sample)) {
			emit(obs.Sample{Name: "scidb_queries_started_total", Value: float64(r.startedN.Load())})
		})
	reg.RegisterFunc("scidb_queries_finished_total", "Statements that reached a terminal registry state.",
		obs.KindCounter, func(emit func(obs.Sample)) {
			emit(obs.Sample{Name: "scidb_queries_finished_total", Value: float64(r.finishedN.Load())})
		})
	reg.RegisterFunc("scidb_queries_active", "Statements currently registered and not finished.",
		obs.KindGauge, func(emit func(obs.Sample)) {
			r.mu.Lock()
			n := len(r.active)
			r.mu.Unlock()
			emit(obs.Sample{Name: "scidb_queries_active", Value: float64(n)})
		})
}

// Begin registers a statement and returns its live record. cancel, when
// non-nil, is what CANCEL QUERY <id> fires. Returns nil (and every Query
// method no-ops) on a nil registry.
func (r *Registry) Begin(sql string, o Origin, cancel context.CancelFunc) *Query {
	if r == nil {
		return nil
	}
	r.initMetrics()
	q := &Query{
		reg:       r,
		ID:        r.next.Add(1),
		Session:   o.Session,
		Namespace: o.Namespace,
		Priority:  o.Priority,
		start:     time.Now(),
		sql:       sql,
		phase:     StateRunning,
		cancel:    cancel,
	}
	r.mu.Lock()
	r.active[q.ID] = q
	r.mu.Unlock()
	r.startedN.Add(1)
	return q
}

// SetSQL fills in (or replaces) the statement text — the executor sets the
// canonical parser.Format rendering once the tree is known, which also
// covers prepared statements registered before binding.
func (q *Query) SetSQL(sql string) {
	if q == nil || sql == "" {
		return
	}
	q.mu.Lock()
	q.sql = sql
	q.mu.Unlock()
}

// SetPhase moves the query to a new live phase ("queued", "running").
func (q *Query) SetPhase(phase string) {
	if q == nil {
		return
	}
	q.mu.Lock()
	q.phase = phase
	q.mu.Unlock()
}

// SetSpan attaches the statement's trace root; Snapshot reads live
// counters from it while the query runs.
func (q *Query) SetSpan(s *obs.Span) {
	if q == nil {
		return
	}
	q.mu.Lock()
	q.span = s
	q.mu.Unlock()
}

// SetCancel installs the cancel func CANCEL QUERY fires (the executor sets
// it when it owns the statement's context).
func (q *Query) SetCancel(c context.CancelFunc) {
	if q == nil {
		return
	}
	q.mu.Lock()
	q.cancel = c
	q.mu.Unlock()
}

// SetQueueWait records the admission-queue wait.
func (q *Query) SetQueueWait(d time.Duration) {
	if q == nil {
		return
	}
	q.mu.Lock()
	q.queueWait = d
	q.mu.Unlock()
}

// State returns the terminal state, or "" while the query is live.
func (q *Query) State() string {
	if q == nil {
		return ""
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.state
}

// Finish records the terminal state, moves the query from the active table
// to the recent ring, and releases its cancel func. Idempotent: the first
// call's state wins, so a safety-net deferred Finish after a specific one
// is harmless.
func (q *Query) Finish(state string) {
	if q == nil {
		return
	}
	q.mu.Lock()
	if q.state != "" {
		q.mu.Unlock()
		return
	}
	q.state = state
	q.phase = state
	q.cancel = nil
	info := q.infoLocked()
	q.mu.Unlock()

	r := q.reg
	r.mu.Lock()
	delete(r.active, q.ID)
	r.recent = append(r.recent, info)
	if len(r.recent) > r.cap {
		r.recent = r.recent[len(r.recent)-r.cap:]
	}
	r.mu.Unlock()
	r.finishedN.Add(1)
}

// infoLocked snapshots the query; q.mu must be held.
func (q *Query) infoLocked() Info {
	info := Info{
		ID:        q.ID,
		Session:   q.Session,
		Namespace: q.Namespace,
		Priority:  q.Priority,
		SQL:       q.sql,
		Phase:     q.phase,
		State:     q.state,
		Elapsed:   time.Since(q.start),
		QueueWait: q.queueWait,
	}
	if info.State == "" {
		info.State = q.phase
	}
	for k, v := range q.span.Totals() {
		switch {
		case k == "chunks":
			info.Chunks += v
		case k == "cache_hits":
			info.CacheHits += v
		case k == "nodes":
			info.Nodes += v
		case hasPrefix(k, "cells"):
			info.Cells += v
		case hasPrefix(k, "bytes"):
			info.Bytes += v
		}
	}
	return info
}

func hasPrefix(s, p string) bool {
	return len(s) >= len(p) && s[:len(p)] == p
}

// Cancel fires the cancel func of the query with the given id, reporting
// whether a live query was found. The registry entry itself is finished by
// the statement's own exit path (the canceled context propagates), so
// Cancel never races Finish over the terminal state.
func (r *Registry) Cancel(id uint64) bool {
	if r == nil {
		return false
	}
	r.mu.Lock()
	q := r.active[id]
	r.mu.Unlock()
	if q == nil {
		return false
	}
	q.mu.Lock()
	c := q.cancel
	q.mu.Unlock()
	if c == nil {
		return false
	}
	c()
	return true
}

// Snapshot lists live queries sorted by id (oldest first).
func (r *Registry) Snapshot() []Info {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	qs := make([]*Query, 0, len(r.active))
	for _, q := range r.active {
		qs = append(qs, q)
	}
	r.mu.Unlock()
	sort.Slice(qs, func(i, j int) bool { return qs[i].ID < qs[j].ID })
	out := make([]Info, len(qs))
	for i, q := range qs {
		q.mu.Lock()
		out[i] = q.infoLocked()
		q.mu.Unlock()
	}
	return out
}

// Recent lists finished queries, oldest first, up to the ring capacity.
func (r *Registry) Recent() []Info {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Info(nil), r.recent...)
}

// Origin identifies where a statement came from; the session front end
// stamps it into the context so the executor's registration carries the
// tenant and session id.
type Origin struct {
	Namespace string
	Session   uint64
	Priority  string
}

type originKey struct{}
type queryKey struct{}

// ContextWithOrigin returns ctx carrying the statement's origin.
func ContextWithOrigin(ctx context.Context, o Origin) context.Context {
	return context.WithValue(ctx, originKey{}, o)
}

// OriginFromContext returns the origin stamped by the session layer (zero
// for in-process statements).
func OriginFromContext(ctx context.Context) Origin {
	if ctx == nil {
		return Origin{}
	}
	o, _ := ctx.Value(originKey{}).(Origin)
	return o
}

// ContextWithQuery returns ctx carrying an already-registered query — the
// session front end registers before admission (so queued statements are
// visible and cancelable) and the executor adopts that record instead of
// double-registering.
func ContextWithQuery(ctx context.Context, q *Query) context.Context {
	if q == nil {
		return ctx
	}
	return context.WithValue(ctx, queryKey{}, q)
}

// QueryFromContext returns the context's registered query, if any.
func QueryFromContext(ctx context.Context) *Query {
	if ctx == nil {
		return nil
	}
	q, _ := ctx.Value(queryKey{}).(*Query)
	return q
}
