// Package exec is the engine's parallel execution layer: a process-wide
// bounded worker pool plus a chunk-parallel map driver that operators and
// the cluster coordinator submit per-chunk tasks to. The paper's premise is
// that array operators are "embarrassingly parallel" over a regular chunked
// layout (§2.4, §2.10); this package supplies the worker scheduling so the
// operator rewrites in internal/ops only have to express per-chunk work.
//
// The pool never blocks a submitter: Map runs tasks on the calling
// goroutine and opportunistically recruits up to Parallelism-1 extra
// workers from a shared semaphore. Submission is therefore deadlock-free
// under nesting (a cluster worker running a parallel operator inside a
// fan-out goroutine makes progress even with every slot taken — it just
// runs its chunks itself and the pool counts the saturation).
package exec

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"scidb/internal/obs"
)

// Pool is a bounded worker pool. The zero Parallelism means
// runtime.NumCPU(). Parallelism 1 executes every Map serially on the
// caller, byte-for-byte equivalent to the pre-parallel engine.
type Pool struct {
	par int
	// extra grants slots for workers beyond the calling goroutine; nil when
	// par <= 1.
	extra chan struct{}

	tasksRun   atomic.Int64
	chunksDone atomic.Int64
	parRuns    atomic.Int64
	serialRuns atomic.Int64
	saturated  atomic.Int64
}

// Stats is a snapshot of pool counters: scheduling observability alongside
// the bufcache hit/miss counters.
type Stats struct {
	// Parallelism is the pool's worker bound.
	Parallelism int64
	// TasksRun counts task-function invocations (one per chunk for the
	// chunk drivers).
	TasksRun int64
	// ChunksProcessed counts chunks handled by chunk-parallel operators.
	ChunksProcessed int64
	// ParallelRuns and SerialRuns count Map calls by execution mode.
	ParallelRuns int64
	SerialRuns   int64
	// Saturation counts worker slots that were wanted but unavailable —
	// a persistent nonzero rate means the pool is the bottleneck.
	Saturation int64
}

// New creates a pool. parallelism <= 0 selects runtime.NumCPU().
func New(parallelism int) *Pool {
	if parallelism <= 0 {
		parallelism = runtime.NumCPU()
	}
	p := &Pool{par: parallelism}
	if parallelism > 1 {
		p.extra = make(chan struct{}, parallelism-1)
	}
	return p
}

// Parallelism returns the pool's worker bound.
func (p *Pool) Parallelism() int { return p.par }

// Stats snapshots the pool counters.
func (p *Pool) Stats() Stats {
	return Stats{
		Parallelism:     int64(p.par),
		TasksRun:        p.tasksRun.Load(),
		ChunksProcessed: p.chunksDone.Load(),
		ParallelRuns:    p.parRuns.Load(),
		SerialRuns:      p.serialRuns.Load(),
		Saturation:      p.saturated.Load(),
	}
}

// Fields lists the counters under their scidb_exec_* metric names: what the
// process registry and every grid node's registry export, and what a grid
// coordinator reads back.
func (s *Stats) Fields() []obs.Field {
	return []obs.Field{
		{Name: "scidb_exec_parallelism", V: &s.Parallelism},
		{Name: "scidb_exec_tasks_total", V: &s.TasksRun},
		{Name: "scidb_exec_chunks_total", V: &s.ChunksProcessed},
		{Name: "scidb_exec_parallel_runs_total", V: &s.ParallelRuns},
		{Name: "scidb_exec_serial_runs_total", V: &s.SerialRuns},
		{Name: "scidb_exec_saturation_total", V: &s.Saturation},
	}
}

// NoteChunks records n chunks processed by a chunk driver.
func (p *Pool) NoteChunks(n int64) { p.chunksDone.Add(n) }

// Map runs fn(0..n-1) and returns the first error. With parallelism 1 (or a
// single task) it runs serially in index order on the caller, preserving the
// engine's original semantics exactly. Otherwise tasks are pulled from a
// shared index counter by the caller plus up to Parallelism-1 recruited
// workers; the first failure (lowest index wins, for determinism) or a
// cancelled ctx stops the remaining tasks from starting.
func (p *Pool) Map(ctx context.Context, n int, fn func(i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	// span is nil unless this query is traced; every method on a nil span
	// is a no-op, so the untraced cost is this one context lookup.
	span := obs.SpanFromContext(ctx)
	if p.par <= 1 || n == 1 {
		p.serialRuns.Add(1)
		span.Add("pool_tasks", int64(n))
		span.Add("pool_serial_runs", 1)
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			p.tasksRun.Add(1)
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	p.parRuns.Add(1)
	span.Add("pool_tasks", int64(n))
	span.Add("pool_parallel_runs", 1)

	var (
		next   atomic.Int64
		failed atomic.Bool
		mu     sync.Mutex
		errIdx = int64(n)
		first  error
	)
	record := func(i int64, err error) {
		mu.Lock()
		if err != nil && i < errIdx {
			errIdx, first = i, err
		}
		mu.Unlock()
		failed.Store(true)
	}
	run := func() {
		for {
			if failed.Load() || ctx.Err() != nil {
				return
			}
			i := next.Add(1) - 1
			if i >= int64(n) {
				return
			}
			p.tasksRun.Add(1)
			if err := fn(int(i)); err != nil {
				record(i, err)
				return
			}
		}
	}

	want := p.par
	if n < want {
		want = n
	}
	var wg sync.WaitGroup
	for w := 1; w < want; w++ {
		select {
		case p.extra <- struct{}{}:
			wg.Add(1)
			go func() {
				defer func() { <-p.extra; wg.Done() }()
				run()
			}()
		default:
			// Every slot is busy serving other Map calls; the caller still
			// guarantees progress. Saturation is the never-blocking pool's
			// analogue of queue wait: work that wanted a worker and ran on
			// the caller instead.
			p.saturated.Add(1)
			span.Add("pool_saturated", 1)
		}
	}
	run()
	wg.Wait()
	if first != nil {
		return first
	}
	if failed.Load() {
		// Failure without a recorded error means ctx fired inside a task.
		return ctx.Err()
	}
	return ctx.Err()
}

// def is the process-wide pool operators use by default; replaced by
// SetParallelism (cmd flags, core.Database.SetParallelism).
var def atomic.Pointer[Pool]

func init() {
	def.Store(New(0))
	// The process-wide pool exports through the unified registry. The
	// collector re-reads Default() per scrape, so SetParallelism swaps
	// (which reset the counters) are reflected immediately.
	obs.Default().RegisterFunc("scidb_exec", "Process-wide worker pool scheduling counters.", obs.KindGauge,
		func(emit func(obs.Sample)) {
			s := Default().Stats()
			obs.EmitFields(emit, "", s.Fields())
		})
}

// Default returns the process-wide pool.
func Default() *Pool { return def.Load() }

// Parallelism returns the process-wide pool's worker bound.
func Parallelism() int { return Default().Parallelism() }

// SetParallelism replaces the process-wide pool with one of the given
// bound (<= 0 restores runtime.NumCPU()). In-flight Maps keep running on
// the pool they started with; counters restart at zero.
func SetParallelism(n int) { def.Store(New(n)) }
