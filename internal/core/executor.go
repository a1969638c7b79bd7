package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"scidb/internal/introspect"
	"scidb/internal/obs"
	"scidb/internal/parser"
)

// Executor is the statement-execution object split out of Database so the
// engine has one reusable serving surface: the REPL, the Go binding, and
// the session server (internal/session) all run statements through an
// Executor instead of reaching into Database directly. The Database keeps
// the catalog (arrays, versions, UDFs, provenance); the Executor owns the
// per-consumer execution state — prepared statements (parse once, bind per
// execution), cancellation checks, and the statement-latency/slow-query
// accounting every statement passes through.
//
// A Database has one default Executor (Database.Executor) shared by the
// in-process paths; the session server creates one Executor per client
// session so prepared-statement namespaces never collide across
// connections.
type Executor struct {
	db *Database

	mu       sync.Mutex
	prepared map[string]*Prepared
}

// Prepared is one parsed, parameter-counted statement template.
type Prepared struct {
	// Name is the handle the statement was prepared under.
	Name string
	// Src is the original statement text (with $N placeholders).
	Src string
	// NumParams is the highest $N the template references.
	NumParams int

	stmt parser.Stmt
}

// Stmt returns the parsed template (read-only; Bind rebuilds, never
// mutates).
func (p *Prepared) Stmt() parser.Stmt { return p.stmt }

// NewExecutor creates an executor over db with an empty prepared set.
func NewExecutor(db *Database) *Executor {
	return &Executor{db: db, prepared: map[string]*Prepared{}}
}

// Executor returns the database's default executor (the in-process/REPL
// path; sessions get their own via NewExecutor).
func (db *Database) Executor() *Executor { return db.def }

// Database returns the engine the executor runs against.
func (e *Executor) Database() *Database { return e.db }

// Exec parses and executes one AQL statement.
func (e *Executor) Exec(src string) (*Result, error) {
	return e.ExecCtx(context.Background(), src)
}

// ExecCtx parses and executes one AQL statement under a context.
func (e *Executor) ExecCtx(ctx context.Context, src string) (*Result, error) {
	stmt, err := parser.Parse(src)
	if err != nil {
		return nil, err
	}
	return e.RunCtx(ctx, stmt)
}

// RunCtx executes a parse tree under a context. A context carrying a span
// (obs.ContextWithSpan) traces the statement's whole operator tree; every
// statement, traced or not, feeds the scidb_query_seconds histogram. A
// canceled context fails before execution starts, and the chunk-parallel
// operators abort between operators/chunks while it runs.
//
// Every statement also passes through the live query registry
// (internal/introspect): a session-registered query arriving in the
// context (introspect.ContextWithQuery) is adopted — the session owns its
// terminal state because results may stream after RunCtx returns — while
// an in-process statement registers here under its own cancelable context,
// so CANCEL QUERY works for both transports.
func (e *Executor) RunCtx(ctx context.Context, stmt parser.Stmt) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if n := parser.MaxParam(stmt); n > 0 {
		return nil, fmt.Errorf("core: statement has %d unbound parameters (prepare it and execute with values)", n)
	}
	db := e.db
	introspect.Init()
	start := time.Now()

	q := introspect.QueryFromContext(ctx)
	adopted := q != nil
	if q == nil {
		var cancel context.CancelFunc
		ctx, cancel = context.WithCancel(ctx)
		defer cancel()
		q = introspect.Default().Begin("", introspect.OriginFromContext(ctx), cancel)
		ctx = introspect.ContextWithQuery(ctx, q)
	}
	q.SetSQL(parser.Format(stmt))
	q.SetPhase(introspect.StateRunning)

	var root *obs.Span
	slow := db.slowThreshold()
	if obs.SpanFromContext(ctx) == nil && (slow > 0 || q != nil) {
		// A registered query always runs traced: the span's counters are
		// what sys.queries reports live (cells, bytes, chunks, fan-out).
		tr := obs.NewTrace(parser.Format(stmt))
		root = tr.Root()
		ctx = obs.ContextWithSpan(ctx, root)
	}
	if root != nil {
		q.SetSpan(root)
	} else {
		q.SetSpan(obs.SpanFromContext(ctx))
	}

	res, err := db.run(ctx, stmt)
	d := time.Since(start)
	queryHist.Observe(d.Seconds())
	if root != nil {
		root.End()
		if slow > 0 && d >= slow {
			db.logSlow(stmt, d, root)
			introspect.Emit(introspect.EvSlowQuery, -1, "",
				fmt.Sprintf("%s took %s (threshold %s)", parser.Format(stmt), d, slow))
		}
	}
	if !adopted {
		switch {
		case err == nil:
			q.Finish(introspect.StateDone)
		case errors.Is(err, context.Canceled):
			q.Finish(introspect.StateCanceled)
		default:
			q.Finish(introspect.StateError)
		}
	}
	return res, err
}

// Prepare parses src once and stores it under name. The statement may
// reference positional parameters $1..$N wherever a literal is legal
// (filter/apply/cjoin value expressions, INSERT values); ExecutePrepared
// binds values per execution. Re-preparing a taken name replaces it, the
// way every SQL session protocol behaves.
func (e *Executor) Prepare(name, src string) (*Prepared, error) {
	if name == "" {
		return nil, fmt.Errorf("core: prepared statement needs a name")
	}
	stmt, err := parser.Parse(src)
	if err != nil {
		return nil, err
	}
	p := &Prepared{Name: name, Src: src, NumParams: parser.MaxParam(stmt), stmt: stmt}
	e.mu.Lock()
	e.prepared[name] = p
	e.mu.Unlock()
	return p, nil
}

// Prepared looks up a prepared statement.
func (e *Executor) Prepared(name string) (*Prepared, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	p, ok := e.prepared[name]
	return p, ok
}

// PreparedNames lists prepared statements, sorted.
func (e *Executor) PreparedNames() []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]string, 0, len(e.prepared))
	for n := range e.prepared {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// ClosePrepared drops a prepared statement.
func (e *Executor) ClosePrepared(name string) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, ok := e.prepared[name]; !ok {
		return fmt.Errorf("core: unknown prepared statement %q", name)
	}
	delete(e.prepared, name)
	return nil
}

// ExecPrepared binds params (params[0] is $1) into the named template and
// executes the bound tree. The template itself is never mutated, so
// concurrent executions of one prepared statement are safe.
func (e *Executor) ExecPrepared(ctx context.Context, name string, params []parser.Scalar) (*Result, error) {
	p, ok := e.Prepared(name)
	if !ok {
		return nil, fmt.Errorf("core: unknown prepared statement %q", name)
	}
	bound, err := parser.Bind(p.stmt, params)
	if err != nil {
		return nil, err
	}
	return e.RunCtx(ctx, bound)
}
