// Package core is the SciDB engine facade: the catalog of array types,
// array instances, updatable (no-overwrite) arrays, and version trees; the
// UDF registry; the provenance log; and the executor that runs parse trees
// produced by any language binding (§2.4).
package core

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"

	"scidb/internal/array"
	"scidb/internal/cluster"
	execpkg "scidb/internal/exec"
	"scidb/internal/insitu"
	"scidb/internal/obs"
	"scidb/internal/parser"
	"scidb/internal/provenance"
	"scidb/internal/storage"
	"scidb/internal/udf"
	"scidb/internal/version"
)

// Result is the outcome of executing one statement: an array for queries,
// a message for DDL and DML.
type Result struct {
	Array *array.Array
	Msg   string
}

// Database is one engine instance.
type Database struct {
	mu sync.RWMutex
	// types holds DEFINE ARRAY templates (dimension bounds unset).
	types map[string]*parser.DefineArray
	// arrays holds plain (non-updatable) array instances.
	arrays map[string]*array.Array
	// updatables holds no-overwrite instances, each with a version tree.
	updatables map[string]*version.Updatable
	trees      map[string]*version.Tree
	// stores holds disk-backed arrays served through a buffer pool (§2.5).
	stores map[string]*storage.Store
	// attached holds the fill gate of each store an attached file fills at
	// its first read (§2.9).
	attached map[string]*insitu.FillOnce

	reg *udf.Registry
	log *provenance.Log
	// reruns holds re-executable closures for logged derivations (§2.12
	// re-derivation).
	reruns *reruns
	// now supplies commit timestamps; injectable for tests.
	now func() int64

	// cluster, when attached, routes references to distributed arrays
	// through the coordinator (scan gather, aggregate pushdown, DDL/DML).
	cluster *cluster.Coordinator

	// Slow-statement log: when armed, every statement runs traced and any
	// whose wall time reaches the threshold gets its profile tree written.
	slowMu     sync.Mutex
	slowThresh time.Duration
	slowW      io.Writer

	// def is the database's default Executor — the statement-execution
	// object (executor.go) the in-process paths share. Sessions get their
	// own so prepared statements stay per-connection.
	def *Executor
}

// queryHist is the process-wide statement-latency histogram, exported at
// /metrics as scidb_query_seconds.
var queryHist = obs.Default().Histogram("scidb_query_seconds",
	"Statement execution latency in seconds.", nil)

// Open creates an empty database.
func Open() *Database {
	db := &Database{
		types:      map[string]*parser.DefineArray{},
		arrays:     map[string]*array.Array{},
		updatables: map[string]*version.Updatable{},
		trees:      map[string]*version.Tree{},
		stores:     map[string]*storage.Store{},
		attached:   map[string]*insitu.FillOnce{},
		reg:        udf.NewRegistry(),
		log:        provenance.NewLog(),
		reruns:     newReruns(),
		now:        func() int64 { return time.Now().UnixNano() },
	}
	db.def = NewExecutor(db)
	return db
}

// SetClock overrides the commit clock (tests, deterministic benches).
func (db *Database) SetClock(now func() int64) { db.now = now }

// SetParallelism bounds the worker pool the chunk-parallel operators draw
// from: 1 forces serial execution (the pre-parallel engine exactly), <= 0
// restores runtime.NumCPU(). The pool is process-wide, so the setting spans
// every Database in the process.
func (db *Database) SetParallelism(n int) { execpkg.SetParallelism(n) }

// Parallelism reports the worker pool's current bound.
func (db *Database) Parallelism() int { return execpkg.Parallelism() }

// ExecStats snapshots the worker-pool counters — scheduling observability
// alongside the per-store CacheStats.
func (db *Database) ExecStats() execpkg.Stats { return execpkg.Default().Stats() }

// Registry exposes the UDF registry for Go-registered functions (§2.3
// extensibility; see DESIGN.md's substitution for C++ object code).
func (db *Database) Registry() *udf.Registry { return db.reg }

// Provenance exposes the command log (§2.12).
func (db *Database) Provenance() *provenance.Log { return db.log }

// Exec parses and executes one AQL statement.
func (db *Database) Exec(src string) (*Result, error) {
	return db.def.Exec(src)
}

// SetSlowQuery arms the slow-statement log: every statement is traced and
// any whose wall time reaches threshold gets its profile tree written to
// out. A zero threshold disables both.
func (db *Database) SetSlowQuery(threshold time.Duration, out io.Writer) {
	db.slowMu.Lock()
	defer db.slowMu.Unlock()
	db.slowThresh, db.slowW = threshold, out
}

func (db *Database) slowThreshold() time.Duration {
	db.slowMu.Lock()
	defer db.slowMu.Unlock()
	return db.slowThresh
}

// Run executes a parse tree (the shared representation all language
// bindings map to).
func (db *Database) Run(stmt parser.Stmt) (*Result, error) {
	return db.RunCtx(context.Background(), stmt)
}

// RunCtx executes a parse tree through the default executor (see
// Executor.RunCtx for tracing, latency accounting, and cancellation
// semantics).
func (db *Database) RunCtx(ctx context.Context, stmt parser.Stmt) (*Result, error) {
	return db.def.RunCtx(ctx, stmt)
}

func (db *Database) logSlow(stmt parser.Stmt, d time.Duration, root *obs.Span) {
	db.slowMu.Lock()
	defer db.slowMu.Unlock()
	if db.slowW == nil {
		return
	}
	fmt.Fprintf(db.slowW, "slow statement (%s): %s\n", d, parser.Format(stmt))
	root.Render(db.slowW)
}

func (db *Database) run(ctx context.Context, stmt parser.Stmt) (*Result, error) {
	switch s := stmt.(type) {
	case *parser.DefineArray:
		return db.runDefine(s)
	case *parser.DefineFunction:
		return db.runDefineFunction(s)
	case *parser.CreateArray:
		return db.runCreate(s)
	case *parser.CreateFromFile:
		return db.runCreateFromFile(s)
	case *parser.CreateVersion:
		return db.runCreateVersion(s)
	case *parser.Enhance:
		return db.runEnhance(s)
	case *parser.Shape:
		return db.runShape(s)
	case *parser.Insert:
		return db.runInsert(s)
	case *parser.Delete:
		return db.runDelete(s)
	case *parser.Load:
		return db.runLoad(s)
	case *parser.Attach:
		return db.runAttach(s)
	case *parser.Store:
		return db.runStore(ctx, s)
	case *parser.Query:
		p, err := db.lower(s.Expr)
		if err != nil {
			return nil, err
		}
		a, err := db.eval(ctx, p)
		if err != nil {
			return nil, err
		}
		return &Result{Array: a}, nil
	case *parser.Explain:
		return db.runExplain(ctx, s)
	case *parser.ShowQueries:
		return db.runShowQueries()
	case *parser.CancelQuery:
		return db.runCancelQuery(s)
	}
	return nil, fmt.Errorf("core: unsupported statement %T", stmt)
}

// runExplain handles EXPLAIN and EXPLAIN ANALYZE. Plain EXPLAIN renders
// the operator tree without running anything; ANALYZE runs the statement
// under a fresh trace and renders the as-executed profile — per-operator
// wall time and counters, with per-node subtrees when a cluster ran parts
// of the query.
func (db *Database) runExplain(ctx context.Context, s *parser.Explain) (*Result, error) {
	if !s.Analyze {
		msg, err := db.planString(s.Stmt)
		if err != nil {
			return nil, err
		}
		return &Result{Msg: msg}, nil
	}
	tr := obs.NewTrace(parser.Format(s.Stmt))
	root := tr.Root()
	ctx = obs.ContextWithSpan(ctx, root)
	res, err := db.run(ctx, s.Stmt)
	root.End()
	if err != nil {
		return nil, err
	}
	msg := strings.TrimRight(root.RenderString(), "\n")
	if res != nil && res.Msg != "" {
		msg = res.Msg + "\n" + msg
	}
	return &Result{Msg: msg}, nil
}

// planString renders the statement's plan without executing it: the tree
// execution would run, each read showing the fragment pushdown gave it.
func (db *Database) planString(stmt parser.Stmt) (string, error) {
	var e parser.ArrayExpr
	switch n := stmt.(type) {
	case *parser.Query:
		e = n.Expr
	case *parser.Store:
		e = n.Expr
	default:
		return parser.Format(stmt), nil
	}
	p, err := db.lower(e)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	p.render(&b, "", "")
	if st, ok := stmt.(*parser.Store); ok {
		fmt.Fprintf(&b, "store into %s\n", st.Target)
	}
	return strings.TrimRight(b.String(), "\n"), nil
}

func (db *Database) runDefine(s *parser.DefineArray) (*Result, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, ok := db.types[s.Name]; ok {
		return nil, fmt.Errorf("core: array type %q already defined", s.Name)
	}
	// Validate attribute types now.
	for _, a := range s.Attrs {
		if _, err := array.ParseType(a.Type); err != nil {
			return nil, err
		}
	}
	if len(s.DimNames) == 0 || len(s.Attrs) == 0 {
		return nil, fmt.Errorf("core: array type needs dimensions and attributes")
	}
	db.types[s.Name] = s
	return &Result{Msg: fmt.Sprintf("defined array type %s", s.Name)}, nil
}

// runDefineFunction binds the paper's
//
//	Define function Scale10 (integer I, integer J)
//	    returns (integer K, integer L) file_handle
//
// declaration. The handle "go:<name>" plays the file_handle role: it names
// a Go body already registered in this database's registry (the paper
// links C++ object code; we link a registered Go function — DESIGN.md).
// The declaration's signature is installed under the declared name, and
// calls are type-checked against it.
func (db *Database) runDefineFunction(s *parser.DefineFunction) (*Result, error) {
	const prefix = "go:"
	if !strings.HasPrefix(s.Handle, prefix) {
		return nil, fmt.Errorf("core: function handle %q must be 'go:<registered-name>'", s.Handle)
	}
	impl, err := db.reg.Func(strings.TrimPrefix(s.Handle, prefix))
	if err != nil {
		return nil, fmt.Errorf("core: %w (register the Go body before DEFINE FUNCTION)", err)
	}
	in, err := paramTypes(s.In)
	if err != nil {
		return nil, err
	}
	out, err := paramTypes(s.Out)
	if err != nil {
		return nil, err
	}
	if len(impl.In) != 0 && len(impl.In) != len(in) {
		return nil, fmt.Errorf("core: handle %s takes %d args, declaration has %d", s.Handle, len(impl.In), len(in))
	}
	bound := &udf.Func{Name: s.Name, In: in, Out: out, Body: impl.Body}
	if err := db.reg.RegisterFunc(bound); err != nil {
		return nil, err
	}
	return &Result{Msg: fmt.Sprintf("defined function %s (%d in, %d out) bound to %s",
		s.Name, len(in), len(out), s.Handle)}, nil
}

func paramTypes(params []parser.ParamDef) ([]array.Type, error) {
	out := make([]array.Type, len(params))
	for i, p := range params {
		t, err := array.ParseType(p.Type)
		if err != nil {
			return nil, err
		}
		out[i] = t
	}
	return out, nil
}

func (db *Database) runCreate(s *parser.CreateArray) (*Result, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	t, ok := db.types[s.TypeName]
	if !ok {
		return nil, fmt.Errorf("core: unknown array type %q", s.TypeName)
	}
	if db.nameTakenLocked(s.Name) {
		return nil, fmt.Errorf("core: array %q already exists", s.Name)
	}
	if len(s.Bounds) != len(t.DimNames) {
		return nil, fmt.Errorf("core: %s has %d dimensions, got %d bounds", s.TypeName, len(t.DimNames), len(s.Bounds))
	}
	schema := &array.Schema{Name: s.Name}
	for i, dn := range t.DimNames {
		hi := s.Bounds[i]
		if hi < 0 {
			hi = array.Unbounded
		}
		schema.Dims = append(schema.Dims, array.Dimension{Name: dn, High: hi})
	}
	for _, a := range t.Attrs {
		at, err := array.ParseType(a.Type)
		if err != nil {
			return nil, err
		}
		schema.Attrs = append(schema.Attrs, array.Attribute{Name: a.Name, Type: at, Uncertain: a.Uncertain})
	}
	if db.cluster != nil && !t.Updatable {
		if msg, err := db.createOnCluster(s.Name, schema); err != nil {
			return nil, err
		} else if msg != "" {
			return &Result{Msg: msg}, nil
		}
	}
	if t.Updatable {
		u, err := version.NewUpdatable(schema)
		if err != nil {
			return nil, err
		}
		db.updatables[s.Name] = u
		db.trees[s.Name] = version.NewTree(u)
		return &Result{Msg: fmt.Sprintf("created updatable array %s (history dimension added automatically)", s.Name)}, nil
	}
	a, err := array.New(schema)
	if err != nil {
		return nil, err
	}
	db.arrays[s.Name] = a
	return &Result{Msg: fmt.Sprintf("created array %s", s.Name)}, nil
}

func (db *Database) nameTakenLocked(name string) bool {
	if _, ok := db.arrays[name]; ok {
		return true
	}
	if _, ok := db.stores[name]; ok {
		return true
	}
	_, ok := db.updatables[name]
	return ok
}

func (db *Database) runCreateVersion(s *parser.CreateVersion) (*Result, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	tree, ok := db.trees[s.Array]
	if !ok {
		return nil, fmt.Errorf("core: %q is not an updatable array (versions require no-overwrite storage)", s.Array)
	}
	if _, err := tree.Create(s.Name, s.Parent); err != nil {
		return nil, err
	}
	return &Result{Msg: fmt.Sprintf("created version %s of %s", s.Name, s.Array)}, nil
}

func (db *Database) runEnhance(s *parser.Enhance) (*Result, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	a, ok := db.arrays[s.Array]
	if !ok {
		return nil, fmt.Errorf("core: unknown array %q (enhance applies to plain arrays)", s.Array)
	}
	f, err := db.reg.Func(s.Func)
	if err != nil {
		return nil, err
	}
	// An inverse registered as "inv_<name>" enables { ... } addressing.
	inv, _ := db.reg.Func("inv_" + s.Func)
	e, err := udf.FromFunc(f, inv)
	if err != nil {
		return nil, err
	}
	a.Enhance(e)
	return &Result{Msg: fmt.Sprintf("enhanced %s with %s", s.Array, s.Func)}, nil
}

func (db *Database) runShape(s *parser.Shape) (*Result, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	a, ok := db.arrays[s.Array]
	if !ok {
		return nil, fmt.Errorf("core: unknown array %q", s.Array)
	}
	sh, err := db.reg.Shape(s.Func, s.Args)
	if err != nil {
		return nil, err
	}
	a.SetShape(sh)
	return &Result{Msg: fmt.Sprintf("shaped %s with %s", s.Array, s.Func)}, nil
}

func scalarToValue(s parser.Scalar) array.Value {
	switch {
	case s.IsNull:
		return array.NullValue(array.TFloat64)
	case s.IsString:
		return array.String64(s.Str)
	case s.IsInt:
		return array.Int64(s.Int)
	default:
		return array.UncertainFloat(s.Num, s.Sigma)
	}
}

func (db *Database) runInsert(s *parser.Insert) (*Result, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	cell := make(array.Cell, len(s.Values))
	for i, v := range s.Values {
		cell[i] = scalarToValue(v)
	}
	coord := array.Coord(s.Coord)
	// Local-first, like reads (Database.resolve).
	if a, ok := db.arrays[s.Array]; ok {
		// Coerce nulls to the attribute types.
		for i := range cell {
			if cell[i].Null && i < len(a.Schema.Attrs) {
				cell[i] = array.NullValue(a.Schema.Attrs[i].Type)
			}
		}
		if err := a.Set(coord, cell); err != nil {
			return nil, err
		}
		return &Result{Msg: "1 cell written"}, nil
	}
	if u, ok := db.updatables[s.Array]; ok {
		tx := u.Begin()
		if err := tx.Put(coord, cell); err != nil {
			return nil, err
		}
		h, err := tx.Commit(db.now())
		if err != nil {
			return nil, err
		}
		return &Result{Msg: fmt.Sprintf("1 cell written at history %d", h)}, nil
	}
	if db.cluster != nil && db.cluster.Has(s.Array) {
		if err := db.cluster.Put(s.Array, coord, cell); err != nil {
			return nil, err
		}
		if err := db.cluster.Flush(s.Array); err != nil {
			return nil, err
		}
		return &Result{Msg: "1 cell written (cluster)"}, nil
	}
	return nil, fmt.Errorf("core: unknown array %q", s.Array)
}

func (db *Database) runDelete(s *parser.Delete) (*Result, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	coord := array.Coord(s.Coord)
	if a, ok := db.arrays[s.Array]; ok {
		a.Erase(coord)
		return &Result{Msg: "1 cell erased"}, nil
	}
	if u, ok := db.updatables[s.Array]; ok {
		// No-overwrite: a deletion flag at the next history value.
		tx := u.Begin()
		if err := tx.Delete(coord); err != nil {
			return nil, err
		}
		h, err := tx.Commit(db.now())
		if err != nil {
			return nil, err
		}
		return &Result{Msg: fmt.Sprintf("deletion flag written at history %d", h)}, nil
	}
	return nil, fmt.Errorf("core: unknown array %q", s.Array)
}

func (db *Database) runLoad(s *parser.Load) (*Result, error) {
	ds, err := openExternal(s.Path, s.Adaptor)
	if err != nil {
		return nil, err
	}
	defer ds.Close()
	a, err := insitu.Materialize(ds)
	if err != nil {
		return nil, err
	}
	a.Schema.Name = s.Array
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.nameTakenLocked(s.Array) {
		return nil, fmt.Errorf("core: array %q already exists", s.Array)
	}
	db.arrays[s.Array] = a
	// Metadata repository record (§2.12): the external program and its
	// run-time parameters.
	db.log.Append(&provenance.Command{
		Kind:   provenance.KindLoad,
		Output: s.Array,
		Time:   db.now(),
		Text:   fmt.Sprintf("load %s from '%s' using %s", s.Array, s.Path, s.Adaptor),
		Params: map[string]string{"path": s.Path, "adaptor": s.Adaptor},
	})
	return &Result{Msg: fmt.Sprintf("loaded %d cells into %s", a.Count(), s.Array)}, nil
}

func (db *Database) runStore(ctx context.Context, s *parser.Store) (*Result, error) {
	p, err := db.lower(s.Expr)
	if err != nil {
		return nil, err
	}
	a, err := db.eval(ctx, p)
	if err != nil {
		return nil, err
	}
	// A stored array outlives the statement, so a gathered chunk forgets the
	// payload it kept (array.Chunk.KeepEncoded): a view of its worker's
	// response frame, which it would otherwise pin whole beside its columns.
	for _, ch := range a.Chunks() {
		if _, kept := ch.Encoded(); kept != nil {
			ch.KeepEncoded(nil, nil)
		}
	}
	cmds, _, err := db.derivation(ctx, p, s.Target, true)
	if err != nil {
		return nil, err
	}
	db.mu.Lock()
	if db.nameTakenLocked(s.Target) {
		db.mu.Unlock()
		return nil, fmt.Errorf("core: array %q already exists", s.Target)
	}
	a.Schema.Name = s.Target
	db.arrays[s.Target] = a
	db.mu.Unlock()
	for _, l := range cmds {
		db.log.Append(l.cmd)
		if l.rerun != nil {
			db.reruns.set(l.cmd.ID, l.rerun)
		}
	}
	return &Result{Msg: fmt.Sprintf("stored %d cells into %s", a.Count(), s.Target)}, nil
}

// Array returns a stored plain array (Go binding access).
func (db *Database) Array(name string) (*array.Array, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if a, ok := db.arrays[name]; ok {
		return a, nil
	}
	return nil, fmt.Errorf("core: unknown array %q", name)
}

// Updatable returns a no-overwrite array instance.
func (db *Database) Updatable(name string) (*version.Updatable, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if u, ok := db.updatables[name]; ok {
		return u, nil
	}
	return nil, fmt.Errorf("core: unknown updatable array %q", name)
}

// VersionTree returns an updatable array's tree of named versions.
func (db *Database) VersionTree(name string) (*version.Tree, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if t, ok := db.trees[name]; ok {
		return t, nil
	}
	return nil, fmt.Errorf("core: unknown updatable array %q", name)
}

// PutArray registers an externally built array under a name (Go binding).
func (db *Database) PutArray(name string, a *array.Array) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.nameTakenLocked(name) {
		return fmt.Errorf("core: array %q already exists", name)
	}
	a.Schema.Name = name
	db.arrays[name] = a
	return nil
}

// Drop removes an array by name.
func (db *Database) Drop(name string) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, ok := db.arrays[name]; ok {
		delete(db.arrays, name)
		return nil
	}
	if st, ok := db.stores[name]; ok {
		if fill, ok := db.attached[name]; ok {
			fill.Close()
			delete(db.attached, name)
		}
		_ = st.Close()
		delete(db.stores, name)
		return nil
	}
	if _, ok := db.updatables[name]; ok {
		delete(db.updatables, name)
		delete(db.trees, name)
		return nil
	}
	if db.cluster != nil && db.cluster.Has(name) {
		return db.cluster.Drop(name)
	}
	return fmt.Errorf("core: unknown array %q", name)
}

// Names lists stored arrays (plain and updatable), sorted.
func (db *Database) Names() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	var out []string
	for n := range db.arrays {
		out = append(out, n)
	}
	for n := range db.updatables {
		out = append(out, n)
	}
	for n := range db.stores {
		out = append(out, n)
	}
	if db.cluster != nil {
		out = append(out, db.cluster.Names()...)
	}
	sort.Strings(out)
	return out
}
