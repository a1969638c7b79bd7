package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"scidb/internal/array"
	"scidb/internal/parser"
)

func seedExecDB(t *testing.T) *Database {
	t.Helper()
	db := testDB()
	exec(t, db, "define array T (v = float) (x, y)")
	exec(t, db, "create array M as T [4, 4]")
	for x := 1; x <= 4; x++ {
		for y := 1; y <= 4; y++ {
			exec(t, db, fmt.Sprintf("insert into M [%d, %d] values (%d)", x, y, (x-1)*4+y-1))
		}
	}
	return db
}

func nonNullCells(r *Result) int {
	n := 0
	r.Array.Iter(func(_ array.Coord, cell array.Cell) bool {
		if !cell[0].Null {
			n++
		}
		return true
	})
	return n
}

func TestExecutorPreparedLifecycle(t *testing.T) {
	db := seedExecDB(t)
	e := db.Executor()

	p, err := e.Prepare("pick", "filter(M, v > $1)")
	if err != nil {
		t.Fatal(err)
	}
	if p.NumParams != 1 || p.Name != "pick" {
		t.Fatalf("prepared = %+v", p)
	}
	ctx := context.Background()
	for cut, want := range map[float64]int{7.5: 8, 11.5: 4, 100: 0} {
		r, err := e.ExecPrepared(ctx, "pick", []parser.Scalar{{Num: cut}})
		if err != nil {
			t.Fatal(err)
		}
		if got := nonNullCells(r); got != want {
			t.Errorf("cut %v: %d surviving cells, want %d", cut, got, want)
		}
	}
	// Wrong arity and unknown handles fail loudly.
	if _, err := e.ExecPrepared(ctx, "pick", nil); err == nil {
		t.Error("unbound execute succeeded")
	}
	if _, err := e.ExecPrepared(ctx, "ghost", nil); err == nil {
		t.Error("unknown prepared name succeeded")
	}
	// Re-preparing a taken name replaces it.
	if _, err := e.Prepare("pick", "filter(M, v < $1)"); err != nil {
		t.Fatal(err)
	}
	r, err := e.ExecPrepared(ctx, "pick", []parser.Scalar{{Num: 4.5}})
	if err != nil {
		t.Fatal(err)
	}
	if got := nonNullCells(r); got != 5 {
		t.Errorf("replaced template: %d cells, want 5 (v < 4.5)", got)
	}
	if names := e.PreparedNames(); len(names) != 1 || names[0] != "pick" {
		t.Errorf("PreparedNames = %v", names)
	}
	if err := e.ClosePrepared("pick"); err != nil {
		t.Fatal(err)
	}
	if err := e.ClosePrepared("pick"); err == nil {
		t.Error("double close succeeded")
	}
}

func TestExecutorRejectsUnboundParams(t *testing.T) {
	db := seedExecDB(t)
	_, err := db.Exec("filter(M, v > $1)")
	if err == nil {
		t.Fatal("direct execution of parameterized statement succeeded")
	}
}

func TestExecutorPerSessionNamespaces(t *testing.T) {
	db := seedExecDB(t)
	a, b := NewExecutor(db), NewExecutor(db)
	if _, err := a.Prepare("q", "filter(M, v > $1)"); err != nil {
		t.Fatal(err)
	}
	if _, ok := b.Prepared("q"); ok {
		t.Error("prepared statement leaked across executors")
	}
	// Both executors share the same catalog underneath.
	if _, err := b.Exec("aggregate(M, {}, sum(v))"); err != nil {
		t.Fatalf("second executor cannot see shared catalog: %v", err)
	}
}

func TestExecutorCtxCancel(t *testing.T) {
	db := seedExecDB(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := db.Executor().ExecCtx(ctx, "M"); err == nil {
		t.Error("canceled context executed anyway")
	}
}

// TestBinaryInputsRunTogether: sjoin, cjoin, cross and concat evaluate their
// two inputs at once. Answers are unchanged, the left input's error wins
// over the right's, a canceled statement fails with its cancellation, and no
// goroutine is left behind.
func TestBinaryInputsRunTogether(t *testing.T) {
	db := seedExecDB(t)
	exec(t, db, "create array N as T [4, 4]")
	exec(t, db, "insert into N [2, 3] values (7)")
	base := runtime.NumGoroutine()
	for stmt, want := range map[string]int64{
		"cross(M, N)":                                           16,
		"concat(M, filter(M, v > 7), x)":                        32,
		"sjoin(M, N, M.x = N.x and M.y = N.y)":                  1,
		"cjoin(filter(M, v > 13), N, M.v > N.v)":                16,
		"cross(cross(N, N), concat(N, N, x))":                   2,
		"sjoin(filter(M, v > 5), M, M.x = M.x)":                 64,
		"concat(subsample(M, x <= 2), subsample(N, x <= 2), x)": 9,
	} {
		if got := exec(t, db, stmt).Array.Count(); got != want {
			t.Errorf("%s: %d cells, want %d", stmt, got, want)
		}
	}
	for stmt, want := range map[string]string{
		// The left input fails while it runs, the right as it resolves.
		"cross(filter(M, nosuch > 1), Missing)": "nosuch",
		// Both fail while they run.
		"cross(filter(M, left > 1), filter(M, right > 1))": "left",
		"sjoin(M, Missing, M.x = Missing.x)":               "Missing",
	} {
		_, err := db.Exec(stmt)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: error %v, want the one naming %q", stmt, err, want)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	q, err := parser.Parse("cross(M, filter(N, v > 1))")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.RunCtx(ctx, q); !errors.Is(err, context.Canceled) {
		t.Errorf("canceled statement: %v, want context.Canceled", err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Errorf("%d goroutines after the statements, %d before", n, base)
	}
}

// TestCanceledCrossStopsBetweenChunks: cross(M, M) over a 2048-cell M in 128
// chunks, canceled as soon as its first chunk task has run, stops between
// chunks, returns the cancellation and leaves no goroutine behind.
func TestCanceledCrossStopsBetweenChunks(t *testing.T) {
	db := testDB()
	m := array.MustNew(&array.Schema{Name: "M", Dims: []array.Dimension{{Name: "x", High: 2048, ChunkLen: 16}},
		Attrs: []array.Attribute{{Name: "v", Type: array.TInt64}}})
	if err := m.Fill(func(c array.Coord) array.Cell { return array.Cell{array.Int64(c[0])} }); err != nil {
		t.Fatal(err)
	}
	if err := db.PutArray("M", m); err != nil {
		t.Fatal(err)
	}
	q, err := parser.Parse("cross(M, M)")
	if err != nil {
		t.Fatal(err)
	}
	defer db.SetParallelism(db.Parallelism())
	for _, par := range []int{1, 4} {
		db.SetParallelism(par)
		base := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(context.Background())
		start, done := db.ExecStats().TasksRun, make(chan struct{})
		go func() {
			defer cancel()
			for db.ExecStats().TasksRun == start {
				select {
				case <-done:
					return
				default:
					runtime.Gosched()
				}
			}
		}()
		_, err := db.RunCtx(ctx, q)
		close(done)
		if !errors.Is(err, context.Canceled) {
			t.Errorf("parallelism %d: canceled cross returned %v, want context.Canceled", par, err)
		}
		if ran := db.ExecStats().TasksRun - start; ran >= 128 {
			t.Errorf("parallelism %d: all %d chunk tasks ran", par, ran)
		}
		deadline := time.Now().Add(2 * time.Second)
		for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > base {
			t.Errorf("parallelism %d: %d goroutines after the statement, %d before", par, n, base)
		}
	}
}
