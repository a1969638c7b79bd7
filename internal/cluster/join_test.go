package cluster

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"scidb/internal/array"
	"scidb/internal/ops"
	"scidb/internal/partition"
)

// TestJoinReadsAndWritesDoNotDeadlock: sjoin(A, B) and sjoin(B, A), whose
// nodes scan the two partitions holding both stores' locks, and puts plus
// flushes into A run at once on one grid. Every call ends by a deadline,
// every join answers the cells both arrays hold — the puts only overwrite —
// and once the calls are done no goroutine they started is left.
func TestJoinReadsAndWritesDoNotDeadlock(t *testing.T) {
	// The grid closes only once every call is done: a deadlocked node would
	// never give its lock to Close.
	tr := NewLocalWithOptions(3, WorkerOptions{CacheBytes: 1 << 20})
	co := NewCoordinator(tr, 16)
	scheme := partition.Block{Nodes: 3, SplitDim: 0, High: 12}
	for _, name := range []string{"A", "B"} {
		s := &array.Schema{Name: name,
			Dims:  []array.Dimension{{Name: "x", High: 12, ChunkLen: 4}, {Name: "y", High: 12, ChunkLen: 4}},
			Attrs: []array.Attribute{{Name: "v", Type: array.TInt64}}}
		if err := co.Create(name, s, scheme); err != nil {
			t.Fatal(err)
		}
		for x := int64(1); x <= 12; x++ {
			for y := int64(1); y <= 12; y++ {
				if name == "B" && (x+y)%2 == 0 {
					continue
				}
				if err := co.Put(name, array.Coord{x, y}, array.Cell{array.Int64(x * y)}); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := co.Flush(name); err != nil {
			t.Fatal(err)
		}
	}
	join := func(l, r string) error {
		a, cells, _, _, err := co.Read(context.Background(), l, ops.Fragment{Join: r})
		if err == nil && (cells != 72 || a.Count() != 72) {
			err = fmt.Errorf("sjoin(%s, %s) answered %d cells (%d counted), want 72", l, r, a.Count(), cells)
		}
		return err
	}
	write := func(i int) error {
		for x := int64(1); x <= 12; x += 3 {
			if err := co.Put("A", array.Coord{x, int64(i%12 + 1)}, array.Cell{array.Int64(int64(-i))}); err != nil {
				return err
			}
		}
		return co.Flush("A")
	}
	// One round of each first, so the pool and the caches are up before the
	// goroutines are counted.
	if err := join("A", "B"); err != nil {
		t.Fatal(err)
	}
	if err := write(0); err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	errs := make(chan error, 3)
	var wg sync.WaitGroup
	for _, run := range []func(i int) error{
		func(int) error { return join("A", "B") },
		func(int) error { return join("B", "A") },
		write,
	} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 40 {
				if err := run(i); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("joins and writes of one pair did not finish within 60s: deadlock")
	}
	defer tr.Close()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	for wait := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(wait) {
			t.Fatalf("%d goroutines after the calls, %d before", runtime.NumGoroutine(), before)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestJoinReadOfArraysPlacedApart: a join read of arrays that are not
// co-placed — one hash-placed, or either routed — fails with ErrNotCoPlaced,
// so its caller gathers both and joins them itself.
func TestJoinReadOfArraysPlacedApart(t *testing.T) {
	tr := NewLocalWithOptions(3, WorkerOptions{CacheBytes: 1 << 20})
	defer tr.Close()
	co := NewCoordinator(tr, 16)
	for name, scheme := range map[string]partition.Scheme{
		"A": partition.Block{Nodes: 3, SplitDim: 0, High: 12},
		"B": partition.Block{Nodes: 3, SplitDim: 0, High: 12},
		"H": partition.Hash{Nodes: 3},
	} {
		s := &array.Schema{Name: name,
			Dims:  []array.Dimension{{Name: "x", High: 12, ChunkLen: 4}, {Name: "y", High: 12, ChunkLen: 4}},
			Attrs: []array.Attribute{{Name: "v", Type: array.TInt64}}}
		if err := co.Create(name, s, scheme); err != nil {
			t.Fatal(err)
		}
		if err := co.Put(name, array.Coord{1, 1}, array.Cell{array.Int64(1)}); err != nil {
			t.Fatal(err)
		}
		if err := co.Flush(name); err != nil {
			t.Fatal(err)
		}
	}
	join := func(l, r string) error {
		_, _, _, _, err := co.Read(context.Background(), l, ops.Fragment{Join: r})
		return err
	}
	if err := join("A", "B"); err != nil {
		t.Fatalf("sjoin(A, B) of co-placed arrays: %v", err)
	}
	if _, err := co.EnableRouting("B"); err != nil {
		t.Fatal(err)
	}
	for _, pair := range [][2]string{{"A", "H"}, {"H", "A"}, {"A", "B"}, {"B", "A"}} {
		if err := join(pair[0], pair[1]); !errors.Is(err, ErrNotCoPlaced) {
			t.Errorf("sjoin(%s, %s): %v, want ErrNotCoPlaced", pair[0], pair[1], err)
		}
	}
}
