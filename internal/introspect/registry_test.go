package introspect

import (
	"context"
	"testing"
	"time"
)

func TestRegistryLifecycle(t *testing.T) {
	r := NewRegistry(2)
	q := r.Begin("filter(A, v > 1)", Origin{Namespace: "ns1", Session: 7, Priority: "batch"}, nil)
	if q == nil {
		t.Fatal("Begin returned nil")
	}
	snap := r.Snapshot()
	if len(snap) != 1 {
		t.Fatalf("Snapshot: got %d live queries, want 1", len(snap))
	}
	if snap[0].SQL != "filter(A, v > 1)" || snap[0].Namespace != "ns1" || snap[0].Session != 7 {
		t.Fatalf("Snapshot row mismatch: %+v", snap[0])
	}
	if snap[0].State != StateRunning {
		t.Fatalf("live state = %q, want %q", snap[0].State, StateRunning)
	}

	q.Finish(StateDone)
	if n := len(r.Snapshot()); n != 0 {
		t.Fatalf("after Finish: %d live queries, want 0", n)
	}
	rec := r.Recent()
	if len(rec) != 1 || rec[0].State != StateDone {
		t.Fatalf("Recent = %+v, want one done row", rec)
	}

	// First Finish wins; a later safety-net call must not overwrite it.
	q.Finish(StateError)
	if rec := r.Recent(); rec[0].State != StateDone {
		t.Fatalf("Finish not idempotent: state became %q", rec[0].State)
	}

	// The recent ring is bounded.
	for i := 0; i < 5; i++ {
		r.Begin("q", Origin{}, nil).Finish(StateDone)
	}
	if n := len(r.Recent()); n != 2 {
		t.Fatalf("recent ring holds %d, want cap 2", n)
	}
}

func TestRegistryCancel(t *testing.T) {
	r := NewRegistry(0)
	ctx, cancel := context.WithCancel(context.Background())
	q := r.Begin("long query", Origin{}, cancel)

	if r.Cancel(q.ID + 999) {
		t.Fatal("Cancel of unknown id reported success")
	}
	if !r.Cancel(q.ID) {
		t.Fatal("Cancel of live query reported failure")
	}
	select {
	case <-ctx.Done():
	case <-time.After(time.Second):
		t.Fatal("cancel func did not fire")
	}
	// The statement's own exit path records the terminal state.
	q.Finish(StateCanceled)
	if r.Cancel(q.ID) {
		t.Fatal("Cancel of finished query reported success")
	}
}

func TestNilQueryIsSafe(t *testing.T) {
	var r *Registry
	q := r.Begin("q", Origin{}, nil)
	if q != nil {
		t.Fatal("a nil registry registered a statement")
	}
	// Every method is nil-safe.
	q.SetSQL("x")
	q.SetPhase(StateRunning)
	q.SetQueueWait(time.Second)
	q.Finish(StateDone)
	if got := q.State(); got != "" {
		t.Fatalf("nil query State = %q", got)
	}
}

func TestEventLogRingAndCounts(t *testing.T) {
	l := NewEventLog(3)
	for i := 0; i < 5; i++ {
		l.Append(EvRebalanceMove, i, "M", "move")
	}
	l.Append(EvNodeDown, 2, "", "dead")

	evs := l.Snapshot()
	if len(evs) != 3 {
		t.Fatalf("ring holds %d events, want 3", len(evs))
	}
	if evs[len(evs)-1].Kind != EvNodeDown {
		t.Fatalf("newest event kind = %q, want %q", evs[len(evs)-1].Kind, EvNodeDown)
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq <= evs[i-1].Seq {
			t.Fatalf("seq not monotonic: %d then %d", evs[i-1].Seq, evs[i].Seq)
		}
	}
	// Totals are monotonic and survive ring eviction.
	if got := l.Total(EvRebalanceMove); got != 5 {
		t.Fatalf("Total(move) = %d, want 5 (evicted events still counted)", got)
	}
	if got := l.Counts()[EvNodeDown]; got != 1 {
		t.Fatalf("Counts()[node_down] = %d, want 1", got)
	}
}

func TestOriginAndQueryContext(t *testing.T) {
	o := Origin{Namespace: "lsst", Session: 3, Priority: "interactive"}
	ctx := ContextWithOrigin(context.Background(), o)
	if got := OriginFromContext(ctx); got != o {
		t.Fatalf("OriginFromContext = %+v, want %+v", got, o)
	}
	if got := OriginFromContext(context.Background()); got != (Origin{}) {
		t.Fatalf("empty context origin = %+v", got)
	}

	r := NewRegistry(0)
	q := r.Begin("q", o, nil)
	ctx = ContextWithQuery(ctx, q)
	if QueryFromContext(ctx) != q {
		t.Fatal("QueryFromContext did not return the registered query")
	}
	q.Finish(StateDone)
	if QueryFromContext(context.Background()) != nil {
		t.Fatal("empty context returned a query")
	}
}

func TestBuildInfo(t *testing.T) {
	b := Build()
	if b.GoVersion == "" {
		t.Fatal("BuildInfo.GoVersion empty")
	}
	if b.String() == "" {
		t.Fatal("BuildInfo.String empty")
	}
}
