package main

import (
	"testing"
	"time"

	"scidb/internal/array"
)

// TestWrongReferenceIsCounted feeds a statement a deliberately wrong
// reference and sees the round fail and the failure reach the result.
func TestWrongReferenceIsCounted(t *testing.T) {
	a := array.MustNew(&array.Schema{
		Name:  "r",
		Dims:  []array.Dimension{{Name: "i", High: 2}},
		Attrs: []array.Attribute{{Name: "v", Type: array.TFloat64}},
	})
	for i, v := range []float64{1.5, 2.5} {
		if err := a.Set(array.Coord{int64(i + 1)}, array.Cell{array.Float64(v)}); err != nil {
			t.Fatal(err)
		}
	}
	right := stmt{text: "sum", want: answer{cells: 2, value: 4}}
	if err := right.check(a); err != nil {
		t.Fatalf("the right reference was rejected: %v", err)
	}
	// Within the tolerance for the order float partials merge in.
	close := stmt{text: "sum", want: answer{cells: 2, value: 4 * (1 + 1e-12)}}
	if err := close.check(a); err != nil {
		t.Errorf("an answer within the relative tolerance was rejected: %v", err)
	}
	for _, wrong := range []stmt{
		{text: "wrong value", want: answer{cells: 2, value: 4.0001}},
		{text: "wrong cell count", want: answer{cells: 3, value: 4}},
		{text: "wrong digest", want: answer{cells: 2, value: 4}, digest: digestMax},
		{text: "missing attribute", want: answer{cells: 2, value: 4}, attr: "nope"},
	} {
		if err := wrong.check(a); err == nil {
			t.Errorf("%s: accepted", wrong.text)
		}
	}
	if err := right.check(nil); err == nil {
		t.Error("a statement that returned no array was accepted")
	}

	wrong := stmt{text: "sum", want: answer{cells: 2, value: 5}}
	calls := 0
	ms, attempted, failed := timedRounds(options{rounds: 4}, 1, func() (time.Duration, error) {
		calls++
		if calls == 2 {
			return time.Millisecond, wrong.check(a)
		}
		return time.Millisecond, right.check(a)
	})
	if attempted != 4 || failed != 1 || len(ms) != 3 {
		t.Errorf("attempted %d, failed %d, timed %d; want 4, 1, 3", attempted, failed, len(ms))
	}
	r := newResult(endToEndMetrics, map[string]float64{}, attempted, failed)
	if r.Correct || r.Failed != 1 || r.Attempted != 4 {
		t.Errorf("result %+v does not carry the failure", r)
	}
}

// TestGridRoundAndTrace sets the whole stack up once, runs a checked round
// of each kind through it, corrupts a reference to see the real path count
// the failure, and checks the traced round's spans and counters.
func TestGridRoundAndTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("starts a three-node grid and loads 256x256x4 cells")
	}
	wl, err := workloadByName("ssdb.pushdown.warm")
	if err != nil {
		t.Fatal(err)
	}
	rec := newRecorder()
	e, err := newEnv(wl, 11, t.TempDir(), rec)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := e.close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}()
	if len(rec.take()) != 0 {
		t.Error("warm-up rounds were recorded")
	}
	if d, err := e.round(); err != nil || d <= 0 {
		t.Fatalf("round: %v, %v", d, err)
	}

	probe, err := newScanProbe(e)
	if err != nil {
		t.Fatal(err)
	}
	defer probe.Close()
	m, spans, err := e.tracedRound(rec, probe)
	if err != nil {
		t.Fatal(err)
	}
	byID := map[int]span{}
	names := map[string]int{}
	for _, s := range spans {
		byID[s.ID] = s
		names[s.Name]++
	}
	for _, s := range spans {
		p, ok := byID[s.Parent]
		if s.Parent != 0 && (!ok || p.Start > s.Start || p.End < s.End) {
			t.Errorf("span %d (%s) has no containing parent", s.ID, s.Name)
		}
		if s.Name == leafSpan && (s.Parent == 0 || p.Name == "statement") {
			t.Errorf("call %d (%s to node %d) was recorded outside a rung", s.ID, s.Op, s.Node)
		}
	}
	// Four statements and the probe scan; three of the four push down whole.
	for name, want := range map[string]int{
		"statement": 5, "session.exec": 4, "core.exec": 4, "cluster.op": 4,
		"ops.coord": 1, "parser.parse": 4, "storage.scan": 1,
	} {
		if names[name] != want {
			t.Errorf("%d %s spans, want %d", names[name], name, want)
		}
	}
	if m["bufcache.hit_rate"] < 0.99 || m["storage.bytes_read"] != 0 {
		t.Errorf("warm workload: hit rate %v, bytes read %v", m["bufcache.hit_rate"], m["storage.bytes_read"])
	}
	if m["cluster.calls"] != 4*nodes || m["traced.round_ms"] <= 0 || m["worker.busy_ms"] <= 0 || m["wire.bytes_in"] <= 0 {
		t.Errorf("sample %v", m)
	}

	e.refs.avgDN.value++
	if _, err := e.round(); err == nil {
		t.Error("a round checked against a wrong reference passed")
	}
	e.refs.avgDN.value--

	// The load workload's round runs on any grid.
	e.wl, err = workloadByName("load.bulk")
	if err != nil {
		t.Fatal(err)
	}
	before, err := e.g.diskBytes()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.loadRound(); err != nil {
		t.Fatal(err)
	}
	after, err := e.g.diskBytes()
	if err != nil {
		t.Fatal(err)
	}
	if e.loadedBytes <= before || after != before {
		t.Errorf("disk bytes %d before, %d loaded, %d after the drop", before, e.loadedBytes, after)
	}
	if bytes, cells, err := e.stored(); err != nil || bytes != e.loadedBytes || cells != 2*e.arrays[0].cells+e.arrays[1].cells+e.arrays[2].cells {
		t.Errorf("stored() = %d bytes, %d cells, %v", bytes, cells, err)
	}
	if m, _, err = e.tracedRound(rec, probe); err != nil {
		t.Fatal(err)
	}
	if m["loader.batches"] <= 0 || m["loader.self_ms"] <= 0 || m["loader.bytes_shipped"] <= 0 {
		t.Errorf("load sample %v", m)
	}
}
