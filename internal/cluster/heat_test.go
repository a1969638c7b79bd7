package cluster

import (
	"reflect"
	"testing"
	"time"

	"scidb/internal/array"
)

// fakeClock drives a heatTracker's time seam.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }
func newFakeTracker(halfLife time.Duration) (*heatTracker, *fakeClock) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	tr := newHeatTracker(halfLife)
	tr.now = clk.now
	return tr, clk
}

func TestHeatDecayHalvesPerHalfLife(t *testing.T) {
	tr, clk := newFakeTracker(10 * time.Second)
	tr.Touch("a", array.Coord{1, 1}, 8)
	clk.advance(10 * time.Second)
	snap := tr.Snapshot()
	if len(snap) != 1 || snap[0].Score != 4 {
		t.Fatalf("after one half-life: %+v, want score 4", snap)
	}
	clk.advance(20 * time.Second)
	if snap = tr.Snapshot(); snap[0].Score != 1 {
		t.Fatalf("after three half-lives: %+v, want score 1", snap)
	}
	// Touches fold decay in before adding weight.
	clk.advance(10 * time.Second)
	tr.Touch("a", array.Coord{1, 1}, 3.5)
	if snap = tr.Snapshot(); snap[0].Score != 4 {
		t.Fatalf("decay-then-add: %+v, want score 4", snap)
	}
	// Cold entries are forgotten once they fall under the noise floor.
	clk.advance(1000 * time.Second)
	if snap = tr.Snapshot(); len(snap) != 0 {
		t.Fatalf("cooled entries survived: %+v", snap)
	}
}

func TestHeatSnapshotOrderAndDrop(t *testing.T) {
	tr, _ := newFakeTracker(time.Hour)
	tr.Touch("b", array.Coord{1}, 1)
	tr.Touch("a", array.Coord{65}, 2)
	tr.Touch("a", array.Coord{1}, 3)
	snap := tr.Snapshot()
	want := []HeatSample{
		{Array: "a", Origin: []int64{1}, Score: 3},
		{Array: "a", Origin: []int64{65}, Score: 2},
		{Array: "b", Origin: []int64{1}, Score: 1},
	}
	if !reflect.DeepEqual(snap, want) {
		t.Fatalf("snapshot order:\n got %+v\nwant %+v", snap, want)
	}
	tr.Drop("a")
	if snap = tr.Snapshot(); len(snap) != 1 || snap[0].Array != "b" {
		t.Fatalf("after Drop(a): %+v", snap)
	}
}

// TestWorkerHeatFromReads drives scans through a persistent worker and
// checks the read path feeds the tracker: the chunks op must report both
// chunks the node holds, the touched one hot and the other cold, and
// dropping the array must clear the tracker.
func TestWorkerHeatFromReads(t *testing.T) {
	w := NewWorkerWithOptions(0, WorkerOptions{Stride: []int64{4}})
	schema := &array.Schema{
		Name:  "h",
		Dims:  []array.Dimension{{Name: "x", High: 8, ChunkLen: 4}},
		Attrs: []array.Attribute{{Name: "v", Type: array.TFloat64}},
	}
	resp := w.Handle(&Message{Op: "create", Array: "h", Schema: schema})
	if resp.Err != "" {
		t.Fatal(resp.Err)
	}
	a := array.MustNew(schema)
	for i := int64(1); i <= 8; i++ {
		if err := a.Set(array.Coord{i}, array.Cell{array.Float64(float64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	chunks, err := encodeForTest(a)
	if err != nil {
		t.Fatal(err)
	}
	if resp = w.Handle(&Message{Op: "put", Array: "h", Chunks: chunks}); resp.Err != "" {
		t.Fatal(resp.Err)
	}
	if resp = w.Handle(&Message{Op: "flush", Array: "h"}); resp.Err != "" {
		t.Fatal(resp.Err)
	}
	// Scan only the first chunk; its bucket read must register heat.
	if resp = w.Handle(&Message{Op: "read", Array: "h", BoxLo: []int64{1}, BoxHi: []int64{4}}); resp.Err != "" {
		t.Fatal(resp.Err)
	}
	held := w.Handle(&Message{Op: "chunks", Array: "h"})
	if held.Err != "" {
		t.Fatal(held.Err)
	}
	scores := map[int64]float64{}
	for _, s := range held.Held {
		if s.Array == "h" && len(s.Origin) == 1 {
			scores[s.Origin[0]] = s.Score
		}
	}
	if len(scores) != 2 || scores[1] <= 0 || scores[5] != 0 {
		t.Fatalf("chunks op = %+v; want chunk 1 hot and chunk 5 cold", held.Held)
	}
	if resp = w.Handle(&Message{Op: "drop", Array: "h"}); resp.Err != "" {
		t.Fatal(resp.Err)
	}
	if heat := w.heat.Snapshot(); len(heat) != 0 {
		t.Fatalf("heat survived drop: %+v", heat)
	}
}
