package cluster

// Per-chunk access-heat tracking for online rebalancing. Every bucket read
// of a partition's store (cache hit or miss — the storage layer's
// OnBucketRead hook fires from the single read funnel; an in-situ partition
// is a store too) touches the worker's tracker. Scores decay
// exponentially, so heat reflects the recent workload, not lifetime
// totals: a telescope that moves on cools the chunks it leaves behind.
// The coordinator's rebalancer reads the scores with each node's chunk list
// (the "chunks" wire op) and migrates or replicates the hottest chunks.

import (
	"math"
	"sort"
	"sync"
	"time"

	"scidb/internal/array"
)

// HeatSample is one chunk's decayed access score: the chunk at Origin of
// array Array has accumulated Score (decayed touches) on the reporting node,
// which holds it if Held. The "chunks" wire op reports one per chunk a node
// holds or has heat for: heat a move leaves on its source keeps counting.
type HeatSample struct {
	Array  string
	Origin []int64
	Score  float64
	Held   bool
}

// defaultHeatHalfLife is how long a chunk's score takes to halve with no
// further touches on a worker.
const defaultHeatHalfLife = 30 * time.Second

// heatTracker accumulates exponentially-decayed per-chunk access scores.
// Safe for concurrent use; Touch is called with store locks held, so it
// does nothing but its own map upkeep.
type heatTracker struct {
	halfLife time.Duration
	now      func() time.Time // test seam

	mu      sync.Mutex
	entries map[string]*heatEntry
	touches int64
}

type heatEntry struct {
	array  string
	origin array.Coord
	score  float64
	last   time.Time
}

func newHeatTracker(halfLife time.Duration) *heatTracker {
	return &heatTracker{halfLife: halfLife, now: time.Now, entries: map[string]*heatEntry{}}
}

// decayTo folds elapsed time into the entry's score.
func (t *heatTracker) decayTo(e *heatEntry, now time.Time) {
	if dt := now.Sub(e.last); dt > 0 {
		e.score *= math.Exp2(-float64(dt) / float64(t.halfLife))
		e.last = now
	}
}

// Touch adds weight to the chunk at origin of the named array.
func (t *heatTracker) Touch(name string, origin array.Coord, weight float64) {
	key := name + "\x00" + origin.Key()
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.touches++
	e, ok := t.entries[key]
	if !ok {
		e = &heatEntry{array: name, origin: origin.Clone(), last: now}
		t.entries[key] = e
	}
	t.decayTo(e, now)
	e.score += weight
}

// Snapshot returns every tracked chunk's decayed score in deterministic
// (array, origin) order, dropping entries that have cooled to noise.
func (t *heatTracker) Snapshot() []HeatSample {
	now := t.now()
	t.mu.Lock()
	out := make([]HeatSample, 0, len(t.entries))
	for key, e := range t.entries {
		t.decayTo(e, now)
		if e.score < 1.0/1024 {
			delete(t.entries, key) // cold for many half-lives: forget it
			continue
		}
		out = append(out, HeatSample{Array: e.array, Origin: append([]int64(nil), e.origin...), Score: e.score})
	}
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Array != out[j].Array {
			return out[i].Array < out[j].Array
		}
		a, b := out[i].Origin, out[j].Origin
		for k := range a {
			if k >= len(b) || a[k] != b[k] {
				return k < len(b) && a[k] < b[k]
			}
		}
		return len(a) < len(b)
	})
	return out
}

// stats reports tracker-level gauges for the worker registry.
func (t *heatTracker) stats() (chunks int, total float64, touches int64) {
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, e := range t.entries {
		t.decayTo(e, now)
		total += e.score
	}
	return len(t.entries), total, t.touches
}

// Drop forgets every entry for the named array (dropping the partition
// invalidates its heat history).
func (t *heatTracker) Drop(name string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for key, e := range t.entries {
		if e.array == name {
			delete(t.entries, key)
		}
	}
}

// chunksOp lists the chunks of req.Array the node's store holds, and those
// it has heat for, each with its decayed heat here; an in-situ partition is
// filled first, as by a read.
func (w *Worker) chunksOp(req *Message) (*Message, error) {
	w.mu.RLock()
	defer w.mu.RUnlock()
	st, err := w.partLocked(req.Array)
	if err != nil {
		return nil, err
	}
	heat := map[string]HeatSample{}
	for _, s := range w.heat.Snapshot() {
		if s.Array == req.Array {
			heat[array.Coord(s.Origin).Key()] = s
		}
	}
	resp := &Message{Op: "chunks"}
	for _, o := range st.Origins() {
		resp.Held = append(resp.Held, HeatSample{Array: req.Array, Origin: o, Score: heat[o.Key()].Score, Held: true})
		delete(heat, o.Key())
	}
	for _, s := range heat {
		resp.Held = append(resp.Held, s)
	}
	return resp, nil
}
