package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"scidb/internal/cluster"
)

// span is one timed interval at a layer boundary. Times are nanoseconds
// since the recorder started. Spans of one statement (one walk down the
// ladder) share Stmt; Parent is assigned after the run by time containment.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0: a root
	Stmt   int    `json:"stmt"`
	Name   string `json:"name"`
	Node   int    `json:"node"`         // cluster.call: the node called; otherwise -1
	Op     string `json:"op,omitempty"` // cluster.call: the wire op
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) millis() float64 { return float64(s.End-s.Start) / 1e6 }

// recorder keeps spans in memory until the run ends. Nothing is recorded
// outside a rung, so warm-up rounds, baseline rounds and the harness's own
// stats calls pass through the traced transport unrecorded.
type recorder struct {
	t0    time.Time
	depth atomic.Int32 // open rungs; calls are recorded only when > 0
	stmt  atomic.Int64 // current statement id

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) add(name string, node int, op string, start, end time.Time) {
	s := span{
		Stmt: int(r.stmt.Load()), Name: name, Node: node, Op: op,
		Start: start.Sub(r.t0).Nanoseconds(), End: end.Sub(r.t0).Nanoseconds(),
	}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// statement runs fn as one statement: a root span under a fresh id.
// Transport calls fn makes outside a rung are not recorded.
func (r *recorder) statement(fn func() error) error {
	r.stmt.Add(1)
	start := time.Now()
	err := fn()
	r.add("statement", -1, "", start, time.Now())
	return err
}

// rung runs fn as one span of the current statement and records the
// transport calls made meanwhile.
func (r *recorder) rung(name string, fn func() error) error {
	r.depth.Add(1)
	start := time.Now()
	err := fn()
	end := time.Now()
	r.depth.Add(-1)
	r.add(name, -1, "", start, end)
	return err
}

// take returns the spans recorded since the last take, parents assigned.
func (r *recorder) take() []span {
	r.mu.Lock()
	out := r.spans
	r.spans = nil
	r.mu.Unlock()
	assignParents(out)
	return out
}

// tracedTransport turns every coordinator→worker call into a cluster.call
// span. With one closed-loop client a call nests unambiguously, by time,
// inside the rung that caused it.
type tracedTransport struct {
	*cluster.TCP
	rec *recorder
}

func (t *tracedTransport) Call(node int, req *cluster.Message) (*cluster.Message, error) {
	if t.rec.depth.Load() == 0 {
		return t.TCP.Call(node, req)
	}
	start := time.Now()
	resp, err := t.TCP.Call(node, req)
	t.rec.add(leafSpan, node, req.Op, start, time.Now())
	return resp, err
}

// traceFile is what -trace-out writes: every span of every traced round.
// IDs are unique within one workload's round; Workload and Round qualify
// them.
type traceFile struct {
	Seed   int64        `json:"seed"`
	Rounds []roundSpans `json:"rounds"`
}

type roundSpans struct {
	Workload string `json:"workload"`
	Round    int    `json:"round"`
	Spans    []span `json:"spans"`
}

func writeTrace(path string, tf *traceFile) error {
	data, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// loadTrace reads a trace file back and checks that every span is a root or
// has a parent in its own round that contains it.
func loadTrace(path string) (*traceFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	tf := new(traceFile)
	if err := json.Unmarshal(data, tf); err != nil {
		return nil, err
	}
	for _, tr := range tf.Rounds {
		byID := make(map[int]span, len(tr.Spans))
		for _, s := range tr.Spans {
			byID[s.ID] = s
		}
		for _, s := range tr.Spans {
			if s.Parent == 0 {
				continue
			}
			p, ok := byID[s.Parent]
			if !ok || p.Start > s.Start || p.End < s.End {
				return nil, fmt.Errorf("%s round %d: span %d (%s) has no containing parent %d",
					tr.Workload, tr.Round, s.ID, s.Name, s.Parent)
			}
		}
	}
	return tf, nil
}
