package cluster

import (
	"bytes"
	"context"
	"encoding/hex"
	"reflect"
	"strings"
	"testing"

	"scidb/internal/array"
	"scidb/internal/obs"
	"scidb/internal/ops"
	"scidb/internal/partition"
)

// traceShape strips timings from a flattened span tree so profile trees can
// be compared across transports: structure, names, node tags, and counters
// must agree exactly; only wall times may differ.
func traceShape(root *obs.Span) []obs.SpanData {
	flat := root.Flatten()
	for i := range flat {
		flat[i].DurNanos = 0
	}
	return flat
}

// runTracedScenario loads a 9x9 block-partitioned grid plus a co-partitioned
// sibling, then runs count, pruned scan, grouped aggregate, and a read of the
// sibling under a predicate under one trace (each call inside its own child
// span). Returns the profile shape.
func runTracedScenario(t *testing.T, tr Transport) []obs.SpanData {
	t.Helper()
	co := NewCoordinator(tr, 0)
	scheme := partition.Block{Nodes: 3, SplitDim: 0, High: 9}
	for name, mk := range map[string]func(i, j int64) array.Cell{
		"tleft":  func(i, j int64) array.Cell { return array.Cell{array.Float64(float64(i*10 + j))} },
		"tright": func(i, j int64) array.Cell { return array.Cell{array.Float64(float64(i - j))} },
	} {
		schema := &array.Schema{
			Name:  name,
			Dims:  []array.Dimension{{Name: "x", High: 9}, {Name: "y", High: 9}},
			Attrs: []array.Attribute{{Name: "v", Type: array.TFloat64}},
		}
		if err := co.Create(name, schema, scheme); err != nil {
			t.Fatal(err)
		}
		for i := int64(1); i <= 9; i++ {
			for j := int64(1); j <= 9; j++ {
				if err := co.Put(name, array.Coord{i, j}, mk(i, j)); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := co.Flush(name); err != nil {
			t.Fatal(err)
		}
	}

	trc := obs.NewTrace("query")
	root := trc.Root()
	ctx := obs.ContextWithSpan(context.Background(), root)

	sp, cctx := obs.StartSpan(ctx, "count")
	if _, n, _, _, err := co.Read(cctx, "tleft", ops.Fragment{Fold: &ops.FoldSpec{}}); err != nil || n != 81 {
		t.Fatalf("count = %d, %v", n, err)
	}
	sp.End()
	// The box stays inside nodes 0-1, so the pruned fan-out (and therefore
	// the profile tree) must show 2 grafted worker spans, not 3.
	sp, cctx = obs.StartSpan(ctx, "scan")
	if _, _, _, _, err := co.Read(cctx, "tleft", ops.Fragment{Box: array.NewBox(array.Coord{1, 1}, array.Coord{5, 9})}); err != nil {
		t.Fatal(err)
	}
	sp.End()
	sp, cctx = obs.StartSpan(ctx, "agg")
	if _, _, _, _, err := co.Read(cctx, "tleft", ops.Fragment{Box: array.NewBox(array.Coord{1, 1}, array.Coord{9, 9}),
		Fold: &ops.FoldSpec{Dims: []string{"x"}, Aggs: []ops.AggSpec{{Agg: "sum", Attr: "v"}}}}); err != nil {
		t.Fatal(err)
	}
	sp.End()
	sp, cctx = obs.StartSpan(ctx, "preds")
	if _, _, _, _, err := co.Read(cctx, "tright", ops.Fragment{Preds: []array.ZonePred{{Attr: 0, Op: ">", Val: array.Float64(0)}}}); err != nil {
		t.Fatal(err)
	}
	sp.End()
	root.End()
	return traceShape(root)
}

// TestTraceConformanceAcrossTransports pins the traced profile tree produced
// over every network transport to the Local reference: same spans, same
// parent structure, same node tags, same counters — timings aside, a user
// must not be able to tell which transport ran their query.
func TestTraceConformanceAcrossTransports(t *testing.T) {
	factories := transportFactories(t)
	refTr, refStop := factories["local"](t)
	ref := runTracedScenario(t, refTr)
	refStop()
	if len(ref) < 10 {
		t.Fatalf("reference trace has %d spans; want the full fan-out tree", len(ref))
	}
	var workers int
	for _, s := range ref {
		if s.Node >= 0 {
			workers++
		}
	}
	if workers < 3+2+3+3 {
		t.Fatalf("reference trace has %d worker spans; want at least 11 (3 count + 2 pruned scan + 3 agg + 3 preds)", workers)
	}
	// A worker's root span says what its read did, not just that it read,
	// and the counters keep their places: cells scanned and bytes shipped on
	// the worker's span, nodes and bytes gathered on the coordinator's.
	roots := map[string]int{}
	counter := func(s obs.SpanData, key string) int64 {
		for i, k := range s.Keys {
			if k == key {
				return s.Vals[i]
			}
		}
		return -1
	}
	for _, s := range ref {
		switch {
		case s.Node >= 0 && s.Parent >= 0 && ref[s.Parent].Node < 0:
			roots[s.Name]++
			if scanned := counter(s, "cells_scanned"); s.Name == "read cells" && (scanned <= 0 || counter(s, "bytes_out") <= 0) ||
				s.Name == "read fold" && scanned != 27 || s.Name == "read count" && scanned > 0 {
				t.Errorf("worker span %q on node %d has counters %v %v", s.Name, s.Node, s.Keys, s.Vals)
			}
		case s.Name == "scan" && (counter(s, "nodes") != 2 || counter(s, "bytes_gathered") <= 0),
			s.Name == "agg" && counter(s, "nodes") != 3:
			t.Errorf("coordinator span %q has counters %v %v", s.Name, s.Keys, s.Vals)
		}
	}
	if want := map[string]int{"read count": 3, "read cells": 5, "read fold": 3}; !reflect.DeepEqual(roots, want) {
		t.Errorf("worker root spans = %v, want %v", roots, want)
	}
	for name, mk := range factories {
		if name == "local" {
			continue
		}
		t.Run(name, func(t *testing.T) {
			tr, stop := mk(t)
			defer stop()
			got := runTracedScenario(t, tr)
			if !reflect.DeepEqual(got, ref) {
				t.Errorf("profile tree shape diverges from local reference:\n got: %+v\nwant: %+v", got, ref)
			}
		})
	}
}

// TestUntracedRequestsCarryNoSpans: a plain (no TraceID) call must come back
// without trace baggage — the tracing machinery is strictly opt-in.
func TestUntracedRequestsCarryNoSpans(t *testing.T) {
	w := NewWorker(0)
	resp := w.Handle(&Message{Op: "ping"})
	if resp.TraceID != 0 || len(resp.Spans) != 0 {
		t.Fatalf("untraced ping returned TraceID=%d Spans=%d; want zero", resp.TraceID, len(resp.Spans))
	}
}

// TestWireStrictPresence pins the presence-bit contract. A message without
// optional fields sets no presence bits and its encoding is pinned byte for
// byte; the decoder rejects what it cannot place — a presence bit it does
// not know (the blocks are not self-delimiting, so an unknown one cannot be
// skipped), bytes left after the last block, and the encodings from before
// the fold spec and table replaced Agg/Attr/GroupDims/Partials in the fixed
// prefix, from before Chunks replaced its Payload blob, and from before the
// join fields (Array2, OnL, OnR) left the fixed prefix (no such peer is
// deployed, and the wire version is bumped, so there is no shim for any).
func TestWireStrictPresence(t *testing.T) {
	plain := &Message{Op: "read", Array: "a", BoxLo: []int64{1}, BoxHi: []int64{9}}
	enc, err := encodeMessage(plain)
	if err != nil {
		t.Fatal(err)
	}
	const golden = "04000000726561640100000061000000000000000000000000" +
		"01000000010000000000000001000000090000000000000000"
	const withJoinFields = "04000000726561640100000061000000000000000000000000000000000000000000000000" +
		"01000000010000000000000001000000090000000000000000"
	const beforeChunks = "04000000726561640100000061000000000000000000000000000000000000000000000000" +
		"0100000001000000000000000100000009000000000000000000000000"
	const beforeFolds = "040000007363616e01000000610000000000000000000000000000000000000000000000" +
		"00000000000000000000000000010000000100000000000000010000000900000000000000000000000000000000"
	if got := hex.EncodeToString(enc); got != golden {
		t.Fatalf("plain message encoding changed:\n got: %s\nwant: %s", got, golden)
	}
	got, err := decodeMessage(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got.TraceID != 0 || got.Spans != nil || got.Metrics != nil {
		t.Fatalf("plain message decoded with trace fields: %+v", got)
	}

	for name, body := range map[string]string{"pre-fold": beforeFolds, "pre-chunks": beforeChunks, "join-field": withJoinFields} {
		old, _ := hex.DecodeString(body)
		if m, err := decodeMessage(old); err == nil {
			t.Errorf("the %s wire body decoded: %+v", name, m)
		}
	}

	// The first presence byte is the last byte of a plain encoding.
	for name, bad := range map[string][]byte{
		"a fold bit with no fold after it":          append(append([]byte(nil), enc[:len(enc)-1]...), msgHasFold),
		"unassigned bit 4 (was the store block)":    append(append([]byte(nil), enc[:len(enc)-1]...), 1<<4),
		"a span count the frame cannot hold":        append(append([]byte(nil), enc[:len(enc)-1]...), msgHasTrace, 0, 0, 0, 0, 0, 0, 0, 0, 0x80, 0xf0, 0xfa, 0x02),
		"unknown second-byte bits":                  append(append([]byte(nil), enc...), 0xf0),
		"trailing bytes after an empty second byte": append(append([]byte(nil), enc...), 0x00, 0x42),
	} {
		if _, err := decodeMessage(bad); err == nil || !strings.Contains(err.Error(), "corrupt message") {
			t.Errorf("%s: decode error = %v, want a corrupt message error", name, err)
		}
	}

	// Traced messages round-trip their spans and metrics in full.
	traced := &Message{
		Op: "read", Array: "a", TraceID: 99,
		Spans: []obs.SpanData{
			{Parent: -1, Node: 1, DurNanos: 10, Name: "read count",
				Keys: []string{"cells_scanned"}, Vals: []int64{81}},
		},
		Metrics: []obs.Sample{{Name: "scidb_worker_requests_total", Value: 5}},
	}
	enc2, err := encodeMessage(traced)
	if err != nil {
		t.Fatal(err)
	}
	got3, err := decodeMessage(enc2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(traced, got3) {
		t.Errorf("traced round trip mismatch:\n got: %+v\nwant: %+v", got3, traced)
	}
}

// TestMetricsOpAndCoordinatorMerge drives the "metrics" op over a live
// cluster and checks the coordinator's merged, node-labelled view.
func TestMetricsOpAndCoordinatorMerge(t *testing.T) {
	tr := NewLocal(2)
	defer tr.Close()
	co := NewCoordinator(tr, 0)
	schema := &array.Schema{
		Name:  "m",
		Dims:  []array.Dimension{{Name: "x", High: 8}},
		Attrs: []array.Attribute{{Name: "v", Type: array.TFloat64}},
	}
	if err := co.Create("m", schema, partition.Block{Nodes: 2, SplitDim: 0, High: 8}); err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 8; i++ {
		if err := co.Put("m", array.Coord{i}, array.Cell{array.Float64(1)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := co.Flush("m"); err != nil {
		t.Fatal(err)
	}
	if _, err := co.Count("m"); err != nil {
		t.Fatal(err)
	}
	samples, err := co.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	nodes := map[string]bool{}
	var sawRequests bool
	for _, s := range samples {
		if !strings.Contains(s.Label, "node=") {
			t.Fatalf("sample %q lacks a node label: %q", s.Name, s.Label)
		}
		for _, part := range strings.Split(s.Label, ",") {
			if strings.HasPrefix(part, "node=") {
				nodes[part] = true
			}
		}
		if s.Name == "scidb_worker_requests_total" && s.Value > 0 {
			sawRequests = true
		}
	}
	if len(nodes) != 2 {
		t.Errorf("metrics cover %d nodes, want 2: %v", len(nodes), nodes)
	}
	if !sawRequests {
		t.Error("no nonzero scidb_worker_requests_total in merged metrics")
	}
}

// TestSlowQueryLog arms a worker's slow-request log with a zero-distance
// threshold so every request is an offender, and checks the rendered tree.
func TestSlowQueryLog(t *testing.T) {
	w := NewWorker(3)
	var buf bytes.Buffer
	w.SetSlowQuery(1, &buf) // 1ns: everything is slow
	resp := w.Handle(&Message{Op: "ping"})
	if resp.Err != "" {
		t.Fatal(resp.Err)
	}
	out := buf.String()
	if !strings.Contains(out, "slow request: node 3") || !strings.Contains(out, "ping") {
		t.Fatalf("slow log missing header/tree:\n%s", out)
	}
	// A slow read is logged under what its fragment asked for.
	handleOK(t, w, &Message{Op: "create", Array: "a", Schema: gridSchema()})
	buf.Reset()
	handleOK(t, w, countReq("a"))
	if out := buf.String(); !strings.Contains(out, `op "read count"`) {
		t.Fatalf("slow log names the read %s", out)
	}
	// Disarmed, nothing further is logged.
	w.SetSlowQuery(0, nil)
	buf.Reset()
	w.Handle(&Message{Op: "ping"})
	if buf.Len() != 0 {
		t.Fatalf("disarmed slow log still wrote: %q", buf.String())
	}
}
