package main

import (
	"encoding/json"
	"io"
	"os"
	"testing"
)

// TestNamesMatchContract holds the names and units this program prints equal
// to those BENCHMARK.json declares.
func TestNamesMatchContract(t *testing.T) {
	const path = "../BENCHMARK.json"
	c, err := readContract(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in the contract, %d in the code", len(c.Workloads), len(workloads))
	}
	for i, w := range c.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in the contract, %q in the code", i, w.Name, workloads[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %q: why has %d characters, want 1..200", w.Name, len(w.Why))
		}
	}
	if len(c.EndToEnd) != len(endToEndMetrics) {
		t.Fatalf("%d end-to-end metrics in the contract, %d in the code", len(c.EndToEnd), len(endToEndMetrics))
	}
	for i, m := range c.EndToEnd {
		if d := endToEndMetrics[i]; m.Name != d.name || m.Unit != d.unit {
			t.Errorf("end-to-end metric %d is %s [%s] in the contract, %s [%s] in the code", i, m.Name, m.Unit, d.name, d.unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(c.PerLayer) != len(perLayerMetrics) {
		t.Fatalf("%d per-layer metrics in the contract, %d in the code", len(c.PerLayer), len(perLayerMetrics))
	}
	for i, m := range c.PerLayer {
		if d := perLayerMetrics[i]; m.Name != d.name || m.Unit != d.unit {
			t.Errorf("per-layer metric %d is %s [%s] in the contract, %s [%s] in the code", i, m.Name, m.Unit, d.name, d.unit)
		}
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var raw struct {
		Paths []string `json:"paths"`
	}
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	if len(raw.Paths) != 1 || raw.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", raw.Paths)
	}
}

// TestMediansReportResidual checks that what the layers do not explain is
// carried as unattributed_ms, not dropped.
func TestMediansReportResidual(t *testing.T) {
	m := medians([]sample{
		{"traced.round_ms": 100, "session.overhead_ms": 10, "core.self_ms": 5, "_worker_blocking_ms": 60, "_wire_blocking_ms": 5},
		{"traced.round_ms": 110, "session.overhead_ms": 12, "core.self_ms": 5, "_worker_blocking_ms": 70, "_wire_blocking_ms": 5},
		{"traced.round_ms": 120, "session.overhead_ms": 14, "core.self_ms": 5, "_worker_blocking_ms": 80, "_wire_blocking_ms": 5},
	})
	if m["traced.round_ms"] != 110 || m["session.overhead_ms"] != 12 {
		t.Errorf("medians = %v", m)
	}
	if got, want := m["unattributed_ms"], 110.0-12-5-70-5; got != want {
		t.Errorf("unattributed_ms = %v, want %v", got, want)
	}
}

// TestCheckRepeat feeds two passes whose metrics differ by less, and by
// more, than the contract's bounds.
func TestCheckRepeat(t *testing.T) {
	c, err := readContract("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	pass := func(scale float64) map[string]*result {
		m := map[string]*result{}
		for _, wl := range workloads {
			vals := map[string]float64{}
			for _, d := range endToEndMetrics {
				vals[d.name] = 100 * scale
			}
			m[wl.name] = newResult(endToEndMetrics, vals, 10, 0)
		}
		return m
	}
	if err := checkRepeat(io.Discard, c, []map[string]*result{pass(1), pass(1.01)}); err != nil {
		t.Errorf("passes 1 %% apart: %v", err)
	}
	// 5 % is inside every bound but stored_bytes_per_cell's 2 %.
	if err := checkRepeat(io.Discard, c, []map[string]*result{pass(1), pass(1.05)}); err == nil {
		t.Error("passes 5 % apart were accepted against a 2 % bound")
	}
}
