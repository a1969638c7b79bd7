package main

import (
	"math"
	"path/filepath"
	"testing"
)

func TestPercentile(t *testing.T) {
	odd := []float64{1, 2, 3, 4, 5}
	even := []float64{10, 20, 30, 40}
	for _, c := range []struct {
		s    []float64
		p    float64
		want float64
	}{
		{odd, 50, 3}, {odd, 0, 1}, {odd, 100, 5}, {odd, 75, 4},
		{even, 50, 25}, {even, 90, 37},
		{[]float64{7}, 99, 7},
	} {
		if got := percentile(c.s, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v, %v) = %v, want %v", c.s, c.p, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples is not NaN")
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median of unsorted input = %v, want 5", got)
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{9, 0, false}, {19, 0, false},
		{20, 50, true}, {39, 50, true},
		{40, 75, true}, {99, 75, true},
		{100, 90, true}, {199, 90, true},
		{200, 95, true}, {1000, 99, true}, {10000, 99.9, true},
	} {
		got, ok := tailPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
	}
}

func TestSelfTimeUsesUnionOfChildren(t *testing.T) {
	parent := span{Start: 0, End: 100}
	children := []span{
		{Start: 10, End: 40},
		{Start: 30, End: 60},  // overlaps the first: 10..60 is covered once
		{Start: 35, End: 38},  // inside both
		{Start: 80, End: 120}, // runs past the parent: clipped to 80..100
	}
	if got := coveredNanos(parent.Start, parent.End, children); got != 70 {
		t.Errorf("covered = %d, want 70 (the union, where the sum is 103)", got)
	}
	if got := selfNanos(parent, children); got != 30 {
		t.Errorf("self = %d, want 30", got)
	}
	if got := selfNanos(parent, nil); got != 100 {
		t.Errorf("self with no children = %d, want 100", got)
	}
}

func TestAssignParentsByContainment(t *testing.T) {
	spans := []span{
		{Name: leafSpan, Node: 1, Start: 22, End: 38}, // inside node 0's call in time, yet its sibling
		{Name: "statement", Start: 0, End: 100},
		{Name: "session.exec", Start: 10, End: 50},
		{Name: leafSpan, Node: 0, Start: 20, End: 40},
		{Name: leafSpan, Node: 2, Start: 25, End: 45},
		{Name: "core.exec", Start: 60, End: 90},
		{Name: leafSpan, Node: 0, Start: 65, End: 70},
		{Name: "statement", Start: 110, End: 120},
		{Name: leafSpan, Node: 0, Start: 130, End: 140}, // outside every rung: a root
	}
	assignParents(spans)
	byID := map[int]span{}
	for _, s := range spans {
		byID[s.ID] = s
	}
	if len(byID) != len(spans) {
		t.Fatalf("ids are not unique: %v", spans)
	}
	parentName := func(s span) string {
		if s.Parent == 0 {
			return "root"
		}
		return byID[s.Parent].Name
	}
	for _, s := range spans {
		var want string
		switch {
		case s.Name == "statement", s.Start == 130:
			want = "root"
		case s.Name == leafSpan && s.Start < 50:
			want = "session.exec"
		case s.Name == leafSpan:
			want = "core.exec"
		default:
			want = "statement"
		}
		if got := parentName(s); got != want {
			t.Errorf("span %s [%d,%d] has parent %s, want %s", s.Name, s.Start, s.End, got, want)
		}
		if p, ok := byID[s.Parent]; ok && (p.Start > s.Start || p.End < s.End) {
			t.Errorf("span %s [%d,%d] is not inside its parent [%d,%d]", s.Name, s.Start, s.End, p.Start, p.End)
		}
	}
}

func TestTraceFileLoadsBack(t *testing.T) {
	spans := []span{
		{Name: "statement", Stmt: 1, Node: -1, Start: 0, End: 100},
		{Name: "session.exec", Stmt: 1, Node: -1, Start: 10, End: 50},
		{Name: leafSpan, Stmt: 1, Node: 2, Op: "agg", Start: 20, End: 40},
	}
	assignParents(spans)
	path := filepath.Join(t.TempDir(), "trace.json")
	in := &traceFile{Seed: 7, Rounds: []roundSpans{{Workload: "ssdb.gather", Round: 0, Spans: spans}}}
	if err := writeTrace(path, in); err != nil {
		t.Fatal(err)
	}
	out, err := loadTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	if out.Seed != 7 || len(out.Rounds) != 1 || len(out.Rounds[0].Spans) != 3 || out.Rounds[0].Spans[2] != spans[2] {
		t.Errorf("trace did not survive the round trip: %+v", out)
	}

	in.Rounds[0].Spans[2].Parent = 99 // no such span
	if err := writeTrace(path, in); err != nil {
		t.Fatal(err)
	}
	if _, err := loadTrace(path); err == nil {
		t.Error("a span whose parent is missing loaded without error")
	}
}

func TestRelDiff(t *testing.T) {
	if got := relDiff(100, 108); math.Abs(got-0.08) > 1e-12 {
		t.Errorf("relDiff(100, 108) = %v, want 0.08", got)
	}
	if got := relDiff(0, 0); got != 0 {
		t.Errorf("relDiff(0, 0) = %v, want 0", got)
	}
	if !math.IsInf(relDiff(0, 1), 1) {
		t.Error("relDiff(0, 1) is not +Inf")
	}
}
