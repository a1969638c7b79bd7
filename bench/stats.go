package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0..100) of sorted samples,
// interpolating linearly between the two closest ranks, so percentile(s, 50)
// is the conventional median. It returns NaN for no samples.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	rank := p / 100 * float64(n-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	return sorted[lo] + (rank-float64(lo))*(sorted[hi]-sorted[lo])
}

// median sorts a copy of xs and returns its 50th percentile.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentile(s, 50)
}

// tailPercentiles are the candidates tailPercentile chooses from, each with
// the share of samples beyond it in thousandths (exact in integers, where
// 100−99.9 is not in floats).
var tailPercentiles = []struct {
	p      float64
	beyond int
}{{50, 500}, {75, 250}, {90, 100}, {95, 50}, {99, 10}, {99.9, 1}}

// tailPercentile picks the highest candidate percentile that still has at
// least ten of n samples beyond it; ok is false when not even the median does.
func tailPercentile(n int) (p float64, ok bool) {
	for _, c := range tailPercentiles {
		if n*c.beyond >= 10*1000 {
			p, ok = c.p, true
		}
	}
	return p, ok
}

// relDiff is how far b lies from a, as a share of a.
func relDiff(a, b float64) float64 {
	if a == 0 {
		if b == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(b-a) / math.Abs(a)
}

// leafSpan names the one kind of span that never contains another: calls to
// different nodes overlap in time without one causing the other.
const leafSpan = "cluster.call"

// assignParents gives every span the innermost non-leaf span that contains
// it in time as its parent (0 when none does: a root). One closed-loop
// client means spans either nest or are disjoint, except leaves, which may
// overlap each other. IDs are assigned 1..n in start order.
func assignParents(spans []span) {
	sort.SliceStable(spans, func(i, j int) bool {
		if spans[i].Start != spans[j].Start {
			return spans[i].Start < spans[j].Start
		}
		if spans[i].End != spans[j].End {
			return spans[i].End > spans[j].End // the container first
		}
		return spans[i].Name != leafSpan && spans[j].Name == leafSpan
	})
	var stack []int // indexes of open non-leaf spans, outermost first
	for i := range spans {
		spans[i].ID = i + 1
		for len(stack) > 0 && spans[stack[len(stack)-1]].End < spans[i].End {
			stack = stack[:len(stack)-1]
		}
		spans[i].Parent = 0
		if len(stack) > 0 {
			spans[i].Parent = spans[stack[len(stack)-1]].ID
		}
		if spans[i].Name != leafSpan {
			stack = append(stack, i)
		}
	}
}

// coveredNanos is the length of the union of the children's intervals,
// clipped to [start, end]: overlapping children count once.
func coveredNanos(start, end int64, children []span) int64 {
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		s, e := max(c.Start, start), min(c.End, end)
		if e > s {
			iv = append(iv, [2]int64{s, e})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var covered, reach int64
	reach = start
	for _, x := range iv {
		if x[1] <= reach {
			continue
		}
		covered += x[1] - max(x[0], reach)
		reach = x[1]
	}
	return covered
}

// selfNanos is a span's duration minus the part its children cover.
func selfNanos(s span, children []span) int64 {
	return s.End - s.Start - coveredNanos(s.Start, s.End, children)
}
