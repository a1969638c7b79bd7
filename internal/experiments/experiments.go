// Package experiments implements the reproduction harness: one experiment
// per figure and quantified claim in the paper (see DESIGN.md's
// per-experiment index and EXPERIMENTS.md for expected shapes). Each
// experiment prints the rows/series the paper's artifact corresponds to;
// cmd/scidb-bench drives this package.
package experiments

import (
	"fmt"
	"io"
	"sort"
	"time"
)

// Experiment is one runnable reproduction.
type Experiment struct {
	ID    string
	Title string
	// Run executes and prints the experiment's table. quick shrinks the
	// workload for CI/tests.
	Run func(w io.Writer, quick bool) error
}

var registry = map[string]*Experiment{}

func register(e *Experiment) { registry[e.ID] = e }

// ByID returns an experiment.
func ByID(id string) (*Experiment, bool) {
	e, ok := registry[id]
	return e, ok
}

// All returns experiments sorted by ID.
func All() []*Experiment {
	out := make([]*Experiment, 0, len(registry))
	for _, e := range registry {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// timeIt runs f repeatedly until ~minDur elapses (at least once) and
// returns the mean per-iteration time.
func timeIt(minDur time.Duration, f func() error) (time.Duration, error) {
	var n int
	start := time.Now()
	for {
		if err := f(); err != nil {
			return 0, err
		}
		n++
		if time.Since(start) >= minDur {
			break
		}
	}
	return time.Since(start) / time.Duration(n), nil
}

// header prints an experiment banner.
func header(w io.Writer, id, title string) {
	fmt.Fprintf(w, "\n=== %s — %s ===\n", id, title)
}

// ratio guards division.
func ratio(a, b time.Duration) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
