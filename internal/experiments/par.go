package experiments

import (
	"fmt"
	"io"
	"time"

	"scidb/internal/array"
	"scidb/internal/exec"
	"scidb/internal/ops"
	"scidb/internal/udf"
)

// PAR measures the chunk-parallel execution layer: the same Filter,
// Aggregate, and Regrid queries over a ~1M-cell chunked array at worker
// bounds 1, 2, and 4. Parallelism 1 runs the same per-chunk code inline on
// the caller, so its row is the baseline; speedup scales with the host's cores (a
// single-core container reports ~1.0x throughout — the scheduling still
// runs, there is just nowhere to overlap). Pool counters are printed so the
// scheduling itself is observable: parallel vs serial Map runs, chunk tasks,
// and saturation.
func init() {
	register(&Experiment{
		ID:    "PAR",
		Title: "§2.10 chunk-parallel operators: speedup vs worker bound",
		Run: func(w io.Writer, quick bool) error {
			header(w, "PAR", "Filter/Aggregate/Regrid at parallelism 1, 2, 4")
			side, chunk := int64(1024), int64(128)
			minDur := 300 * time.Millisecond
			if quick {
				side, chunk = 256, 64
				minDur = 30 * time.Millisecond
			}
			s := &array.Schema{
				Name: "grid",
				Dims: []array.Dimension{
					{Name: "x", High: side, ChunkLen: chunk},
					{Name: "y", High: side, ChunkLen: chunk},
				},
				Attrs: []array.Attribute{{Name: "v", Type: array.TFloat64}},
			}
			a, err := array.New(s)
			if err != nil {
				return err
			}
			for i := int64(1); i <= side; i++ {
				for j := int64(1); j <= side; j++ {
					if err := a.Set(array.Coord{i, j}, array.Cell{array.Float64(float64((i*31 + j) % 997))}); err != nil {
						return err
					}
				}
			}
			reg := udf.NewRegistry()
			queries := []struct {
				name string
				run  func() error
			}{
				{"filter v>500", func() error {
					_, err := ops.Filter(a, ops.Binary{Op: ops.OpGt, L: ops.AttrRef{Name: "v"}, R: ops.Const{V: array.Float64(500)}}, reg)
					return err
				}},
				{"sum by x", func() error {
					_, err := ops.Aggregate(a, []string{"x"}, []ops.AggSpec{{Agg: "sum", Attr: "v"}}, reg)
					return err
				}},
				{"regrid 8x8 avg", func() error {
					_, err := ops.Regrid(a, []int64{8, 8}, ops.AggSpec{Agg: "avg", Attr: "v"}, reg)
					return err
				}},
			}

			old := exec.Parallelism()
			defer exec.SetParallelism(old)
			fmt.Fprintf(w, "%d x %d cells, %d x %d chunks\n\n", side, side, chunk, chunk)
			fmt.Fprintf(w, "%-16s %12s %12s %12s %8s\n", "query", "par=1", "par=2", "par=4", "speedup")
			// SetParallelism swaps in a fresh pool (counters restart), so the
			// par=4 counters are snapshotted after each query and summed.
			var st exec.Stats
			for _, q := range queries {
				var times [3]time.Duration
				for i, par := range []int{1, 2, 4} {
					exec.SetParallelism(par)
					t, err := timeIt(minDur, q.run)
					if err != nil {
						return err
					}
					times[i] = t
					if par == 4 {
						s4 := exec.Default().Stats()
						st.TasksRun += s4.TasksRun
						st.ChunksProcessed += s4.ChunksProcessed
						st.ParallelRuns += s4.ParallelRuns
						st.SerialRuns += s4.SerialRuns
						st.Saturation += s4.Saturation
					}
				}
				fmt.Fprintf(w, "%-16s %12s %12s %12s %7.2fx\n",
					q.name, times[0], times[1], times[2], ratio(times[0], times[2]))
			}
			fmt.Fprintf(w, "\npool counters at par=4: tasks=%d chunks=%d parallel-runs=%d serial-runs=%d saturation=%d\n",
				st.TasksRun, st.ChunksProcessed, st.ParallelRuns, st.SerialRuns, st.Saturation)
			return nil
		},
	})
}
