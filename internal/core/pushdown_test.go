package core

import (
	"strings"
	"testing"

	"scidb/internal/array"
	"scidb/internal/cluster"
	"scidb/internal/partition"
)

// TestClusterFilterAggregatePushdown drives the distributed fusion: a
// grand-total aggregate over a filtered cluster array gathers only the
// zone-matching cells (workers prune buckets before shipping) and still
// produces the exact local-aggregation answer.
func TestClusterFilterAggregatePushdown(t *testing.T) {
	tr := cluster.NewLocalWithOptions(2, cluster.WorkerOptions{
		Dir:        t.TempDir(),
		CacheBytes: 8 << 20,
	})
	defer tr.Close()
	co := cluster.NewCoordinator(tr, 0)
	db := testDB()
	db.AttachCluster(co)

	schema := &array.Schema{
		Name:  "D",
		Dims:  []array.Dimension{{Name: "x", High: 16, ChunkLen: 8}, {Name: "y", High: 16, ChunkLen: 8}},
		Attrs: []array.Attribute{{Name: "v", Type: array.TFloat64}},
	}
	if err := co.Create("D", schema, partition.Block{Nodes: 2, SplitDim: 0, High: 16}); err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 16; i++ {
		for j := int64(1); j <= 16; j++ {
			if err := co.Put("D", array.Coord{i, j}, array.Cell{array.Float64(float64(i + j))}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := co.Flush("D"); err != nil {
		t.Fatal(err)
	}

	// v = x+y > 24 holds only in the high corner: three of the four
	// per-node buckets are pruned without being read.
	r := exec(t, db, "aggregate(filter(D, v > 24), {}, sum(v), count(v))")
	cell, ok := r.Array.At(array.Coord{1})
	if !ok {
		t.Fatal("missing grand-total row")
	}
	if cell[0].Float != 984 { // sum of i+j over [9,16]^2 where i+j > 24
		t.Errorf("sum = %v, want 984", cell[0])
	}
	if cell[1].Int != 36 {
		t.Errorf("count = %v, want 36", cell[1])
	}

	// The skip decision is visible in the query profile.
	r = exec(t, db, "explain analyze aggregate(filter(D, v > 24), {}, sum(v), count(v))")
	if !strings.Contains(r.Msg, "enc_chunks_skipped=3") {
		t.Errorf("profile missing enc_chunks_skipped:\n%s", r.Msg)
	}

	// All pruned: the grand-total row stays occupied, count exact zero.
	r = exec(t, db, "aggregate(filter(D, v > 1000), {}, sum(v), count(v))")
	cell, ok = r.Array.At(array.Coord{1})
	if !ok {
		t.Fatal("all-pruned aggregate lost its result row")
	}
	if !cell[0].Null || cell[1].Null || cell[1].Int != 0 {
		t.Errorf("all-pruned row = %v, want NULL sum and zero count", cell)
	}
}
