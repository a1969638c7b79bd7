package core

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"scidb/internal/array"
	"scidb/internal/cluster"
	"scidb/internal/insitu"
)

// writeExtCSV writes a bounded 10x4 grid (v = x*10 + y) and returns its path
// and total sum.
func writeExtCSV(t *testing.T) (string, float64) {
	t.Helper()
	schema := &array.Schema{
		Name:  "ext",
		Dims:  []array.Dimension{{Name: "x", High: 10}, {Name: "y", High: 4}},
		Attrs: []array.Attribute{{Name: "v", Type: array.TFloat64}},
	}
	a := array.MustNew(schema)
	var sum float64
	for x := int64(1); x <= 10; x++ {
		for y := int64(1); y <= 4; y++ {
			v := float64(x*10 + y)
			sum += v
			if err := a.Set(array.Coord{x, y}, array.Cell{array.Float64(v)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	path := filepath.Join(t.TempDir(), "ext.csv")
	if err := insitu.WriteCSV(path, a); err != nil {
		t.Fatal(err)
	}
	return path, sum
}

// TestCreateFromFileLocal: without a cluster, CREATE ... FROM FILE attaches
// the file locally and queries read it through the adaptor.
func TestCreateFromFileLocal(t *testing.T) {
	path, sum := writeExtCSV(t)
	db := testDB()
	r := exec(t, db, "create array Ext from file '"+path+"' using csv")
	if !strings.Contains(r.Msg, "no load performed") {
		t.Errorf("msg = %q", r.Msg)
	}
	r = exec(t, db, "aggregate(Ext, {}, sum(v), count(*))")
	cell, ok := r.Array.At(array.Coord{1})
	if !ok || cell[0].Float != sum || cell[1].Int != 40 {
		t.Fatalf("aggregate = %v, %v; want sum %v count 40", cell, ok, sum)
	}
	// The name is now taken.
	execErr(t, db, "create array Ext from file '"+path+"' using csv")
}

// TestAttachedFileIsReadOnce: the first query copies an attached file into
// its store, so later queries answer with the file gone, and an attachment
// no query read drops without its file.
func TestAttachedFileIsReadOnce(t *testing.T) {
	path, sum := writeExtCSV(t)
	unread, _ := writeExtCSV(t)
	db := testDB()
	exec(t, db, "attach Ext from '"+path+"' using csv")
	exec(t, db, "attach Unread from '"+unread+"' using csv")
	exec(t, db, "aggregate(Ext, {}, count(*))")
	for _, p := range []string{path, unread} {
		if err := os.Remove(p); err != nil {
			t.Fatal(err)
		}
	}
	r := exec(t, db, "aggregate(Ext, {}, sum(v), count(*))")
	if cell, ok := r.Array.At(array.Coord{1}); !ok || cell[0].Float != sum || cell[1].Int != 40 {
		t.Errorf("aggregate after the file is gone = %v, %v; want sum %v count 40", cell, ok, sum)
	}
	if r := exec(t, db, "subsample(Ext, x >= 3 and x <= 4)"); r.Array.Count() != 8 {
		t.Errorf("subsample after the file is gone = %d cells, want 8", r.Array.Count())
	}
	if err := db.Drop("Unread"); err != nil {
		t.Errorf("drop of an unread attachment whose file is gone: %v", err)
	}
}

// TestCreateFromFileCluster: with a cluster attached, the file is registered
// in situ across all nodes and distributed queries answer from lazy slab
// materialization — no cells were ever loaded.
func TestCreateFromFileCluster(t *testing.T) {
	path, sum := writeExtCSV(t)
	// The file's schema sets no ChunkLen: its partitions sit on the
	// default 64-wide grid.
	tr := cluster.NewLocalWithOptions(2, cluster.WorkerOptions{CacheBytes: 1 << 20})
	defer tr.Close()
	co := cluster.NewCoordinator(tr, 0)
	db := testDB()
	db.AttachCluster(co)

	r := exec(t, db, "create array Ext from file '"+path+"' using csv")
	if !strings.Contains(r.Msg, "across 2 nodes") {
		t.Errorf("msg = %q", r.Msg)
	}
	if !co.Has("Ext") {
		t.Fatal("cluster does not know Ext")
	}
	n, err := co.Count("Ext")
	if err != nil || n != 40 {
		t.Fatalf("count = %d, %v; want 40", n, err)
	}
	// Aggregate pushes down to per-node partials over the in-situ slabs.
	r = exec(t, db, "aggregate(Ext, {}, sum(v))")
	cell, ok := r.Array.At(array.Coord{1})
	if !ok || cell[0].Float != sum {
		t.Fatalf("sum = %v, %v; want %v", cell, ok, sum)
	}
	// A gather-style reference scan sees every cell.
	r = exec(t, db, "subsample(Ext, x >= 1)")
	if r.Array.Count() != 40 {
		t.Fatalf("scan count = %d; want 40", r.Array.Count())
	}
}
