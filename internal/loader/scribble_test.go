package loader

import (
	"context"
	"fmt"
	"net"
	"path/filepath"
	"testing"

	"scidb/internal/array"
	"scidb/internal/cluster"
	"scidb/internal/insitu"
	"scidb/internal/ops"
	"scidb/internal/partition"
	"scidb/internal/storage"
)

// tcpGrid serves n workers over loopback sockets, each under dir/node-i
// when dir is set and in memory otherwise, and returns a coordinator dialled
// to them; the servers shut down with the test.
func tcpGrid(t *testing.T, n int, dir string) *cluster.Coordinator {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		opts := cluster.WorkerOptions{}
		if dir != "" {
			opts.Dir = filepath.Join(dir, fmt.Sprintf("node-%d", i))
		}
		srv, err := cluster.NewServer(cluster.NewWorkerWithOptions(i, opts), cluster.ServeOptions{})
		if err != nil {
			t.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go func() { _ = srv.Serve(ln) }()
		t.Cleanup(srv.Shutdown)
		addrs[i] = ln.Addr().String()
	}
	tr, err := cluster.DialTCP(addrs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = tr.Close() })
	return cluster.NewCoordinator(tr, 0)
}

// requireCells holds got to want cell for cell.
func requireCells(t *testing.T, label string, got, want *array.Array) {
	t.Helper()
	if got.Count() != want.Count() {
		t.Fatalf("%s: %d cells, want %d", label, got.Count(), want.Count())
	}
	want.Iter(func(c array.Coord, cell array.Cell) bool {
		g, ok := got.At(c)
		if !ok || fmt.Sprint(g) != fmt.Sprint(cell) {
			t.Fatalf("%s: cell %v is %v (present %v), want %v", label, c, g, ok, cell)
		}
		return true
	})
}

// TestScribbledLoaderPayloads: with every recycled buffer overwritten as it
// is released (storage.ScribbleRooms) — the pipeline's payload room once
// ShipChunks returns, a worker's request frame once its response is written
// — a CSV of strings, ints and floats loads through a StoreDest, a
// ClusterDest over Local and a ClusterDest over TCP, every store in memory,
// and each reads back the file's cells. A destination that kept a view of a
// shipped payload reads fill bytes where its cells were.
func TestScribbledLoaderPayloads(t *testing.T) {
	defer storage.ScribbleRooms(0xA5)()
	schema := &array.Schema{
		Name: "scrib",
		Dims: []array.Dimension{{Name: "x", High: 96, ChunkLen: 8}, {Name: "y", High: 24, ChunkLen: 8}},
		Attrs: []array.Attribute{
			{Name: "tag", Type: array.TString},
			{Name: "i", Type: array.TInt64},
			{Name: "v", Type: array.TFloat64},
		},
	}
	src := array.MustNew(schema)
	for x := int64(1); x <= 96; x++ {
		for y := int64(1); y <= 24; y++ {
			if (x*y)%5 == 0 {
				continue
			}
			cell := array.Cell{array.String64(fmt.Sprintf("t%d-%d", x, y)), array.Int64(x*1000 - y), array.Float64(float64(x) / float64(y))}
			if err := src.Set(array.Coord{x, y}, cell); err != nil {
				t.Fatal(err)
			}
		}
	}
	path := filepath.Join(t.TempDir(), "scrib.csv")
	if err := insitu.WriteCSV(path, src); err != nil {
		t.Fatal(err)
	}
	scheme := partition.Block{Nodes: 3, SplitDim: 0, High: 96}
	box := array.WholeBox(schema)
	load := func(t *testing.T, dest ChunkDest) {
		t.Helper()
		ds, err := insitu.CSVAdaptor{}.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer ds.Close()
		if _, err := LoadParallel(ds, box, schema, scheme, dest, Options{}); err != nil {
			t.Fatal(err)
		}
	}
	setParallelism(t, 3)

	t.Run("StoreDest", func(t *testing.T) {
		stores := make([]*storage.Store, 3)
		for i := range stores {
			var err error
			if stores[i], err = storage.NewStore(schema, storage.Options{}); err != nil {
				t.Fatal(err)
			}
		}
		load(t, StoreDest{Stores: stores})
		got := array.MustNew(schema)
		for _, st := range stores {
			if err := st.Scan(box, func(c array.Coord, cell array.Cell) bool {
				return got.Set(c, cell) == nil
			}); err != nil {
				t.Fatal(err)
			}
		}
		requireCells(t, "StoreDest", got, src)
	})
	for _, tc := range []struct {
		name string
		co   func(t *testing.T) *cluster.Coordinator
	}{
		{"ClusterDest over Local", func(t *testing.T) *cluster.Coordinator { return cluster.NewCoordinator(cluster.NewLocal(3), 0) }},
		{"ClusterDest over TCP", func(t *testing.T) *cluster.Coordinator { return tcpGrid(t, 3, "") }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			co := tc.co(t)
			if err := co.Create("scrib", schema, scheme); err != nil {
				t.Fatal(err)
			}
			load(t, ClusterDest{Co: co, Array: "scrib"})
			got, _, _, _, err := co.Read(context.Background(), "scrib", ops.Fragment{})
			if err != nil {
				t.Fatal(err)
			}
			requireCells(t, tc.name, got, src)
		})
	}
}
