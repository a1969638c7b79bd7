package cluster

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"scidb/internal/array"
	"scidb/internal/ops"
	"scidb/internal/partition"
	"scidb/internal/storage"
)

// TestScribbledRequestFrames: every request body a worker's server reads is
// a recycled buffer, and with each one overwritten as it goes back to its
// pool (storage.ScribbleRooms) the conformance scenario over TCP still
// answers what it answers over Local, and puts of strings, ints and floats
// read back identical cells both before their flush (from the workers'
// buffers) and after it (from their buckets). A worker that kept a view of
// a request past its response reads fill bytes where its cells were.
func TestScribbledRequestFrames(t *testing.T) {
	defer storage.ScribbleRooms(0xA5)()
	t.Run("conformance", func(t *testing.T) {
		ref := runConformanceScenario(t, NewLocal(3))
		addrs, stop := startWireServers(t, 3, ServeOptions{})
		defer stop()
		tr, err := DialTCP(addrs)
		if err != nil {
			t.Fatal(err)
		}
		defer tr.Close()
		if got := runConformanceScenario(t, tr); !reflect.DeepEqual(got, ref) {
			t.Fatalf("over TCP the scenario gives\n%+v\nover Local\n%+v", got, ref)
		}
	})
	t.Run("put then flush", func(t *testing.T) {
		addrs, stop := startWireServers(t, 2, ServeOptions{})
		defer stop()
		tr, err := DialTCP(addrs)
		if err != nil {
			t.Fatal(err)
		}
		defer tr.Close()
		// A drain of 64 cells put in x-major order carries four whole 4×4
		// chunks, each one payload of a "put" request.
		co := NewCoordinator(tr, 64)
		schema := &array.Schema{
			Name: "puts",
			Dims: []array.Dimension{{Name: "x", High: 16, ChunkLen: 4}, {Name: "y", High: 16, ChunkLen: 4}},
			Attrs: []array.Attribute{
				{Name: "tag", Type: array.TString},
				{Name: "i", Type: array.TInt64},
				{Name: "v", Type: array.TFloat64},
			},
		}
		if err := co.Create("puts", schema, partition.Block{Nodes: 2, SplitDim: 0, High: 16}); err != nil {
			t.Fatal(err)
		}
		want := map[string]string{}
		for x := int64(1); x <= 16; x++ {
			for y := int64(1); y <= 16; y++ {
				cell := array.Cell{array.String64(fmt.Sprintf("p%d.%d", x, y)), array.Int64(x<<40 | y), array.Float64(float64(x) - float64(y)/7)}
				if err := co.Put("puts", array.Coord{x, y}, cell); err != nil {
					t.Fatal(err)
				}
				want[fmt.Sprint(array.Coord{x, y})] = fmt.Sprint(cell)
			}
		}
		for _, step := range []string{"before the flush", "after the flush"} {
			if step == "after the flush" {
				if err := co.Flush("puts"); err != nil {
					t.Fatal(err)
				}
			}
			got, _, _, _, err := co.Read(context.Background(), "puts", ops.Fragment{})
			if err != nil {
				t.Fatalf("%s: %v", step, err)
			}
			if cells := cellsOf(got); !reflect.DeepEqual(cells, want) {
				t.Fatalf("%s: read back %d cells that differ from the %d put", step, len(cells), len(want))
			}
		}
	})
}
