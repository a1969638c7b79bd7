package loader

import (
	"sync"
	"testing"
	"time"

	"scidb/internal/array"
	"scidb/internal/insitu"
	"scidb/internal/partition"
)

func TestBatchForRTT(t *testing.T) {
	for _, tc := range []struct {
		rtt  time.Duration
		want int
	}{
		{0, 16},                      // unmeasured link: base batch
		{500 * time.Microsecond, 16}, // sub-millisecond rounds down
		{time.Millisecond, 32},
		{3 * time.Millisecond, 64},
		{15 * time.Millisecond, 256},
		{time.Second, 256}, // cap holds on pathological links
		{-time.Millisecond, 16},
	} {
		if got := batchForRTT(tc.rtt); got != tc.want {
			t.Errorf("batchForRTT(%v) = %d, want %d", tc.rtt, got, tc.want)
		}
	}
}

// rttDest wraps a recording ChunkDest with a canned link RTT so the test can
// observe which batch size LoadParallel actually used.
type rttDest struct {
	rtt time.Duration

	mu      sync.Mutex
	batches []int
}

func (d *rttDest) AvgRTT() time.Duration                   { return d.rtt }
func (d *rttDest) Flush() error                            { return nil }
func (d *rttDest) Grid(schema *array.Schema) *array.Schema { return schema }
func (d *rttDest) ShipChunks(site int, payloads [][]byte) error {
	d.mu.Lock()
	d.batches = append(d.batches, len(payloads))
	d.mu.Unlock()
	return nil
}

func (d *rttDest) maxBatch() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	max := 0
	for _, b := range d.batches {
		if b > max {
			max = b
		}
	}
	return max
}

// TestLoadParallelAdaptiveBatch: a slow link grows the shipped batches past
// the base 16.
func TestLoadParallelAdaptiveBatch(t *testing.T) {
	schema := gridSchema(40, 20)
	schema.Dims[0].ChunkLen, schema.Dims[1].ChunkLen = 4, 4
	path, _ := writeGridCSV(t, schema)
	scheme := partition.Block{Nodes: 1, SplitDim: 0, High: 40}
	box := array.Box{Lo: array.Coord{1, 1}, Hi: array.Coord{40, 20}}
	// The 40x20 grid at stride 4 has 10x5 = 50 chunks: a serial shard ships
	// them in batches of the adaptive size, 32 at 1ms RTT.
	setParallelism(t, 1)
	ds, err := (insitu.CSVAdaptor{}).Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	adaptive := &rttDest{rtt: time.Millisecond}
	if _, err := LoadParallel(ds, box, schema, scheme, adaptive, Options{}); err != nil {
		t.Fatal(err)
	}
	if got := adaptive.maxBatch(); got != 32 {
		t.Errorf("adaptive batch at 1ms RTT shipped max %d chunks per batch, want 32", got)
	}
}
