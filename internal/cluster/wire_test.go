package cluster

import (
	"bytes"
	"net"
	"reflect"
	"testing"

	"scidb/internal/array"
	"scidb/internal/obs"
	"scidb/internal/ops"
	"scidb/internal/storage"
	"scidb/internal/wire"
)

// encodeMessage is a message's frame body as bytes, for the tests and
// fuzzers that need one; a wire.Writer streams it instead.
func encodeMessage(m *Message) ([]byte, error) {
	var b bytes.Buffer
	err := writeMessage(storage.NewFieldWriter(&b), m)
	return b.Bytes(), err
}

func wireTestMessage() *Message {
	return &Message{
		Op:    "read",
		Array: "left",
		Err:   "",
		Fold: &ops.FoldSpec{Dims: []string{"x", "y"}, Strides: []int64{2, 3},
			Aggs: []ops.AggSpec{{Agg: "sum", Attr: "flux"}, {Agg: "stdev", Attr: "flux", As: "sd"}}},
		Cells: 42,
		BoxLo: []int64{1, 2},
		BoxHi: []int64{16, 32},
		Table: &ops.FoldTable{Lo: []int64{3, 4}, Shape: []int64{1, 2}, Cells: []int64{7, 0}, Cols: []ops.FoldState{
			{N: []int64{7, 0}, F: []float64{1.5, 0}},
			{N: []int64{7, 0}, F: []float64{-1, 0}, M2: []float64{2.25, 0}},
			{N: []int64{5, 0}, I: []int64{1 << 60, 0}},
		}},
		Schema: &array.Schema{
			Name:      "sessions",
			Updatable: true,
			Dims:      []array.Dimension{{Name: "t", High: array.Unbounded, ChunkLen: 64}},
			Attrs: []array.Attribute{
				{Name: "v", Type: array.TFloat64, Uncertain: true},
				{Name: "results", Type: array.TArray, Nested: &array.Schema{
					Name:  "result",
					Dims:  []array.Dimension{{Name: "rank", High: 10}},
					Attrs: []array.Attribute{{Name: "item", Type: array.TString}},
				}},
			},
		},
		TraceID: 0xfeedbeef,
		Spans: []obs.SpanData{
			{Parent: -1, Node: 2, DurNanos: 1500, Name: "scan",
				Keys: []string{"cells_scanned", "chunks"}, Vals: []int64{128, 4}},
			{Parent: 0, Node: 2, DurNanos: 700, Name: "decode"},
		},
		Metrics: []obs.Sample{
			{Name: "scidb_cache_hits_total", Value: 12},
			{Name: "scidb_worker_request_seconds_count", Label: `le="0.01"`, Value: 3},
		},
		Preds: []array.ZonePred{
			{Attr: 0, Op: ">", Val: array.Float64(1.5)},
			{Attr: 1, Op: "=", Val: array.String64("hot")},
			{Attr: 2, Op: "!=", Val: array.NullValue(array.TInt64)},
		},
		Skipped: 11,
		Seen:    4096,
		Chunks:  [][]byte{{0x01, 0x02, 0x03}, {0x00}, {0xff}},
		Path:    "/data/sky/night-042.csv",
		Adaptor: "csv",
		ExclLo:  [][]int64{{1, 1}, {65, 1}},
		ExclHi:  [][]int64{{64, 64}, {128, 64}},
		Held: []HeatSample{
			{Array: "sky", Origin: []int64{1, 65}, Score: 42.5, Held: true},
			{Array: "sky", Origin: []int64{65, 65}, Score: 1},
		},
		Join: "right",
	}
}

func TestMessageCodecRoundTrip(t *testing.T) {
	for _, m := range []*Message{
		wireTestMessage(),
		{},           // zero message
		{Op: "ping"}, // minimal request
		{Op: "read", Err: "cluster: node 1 has no array \"ghost\""},
		{Op: "read", Array: "a", Fold: &ops.FoldSpec{}}, // a count: a fold with no aggregates
		{Op: "read", Cells: 7, Seen: 9},                 // the seen-cells counter alone
	} {
		enc, err := encodeMessage(m)
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		got, err := decodeMessage(enc)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if !reflect.DeepEqual(m, got) {
			t.Errorf("round trip mismatch:\n in: %+v\nout: %+v", m, got)
		}
	}
}

func TestMessageCodecRejectsCorruptInput(t *testing.T) {
	enc, err := encodeMessage(wireTestMessage())
	if err != nil {
		t.Fatal(err)
	}
	// Truncations at every prefix must error, never panic.
	for cut := 0; cut < len(enc); cut += 7 {
		if _, err := decodeMessage(enc[:cut]); err == nil {
			t.Errorf("decode of %d-byte truncation succeeded", cut)
		}
	}
	// A huge length prefix must be rejected before allocation.
	bad := append([]byte(nil), enc...)
	bad[0], bad[1], bad[2], bad[3] = 0xff, 0xff, 0xff, 0xff
	if _, err := decodeMessage(bad); err == nil {
		t.Error("decode of poisoned length prefix succeeded")
	}
}

// TestFrameRoundTrip: a frame comes back with its id and body, and a
// length prefix above the reader's limit is refused.
func TestFrameRoundTrip(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()
	body := bytes.Repeat([]byte("scidb"), 100)
	go func() {
		w := wire.NewWriter(client, 0, nil)
		for _, id := range []uint64{77, 1} {
			_ = w.Write(id, func(fw *storage.FieldWriter) error {
				fw.Raw(body)
				return nil
			})
		}
	}()
	id, got, err := wire.ReadFrame(server, wire.MaxFrameBody, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if id != 77 || !bytes.Equal(got, body) {
		t.Errorf("frame round trip: id=%d len=%d", id, len(got))
	}
	if _, _, err := wire.ReadFrame(server, uint32(len(body)-1), nil, nil); err == nil {
		t.Error("oversized frame accepted")
	}
}
