package cluster

import (
	"bytes"
	"net"
	"reflect"
	"testing"

	"scidb/internal/array"
	"scidb/internal/compress"
	"scidb/internal/obs"
	"scidb/internal/ops"
	"scidb/internal/wire"
)

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
		Skipped:      11,
		Seen:         4096,
		Chunks:       [][]byte{{0x01, 0x02, 0x03}, {0x00}, {0xff}},
		Path:         "/data/sky/night-042.csv",
		Adaptor:      "csv",
		ExclLo:       [][]int64{{1, 1}, {65, 1}},
		ExclHi:       [][]int64{{64, 64}, {128, 64}},
		RouteVersion: 12,
		Nodes:        []int64{2, 0, 1},
		Release:      true,
		Heat: []HeatSample{
			{Array: "sky", Origin: []int64{1, 65}, Score: 42.5},
			{Array: "sky", Origin: []int64{65, 65}, Score: 1},
		},
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
		if cap(enc) != len(enc) {
			t.Errorf("encoded %d bytes into a %d-byte buffer; the size pass is off", len(enc), cap(enc))
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

// TestFrameRoundTrip: a frame comes back with its id, flags and body, and a
// length prefix above the reader's limit is refused.
func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	body := bytes.Repeat([]byte("scidb"), 100)
	if err := wire.WriteFrame(&buf, 77, wire.FlagCompressed, body); err != nil {
		t.Fatal(err)
	}
	id, flags, got, err := wire.ReadFrame(&buf, wire.MaxFrameBody)
	if err != nil {
		t.Fatal(err)
	}
	if id != 77 || flags != wire.FlagCompressed || !bytes.Equal(got, body) {
		t.Errorf("frame round trip: id=%d flags=%d len=%d", id, flags, len(got))
	}
	if err := wire.WriteFrame(&buf, 1, 0, body); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := wire.ReadFrame(&buf, uint32(len(body)-1)); err == nil {
		t.Error("oversized frame accepted")
	}
}

// TestFrameBodyCompression: a Writer compresses only bodies its codec
// shrinks and that are worth it, ReadBody undoes it, and a compressed frame
// on a direction without a codec is refused.
func TestFrameBodyCompression(t *testing.T) {
	codec, err := compress.ByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	small, big := []byte("tiny"), bytes.Repeat([]byte("abcdefgh"), 4096)
	client, server := net.Pipe()
	defer client.Close()
	go func() {
		defer server.Close()
		packed, raw := wire.NewWriter(server, codec, 0, nil), wire.NewWriter(server, nil, 0, nil)
		for _, f := range []struct {
			w    *wire.Writer
			body []byte
		}{{packed, small}, {packed, big}, {packed, big}, {packed, big}, {raw, big}} {
			if f.w.Write(1, f.body) != nil {
				return
			}
		}
	}()
	if _, flags, body, err := wire.ReadFrame(client, wire.MaxFrameBody); err != nil || flags != 0 || !bytes.Equal(body, small) {
		t.Errorf("small body: flags=%d, %v; want it sent raw", flags, err)
	}
	if _, flags, body, err := wire.ReadFrame(client, wire.MaxFrameBody); err != nil || flags&wire.FlagCompressed == 0 || len(body) >= len(big) {
		t.Errorf("compressible body: flags=%d, %d bytes, %v; want it compressed", flags, len(body), err)
	}
	if _, body, err := wire.ReadBody(client, wire.MaxFrameBody, codec, nil); err != nil || !bytes.Equal(body, big) {
		t.Errorf("compression round trip: %d bytes, %v", len(body), err)
	}
	if _, _, err := wire.ReadBody(client, wire.MaxFrameBody, nil, nil); err == nil {
		t.Error("compressed frame accepted on an uncompressed connection")
	}
	if _, flags, body, err := wire.ReadFrame(client, wire.MaxFrameBody); err != nil || flags != 0 || !bytes.Equal(body, big) {
		t.Errorf("no codec: flags=%d, %v; want the body untouched", flags, err)
	}
}
