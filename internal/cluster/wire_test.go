package cluster

import (
	"bytes"
	"reflect"
	"testing"

	"scidb/internal/array"
	"scidb/internal/compress"
	"scidb/internal/obs"
	"scidb/internal/ops"
)

func wireTestMessage() *Message {
	return &Message{
		Op:     "sjoin",
		Array:  "left",
		Array2: "right",
		Err:    "",
		Fold: &ops.FoldSpec{Dims: []string{"x", "y"}, Strides: []int64{2, 3},
			Aggs: []ops.AggSpec{{Agg: "sum", Attr: "flux"}, {Agg: "stdev", Attr: "flux", As: "sd"}}},
		OnL:     []string{"x"},
		OnR:     []string{"x"},
		Cells:   42,
		BoxLo:   []int64{1, 2},
		BoxHi:   []int64{16, 32},
		Payload: []byte{0xde, 0xad, 0xbe, 0xef, 0x00, 0x01},
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

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	body := bytes.Repeat([]byte("scidb"), 100)
	if err := WriteFrame(&buf, 77, flagCompressed, body); err != nil {
		t.Fatal(err)
	}
	id, flags, got, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if id != 77 || flags != flagCompressed || !bytes.Equal(got, body) {
		t.Errorf("frame round trip: id=%d flags=%d len=%d", id, flags, len(got))
	}
	// Oversized length prefix is refused.
	var hdr bytes.Buffer
	if err := WriteFrame(&hdr, 1, 0, nil); err != nil {
		t.Fatal(err)
	}
	raw := hdr.Bytes()
	raw[0], raw[1], raw[2], raw[3] = 0xff, 0xff, 0xff, 0xff
	if _, _, _, err := ReadFrame(bytes.NewReader(raw)); err == nil {
		t.Error("oversized frame accepted")
	}
}

func TestFrameBodyCompression(t *testing.T) {
	codec, err := compress.ByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	// Small bodies skip compression regardless of codec.
	small := []byte("tiny")
	if body, flags := encodeFrameBody(small, codec); flags != 0 || !bytes.Equal(body, small) {
		t.Errorf("small body was compressed: flags=%d", flags)
	}
	// Large compressible bodies shrink and round-trip.
	big := bytes.Repeat([]byte("abcdefgh"), 4096)
	body, flags := encodeFrameBody(big, codec)
	if flags&flagCompressed == 0 {
		t.Fatal("compressible body not compressed")
	}
	if len(body) >= len(big) {
		t.Fatalf("compressed body %d >= raw %d", len(body), len(big))
	}
	back, err := decodeFrameBody(body, flags, codec)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, big) {
		t.Error("compression round trip mismatch")
	}
	// A compressed flag without a negotiated codec is a protocol error.
	if _, err := decodeFrameBody(body, flags, nil); err == nil {
		t.Error("compressed frame accepted on uncompressed connection")
	}
	// No codec: passthrough.
	if body, flags := encodeFrameBody(big, nil); flags != 0 || !bytes.Equal(body, big) {
		t.Error("nil codec altered the body")
	}
}

func TestHelloNegotiation(t *testing.T) {
	var wire bytes.Buffer
	if err := writeHello(&wire, "gzip"); err != nil {
		t.Fatal(err)
	}
	r := bytes.NewReader(wire.Bytes())
	var magic [4]byte
	if _, err := r.Read(magic[:]); err != nil {
		t.Fatal(err)
	}
	name, err := readHello(r)
	if err != nil || name != "gzip" {
		t.Fatalf("readHello = %q, %v", name, err)
	}
	// Server accept reply.
	wire.Reset()
	if err := writeHelloReply(&wire, "delta", nil); err != nil {
		t.Fatal(err)
	}
	got, err := readHelloReply(bytes.NewReader(wire.Bytes()))
	if err != nil || got != "delta" {
		t.Fatalf("readHelloReply = %q, %v", got, err)
	}
	// Server reject reply surfaces the message.
	wire.Reset()
	if err := writeHelloReply(&wire, "", errUnknownCodecForTest()); err != nil {
		t.Fatal(err)
	}
	if _, err := readHelloReply(bytes.NewReader(wire.Bytes())); err == nil {
		t.Error("rejected hello decoded as success")
	}
}

func errUnknownCodecForTest() error {
	_, err := compress.ByName("no-such-codec")
	return err
}
