package session

import (
	"bytes"
	"testing"

	"scidb/internal/array"
	"scidb/internal/parser"
)

// FuzzDecodeSessionFrame hammers both session frame-body decoders with
// arbitrary bytes: they must never panic or over-allocate, only return
// errors (the same hardening contract as the storage chunk decoders).
func FuzzDecodeSessionFrame(f *testing.F) {
	// Seed with well-formed bodies so the fuzzer starts near the format.
	if b, err := encodeRequest(&request{Op: opExec, Priority: 1, SQL: "filter(M, v > $1)"}); err == nil {
		f.Add(b)
	}
	if b, err := encodeRequest(&request{
		Op: opExecPrepared, Name: "pick", Fetch: 4,
		Params: []parser.Scalar{{IsInt: true, Int: 7}, {IsString: true, Str: "x"}},
	}); err == nil {
		f.Add(b)
	}
	sch := &array.Schema{
		Name:  "M",
		Dims:  []array.Dimension{{Name: "x", High: 4}},
		Attrs: []array.Attribute{{Name: "v", Type: array.TFloat64}},
	}
	if b, err := encodeResponse(&response{
		Kind: kindResult, Schema: sch, Streamed: true, Cursor: 3,
		Chunks: [][]byte{{1, 2, 3}},
	}); err == nil {
		f.Add(b)
	}
	if b, err := encodeResponse(&response{Status: statusBusy, Err: "busy"}); err == nil {
		f.Add(b)
	}
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, 64))

	f.Fuzz(func(t *testing.T, data []byte) {
		if q, err := decodeRequest(data); err == nil && q != nil {
			// A decoded request must re-encode without error.
			if _, err := encodeRequest(q); err != nil {
				t.Fatalf("re-encode of decoded request failed: %v", err)
			}
		}
		if p, err := decodeResponse(data); err == nil && p != nil {
			if _, err := encodeResponse(p); err != nil {
				t.Fatalf("re-encode of decoded response failed: %v", err)
			}
		}
	})
}

// TestFrameRoundTrip pins the codec: encode → decode is identity for
// representative request and response bodies.
func TestFrameRoundTrip(t *testing.T) {
	q := &request{
		Op: opExecPrepared, Priority: uint8(Batch), Stream: true,
		SQL: "filter(M, v > $1)", Name: "pick", Cursor: 9, Target: 4, Fetch: 2,
		Params: []parser.Scalar{
			{IsInt: true, Int: -3, Num: -3},
			{Num: 2.5},
			{IsString: true, Str: "hello"},
			{IsNull: true},
		},
	}
	b, err := encodeRequest(q)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeRequest(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Op != q.Op || got.Priority != q.Priority || !got.Stream ||
		got.SQL != q.SQL || got.Name != q.Name || got.Cursor != 9 ||
		got.Target != 4 || got.Fetch != 2 || len(got.Params) != 4 {
		t.Fatalf("request round trip mismatch: %+v", got)
	}
	if got.Params[0].Int != -3 || got.Params[1].Num != 2.5 ||
		got.Params[2].Str != "hello" || !got.Params[3].IsNull {
		t.Fatalf("params round trip mismatch: %+v", got.Params)
	}

	sch := &array.Schema{
		Name: "M",
		Dims: []array.Dimension{{Name: "x", High: 8, ChunkLen: 4}},
		Attrs: []array.Attribute{
			{Name: "v", Type: array.TFloat64},
			{Name: "s", Type: array.TString},
		},
	}
	p := &response{
		Status: statusOK, Kind: kindPage, Msg: "ok",
		Schema: sch, Streamed: true, Cursor: 7, Done: true, NumParams: 2,
		Chunks: [][]byte{{1, 2}, {3}},
	}
	pb, err := encodeResponse(p)
	if err != nil {
		t.Fatal(err)
	}
	gp, err := decodeResponse(pb)
	if err != nil {
		t.Fatal(err)
	}
	if gp.Kind != kindPage || gp.Msg != "ok" || gp.Schema == nil ||
		gp.Schema.Name != "M" || len(gp.Schema.Attrs) != 2 ||
		!gp.Streamed || gp.Cursor != 7 || !gp.Done || gp.NumParams != 2 ||
		len(gp.Chunks) != 2 || gp.Chunks[1][0] != 3 {
		t.Fatalf("response round trip mismatch: %+v", gp)
	}
}

// TestEncodeResponseSizedOnce: a result body is allocated once at its
// length, not grown by doubling while its chunk payloads are copied in.
func TestEncodeResponseSizedOnce(t *testing.T) {
	p := &response{Kind: kindResult, Chunks: make([][]byte, 40)}
	for i := range p.Chunks {
		p.Chunks[i] = bytes.Repeat([]byte{byte(i)}, 40<<10)
	}
	b, err := encodeResponse(p)
	if err != nil {
		t.Fatal(err)
	}
	if cap(b) != len(b) {
		t.Errorf("a %d-byte body has capacity %d", len(b), cap(b))
	}
	if allocs := testing.AllocsPerRun(10, func() { _, _ = encodeResponse(p) }); allocs > 5 {
		t.Errorf("encoding a %d-byte body allocates %.0f times, want at most 5", len(b), allocs)
	}
}
