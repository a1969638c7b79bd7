package session

import (
	"bytes"
	"errors"
	"io"
	"net"
	"reflect"
	"runtime"
	"testing"

	"scidb/internal/array"
	"scidb/internal/parser"
	"scidb/internal/storage"
	"scidb/internal/wire"
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

// TestRespondStreamsChunkPayloads: a result's chunk payloads go from the
// response straight into the connection's buffer — the server builds no
// body — and the client reads them back as they were.
func TestRespondStreamsChunkPayloads(t *testing.T) {
	p := &response{Kind: kindResult, Chunks: make([][]byte, 40)}
	for i := range p.Chunks {
		p.Chunks[i] = bytes.Repeat([]byte{byte(i)}, 40<<10)
	}
	client, server := net.Pipe()
	defer client.Close()
	ss := &serverSession{srv: NewServer(ServerOptions{}), w: wire.NewWriter(server, 0, nil)}
	read := make(chan error, 1)
	go func() {
		// The first frame is checked, the rest drained without allocating.
		_, body, err := wire.ReadFrame(client, wire.MaxFrameBody, nil, nil)
		if err == nil {
			var got *response
			if got, err = decodeResponse(body); err == nil && !reflect.DeepEqual(got.Chunks, p.Chunks) {
				err = errors.New("the payloads read back differ from those written")
			}
		}
		_, _ = io.Copy(io.Discard, client)
		read <- err
	}()
	ss.respond(1, p)
	var body int64
	for _, c := range p.Chunks {
		body += 4 + int64(len(c))
	}
	if got := ss.srv.MaxResponseBytes(); got < body {
		t.Errorf("peak response %d bytes, want at least the %d its payloads take", got, body)
	}
	var before, after runtime.MemStats
	const runs = 10
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		ss.respond(1, p)
	}
	runtime.ReadMemStats(&after)
	_ = server.Close()
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per >= 64<<10 {
		t.Errorf("writing a %d-byte response allocates %d bytes, want under 64 KiB", body, per)
	}
	if err := <-read; err != nil {
		t.Fatal(err)
	}
}

// encodeRequest is writeRequest into bytes, for the tests and fuzzers that
// need a request body whole.
func encodeRequest(q *request) ([]byte, error) {
	var b bytes.Buffer
	err := writeRequest(storage.NewFieldWriter(&b), q)
	return b.Bytes(), err
}

// encodeResponse is writeResponse into bytes, for the tests and fuzzers
// that need a response body whole; the server streams it instead.
func encodeResponse(p *response) ([]byte, error) {
	var b bytes.Buffer
	w := storage.NewFieldWriter(&b)
	writeResponse(w, p)
	return b.Bytes(), w.Err()
}
