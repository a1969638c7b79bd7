// Package session is the multi-tenant serving front end: the client-facing
// protocol layer the paper's community-of-users story needs (§1, §2.14 —
// science databases serve many concurrent analysts steering ad-hoc queries
// at shared arrays). It rides internal/wire, the connection layer the
// coordinator↔worker protocol rides too: its frames, hello, pipelined client
// connection and coalescing response writer.
//
// A connection opens with wire.SessionMagic and a hello whose payload is the
// client name, namespace and default priority, answered with a session id;
// after that many statements pipeline concurrently over the connection as
// frames of request and response bodies (below). Each namespace maps to its
// own core.Database — tenant isolation by construction — and each session
// gets its own core.Executor, so prepared statements never collide across
// connections.
//
// Three properties distinguish the session protocol from the cluster one:
//
//   - Admission control: statements pass a bounded slot pool with
//     class-priority queues (interactive ahead of batch) and a typed
//     "server busy" rejection instead of unbounded queuing (admission.go).
//   - Prepared statements: parse once ($N placeholders), bind values per
//     execution (core.Executor / parser.Bind).
//   - Incremental result streaming: a query may return a cursor instead of
//     a materialized payload; the client drives chunk-at-a-time fetches and
//     the server encodes one page at a time, never the whole result.
package session

import (
	"bytes"
	"context"
	"fmt"

	"scidb/internal/array"
	"scidb/internal/exec"
	"scidb/internal/parser"
	"scidb/internal/storage"
	"scidb/internal/wire"
)

const (
	// maxSQLLen bounds one statement's text.
	maxSQLLen = 1 << 20
	// maxParams bounds one bind's parameter count.
	maxParams = 1 << 16
	// maxChunksPerFrame bounds a result/page chunk count before
	// allocation.
	maxChunksPerFrame = 1 << 20

	// scalarLen is the fixed part of an encoded scalar: flags, int, float,
	// sigma, parameter index and its string's length prefix.
	scalarLen = 1 + 8 + 8 + 8 + 4 + 4
	// maxRequestBody bounds a request frame before the server allocates its
	// body: the fixed fields, a statement and a name of maxSQLLen each, and
	// maxParams scalars whose strings share one more maxSQLLen.
	maxRequestBody = 64 + 3*maxSQLLen + maxParams*scalarLen
)

// Priority classes. Interactive statements overtake queued batch
// statements at every slot handoff.
type Priority uint8

const (
	Interactive Priority = 0
	Batch       Priority = 1
)

func (p Priority) String() string {
	if p == Batch {
		return "batch"
	}
	return "interactive"
}

// Request ops.
const (
	opExec         = 1 // run one statement
	opPrepare      = 2 // parse + store a template
	opExecPrepared = 3 // bind + run a template
	opFetch        = 4 // next page of a cursor
	opCloseCursor  = 5 // drop a cursor early
	opCancel       = 6 // cancel an in-flight or queued statement
	opPing         = 7 // liveness probe
	opClosePrep    = 8 // drop a prepared template
)

// Response statuses.
const (
	statusOK   = 0
	statusErr  = 1
	statusBusy = 2 // admission queue full — the typed overload rejection
)

// Response kinds (valid when status == statusOK).
const (
	kindAck    = 0 // bare acknowledgement (ping, cancel, close, prepare)
	kindMsg    = 1 // DDL/DML message
	kindResult = 2 // array result: materialized chunks or a cursor
	kindPage   = 3 // one cursor page
)

// request is one client→server session frame body.
type request struct {
	Op       uint8
	Priority uint8
	Stream   bool   // opExec/opExecPrepared: return a cursor, not chunks
	SQL      string // opExec, opPrepare
	Name     string // opPrepare, opExecPrepared, opClosePrep
	Cursor   uint64 // opFetch, opCloseCursor
	Target   uint64 // opCancel: request id of the statement to cancel
	Fetch    uint32 // opFetch page size in chunks (0 = server default)
	Params   []parser.Scalar
}

// response is one server→client session frame body.
type response struct {
	Status uint8
	Err    string
	Kind   uint8
	Msg    string

	// Result fields.
	Schema   *array.Schema
	Streamed bool
	Cursor   uint64
	Done     bool
	Chunks   [][]byte // storage.EncodeChunk payloads

	// Prepare acknowledgement.
	NumParams uint32
}

// encodeScalar writes one literal (or bind value).
func encodeScalar(w *storage.FieldWriter, s parser.Scalar) {
	var bits uint8
	if s.IsString {
		bits |= 1
	}
	if s.IsNull {
		bits |= 2
	}
	if s.IsInt {
		bits |= 4
	}
	if s.IsParam {
		bits |= 8
	}
	w.U8(bits)
	w.I64(s.Int)
	w.F64(s.Num)
	w.F64(s.Sigma)
	w.U32(uint32(s.ParamIdx))
	w.String(s.Str)
}

func decodeScalar(r *storage.FieldReader) parser.Scalar {
	bits := r.U8()
	s := parser.Scalar{
		IsString: bits&1 != 0,
		IsNull:   bits&2 != 0,
		IsInt:    bits&4 != 0,
		IsParam:  bits&8 != 0,
	}
	s.Int = r.I64()
	s.Num = r.F64()
	s.Sigma = r.F64()
	s.ParamIdx = int(r.U32())
	s.Str = r.String()
	return s
}

// writeRequest hand-rolls a request to its frame body.
func writeRequest(w *storage.FieldWriter, q *request) error {
	w.U8(q.Op)
	w.U8(q.Priority)
	w.Bool(q.Stream)
	w.String(q.SQL)
	w.String(q.Name)
	w.U64(q.Cursor)
	w.U64(q.Target)
	w.U32(q.Fetch)
	w.U32(uint32(len(q.Params)))
	for _, p := range q.Params {
		encodeScalar(w, p)
	}
	return w.Err()
}

// decodeRequest reverses writeRequest, bounding every count and length
// against the remaining buffer before allocating (mirrors the
// fuzz-hardened chunk decoders of PR 4; FuzzDecodeSessionFrame drives it).
func decodeRequest(data []byte) (*request, error) {
	r := storage.NewFieldReaderBytes(data)
	q := &request{}
	q.Op = r.U8()
	q.Priority = r.U8()
	q.Stream = r.Bool()
	q.SQL = r.String()
	q.Name = r.String()
	q.Cursor = r.U64()
	q.Target = r.U64()
	q.Fetch = r.U32()
	if r.Err() != nil {
		return nil, fmt.Errorf("session: corrupt request: %w", r.Err())
	}
	if len(q.SQL) > maxSQLLen || len(q.Name) > maxSQLLen {
		return nil, fmt.Errorf("session: statement text too long")
	}
	n := int(r.U32())
	if r.Err() != nil {
		return nil, fmt.Errorf("session: corrupt request: %w", r.Err())
	}
	if n > maxParams {
		return nil, fmt.Errorf("session: request has %d parameters", n)
	}
	// Every scalar costs at least its fixed fields plus the string length
	// prefix.
	if n > 0 && !r.Need(int64(n)*scalarLen) {
		return nil, fmt.Errorf("session: corrupt request: %w", r.Err())
	}
	if n > 0 {
		q.Params = make([]parser.Scalar, n)
		for i := range q.Params {
			q.Params[i] = decodeScalar(r)
			if r.Err() != nil {
				return nil, fmt.Errorf("session: corrupt request: %w", r.Err())
			}
		}
	}
	if r.Err() != nil {
		return nil, fmt.Errorf("session: corrupt request: %w", r.Err())
	}
	if q.Priority > uint8(Batch) {
		q.Priority = uint8(Batch)
	}
	return q, nil
}

// writeResponse hand-rolls a response to its frame body, its fields in
// their fixed order, as the body a wire.Writer streams: a result's chunk
// payloads are written straight into the connection's buffer.
func writeResponse(w *storage.FieldWriter, p *response) {
	w.U8(p.Status)
	w.String(p.Err)
	w.U8(p.Kind)
	w.String(p.Msg)
	w.Bool(p.Schema != nil)
	if p.Schema != nil {
		wire.EncodeSchema(w, p.Schema)
	}
	w.Bool(p.Streamed)
	w.U64(p.Cursor)
	w.Bool(p.Done)
	w.U32(p.NumParams)
	w.U32(uint32(len(p.Chunks)))
	for _, ch := range p.Chunks {
		w.Bytes(ch)
	}
}

// decodeResponse reverses writeResponse. The chunk payloads it returns are
// views of data, not copies: a response owns the frame body it was read from
// (wire.ReadFrame allocates every body afresh), and the client decodes the
// payloads into chunks of their own before dropping the response.
func decodeResponse(data []byte) (*response, error) {
	r := storage.NewFieldReaderBytes(data)
	p := &response{}
	p.Status = r.U8()
	p.Err = r.String()
	p.Kind = r.U8()
	p.Msg = r.String()
	if r.Bool() && r.Err() == nil {
		s, err := wire.DecodeSchema(r)
		if err != nil {
			return nil, fmt.Errorf("session: corrupt response schema: %w", err)
		}
		p.Schema = s
	}
	p.Streamed = r.Bool()
	p.Cursor = r.U64()
	p.Done = r.Bool()
	p.NumParams = r.U32()
	n := int(r.U32())
	if r.Err() != nil {
		return nil, fmt.Errorf("session: corrupt response: %w", r.Err())
	}
	if n > maxChunksPerFrame {
		return nil, fmt.Errorf("session: response carries %d chunks", n)
	}
	// Every chunk costs at least its u32 length prefix.
	if n > 0 && !r.Need(int64(n)*4) {
		return nil, fmt.Errorf("session: corrupt response: %w", r.Err())
	}
	if n > 0 {
		p.Chunks = make([][]byte, n)
		for i := range p.Chunks {
			p.Chunks[i] = r.BytesView()
			if r.Err() != nil {
				return nil, fmt.Errorf("session: corrupt response: %w", r.Err())
			}
		}
	}
	if r.Err() != nil {
		return nil, fmt.Errorf("session: corrupt response: %w", r.Err())
	}
	return p, nil
}

// encodePage encodes a result's chunks, one payload each in order, as tasks
// of the process pool: the server's side of a result page.
func encodePage(ctx context.Context, s *array.Schema, chunks []*array.Chunk) ([][]byte, error) {
	out := make([][]byte, len(chunks))
	err := exec.Default().Map(ctx, len(chunks), func(i int) (err error) {
		out[i], err = storage.EncodeChunk(s, chunks[i])
		return err
	})
	return out, err
}

// decodePage is encodePage's reverse, the client's side: the chunks of a
// page, in order, decoded as tasks of the process pool.
func decodePage(ctx context.Context, s *array.Schema, payloads [][]byte) ([]*array.Chunk, error) {
	out := make([]*array.Chunk, len(payloads))
	err := exec.Default().Map(ctx, len(payloads), func(i int) (err error) {
		out[i], err = storage.DecodeChunk(s, payloads[i])
		return err
	})
	return out, err
}

// encodeHello is a client hello's payload: name, namespace and default
// priority.
func encodeHello(name, namespace string, pr Priority) []byte {
	var b bytes.Buffer
	w := storage.NewFieldWriter(&b)
	w.String(name)
	w.String(namespace)
	w.U8(uint8(pr))
	return b.Bytes()
}

// decodeHello reverses encodeHello.
func decodeHello(payload []byte) (name, namespace string, pr Priority, err error) {
	r := storage.NewFieldReaderBytes(payload)
	name, namespace, pr = r.String(), r.String(), Priority(r.U8())
	if r.Err() != nil {
		return "", "", 0, fmt.Errorf("session: corrupt hello: %w", r.Err())
	}
	if len(name) > 256 || len(namespace) > 256 {
		return "", "", 0, fmt.Errorf("session: hello names too long")
	}
	return name, namespace, min(pr, Batch), nil
}
