package cluster

// The multiplexed binary wire protocol.
//
// A connection starts with a hello exchange that pins the protocol version
// and negotiates per-direction payload compression:
//
//	client hello: u32 magic "SCWP" | u8 version | u8 len | codec name
//	server hello: u32 magic | u8 version | u8 status | u8 len | codec name
//	              | (status != 0) u32 len | error text
//
// The client announces the codec it will compress its frames with; the
// server replies with the codec it will use for responses (its configured
// override, or a mirror of the client's). After the hello, both directions
// carry length-prefixed frames:
//
//	u32 body length | u64 request id | u8 flags | body
//
// The body is a hand-rolled binary Message encoding (below) — chunk
// payloads travel in their storage.EncodeArray form untouched, so the hot
// field is a single length-prefixed copy, never re-encoded. flagCompressed
// marks a body that was shrunk by the direction's negotiated codec; small
// or incompressible bodies are sent raw even when a codec is negotiated.
// Request ids are chosen by the client; a response echoes the id of the
// request it answers, which is what lets many calls pipeline concurrently
// over one connection with a reader goroutine dispatching responses to
// waiters in completion order.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"

	"scidb/internal/array"
	"scidb/internal/compress"
	"scidb/internal/obs"
	"scidb/internal/ops"
	"scidb/internal/storage"
)

const (
	wireMagic   = 0x53435750 // "SCWP"
	wireVersion = 1

	// SessionMagic opens the client-facing session protocol
	// (internal/session). It shares the cluster listener: Server sniffs the
	// first four bytes of each connection and hands session connections to
	// ServeOptions.Session, so one port serves cluster peers and interactive
	// sessions.
	SessionMagic = 0x53435345 // "SCSE"

	// FrameHeaderLen is u32 length + u64 request id + u8 flags.
	FrameHeaderLen = 4 + 8 + 1

	// MaxFrameBody caps a single frame so a corrupt length prefix cannot
	// force a huge allocation.
	MaxFrameBody = 1 << 30

	// compressThreshold is the smallest body worth running through the
	// negotiated codec; control messages stay raw.
	compressThreshold = 512
)

// Frame flags.
const (
	flagCompressed = 1 << 0
)

// writeHello sends the client half of the hello exchange.
func writeHello(w io.Writer, codec string) error {
	fw := storage.NewFieldWriter(w)
	fw.U32(wireMagic)
	fw.U8(wireVersion)
	if len(codec) > 255 {
		return fmt.Errorf("cluster: codec name too long")
	}
	fw.U8(uint8(len(codec)))
	fw.Raw([]byte(codec))
	return fw.Err()
}

// readHello consumes a client hello (after the magic has already been
// sniffed and consumed by the server) and returns the announced codec name.
func readHello(r io.Reader) (string, error) {
	fr := storage.NewFieldReader(r)
	if v := fr.U8(); fr.Err() == nil && v != wireVersion {
		return "", fmt.Errorf("cluster: wire version %d, want %d", v, wireVersion)
	}
	n := int(fr.U8())
	name := make([]byte, n)
	fr.Raw(name)
	if fr.Err() != nil {
		return "", fr.Err()
	}
	return string(name), nil
}

// writeHelloReply sends the server half: its response codec, or an error.
func writeHelloReply(w io.Writer, codec string, helloErr error) error {
	fw := storage.NewFieldWriter(w)
	fw.U32(wireMagic)
	fw.U8(wireVersion)
	if helloErr != nil {
		fw.U8(1)
		fw.U8(0)
		fw.String(helloErr.Error())
	} else {
		fw.U8(0)
		fw.U8(uint8(len(codec)))
		fw.Raw([]byte(codec))
	}
	return fw.Err()
}

// readHelloReply consumes the server hello and returns the server's
// response codec name.
func readHelloReply(r io.Reader) (string, error) {
	fr := storage.NewFieldReader(r)
	if m := fr.U32(); fr.Err() == nil && m != wireMagic {
		return "", fmt.Errorf("cluster: bad hello magic %#x (not a scidb wire server?)", m)
	}
	if v := fr.U8(); fr.Err() == nil && v != wireVersion {
		return "", fmt.Errorf("cluster: server speaks wire version %d, want %d", v, wireVersion)
	}
	status := fr.U8()
	n := int(fr.U8())
	name := make([]byte, n)
	fr.Raw(name)
	if fr.Err() != nil {
		return "", fr.Err()
	}
	if status != 0 {
		msg := fr.String()
		if fr.Err() != nil {
			return "", fr.Err()
		}
		return "", fmt.Errorf("cluster: server rejected hello: %s", msg)
	}
	return string(name), nil
}

// codecByName resolves a negotiated codec name; "" and "none" mean no
// compression (nil codec).
func codecByName(name string) (compress.Codec, error) {
	if name == "" || name == "none" {
		return nil, nil
	}
	return compress.ByName(name)
}

// encodeFrameBody runs the encoded message through the direction's codec
// when it pays off, returning the body and its flags.
func encodeFrameBody(enc []byte, codec compress.Codec) ([]byte, uint8) {
	if codec == nil || len(enc) < compressThreshold {
		return enc, 0
	}
	packed := codec.Encode(enc)
	if len(packed) >= len(enc) {
		return enc, 0
	}
	return packed, flagCompressed
}

// WriteFrame writes one frame. The caller owns any locking around w.
func WriteFrame(w io.Writer, id uint64, flags uint8, body []byte) error {
	var hdr [FrameHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(body)))
	binary.LittleEndian.PutUint64(hdr[4:12], id)
	hdr[12] = flags
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(body)
	return err
}

// ReadFrame reads one frame header + body.
func ReadFrame(r io.Reader) (id uint64, flags uint8, body []byte, err error) {
	var hdr [FrameHeaderLen]byte
	if _, err = io.ReadFull(r, hdr[:]); err != nil {
		return 0, 0, nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[0:4])
	id = binary.LittleEndian.Uint64(hdr[4:12])
	flags = hdr[12]
	if n > MaxFrameBody {
		return 0, 0, nil, fmt.Errorf("cluster: frame body %d bytes exceeds limit", n)
	}
	body = make([]byte, n)
	if _, err = io.ReadFull(r, body); err != nil {
		return 0, 0, nil, err
	}
	return id, flags, body, nil
}

// decodeFrameBody undoes encodeFrameBody.
func decodeFrameBody(body []byte, flags uint8, codec compress.Codec) ([]byte, error) {
	if flags&flagCompressed == 0 {
		return body, nil
	}
	if codec == nil {
		return nil, fmt.Errorf("cluster: compressed frame on an uncompressed connection")
	}
	return codec.Decode(body)
}

// Message presence bits for the optional fields; each set bit is followed,
// in bit order, by its block. Bits 1 and 4 are unassigned. decodeMessage rejects
// a set bit it does not know: the blocks are not self-delimiting, so an
// unknown one cannot be skipped.
const (
	msgHasSchema  = 1 << 0
	msgHasFold    = 1 << 2 // Fold: the fold a "read" request asks for (no aggregates: a count)
	msgHasTable   = 1 << 3 // Table: the node's partial fold state
	msgHasTrace   = 1 << 5 // TraceID + Spans
	msgHasMetrics = 1 << 6 // Metrics registry samples
	msgHasPreds   = 1 << 7 // Preds + Skipped + Seen (compressed-execution pruning)

	msgKnownBits = msgHasSchema | msgHasFold | msgHasTable | msgHasTrace | msgHasMetrics | msgHasPreds
)

// The first presence byte is full, so later fields chain through a second
// one, written only when one of its bits is set: a message with none of
// these fields ends after the first byte's blocks.
const (
	msg2HasChunks = 1 << 0 // Chunks: batched pre-encoded chunk payloads (bulk load)
	msg2HasInsitu = 1 << 1 // Path + Adaptor (in-situ registration)
	msg2HasRoute  = 1 << 2 // ExclLo/ExclHi + RouteVersion + Nodes + Release (online rebalancing)
	msg2HasHeat   = 1 << 3 // Heat samples ("heat" response)

	msg2KnownBits = msg2HasChunks | msg2HasInsitu | msg2HasRoute | msg2HasHeat
)

// encodePredValue writes one predicate constant. Preds are scalar
// comparisons, so the nested-array field never travels.
func encodePredValue(w *storage.FieldWriter, v array.Value) {
	w.U8(uint8(v.Type))
	w.Bool(v.Null)
	w.I64(v.Int)
	w.F64(v.Float)
	w.String(v.Str)
	w.Bool(v.Bool)
	w.F64(v.Sigma)
}

func decodePredValue(r *storage.FieldReader) array.Value {
	return array.Value{
		Type:  array.Type(r.U8()),
		Null:  r.Bool(),
		Int:   r.I64(),
		Float: r.F64(),
		Str:   r.String(),
		Bool:  r.Bool(),
		Sigma: r.F64(),
	}
}

// encodeMessage hand-rolls a Message to its wire form. Field order is
// fixed; Payload is carried verbatim (it is already the binary
// storage.EncodeArray / EncodeChunk form), so the dominant field costs one
// length-prefixed copy instead of a reflective re-encode.
func encodeMessage(m *Message) ([]byte, error) {
	var b bytes.Buffer
	w := storage.NewFieldWriter(&b)
	w.String(m.Op)
	w.String(m.Array)
	w.String(m.Array2)
	w.String(m.Err)
	w.Strings(m.OnL)
	w.Strings(m.OnR)
	w.I64(m.Cells)
	w.I64s(m.BoxLo)
	w.I64s(m.BoxHi)
	w.Bytes(m.Payload)
	var present uint8
	if m.Schema != nil {
		present |= msgHasSchema
	}
	if m.Fold != nil {
		present |= msgHasFold
	}
	if m.Table != nil {
		present |= msgHasTable
	}
	if m.TraceID != 0 || len(m.Spans) > 0 {
		present |= msgHasTrace
	}
	if len(m.Metrics) > 0 {
		present |= msgHasMetrics
	}
	if len(m.Preds) > 0 || m.Skipped != 0 || m.Seen != 0 {
		present |= msgHasPreds
	}
	w.U8(present)
	if m.Schema != nil {
		EncodeSchema(w, m.Schema)
	}
	if present&msgHasFold != 0 {
		w.Strings(m.Fold.Dims)
		w.I64s(m.Fold.Strides)
		w.U32(uint32(len(m.Fold.Aggs)))
		for _, a := range m.Fold.Aggs {
			w.String(a.Agg)
			w.String(a.Attr)
			w.String(a.As)
		}
	}
	if t := m.Table; t != nil {
		w.I64s(t.Lo)
		w.I64s(t.Shape)
		w.I64s(t.Cells)
		w.U32(uint32(len(t.Cols)))
		for i := range t.Cols {
			c := &t.Cols[i]
			w.I64s(c.N)
			w.I64s(c.I)
			w.F64s(c.F)
			w.F64s(c.M2)
		}
	}
	if present&msgHasTrace != 0 {
		w.I64(int64(m.TraceID))
		w.U32(uint32(len(m.Spans)))
		for i := range m.Spans {
			sp := &m.Spans[i]
			w.I64(int64(sp.Parent))
			w.I64(int64(sp.Node))
			w.I64(sp.DurNanos)
			w.String(sp.Name)
			w.Strings(sp.Keys)
			w.I64s(sp.Vals)
		}
	}
	if present&msgHasMetrics != 0 {
		w.U32(uint32(len(m.Metrics)))
		for i := range m.Metrics {
			s := &m.Metrics[i]
			w.String(s.Name)
			w.String(s.Label)
			w.F64(s.Value)
		}
	}
	if present&msgHasPreds != 0 {
		w.U32(uint32(len(m.Preds)))
		for i := range m.Preds {
			p := &m.Preds[i]
			w.I64(int64(p.Attr))
			w.String(p.Op)
			encodePredValue(w, p.Val)
		}
		w.I64(m.Skipped)
		w.I64(m.Seen)
	}
	var present2 uint8
	if len(m.Chunks) > 0 {
		present2 |= msg2HasChunks
	}
	if m.Path != "" || m.Adaptor != "" {
		present2 |= msg2HasInsitu
	}
	if len(m.ExclLo) > 0 || m.RouteVersion != 0 || len(m.Nodes) > 0 || m.Release {
		if len(m.ExclLo) != len(m.ExclHi) {
			return nil, fmt.Errorf("cluster: message has %d exclude lows but %d highs", len(m.ExclLo), len(m.ExclHi))
		}
		present2 |= msg2HasRoute
	}
	if len(m.Heat) > 0 {
		present2 |= msg2HasHeat
	}
	if present2 != 0 {
		w.U8(present2)
		if present2&msg2HasChunks != 0 {
			w.U32(uint32(len(m.Chunks)))
			for _, c := range m.Chunks {
				w.Bytes(c)
			}
		}
		if present2&msg2HasInsitu != 0 {
			w.String(m.Path)
			w.String(m.Adaptor)
		}
		if present2&msg2HasRoute != 0 {
			w.U32(uint32(len(m.ExclLo)))
			for i := range m.ExclLo {
				w.I64s(m.ExclLo[i])
				w.I64s(m.ExclHi[i])
			}
			w.I64(m.RouteVersion)
			w.I64s(m.Nodes)
			w.Bool(m.Release)
		}
		if present2&msg2HasHeat != 0 {
			w.U32(uint32(len(m.Heat)))
			for i := range m.Heat {
				h := &m.Heat[i]
				w.String(h.Array)
				w.I64s(h.Origin)
				w.F64(h.Score)
			}
		}
	}
	if w.Err() != nil {
		return nil, w.Err()
	}
	return b.Bytes(), nil
}

// decodeMessage reverses encodeMessage.
func decodeMessage(data []byte) (*Message, error) {
	r := storage.NewFieldReaderBytes(data)
	m := &Message{}
	m.Op = r.String()
	m.Array = r.String()
	m.Array2 = r.String()
	m.Err = r.String()
	m.OnL = r.Strings()
	m.OnR = r.Strings()
	m.Cells = r.I64()
	m.BoxLo = r.I64s()
	m.BoxHi = r.I64s()
	m.Payload = r.Bytes()
	present := r.U8()
	if r.Err() != nil {
		return nil, fmt.Errorf("cluster: corrupt message: %w", r.Err())
	}
	if unknown := present &^ msgKnownBits; unknown != 0 {
		return nil, fmt.Errorf("cluster: corrupt message: unknown presence bits %#x", unknown)
	}
	if present&msgHasSchema != 0 {
		s, err := DecodeSchema(r)
		if err != nil {
			return nil, err
		}
		m.Schema = s
	}
	if present&msgHasFold != 0 {
		m.Fold = &ops.FoldSpec{Dims: r.Strings(), Strides: r.I64s()}
		// An aggregate is three length prefixes at the least.
		if n := int(r.U32()); n > 0 && r.Need(int64(n)*12) {
			m.Fold.Aggs = make([]ops.AggSpec, n)
			for i := range m.Fold.Aggs {
				m.Fold.Aggs[i] = ops.AggSpec{Agg: r.String(), Attr: r.String(), As: r.String()}
			}
		}
	}
	if present&msgHasTable != 0 {
		// I64s and F64s check a vector's count against the bytes that remain
		// before allocating, so rows × columns cannot exceed the frame;
		// whether the vectors fit the fold is for ops.Fold.Result to say.
		m.Table = &ops.FoldTable{Lo: r.I64s(), Shape: r.I64s(), Cells: r.I64s()}
		// A column is four count prefixes at the least.
		if n := int(r.U32()); n > 0 && r.Need(int64(n)*16) {
			m.Table.Cols = make([]ops.FoldState, n)
			for i := range m.Table.Cols {
				m.Table.Cols[i] = ops.FoldState{N: r.I64s(), I: r.I64s(), F: r.F64s(), M2: r.F64s()}
			}
		}
	}
	if present&msgHasTrace != 0 {
		m.TraceID = uint64(r.I64())
		n := int(r.U32())
		if !r.Need(int64(n) * 36) { // the bytes the shortest span takes
			return nil, fmt.Errorf("cluster: corrupt message: %w", r.Err())
		}
		m.Spans = make([]obs.SpanData, n)
		for i := range m.Spans {
			sp := &m.Spans[i]
			sp.Parent = int32(r.I64())
			sp.Node = int32(r.I64())
			sp.DurNanos = r.I64()
			sp.Name = r.String()
			sp.Keys = r.Strings()
			sp.Vals = r.I64s()
		}
	}
	if present&msgHasMetrics != 0 {
		n := int(r.U32())
		if !r.Need(int64(n) * 16) { // the bytes the shortest sample takes
			return nil, fmt.Errorf("cluster: corrupt message: %w", r.Err())
		}
		m.Metrics = make([]obs.Sample, n)
		for i := range m.Metrics {
			s := &m.Metrics[i]
			s.Name = r.String()
			s.Label = r.String()
			s.Value = r.F64()
		}
	}
	if present&msgHasPreds != 0 {
		n := int(r.U32())
		if !r.Need(int64(n) * 43) { // the bytes the shortest predicate takes
			return nil, fmt.Errorf("cluster: corrupt message: %w", r.Err())
		}
		if n > 0 { // a response carries the counters alone
			m.Preds = make([]array.ZonePred, n)
		}
		for i := range m.Preds {
			p := &m.Preds[i]
			p.Attr = int(r.I64())
			p.Op = r.String()
			p.Val = decodePredValue(r)
		}
		m.Skipped = r.I64()
		m.Seen = r.I64()
	}
	if r.Remaining() > 0 {
		present2 := r.U8()
		if unknown := present2 &^ msg2KnownBits; unknown != 0 {
			return nil, fmt.Errorf("cluster: corrupt message: unknown presence bits %#x in the second byte", unknown)
		}
		if present2&msg2HasChunks != 0 {
			n := int(r.U32())
			if !r.Need(int64(n) * 4) { // the bytes the shortest payload takes
				return nil, fmt.Errorf("cluster: corrupt message: %w", r.Err())
			}
			m.Chunks = make([][]byte, n)
			for i := range m.Chunks {
				m.Chunks[i] = r.Bytes()
				if r.Err() != nil {
					return nil, fmt.Errorf("cluster: corrupt message: %w", r.Err())
				}
			}
		}
		if present2&msg2HasInsitu != 0 {
			m.Path = r.String()
			m.Adaptor = r.String()
		}
		if present2&msg2HasRoute != 0 {
			n := int(r.U32())
			if !r.Need(int64(n) * 8) { // the bytes the shortest box takes
				return nil, fmt.Errorf("cluster: corrupt message: %w", r.Err())
			}
			if n > 0 {
				m.ExclLo = make([][]int64, n)
				m.ExclHi = make([][]int64, n)
				for i := 0; i < n; i++ {
					m.ExclLo[i] = r.I64s()
					m.ExclHi[i] = r.I64s()
					if r.Err() != nil {
						return nil, fmt.Errorf("cluster: corrupt message: %w", r.Err())
					}
				}
			}
			m.RouteVersion = r.I64()
			m.Nodes = r.I64s()
			m.Release = r.Bool()
		}
		if present2&msg2HasHeat != 0 {
			n := int(r.U32())
			if !r.Need(int64(n) * 16) { // the bytes the shortest sample takes
				return nil, fmt.Errorf("cluster: corrupt message: %w", r.Err())
			}
			if n > 0 {
				m.Heat = make([]HeatSample, n)
				for i := range m.Heat {
					h := &m.Heat[i]
					h.Array = r.String()
					h.Origin = r.I64s()
					h.Score = r.F64()
					if r.Err() != nil {
						return nil, fmt.Errorf("cluster: corrupt message: %w", r.Err())
					}
				}
			}
		}
	}
	if r.Err() != nil {
		return nil, fmt.Errorf("cluster: corrupt message: %w", r.Err())
	}
	if n := r.Remaining(); n > 0 {
		return nil, fmt.Errorf("cluster: corrupt message: %d trailing bytes", n)
	}
	return m, nil
}

// EncodeSchema writes a schema, recursing into nested-array attributes.
func EncodeSchema(w *storage.FieldWriter, s *array.Schema) {
	w.String(s.Name)
	w.Bool(s.Updatable)
	w.U32(uint32(len(s.Dims)))
	for _, d := range s.Dims {
		w.String(d.Name)
		w.I64(d.High)
		w.I64(d.ChunkLen)
	}
	w.U32(uint32(len(s.Attrs)))
	for _, a := range s.Attrs {
		w.String(a.Name)
		w.U8(uint8(a.Type))
		w.Bool(a.Uncertain)
		w.Bool(a.Nested != nil)
		if a.Nested != nil {
			EncodeSchema(w, a.Nested)
		}
	}
}

// DecodeSchema reverses EncodeSchema.
func DecodeSchema(r *storage.FieldReader) (*array.Schema, error) {
	s := &array.Schema{}
	s.Name = r.String()
	s.Updatable = r.Bool()
	nd := int(r.U32())
	if r.Err() != nil {
		return nil, r.Err()
	}
	if nd > 1<<16 {
		return nil, fmt.Errorf("cluster: schema has %d dimensions", nd)
	}
	s.Dims = make([]array.Dimension, nd)
	for i := range s.Dims {
		s.Dims[i].Name = r.String()
		s.Dims[i].High = r.I64()
		s.Dims[i].ChunkLen = r.I64()
	}
	na := int(r.U32())
	if r.Err() != nil {
		return nil, r.Err()
	}
	if na > 1<<16 {
		return nil, fmt.Errorf("cluster: schema has %d attributes", na)
	}
	s.Attrs = make([]array.Attribute, na)
	for i := range s.Attrs {
		s.Attrs[i].Name = r.String()
		s.Attrs[i].Type = array.Type(r.U8())
		s.Attrs[i].Uncertain = r.Bool()
		if r.Bool() {
			nested, err := DecodeSchema(r)
			if err != nil {
				return nil, err
			}
			s.Attrs[i].Nested = nested
		}
		if r.Err() != nil {
			return nil, r.Err()
		}
	}
	return s, r.Err()
}
