package cluster

// The worker message codec: the body of every frame of the coordinator↔worker
// protocol (frames, hello and connections are internal/wire's). It is
// hand-rolled — chunk payloads travel in their storage.EncodeChunk form
// untouched, so the hot field is a length-prefixed copy, never re-encoded.

import (
	"fmt"

	"scidb/internal/array"
	"scidb/internal/compress"
	"scidb/internal/obs"
	"scidb/internal/ops"
	"scidb/internal/storage"
	"scidb/internal/wire"
)

// codecByName resolves a negotiated codec name; "" and "none" mean no
// compression (nil codec).
func codecByName(name string) (compress.Codec, error) {
	if name == "" || name == "none" {
		return nil, nil
	}
	return compress.ByName(name)
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
	msg2HasChunks = 1 << 0 // Chunks: storage.EncodeChunk payloads, the cells a message carries
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
// fixed; Chunks are carried verbatim (they are already the binary
// storage.EncodeChunk form), so the dominant field costs one length-prefixed
// copy per chunk instead of a reflective re-encode, into a buffer allocated
// once at its exact size (wire.SizedBody).
func encodeMessage(m *Message) ([]byte, error) {
	return wire.SizedBody(func(w *storage.FieldWriter) error { return writeMessage(w, m) })
}

// writeMessage writes m's fields to w in their fixed order.
func writeMessage(w *storage.FieldWriter, m *Message) error {
	w.String(m.Op)
	w.String(m.Array)
	w.String(m.Err)
	w.I64(m.Cells)
	w.I64s(m.BoxLo)
	w.I64s(m.BoxHi)
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
		wire.EncodeSchema(w, m.Schema)
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
			return fmt.Errorf("cluster: message has %d exclude lows but %d highs", len(m.ExclLo), len(m.ExclHi))
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
	return w.Err()
}

// decodeMessage reverses encodeMessage. Message.Chunks are views of data,
// not copies: a message owns the frame body it was read from (wire.ReadFrame
// allocates every body afresh), and what a payload becomes outlives it only
// as new bytes — DecodeChunk builds chunks of their own and an adopted
// payload is re-sealed into a bucket of its own (Store.AdoptEncoded).
func decodeMessage(data []byte) (*Message, error) {
	r := storage.NewFieldReaderBytes(data)
	m := &Message{}
	m.Op = r.String()
	m.Array = r.String()
	m.Err = r.String()
	m.Cells = r.I64()
	m.BoxLo = r.I64s()
	m.BoxHi = r.I64s()
	present := r.U8()
	if r.Err() != nil {
		return nil, fmt.Errorf("cluster: corrupt message: %w", r.Err())
	}
	if unknown := present &^ msgKnownBits; unknown != 0 {
		return nil, fmt.Errorf("cluster: corrupt message: unknown presence bits %#x", unknown)
	}
	if present&msgHasSchema != 0 {
		s, err := wire.DecodeSchema(r)
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
				m.Chunks[i] = r.BytesView()
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
