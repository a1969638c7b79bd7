package wire

import (
	"bytes"
	"fmt"

	"scidb/internal/array"
	"scidb/internal/storage"
)

// SizedBody encodes a frame body with write, which it runs twice: first
// into a writer that only counts the bytes, then into a buffer allocated at
// that count. A body that carries chunk payloads is then allocated once, not
// grown by doubling while the payloads are copied in.
func SizedBody(write func(w *storage.FieldWriter) error) ([]byte, error) {
	var size byteCount
	w := storage.NewFieldWriter(&size)
	if err := write(w); err != nil {
		return nil, err
	}
	b := bytes.NewBuffer(make([]byte, 0, int(size)))
	w.Reset(b)
	if err := write(w); err != nil {
		return nil, err
	}
	return b.Bytes(), w.Err()
}

// byteCount is an io.Writer that keeps only the number of bytes written.
type byteCount int

func (n *byteCount) Write(p []byte) (int, error) {
	*n += byteCount(len(p))
	return len(p), nil
}

func (n *byteCount) WriteString(s string) (int, error) {
	*n += byteCount(len(s))
	return len(s), nil
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
		return nil, fmt.Errorf("wire: schema has %d dimensions", nd)
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
		return nil, fmt.Errorf("wire: schema has %d attributes", na)
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
