package wire

import (
	"fmt"

	"scidb/internal/array"
	"scidb/internal/storage"
)

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
