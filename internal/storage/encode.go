// Package storage implements the within-a-node storage manager of §2.8:
// incoming load streams buffer in memory, and when memory is nearly full
// the manager forms the data into rectangular buckets defined by a stride
// in each dimension, compresses each bucket, and writes it to disk. An
// R-tree keeps track of the buckets, and a background merger combines small
// buckets into larger ones in the style of Vertica.
package storage

import (
	"bytes"
	"fmt"

	"scidb/internal/array"
)

const chunkMagic = 0x53434442 // "SCDB"

// Column flag bits. colFlagEncV1 versions the value layout: a v0 (legacy)
// column stores its values verbatim; a v1 column follows the null bitmap
// with an encoding tag byte (see colenc.go). Decoders accept both, so every
// chunk written before the encoding layer existed still decodes.
const (
	colFlagSigma  = 1 << 0
	colFlagShared = 1 << 1
	// colFlagZone marks a column that carries a serialized zone map
	// (min/max, null count, distinct hint; see colenc.go) between the
	// null bitmap and the values. v1 columns written since the
	// compressed-execution layer always set it for zone-mappable types.
	colFlagZone  = 1 << 6
	colFlagEncV1 = 1 << 7

	colFlagsKnown = colFlagSigma | colFlagShared | colFlagZone | colFlagEncV1
)

// EncodeChunk serializes a chunk of the given schema to a portable binary
// form (also the wire format between grid nodes), choosing a lightweight
// per-column value encoding (constant elision, RLE, delta+bit-packing,
// string dictionary) from cheap column stats. Nested-array attributes are
// encoded recursively using the attribute's element schema.
func EncodeChunk(s *array.Schema, ch *array.Chunk) ([]byte, error) {
	data, _, err := encodeChunk(s, ch, false)
	return data, err
}

// EncodeChunkZones is EncodeChunk plus the per-column zone maps computed
// during encoding (nil entries for nested-array columns). The store keeps
// them in its bucket metadata so scans can prune buckets before reading
// them back from disk.
func EncodeChunkZones(s *array.Schema, ch *array.Chunk) ([]byte, []*array.ZoneMap, error) {
	return encodeChunk(s, ch, false)
}

// EncodeChunkRaw serializes a chunk in the legacy (v0) verbatim layout —
// no per-column encodings. It is retained as the measured baseline for the
// ENC experiment and for compatibility tests; DecodeChunk reads both forms.
func EncodeChunkRaw(s *array.Schema, ch *array.Chunk) ([]byte, error) {
	data, _, err := encodeChunk(s, ch, true)
	return data, err
}

func encodeChunk(s *array.Schema, ch *array.Chunk, raw bool) ([]byte, []*array.ZoneMap, error) {
	var b bytes.Buffer
	w := NewFieldWriter(&b)
	w.U32(chunkMagic)
	w.U8(uint8(len(ch.Origin)))
	for i := range ch.Origin {
		w.I64(ch.Origin[i])
		w.I64(ch.Shape[i])
	}
	writeBitmap(w, ch.Present)
	if len(ch.Cols) != len(s.Attrs) {
		return nil, nil, fmt.Errorf("storage: chunk has %d columns, schema %d", len(ch.Cols), len(s.Attrs))
	}
	var zones []*array.ZoneMap
	if !raw {
		zones = make([]*array.ZoneMap, len(ch.Cols))
	}
	for ai, col := range ch.Cols {
		z, err := encodeColumn(w, s.Attrs[ai], col, ch.Present, raw)
		if err != nil {
			return nil, nil, err
		}
		if zones != nil {
			zones[ai] = z
		}
	}
	if w.Err() != nil {
		return nil, nil, w.Err()
	}
	return b.Bytes(), zones, nil
}

// DecodeChunk reverses EncodeChunk (and EncodeChunkRaw: the column flag
// byte selects the layout). All counts and lengths are validated against
// the remaining buffer before anything is allocated for them, so corrupt
// input fails with an error instead of a huge allocation.
func DecodeChunk(s *array.Schema, data []byte) (*array.Chunk, error) {
	r := NewFieldReaderBytes(data)
	if m := r.U32(); m != chunkMagic {
		return nil, fmt.Errorf("storage: bad chunk magic %#x", m)
	}
	nd := int(r.U8())
	if r.Err() != nil {
		return nil, r.Err()
	}
	if nd != len(s.Dims) {
		return nil, fmt.Errorf("storage: chunk has %d dims, schema %d", nd, len(s.Dims))
	}
	origin := make(array.Coord, nd)
	shape := make([]int64, nd)
	slots := int64(1)
	for i := 0; i < nd; i++ {
		origin[i] = r.I64()
		shape[i] = r.I64()
		if r.Err() != nil {
			return nil, r.Err()
		}
		if shape[i] < 0 || (shape[i] > 0 && slots > maxFieldLen/shape[i]) {
			return nil, fmt.Errorf("storage: corrupt chunk shape %v", shape[:i+1])
		}
		slots *= shape[i]
	}
	present, err := readBitmap(r, slots)
	if err != nil {
		return nil, err
	}
	ch := &array.Chunk{Origin: origin, Shape: shape, Present: present}
	ch.Cols = make([]*array.Column, len(s.Attrs))
	for ai, at := range s.Attrs {
		col, err := decodeColumn(r, at, slots)
		if err != nil {
			return nil, err
		}
		ch.Cols[ai] = col
	}
	if r.Err() != nil {
		return nil, r.Err()
	}
	return ch, nil
}

// EncodeArray serializes all chunks of an array (schema not included; the
// catalog supplies it on decode).
func EncodeArray(a *array.Array) ([]byte, error) {
	chunks := a.Chunks()
	payloads := make([][]byte, len(chunks))
	for i, ch := range chunks {
		var err error
		if payloads[i], err = EncodeChunk(a.Schema, ch); err != nil {
			return nil, err
		}
	}
	return FrameChunks(payloads)
}

// FrameChunks assembles EncodeChunk payloads into the EncodeArray form, for
// producers that encode chunks themselves (in parallel, or straight from
// stored chunks) instead of building an array first. DecodeArray installs
// one chunk per payload, so the payloads' origins must be distinct.
func FrameChunks(payloads [][]byte) ([]byte, error) {
	var b bytes.Buffer
	w := NewFieldWriter(&b)
	w.U32(uint32(len(payloads)))
	for _, payload := range payloads {
		w.Bytes(payload)
	}
	if w.Err() != nil {
		return nil, w.Err()
	}
	return b.Bytes(), nil
}

// DecodeArray reverses EncodeArray into a fresh array of schema s.
func DecodeArray(s *array.Schema, data []byte) (*array.Array, error) {
	a, err := array.New(s)
	if err != nil {
		return nil, err
	}
	r := NewFieldReaderBytes(data)
	n := int64(r.U32())
	// Every chunk costs at least its u32 length prefix.
	if !r.Need(n * 4) {
		return nil, r.Err()
	}
	for i := int64(0); i < n; i++ {
		buf := r.Bytes()
		if r.Err() != nil {
			return nil, r.Err()
		}
		ch, err := DecodeChunk(s, buf)
		if err != nil {
			return nil, err
		}
		a.PutChunk(ch)
	}
	return a, nil
}

// encodeColumn writes one column: flag byte, null bitmap, zone map (v1
// columns of zone-mappable types), values (encoded per colenc.go unless
// raw), then the uncertainty tail. Nested-array columns always use the raw
// layout — their payloads are recursively encoded arrays, which compress
// internally. It returns the zone map it computed (nil in raw mode and for
// nested columns) so the caller can index the chunk without re-scanning.
func encodeColumn(w *FieldWriter, at array.Attribute, col *array.Column, present *array.Bitmap, raw bool) (*array.ZoneMap, error) {
	var flags uint8
	if col.Sigma != nil {
		flags |= colFlagSigma
	}
	if col.HasShared {
		flags |= colFlagShared
	}
	var zone *array.ZoneMap
	if !raw {
		flags |= colFlagEncV1
		if zone = array.ComputeZone(col, present); zone != nil {
			flags |= colFlagZone
		}
	}
	w.U8(flags)
	writeBitmap(w, col.Nulls)
	if zone != nil {
		encodeZoneMap(w, zone)
	}
	switch at.Type {
	case array.TInt64:
		if raw {
			for _, v := range col.Ints {
				w.I64(v)
			}
		} else {
			encodeIntValues(w, col.Ints)
		}
	case array.TFloat64:
		if raw {
			for _, v := range col.Floats {
				w.F64(v)
			}
		} else {
			encodeFloatValues(w, col.Floats)
		}
	case array.TBool:
		if raw {
			for _, v := range col.Bools {
				w.Bool(v)
			}
		} else {
			encodeBoolValues(w, col.Bools)
		}
	case array.TString:
		if raw {
			for _, v := range col.Strs {
				w.String(v)
			}
		} else {
			encodeStringValues(w, col.Strs)
		}
	case array.TArray:
		if !raw {
			w.U8(encRaw)
		}
		for _, nested := range col.Arrs {
			if nested == nil {
				w.U8(0)
				continue
			}
			w.U8(1)
			payload, err := EncodeArray(nested)
			if err != nil {
				return nil, err
			}
			w.Bytes(payload)
		}
	default:
		return nil, fmt.Errorf("storage: cannot encode attribute type %v", at.Type)
	}
	if col.Sigma != nil {
		for _, v := range col.Sigma {
			w.F64(v)
		}
	}
	if col.HasShared {
		w.F64(col.SharedSigma)
	}
	return zone, nil
}

func decodeColumn(r *FieldReader, at array.Attribute, slots int64) (*array.Column, error) {
	flags := r.U8()
	if r.Err() != nil {
		return nil, r.Err()
	}
	if flags&^uint8(colFlagsKnown) != 0 {
		return nil, fmt.Errorf("storage: unknown column flags %#x", flags)
	}
	nulls, err := readBitmap(r, slots)
	if err != nil {
		return nil, err
	}
	encoded := flags&colFlagEncV1 != 0
	col := &array.Column{Type: at.Type, Nulls: nulls}
	if flags&colFlagZone != 0 {
		if !encoded || at.Type == array.TArray {
			return nil, fmt.Errorf("storage: zone map on %v column without v1 encoding", at.Type)
		}
		col.Zone, err = decodeZoneMap(r, at.Type, slots)
		if err != nil {
			return nil, err
		}
	}
	var runLens []int64
	switch at.Type {
	case array.TInt64:
		if encoded {
			col.Ints, runLens, err = decodeIntValues(r, slots)
		} else if r.Need(slots * 8) {
			col.Ints = make([]int64, slots)
			for i := range col.Ints {
				col.Ints[i] = r.I64()
			}
		}
	case array.TFloat64:
		if encoded {
			col.Floats, runLens, err = decodeFloatValues(r, slots)
		} else if r.Need(slots * 8) {
			col.Floats = make([]float64, slots)
			for i := range col.Floats {
				col.Floats[i] = r.F64()
			}
		}
	case array.TBool:
		if encoded {
			col.Bools, runLens, err = decodeBoolValues(r, slots)
		} else if r.Need(slots) {
			col.Bools = make([]bool, slots)
			for i := range col.Bools {
				col.Bools[i] = r.Bool()
			}
		}
	case array.TString:
		if encoded {
			col.Strs, col.Enc, err = decodeStringValues(r, slots)
		} else if r.Need(slots * 4) {
			col.Strs = make([]string, slots)
			for i := range col.Strs {
				col.Strs[i] = r.String()
				if r.Err() != nil {
					return nil, r.Err()
				}
			}
		}
	case array.TArray:
		if encoded {
			// v1 nested columns carry a tag byte for forward shape parity;
			// only the raw layout is defined for them.
			if tag := r.U8(); r.Err() == nil && tag != encRaw {
				return nil, fmt.Errorf("storage: unknown nested column encoding %d", tag)
			}
		}
		if !r.Need(slots) { // one presence byte per slot minimum
			return nil, r.Err()
		}
		col.Arrs = make([]*array.Array, slots)
		for i := range col.Arrs {
			if r.U8() == 0 {
				continue
			}
			buf := r.Bytes()
			if r.Err() != nil {
				return nil, r.Err()
			}
			nested, err := DecodeArray(at.Nested, buf)
			if err != nil {
				return nil, err
			}
			col.Arrs[i] = nested
		}
	default:
		return nil, fmt.Errorf("storage: cannot decode attribute type %v", at.Type)
	}
	if err != nil {
		return nil, err
	}
	if r.Err() != nil {
		return nil, r.Err()
	}
	if runLens != nil {
		col.Enc = &array.ColEnc{RunLens: runLens}
	}
	if flags&colFlagSigma != 0 {
		if !r.Need(slots * 8) {
			return nil, r.Err()
		}
		col.Sigma = make([]float64, slots)
		for i := range col.Sigma {
			col.Sigma[i] = r.F64()
		}
	}
	if flags&colFlagShared != 0 {
		col.HasShared = true
		col.SharedSigma = r.F64()
	}
	return col, r.Err()
}

func writeBitmap(w *FieldWriter, b *array.Bitmap) {
	words := b.Words()
	w.U32(uint32(len(words)))
	for _, word := range words {
		w.U64(word)
	}
}

func readBitmap(r *FieldReader, bits int64) (*array.Bitmap, error) {
	n := int64(r.U32())
	if r.Err() != nil {
		return nil, r.Err()
	}
	if want := (bits + 63) / 64; n != want {
		return nil, fmt.Errorf("storage: bitmap has %d words, want %d", n, want)
	}
	if !r.Need(n * 8) {
		return nil, r.Err()
	}
	words := make([]uint64, n)
	for i := range words {
		words[i] = r.U64()
	}
	if r.Err() != nil {
		return nil, r.Err()
	}
	return array.FromWords(bits, words), nil
}

// RawChunkSize returns the exact byte length EncodeChunkRaw would produce
// for the chunk, computed arithmetically — no encode pass. It is the "raw"
// term of the store's encoding-ratio stats. (Nested-array attributes are
// the one approximation: their recursive payloads are counted at the
// encoded size actually written.)
func RawChunkSize(s *array.Schema, ch *array.Chunk) int64 {
	n := int64(4 + 1 + 16*len(ch.Origin))
	n += 4 + int64(len(ch.Present.Words()))*8
	for ai, col := range ch.Cols {
		if ai >= len(s.Attrs) {
			break
		}
		n += 1 // flags
		n += 4 + int64(len(col.Nulls.Words()))*8
		switch s.Attrs[ai].Type {
		case array.TInt64:
			n += int64(len(col.Ints)) * 8
		case array.TFloat64:
			n += int64(len(col.Floats)) * 8
		case array.TBool:
			n += int64(len(col.Bools))
		case array.TString:
			for _, v := range col.Strs {
				n += 4 + int64(len(v))
			}
		case array.TArray:
			for _, nested := range col.Arrs {
				n++
				if nested != nil {
					if payload, err := EncodeArray(nested); err == nil {
						n += 4 + int64(len(payload))
					}
				}
			}
		}
		if col.Sigma != nil {
			n += int64(len(col.Sigma)) * 8
		}
		if col.HasShared {
			n += 8
		}
	}
	return n
}
