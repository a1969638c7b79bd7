package storage

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// maxFieldLen bounds a single length-prefixed field (string, byte blob, or
// slice count) so a corrupt or hostile length prefix cannot force a
// multi-gigabyte allocation before the payload is validated.
const maxFieldLen = 1 << 30

// FieldWriter writes little-endian binary fields to an underlying writer,
// accumulating the first error so encode paths stay linear. It is the
// building block of both the bucket/chunk encoding in this package and the
// cluster wire protocol's hand-rolled message codec.
type FieldWriter struct {
	w   io.Writer
	err error
	n   int64 // bytes written since the last Reset
	// buf stages fixed-width fields: a local array would escape through
	// the io.Writer call and cost one allocation per value written.
	buf [8]byte
	// vec stages a vector of them, a block per Write; made by the first.
	vec []byte
	// pk is the bit packer, its words kept from one packed vector to the next.
	pk bitPacker
	// ints and floats hold an open partial chunk's present values on their
	// way out (array.Pack), kept from one column to the next.
	ints   []int64
	floats []float64
}

// vecBlock is how many bytes of a vector go out in one Write.
const vecBlock = 4096

// NewFieldWriter wraps w.
func NewFieldWriter(w io.Writer) *FieldWriter { return &FieldWriter{w: w} }

// Reset points w at dst and clears its error and count; the staging room
// is kept.
func (w *FieldWriter) Reset(dst io.Writer) { w.w, w.err, w.n = dst, nil, 0 }

// Err returns the first error any write encountered.
func (w *FieldWriter) Err() error { return w.err }

// Written returns the number of bytes written since w was made or Reset.
func (w *FieldWriter) Written() int64 { return w.n }

// Raw writes p verbatim.
func (w *FieldWriter) Raw(p []byte) {
	if w.err != nil {
		return
	}
	n, err := w.w.Write(p)
	w.n, w.err = w.n+int64(n), err
}

// U8 writes one byte.
func (w *FieldWriter) U8(v uint8) {
	w.buf[0] = v
	w.Raw(w.buf[:1])
}

// Bool writes a bool as one byte.
func (w *FieldWriter) Bool(v bool) { w.U8(boolByte(v)) }

// U32 writes a little-endian uint32.
func (w *FieldWriter) U32(v uint32) {
	binary.LittleEndian.PutUint32(w.buf[:4], v)
	w.Raw(w.buf[:4])
}

// U64 writes a little-endian uint64.
func (w *FieldWriter) U64(v uint64) {
	binary.LittleEndian.PutUint64(w.buf[:], v)
	w.Raw(w.buf[:])
}

// I64 writes an int64 as its two's-complement uint64 image.
func (w *FieldWriter) I64(v int64) { w.U64(uint64(v)) }

// F64 writes a float64 via its IEEE-754 bits.
func (w *FieldWriter) F64(v float64) { w.U64(math.Float64bits(v)) }

// U64sRaw writes each uint64 with no count before them — the mirror of
// FieldReader.U64sInto — staging a block of values per Write, so a vector
// costs the underlying writer a call per block, not per value.
func (w *FieldWriter) U64sRaw(vs []uint64) {
	for len(vs) > 0 && w.err == nil {
		b := w.block(len(vs))
		n := len(b) / 8
		for i, v := range vs[:n] {
			binary.LittleEndian.PutUint64(b[8*i:], v)
		}
		w.Raw(b)
		vs = vs[n:]
	}
}

// I64sRaw is U64sRaw for int64s.
func (w *FieldWriter) I64sRaw(vs []int64) {
	for len(vs) > 0 && w.err == nil {
		b := w.block(len(vs))
		n := len(b) / 8
		for i, v := range vs[:n] {
			binary.LittleEndian.PutUint64(b[8*i:], uint64(v))
		}
		w.Raw(b)
		vs = vs[n:]
	}
}

// F64sRaw is U64sRaw for float64s.
func (w *FieldWriter) F64sRaw(vs []float64) {
	for len(vs) > 0 && w.err == nil {
		b := w.block(len(vs))
		n := len(b) / 8
		for i, v := range vs[:n] {
			binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
		}
		w.Raw(b)
		vs = vs[n:]
	}
}

// block is the staging room for the next values of a vector of n.
func (w *FieldWriter) block(n int) []byte {
	want := min(vecBlock, 8*n)
	if len(w.vec) < want {
		w.vec = make([]byte, want)
	}
	return w.vec[:want]
}

// stager batches small fields into one Write per vecBlock bytes, staged in
// w's vector room: the form a run table or a string list takes on its way
// out. Flush it before anything else writes to w.
type stager struct {
	w *FieldWriter
	b []byte
}

// stage starts a batch.
func (w *FieldWriter) stage() stager { return stager{w, w.block(vecBlock / 8)[:0]} }

// room makes space for n more bytes, writing out the staged ones when the
// block lacks it.
func (s *stager) room(n int) {
	if len(s.b)+n > cap(s.b) {
		s.flush()
	}
}

// flush writes out the staged bytes.
func (s *stager) flush() {
	s.w.Raw(s.b)
	s.b = s.b[:0]
}

// str stages a u32-length-prefixed string, as FieldWriter.String writes it;
// one longer than the block goes straight through.
func (s *stager) str(v string) {
	if 4+len(v) > cap(s.b) {
		s.flush()
		s.w.String(v)
		return
	}
	s.room(4 + len(v))
	s.b = append(binary.LittleEndian.AppendUint32(s.b, uint32(len(v))), v...)
}

// Bytes writes a u32 length prefix followed by the bytes.
func (w *FieldWriter) Bytes(p []byte) {
	w.U32(uint32(len(p)))
	w.Raw(p)
}

// String writes a u32 length prefix followed by the string bytes.
func (w *FieldWriter) String(s string) {
	w.U32(uint32(len(s)))
	if w.err == nil {
		n, err := io.WriteString(w.w, s)
		w.n, w.err = w.n+int64(n), err
	}
}

// Strings writes a u32 count followed by each string.
func (w *FieldWriter) Strings(ss []string) {
	w.U32(uint32(len(ss)))
	for _, s := range ss {
		w.String(s)
	}
}

// I64s writes a u32 count followed by each int64.
func (w *FieldWriter) I64s(vs []int64) {
	w.U32(uint32(len(vs)))
	w.I64sRaw(vs)
}

// F64s writes a u32 count followed by each float64.
func (w *FieldWriter) F64s(vs []float64) {
	w.U32(uint32(len(vs)))
	w.F64sRaw(vs)
}

// FieldReader mirrors FieldWriter on the decode side, accumulating the
// first error (including short reads) and bounding length-prefixed fields.
// Built over a byte slice (NewFieldReaderBytes) it reads straight from the
// slice — no allocation or interface call per value — and knows how many
// bytes remain, so decode paths can reject a corrupt count or length before
// allocating for it. Built over a stream (NewFieldReader) it stages each
// fixed-width field in its own scratch array.
type FieldReader struct {
	buf []byte // slice mode: the unread bytes
	r   io.Reader
	err error
	// scratch stages a streaming reader's fixed-width fields: a local array
	// would escape through the io.Reader call and cost one allocation each.
	// It is allocated apart from the reader, so a slice reader, which never
	// uses it, can live on its caller's stack.
	scratch *[8]byte
}

// NewFieldReader wraps r.
func NewFieldReader(r io.Reader) *FieldReader { return &FieldReader{r: r, scratch: new([8]byte)} }

// NewFieldReaderBytes reads from data and tracks the remaining length, which
// arms the Need bound checks on every size-prefixed decode.
func NewFieldReaderBytes(data []byte) *FieldReader { return &FieldReader{buf: data} }

// Err returns the first error any read encountered.
func (r *FieldReader) Err() error { return r.err }

// Remaining reports the unread byte count, or -1 when the source length is
// unknown (a streaming reader). Decoders use it to detect optional trailing
// sections appended by newer peers: read them only when bytes remain.
func (r *FieldReader) Remaining() int {
	if r.r != nil {
		return -1
	}
	return len(r.buf)
}

// Need reports whether at least n more bytes remain, recording an error when
// they provably do not. Readers with unknown length always report true; the
// subsequent reads then fail with a short-read error instead, just without
// the pre-allocation guarantee.
func (r *FieldReader) Need(n int64) bool {
	if r.err != nil {
		return false
	}
	if n < 0 {
		r.err = fmt.Errorf("storage: negative field size %d", n)
		return false
	}
	if r.r == nil && int64(len(r.buf)) < n {
		r.err = fmt.Errorf("storage: field claims %d bytes, only %d remain", n, len(r.buf))
		return false
	}
	return true
}

// next returns the next n bytes: a view of the slice, or the stream's bytes
// staged in the scratch array (n <= 8) or in fresh memory. The caller must
// not modify them, and a staged result lasts only until the next read. It
// returns nil once an error is set.
func (r *FieldReader) next(n int) []byte {
	if r.err != nil {
		return nil
	}
	if r.r != nil {
		p := r.scratch[:min(n, len(r.scratch))]
		if n > len(p) {
			p = make([]byte, n)
		}
		if _, r.err = io.ReadFull(r.r, p); r.err != nil {
			return nil
		}
		return p
	}
	if len(r.buf) < n {
		r.err = io.ErrUnexpectedEOF
		if len(r.buf) == 0 {
			r.err = io.EOF
		}
		return nil
	}
	p := r.buf[:n]
	r.buf = r.buf[n:]
	return p
}

// whole returns the next n bytes as next does when a slice reader holds
// them all, and nil — reading nothing — when it holds fewer or streams.
func (r *FieldReader) whole(n int) []byte {
	if r.err != nil || r.r != nil || len(r.buf) < n {
		return nil
	}
	p := r.buf[:n]
	r.buf = r.buf[n:]
	return p
}

// Raw fills p, recording a short read as an error.
func (r *FieldReader) Raw(p []byte) {
	if r.r == nil {
		copy(p, r.next(len(p)))
	} else if r.err == nil {
		_, r.err = io.ReadFull(r.r, p)
	}
}

// U8 reads one byte.
func (r *FieldReader) U8() uint8 {
	if p := r.next(1); p != nil {
		return p[0]
	}
	return 0
}

// Bool reads a one-byte bool.
func (r *FieldReader) Bool() bool { return r.U8() != 0 }

// U16 reads a little-endian uint16.
func (r *FieldReader) U16() uint16 {
	if p := r.next(2); p != nil {
		return binary.LittleEndian.Uint16(p)
	}
	return 0
}

// U32 reads a little-endian uint32.
func (r *FieldReader) U32() uint32 {
	if p := r.next(4); p != nil {
		return binary.LittleEndian.Uint32(p)
	}
	return 0
}

// U64 reads a little-endian uint64.
func (r *FieldReader) U64() uint64 {
	if p := r.next(8); p != nil {
		return binary.LittleEndian.Uint64(p)
	}
	return 0
}

// I64 reads an int64.
func (r *FieldReader) I64() int64 { return int64(r.U64()) }

// F64 reads a float64.
func (r *FieldReader) F64() float64 { return math.Float64frombits(r.U64()) }

// U64sInto fills dst with little-endian uint64s — one bounds check for the
// whole vector. dst is left untouched on a short read.
func (r *FieldReader) U64sInto(dst []uint64) {
	if p := r.next(8 * len(dst)); p != nil {
		for i := range dst {
			dst[i] = binary.LittleEndian.Uint64(p[8*i:])
		}
	}
}

// I64sInto is U64sInto for int64s.
func (r *FieldReader) I64sInto(dst []int64) {
	if p := r.next(8 * len(dst)); p != nil {
		for i := range dst {
			dst[i] = int64(binary.LittleEndian.Uint64(p[8*i:]))
		}
	}
}

// F64sInto is U64sInto for float64s.
func (r *FieldReader) F64sInto(dst []float64) {
	if p := r.next(8 * len(dst)); p != nil {
		for i := range dst {
			dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(p[8*i:]))
		}
	}
}

// length reads and validates a u32 length prefix.
func (r *FieldReader) length() int {
	n := r.U32()
	if r.err == nil && n > maxFieldLen {
		r.err = fmt.Errorf("storage: field length %d exceeds limit", n)
	}
	if r.err != nil {
		return 0
	}
	return int(n)
}

// BytesView reads a u32-length-prefixed byte blob as next does: a slice
// reader returns a view of its buffer — valid, and unchanged, only while the
// buffer is — so a caller keeps it past that only by copying it. A zero
// length returns nil.
func (r *FieldReader) BytesView() []byte {
	n := r.length()
	if n == 0 || !r.Need(int64(n)) {
		return nil
	}
	return r.next(n)
}

// String reads a u32-length-prefixed string.
func (r *FieldReader) String() string {
	return string(r.BytesView())
}

// Strings reads a u32-count-prefixed string slice. Each string costs at
// least its own length prefix, which bounds the slice allocation.
func (r *FieldReader) Strings() []string {
	n := r.length()
	if n == 0 || !r.Need(int64(n)*4) {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = r.String()
		if r.err != nil {
			return nil
		}
	}
	return out
}

// I64s reads a u32-count-prefixed int64 slice.
func (r *FieldReader) I64s() []int64 {
	n := r.length()
	if n == 0 || !r.Need(int64(n)*8) {
		return nil
	}
	out := make([]int64, n)
	r.I64sInto(out)
	if r.err != nil {
		return nil
	}
	return out
}

// F64s reads a u32-count-prefixed float64 slice.
func (r *FieldReader) F64s() []float64 {
	n := r.length()
	if n == 0 || !r.Need(int64(n)*8) {
		return nil
	}
	out := make([]float64, n)
	r.F64sInto(out)
	if r.err != nil {
		return nil
	}
	return out
}
