// Package storage implements the within-a-node storage manager of §2.8:
// incoming load streams buffer in memory, and when memory is nearly full
// the manager forms the data into rectangular buckets defined by a stride
// in each dimension, compresses each bucket, and writes it to disk. Here the
// stride is the schema's chunk grid, so a bucket is one chunk; buckets are
// indexed by chunk origin (where the paper keeps an R-tree), and MergeOnce
// compacts the versions of one chunk into one bucket.
package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/bits"
	"slices"
	"sync"

	"scidb/internal/array"
	"scidb/internal/compress"
)

// The chunk encoding — the wire form between grid nodes, the session page
// form, and (with its sections compressed) the bucket file — is a frame, a
// section table, and one section for the presence bitmap plus one per
// column:
//
//	u32 magic | u8 version | u8 nd | nd × (i64 origin, i64 shape)
//	u16 sections | sections × (u32 stored, u32 decoded, u8 codec, u32 crc)
//	u32 crc of everything above
//	section 0: presence bitmap words
//	section 1+a: column a (flags, null bitmap, zone map, values, sigma tail)
//
// A chunk with absent slots writes its int64 and float64 columns' values, and
// their sigma tails, for the present slots only, in slot order
// (colFlagPresentOnly); every other vector, and every bitmap, is per slot.
//
// Every byte is covered by a CRC-32C — the header by its own, a section's
// stored bytes by its table entry — and the sections tile the rest of the
// encoding exactly, so a reader takes the header plus only the sections it
// wants and trusts what it decodes. EncodeChunk stores sections verbatim
// (codec "none"); a bucket file is the same encoding with each section
// passed through the store's codec (sealChunk), which is why a worker can
// adopt shipped bytes without decoding them.
const (
	chunkMagic   = 0x53434442 // "SCDB"
	chunkVersion = 2          // the sectioned layout; nothing older is read
)

// ErrCorrupt marks an encoded chunk or bucket that fails its own checks: a
// CRC mismatch, a section table that does not tile the bytes, an unknown
// version or codec, or a section that does not decode to what the table and
// the schema promise. Match with errors.Is.
var ErrCorrupt = errors.New("storage: corrupt chunk")

func corrupt(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{ErrCorrupt}, args...)...)
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Column flag bits.
const (
	colFlagSigma  = 1 << 0
	colFlagShared = 1 << 1
	// colFlagPresentOnly marks an int64 or float64 column of a chunk with
	// absent slots: its values and sigma tail hold one entry per present
	// slot, not per slot. It is set exactly then, so an encoding has one form.
	colFlagPresentOnly = 1 << 2
	// colFlagZone marks a column that carries a serialized zone map
	// (min/max, null count, distinct hint; see colenc.go) between the
	// null bitmap and the values: every column of a zone-mappable type.
	colFlagZone = 1 << 6

	colFlagsKnown = colFlagSigma | colFlagShared | colFlagPresentOnly | colFlagZone
)

// section is one entry of the section table.
type section struct {
	stored, decoded uint32
	codec           uint8 // compress.Tag of what wrote the stored bytes
	crc             uint32
}

// chunkHeader is a decoded frame and section table.
type chunkHeader struct {
	origin array.Coord
	shape  []int64
	secs   []section
}

// headerLen is the encoded header's size, fixed by the schema.
func headerLen(s *array.Schema) int {
	return 4 + 1 + 1 + 16*len(s.Dims) + 2 + 13*(1+len(s.Attrs)) + 4
}

// put writes the header into dst, which is headerLen long.
func (h *chunkHeader) put(dst []byte) {
	le := binary.LittleEndian
	b := le.AppendUint32(dst[:0], chunkMagic)
	b = append(b, chunkVersion, uint8(len(h.origin)))
	for i := range h.origin {
		b = le.AppendUint64(b, uint64(h.origin[i]))
		b = le.AppendUint64(b, uint64(h.shape[i]))
	}
	b = le.AppendUint16(b, uint16(len(h.secs)))
	for _, sec := range h.secs {
		b = le.AppendUint32(b, sec.stored)
		b = le.AppendUint32(b, sec.decoded)
		b = append(b, sec.codec)
		b = le.AppendUint32(b, sec.crc)
	}
	le.PutUint32(dst[len(b):], crc32.Checksum(b, castagnoli))
}

// parseHeader reads the header that opens an encoding of total bytes, and
// checks that its sections tile the rest.
func parseHeader(s *array.Schema, data []byte, total int64) (*chunkHeader, error) {
	hlen := headerLen(s)
	if len(data) < 6 {
		return nil, corrupt("%d-byte header", len(data))
	}
	r := NewFieldReaderBytes(data)
	if m := r.U32(); m != chunkMagic {
		return nil, corrupt("bad chunk magic %#x", m)
	}
	if v := r.U8(); v != chunkVersion {
		return nil, corrupt("unknown chunk format version %d", v)
	}
	if len(data) < hlen {
		return nil, corrupt("%d-byte header, schema needs %d", len(data), hlen)
	}
	if crc32.Checksum(data[:hlen-4], castagnoli) != binary.LittleEndian.Uint32(data[hlen-4:]) {
		return nil, corrupt("header checksum mismatch")
	}
	if nd := int(r.U8()); nd != len(s.Dims) {
		return nil, fmt.Errorf("storage: chunk has %d dims, schema %d", nd, len(s.Dims))
	}
	h := &chunkHeader{origin: make(array.Coord, len(s.Dims)), shape: make([]int64, len(s.Dims))}
	slots := int64(1)
	for i := range h.origin {
		h.origin[i], h.shape[i] = r.I64(), r.I64()
		if h.shape[i] < 0 || (h.shape[i] > 0 && slots > maxFieldLen/h.shape[i]) {
			return nil, corrupt("chunk shape %v", h.shape[:i+1])
		}
		slots *= h.shape[i]
	}
	n := r.U16()
	if int(n) != 1+len(s.Attrs) {
		return nil, fmt.Errorf("storage: chunk has %d columns, schema %d", int(n)-1, len(s.Attrs))
	}
	h.secs = make([]section, n)
	end := int64(hlen)
	for i := range h.secs {
		h.secs[i] = section{stored: r.U32(), decoded: r.U32(), codec: r.U8(), crc: r.U32()}
		end += int64(h.secs[i].stored)
	}
	if end != total {
		return nil, corrupt("sections end at byte %d of %d", end, total)
	}
	return h, nil
}

// slots is the chunk's cell-slot count.
func (h *chunkHeader) slots() int64 {
	n := int64(1)
	for _, e := range h.shape {
		n *= e
	}
	return n
}

// chunkReader decodes the sections of one encoded chunk on demand: the
// whole of DecodeChunk, and the projected bucket reads of a Store.
type chunkReader struct {
	s   *array.Schema
	hdr *chunkHeader
	// codec is tried first for a section it wrote (a Store's own, so a
	// wrapped codec sees its reads); any other section names its codec.
	codec compress.Codec
	// fetch returns n stored bytes at an offset of the encoding: read into
	// the room, which it grows when short, or — where the encoding is
	// already in memory — a view of them that leaves the room as it is.
	// Either way the result is only read, and not retained past the
	// section's decode.
	fetch func(room *[]byte, off int64, n int) ([]byte, error)
	// ranked is the presence bitmap rank is the directory of, so the
	// columns of one chunk share one.
	ranked *array.Bitmap
	rank   *array.Rank
}

// sectionRoom is the recycled room a section's stored bytes are read into
// and its decoded bytes inflated into. Both are scratch — the decoders copy
// every value out — so a room serves one section and goes back to the pool,
// and a bucket read allocates only what the buffer pool keeps.
type sectionRoom struct{ stored, decoded []byte }

var sectionRooms = sync.Pool{New: func() any { return new(sectionRoom) }}

// maxPooledRoom is the largest room that goes back to the pool; one grown
// past it is dropped rather than held.
const maxPooledRoom = 16 << 20

func (rm *sectionRoom) release() {
	if cap(rm.stored) <= maxPooledRoom && cap(rm.decoded) <= maxPooledRoom {
		sectionRooms.Put(rm)
	}
}

// viewFetch is the fetch of an encoding held in memory: a view of data.
func viewFetch(data []byte) func(*[]byte, int64, int) ([]byte, error) {
	return func(_ *[]byte, off int64, n int) ([]byte, error) { return data[off : off+int64(n)], nil }
}

// newChunkReader reads and checks the header of an encoding of total bytes.
func newChunkReader(s *array.Schema, codec compress.Codec, total int64, fetch func(*[]byte, int64, int) ([]byte, error)) (*chunkReader, error) {
	hlen := headerLen(s)
	if int64(hlen) > total {
		hlen = int(total)
	}
	rm := sectionRooms.Get().(*sectionRoom)
	defer rm.release()
	head, err := fetch(&rm.stored, 0, hlen)
	if err != nil {
		return nil, err
	}
	hdr, err := parseHeader(s, head, total)
	if err != nil {
		return nil, err
	}
	return &chunkReader{s: s, hdr: hdr, codec: codec, fetch: fetch}, nil
}

// section fetches section i into rm, checks it against the table, and
// returns its decoded bytes, inflated into rm — or the stored bytes
// themselves when they are verbatim, which a view fetch leaves out of rm.
func (cr *chunkReader) section(i int, rm *sectionRoom) ([]byte, error) {
	off := int64(headerLen(cr.s))
	for _, sec := range cr.hdr.secs[:i] {
		off += int64(sec.stored)
	}
	sec := cr.hdr.secs[i]
	stored, err := cr.fetch(&rm.stored, off, int(sec.stored))
	if err != nil {
		return nil, err
	}
	if crc32.Checksum(stored, castagnoli) != sec.crc {
		return nil, corrupt("section %d: checksum mismatch", i)
	}
	c := cr.codec
	if t, ok := compress.Tag(c); !ok || t != sec.codec {
		if c, err = compress.ByTag(sec.codec); err != nil {
			return nil, corrupt("section %d: %v", i, err)
		}
	}
	out := stored
	if _, verbatim := c.(compress.None); !verbatim {
		if out, err = c.Decode(rm.decoded, stored); err != nil {
			return nil, corrupt("section %d: %v", i, err)
		}
		rm.decoded = out
	}
	if len(out) != int(sec.decoded) {
		return nil, corrupt("section %d: %d bytes, table says %d", i, len(out), sec.decoded)
	}
	return out, nil
}

// decodeSection runs decode over section i, all of which it must consume,
// and puts the room the section was read into back in the pool.
func (cr *chunkReader) decodeSection(i int, decode func(*FieldReader) error) error {
	rm := sectionRooms.Get().(*sectionRoom)
	defer rm.release()
	data, err := cr.section(i, rm)
	if err != nil {
		return err
	}
	r := NewFieldReaderBytes(data)
	if err = decode(r); err == nil && r.Remaining() != 0 {
		err = fmt.Errorf("%d trailing bytes", r.Remaining())
	}
	if err != nil {
		return corrupt("section %d: %v", i, err)
	}
	return nil
}

// frame decodes the chunk's origin, shape and presence bitmap: a chunk
// without columns.
func (cr *chunkReader) frame() (*array.Chunk, error) {
	ch := &array.Chunk{Origin: cr.hdr.origin, Shape: cr.hdr.shape}
	err := cr.decodeSection(0, func(r *FieldReader) (err error) {
		ch.Present, err = readBitmap(r, cr.hdr.slots())
		return err
	})
	if err != nil {
		return nil, err
	}
	return ch, nil
}

// column decodes attribute a's column; present is the chunk's presence
// bitmap, as frame decoded it.
func (cr *chunkReader) column(a int, present *array.Bitmap) (col *array.Column, err error) {
	if cr.ranked != present {
		cr.ranked, cr.rank = present, array.NewRank(present)
	}
	err = cr.decodeSection(1+a, func(r *FieldReader) (err error) {
		col, err = decodeColumn(r, cr.s.Attrs[a], present, cr.rank)
		return err
	})
	if err != nil {
		return nil, err
	}
	return col, nil
}

// EncodeChunk serializes a chunk of the given schema to a portable binary
// form (also the wire format between grid nodes), choosing a lightweight
// per-column value encoding (constant elision, RLE, delta+bit-packing,
// string dictionary) from cheap column stats. Nested-array attributes are
// encoded recursively using the attribute's element schema. A chunk that
// kept the payload it was decoded from (array.Chunk.KeepEncoded) returns it,
// when s encodes as the schema it was decoded under does, unencoded again.
func EncodeChunk(s *array.Schema, ch *array.Chunk) ([]byte, error) {
	if as, kept := ch.Encoded(); kept != nil && sameEncoding(as, s) {
		return kept, nil
	}
	data, _, err := EncodeChunkZones(s, ch)
	return data, err
}

// sameEncoding reports whether a chunk encodes alike under schemas a and b:
// as many dimensions, and attributes alike in type, error bars and nested
// schema. Names and bounds are not in a chunk's encoding.
func sameEncoding(a, b *array.Schema) bool {
	if a == nil || b == nil {
		return a == b
	}
	same := len(a.Dims) == len(b.Dims) && len(a.Attrs) == len(b.Attrs)
	for i := 0; same && i < len(a.Attrs); i++ {
		x, y := a.Attrs[i], b.Attrs[i]
		same = x.Type == y.Type && x.Uncertain == y.Uncertain && sameEncoding(x.Nested, y.Nested)
	}
	return same
}

// EncodeChunkZones is EncodeChunk plus the per-column zone maps computed
// during encoding (nil entries for nested-array columns). The store keeps
// them in its bucket metadata so scans can prune buckets before reading
// them back from disk. The encoding is one allocation of its own size.
func EncodeChunkZones(s *array.Schema, ch *array.Chunk) ([]byte, []*array.ZoneMap, error) {
	return AppendChunkZones(nil, s, ch)
}

// AppendChunkZones is EncodeChunkZones appending the encoding to dst: into
// a recycled buffer (Rooms), it allocates nothing for the bytes once the
// buffer has grown to hold them. On error dst comes back as it was.
func AppendChunkZones(dst []byte, s *array.Schema, ch *array.Chunk) ([]byte, []*array.ZoneMap, error) {
	if len(ch.Cols) != len(s.Attrs) || len(ch.Origin) != len(s.Dims) {
		return dst, nil, fmt.Errorf("storage: chunk has %d columns and %d dims, schema %d and %d",
			len(ch.Cols), len(ch.Origin), len(s.Attrs), len(s.Dims))
	}
	if len(s.Attrs) >= math.MaxUint16 || len(s.Dims) > math.MaxUint8 {
		return dst, nil, fmt.Errorf("storage: schema too wide to encode")
	}
	// The sections are written into a recycled buffer, then copied behind the
	// header — filled in once their lengths and checksums are known — onto
	// dst.
	e := encoders.Get().(*chunkEncoder)
	defer e.release()
	w := &e.w
	ends := append(e.ends[:0], 0)
	writeBitmap(w, ch.Present)
	ends = append(ends, e.buf.Len())
	zones := make([]*array.ZoneMap, len(ch.Cols))
	for ai, col := range ch.Cols {
		var err error
		if zones[ai], err = encodeColumn(w, s.Attrs[ai], col, ch.Present); err != nil {
			return dst, nil, err
		}
		ends = append(ends, e.buf.Len())
	}
	e.ends = ends
	if w.Err() != nil {
		return dst, nil, w.Err()
	}
	body := e.buf.Bytes()
	hlen := headerLen(s)
	hdr := chunkHeader{origin: ch.Origin, shape: ch.Shape, secs: make([]section, len(ends)-1)}
	verbatim, _ := compress.Tag(compress.None{})
	for i := range hdr.secs {
		start, end := ends[i], ends[i+1]
		if end-start > maxFieldLen {
			return dst, nil, fmt.Errorf("storage: section of %d bytes exceeds limit", end-start)
		}
		n := uint32(end - start)
		hdr.secs[i] = section{stored: n, decoded: n, codec: verbatim, crc: crc32.Checksum(body[start:end], castagnoli)}
	}
	at := len(dst)
	dst = slices.Grow(dst, hlen+len(body))[:at+hlen+len(body)]
	hdr.put(dst[at : at+hlen])
	copy(dst[at+hlen:], body)
	return dst, zones, nil
}

// chunkEncoder is EncodeChunkZones' recycled room: the buffer the sections
// are written into, the writer over it (with its staging and packing room)
// and the section ends.
type chunkEncoder struct {
	buf  bytes.Buffer
	w    FieldWriter
	ends []int
}

// encoders recycles chunkEncoders, so a chunk's encoding costs at most its
// one copy onto dst however large its buffer grew while it was written.
var encoders = sync.Pool{New: func() any {
	e := &chunkEncoder{}
	e.w.Reset(&e.buf)
	return e
}}

// maxPooledEncoder is the largest buffer an encoder goes back to the pool
// with; an encoder that grew past it (a chunk of millions of slots) is
// dropped rather than held.
const maxPooledEncoder = 16 << 20

// release empties e and returns it to the pool.
func (e *chunkEncoder) release() {
	if e.buf.Cap() > maxPooledEncoder || 8*max(cap(e.w.ints), cap(e.w.floats)) > maxPooledEncoder {
		return
	}
	e.buf.Reset()
	e.w.Reset(&e.buf)
	encoders.Put(e)
}

// sealChunk turns EncodeChunk bytes into a bucket file, appended to dst:
// the same frame with every section passed through codec on its own
// (sealSection), so a reader can take one column without inflating the
// others. The store seals into a recycled buffer (sealRooms) and writes the
// bucket out of it.
func sealChunk(dst []byte, s *array.Schema, raw []byte, codec compress.Codec) ([]byte, error) {
	tag, ok := compress.Tag(codec)
	if !ok {
		return dst, fmt.Errorf("storage: codec %q has no format tag", codec.Name())
	}
	hdr, err := parseHeader(s, raw, int64(len(raw)))
	if err != nil {
		return dst, err
	}
	hlen := headerLen(s)
	slots := hdr.slots()
	present := presentCount(raw[hlen:hlen+int(hdr.secs[0].stored)], slots)
	base := len(dst)
	// Auto seals a section into at most one byte more than it holds, so a
	// buffer short of room grows once. The header is written last.
	b := append(slices.Grow(dst, len(raw)+len(hdr.secs)), raw[:hlen]...)
	start := hlen
	for i := range hdr.secs {
		sec := &hdr.secs[i]
		var at *array.Attribute
		if i > 0 {
			at = &s.Attrs[i-1]
		}
		from := len(b)
		b = sealSection(b, codec, raw[start:start+int(sec.stored)], at, slots, present)
		start += int(sec.stored)
		sec.stored, sec.codec, sec.crc = uint32(len(b)-from), tag, crc32.Checksum(b[from:], castagnoli)
	}
	hdr.put(b[base : base+hlen])
	return b, nil
}

// sealSection appends one section passed through codec to dst: a column of
// attribute at whose values are fixed-width records (recordRegion) as those
// records when the codec can take them, the presence bitmap (at nil) and
// every other column whole. A chunk of slots has present of them present.
func sealSection(dst []byte, codec compress.Codec, sec []byte, at *array.Attribute, slots, present int64) []byte {
	if rc, ok := codec.(compress.RecordEncoder); ok && at != nil {
		if lo, hi, width, ok := recordRegion(sec, *at, slots, present); ok {
			return rc.AppendRecords(dst, sec, lo, hi, width)
		}
	}
	return append(dst, codec.Encode(sec)...)
}

// presentCount counts the present slots of an encoded presence bitmap of
// slots bits: how many values a present-only column holds. Bytes that are
// not whole words count what words they hold.
func presentCount(sec []byte, slots int64) int64 {
	var n int64
	for w := int64(0); 8*w+8 <= int64(len(sec)) && 64*w < slots; w++ {
		n += int64(bits.OnesCount64(binary.LittleEndian.Uint64(sec[8*w:]) & lowBits(min(slots-64*w, 64))))
	}
	return n
}

// recordRegion finds the fixed-width records among the values of a float64
// or int64 column section of a chunk of slots, present of them present: a
// raw vector's 8-byte words, which the sigma tail continues when there is one,
// or an RLE column's 12-byte (u32 length, value) runs. ok is false for any
// other column, and for bytes that do not read as one.
func recordRegion(sec []byte, at array.Attribute, slots, present int64) (lo, hi, width int, ok bool) {
	if (at.Type != array.TInt64 && at.Type != array.TFloat64) || slots == 0 {
		return 0, 0, 0, false
	}
	r := NewFieldReaderBytes(sec)
	flags, _, err := columnHead(r, at, slots, true)
	tag := r.U8()
	if err != nil || r.Err() != nil {
		return 0, 0, 0, false
	}
	values := slots
	if flags&colFlagPresentOnly != 0 {
		values = present
	}
	var n int64
	switch tag {
	case encRaw:
		width, n = 8, values
		if flags&colFlagSigma != 0 {
			n *= 2
		}
	case encRLE:
		width, n = 12, int64(r.U32())
	default:
		return 0, 0, 0, false
	}
	lo = len(sec) - r.Remaining()
	if r.Err() != nil || n > int64(r.Remaining()/width) {
		return 0, 0, 0, false
	}
	return lo, lo + int(n)*width, width, true
}

// DecodeChunk reverses EncodeChunk, and reads a bucket file's bytes just as
// well. Every checksum is verified, and all counts and lengths are
// validated against the remaining buffer before anything is allocated for
// them, so corrupt input fails with an error (ErrCorrupt) instead of a
// wrong cell or a huge allocation.
func DecodeChunk(s *array.Schema, data []byte) (*array.Chunk, error) {
	cr, err := newChunkReader(s, compress.None{}, int64(len(data)), viewFetch(data))
	if err != nil {
		return nil, err
	}
	ch, err := cr.frame()
	if err != nil {
		return nil, err
	}
	ch.Cols = make([]*array.Column, len(s.Attrs))
	for a := range ch.Cols {
		if ch.Cols[a], err = cr.column(a, ch.Present); err != nil {
			return nil, err
		}
	}
	return ch, nil
}

// EncodeChunks encodes each chunk under s (EncodeChunk): the form cells take
// on the wire, one payload per chunk.
func EncodeChunks(s *array.Schema, chunks []*array.Chunk) ([][]byte, error) {
	payloads := make([][]byte, len(chunks))
	for i, ch := range chunks {
		var err error
		if payloads[i], err = EncodeChunk(s, ch); err != nil {
			return nil, err
		}
	}
	return payloads, nil
}

// DecodeChunks reverses EncodeChunks into a fresh array of schema s, one
// chunk per payload, so the payloads' origins must be distinct.
func DecodeChunks(s *array.Schema, payloads [][]byte) (*array.Array, error) {
	a, err := array.New(s)
	if err != nil {
		return nil, err
	}
	for _, payload := range payloads {
		ch, err := DecodeChunk(s, payload)
		if err != nil {
			return nil, err
		}
		a.PutChunk(ch)
	}
	return a, nil
}

// EncodeArray serializes all chunks of an array as one blob (schema not
// included; the catalog supplies it on decode): a nested-array cell's form.
func EncodeArray(a *array.Array) ([]byte, error) {
	payloads, err := EncodeChunks(a.Schema, a.Chunks())
	if err != nil {
		return nil, err
	}
	return frameChunks(payloads)
}

// frameChunks assembles EncodeChunk payloads into the EncodeArray form.
func frameChunks(payloads [][]byte) ([]byte, error) {
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
	r := NewFieldReaderBytes(data)
	n := int64(r.U32())
	// Every chunk costs at least its u32 length prefix.
	if !r.Need(n * 4) {
		return nil, r.Err()
	}
	payloads := make([][]byte, n)
	for i := range payloads {
		if payloads[i] = r.BytesView(); r.Err() != nil {
			return nil, r.Err()
		}
	}
	return DecodeChunks(s, payloads)
}

// encodeColumn writes one column section: flag byte, null bitmap, zone map
// (zone-mappable types), the values under the encoding colenc.go picks,
// then the uncertainty tail. An int64 or float64 column of a chunk with
// absent slots writes the values and tail of its present slots only
// (colFlagPresentOnly): a sealed column's vectors as they are, an open one's
// packed into w's scratch. Bool, string and nested columns are stored one
// value per slot, so a sealed one is unpacked on its way out. Nested-array
// columns are written verbatim — their payloads are recursively encoded
// arrays, which compress internally. It returns the column's zone map (nil
// for nested columns) so the caller can index the chunk without re-scanning:
// the one a decoder attached, which Column's contract keeps only while the
// column is as decoded, or else one computed here.
func encodeColumn(w *FieldWriter, at array.Attribute, col *array.Column, present *array.Bitmap) (*array.ZoneMap, error) {
	var flags uint8
	if col.Sigma != nil {
		flags |= colFlagSigma
	}
	if col.HasShared {
		flags |= colFlagShared
	}
	presentOnly := false
	if at.Type == array.TInt64 || at.Type == array.TFloat64 {
		if presentOnly = present.Count() < present.Len(); presentOnly {
			flags |= colFlagPresentOnly
		}
	}
	zone := col.Zone
	if zone == nil {
		zone = array.ComputeZone(col, present)
	}
	if zone != nil {
		flags |= colFlagZone
	}
	w.U8(flags)
	writeBitmap(w, col.Nulls)
	if zone != nil {
		encodeZoneMap(w, zone)
	}
	sealed := col.Rank() != nil
	switch at.Type {
	case array.TInt64:
		vals := col.Ints
		if presentOnly && !sealed {
			w.ints = array.Pack(w.ints, vals, present)
			vals = w.ints
		}
		encodeIntValues(w, vals)
	case array.TFloat64:
		vals := col.Floats
		if presentOnly && !sealed {
			w.floats = array.Pack(w.floats, vals, present)
			vals = w.floats
		}
		encodeFloatValues(w, vals)
	case array.TBool:
		encodeBoolValues(w, perSlot(col.Bools, sealed, present))
	case array.TString:
		encodeStringValues(w, perSlot(col.Strs, sealed, present))
	case array.TArray:
		w.U8(encRaw)
		for _, nested := range perSlot(col.Arrs, sealed, present) {
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
	sigma := col.Sigma
	switch {
	case sigma == nil:
	case presentOnly && !sealed:
		// The values are out, so the float scratch is free again.
		w.floats = array.Pack(w.floats, sigma, present)
		sigma = w.floats
	case !presentOnly && sealed:
		sigma = array.Unpack(sigma, present)
	}
	w.F64sRaw(sigma)
	if col.HasShared {
		w.F64(col.SharedSigma)
	}
	return zone, nil
}

// perSlot returns a vector stored one value per slot as the store writes
// it: unpacked when the column is sealed.
func perSlot[T any](vals []T, sealed bool, present *array.Bitmap) []T {
	if sealed {
		return array.Unpack(vals, present)
	}
	return vals
}

// columnHead reads what precedes a column's values — the flag byte, the null
// bitmap and the zone map — checking each. col is nil when skip is set: the
// bitmap is then passed over rather than copied out, for a caller that only
// needs to know where the values begin.
func columnHead(r *FieldReader, at array.Attribute, slots int64, skip bool) (flags uint8, col *array.Column, err error) {
	flags = r.U8()
	if r.Err() != nil {
		return 0, nil, r.Err()
	}
	if flags&^uint8(colFlagsKnown) != 0 {
		return 0, nil, fmt.Errorf("storage: unknown column flags %#x", flags)
	}
	if flags&colFlagPresentOnly != 0 && at.Type != array.TInt64 && at.Type != array.TFloat64 {
		return 0, nil, fmt.Errorf("storage: present-only values in a %v column", at.Type)
	}
	if skip {
		if n := (slots + 63) / 64 * 8; r.Need(n) {
			r.next(int(n))
		}
	} else {
		nulls, err := readBitmap(r, slots)
		if err != nil {
			return 0, nil, err
		}
		col = &array.Column{Type: at.Type, Nulls: nulls}
	}
	if r.Err() != nil || flags&colFlagZone == 0 {
		return flags, col, r.Err()
	}
	if at.Type == array.TArray {
		return 0, nil, fmt.Errorf("storage: zone map on a nested-array column")
	}
	zone, err := decodeZoneMap(r, at.Type, slots)
	if err != nil {
		return 0, nil, err
	}
	if col != nil {
		col.Zone = zone
	}
	return flags, col, nil
}

// decodeColumn reverses encodeColumn for a chunk whose presence bitmap is
// present, into a column sealed under rank, present's rank directory (nil
// for a full chunk): a present-only column's values are adopted as decoded,
// and a vector stored one value per slot of a partial chunk is packed.
func decodeColumn(r *FieldReader, at array.Attribute, present *array.Bitmap, rank *array.Rank) (*array.Column, error) {
	slots := present.Len()
	flags, col, err := columnHead(r, at, slots, false)
	if err != nil {
		return nil, err
	}
	n, presentOnly := slots, flags&colFlagPresentOnly != 0
	if presentOnly {
		if n = present.Count(); n == slots {
			return nil, fmt.Errorf("storage: present-only values in a full chunk")
		}
	}
	switch at.Type {
	case array.TInt64:
		col.Ints, err = decodeIntValues(r, n)
	case array.TFloat64:
		col.Floats, err = decodeFloatValues(r, n)
	case array.TBool:
		col.Bools, err = decodeBoolValues(r, slots)
	case array.TString:
		col.Strs, err = decodeStringValues(r, slots)
	case array.TArray:
		// Nested columns carry a tag byte for shape parity with the value
		// encodings; only the verbatim layout is defined for them.
		if tag := r.U8(); r.Err() == nil && tag != encRaw {
			return nil, fmt.Errorf("storage: unknown nested column encoding %d", tag)
		}
		if !r.Need(slots) { // one presence byte per slot minimum
			return nil, r.Err()
		}
		col.Arrs = make([]*array.Array, slots)
		for i := range col.Arrs {
			if r.U8() == 0 {
				continue
			}
			buf := r.BytesView()
			if r.Err() != nil {
				return nil, r.Err()
			}
			if col.Arrs[i], err = DecodeArray(at.Nested, buf); err != nil {
				return nil, err
			}
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
	if flags&colFlagSigma != 0 {
		if !r.Need(n * 8) {
			return nil, r.Err()
		}
		col.Sigma = make([]float64, n)
		r.F64sInto(col.Sigma)
	}
	if flags&colFlagShared != 0 {
		col.HasShared = true
		col.SharedSigma = r.F64()
	}
	if r.Err() != nil {
		return nil, r.Err()
	}
	if rank != nil && !presentOnly {
		col.Seal(rank)
	} else {
		col.Packed(rank)
	}
	return col, nil
}

// lowBits is a word with its k (1 to 64) low bits set.
func lowBits(k int64) uint64 { return ^uint64(0) >> (64 - k) }

// writeBitmap writes a bitmap's words; the reader knows how many from the
// chunk's slot count.
func writeBitmap(w *FieldWriter, b *array.Bitmap) { w.U64sRaw(b.Words()) }

func readBitmap(r *FieldReader, bits int64) (*array.Bitmap, error) {
	n := (bits + 63) / 64
	if !r.Need(n * 8) {
		return nil, r.Err()
	}
	words := make([]uint64, n)
	r.U64sInto(words)
	return array.FromWords(bits, words), r.Err()
}

// RawChunkSize returns what the chunk would cost stored verbatim — a bare
// frame, bitmaps with a word count, every slot's value at its full width, no
// per-column encoding — computed arithmetically. It is the "raw" term of
// the store's encoding-ratio stats and the baseline of the ENC experiment.
// (Nested-array attributes are the one approximation: their recursive
// payloads are counted at the encoded size actually written.)
func RawChunkSize(s *array.Schema, ch *array.Chunk) int64 {
	slots := ch.Slots()
	n := int64(4 + 1 + 16*len(ch.Origin))
	n += 4 + int64(len(ch.Present.Words()))*8
	for ai, col := range ch.Cols {
		if ai >= len(s.Attrs) {
			break
		}
		n += 1 // flags
		n += 4 + int64(len(col.Nulls.Words()))*8
		switch s.Attrs[ai].Type {
		case array.TInt64, array.TFloat64:
			n += slots * 8
		case array.TBool:
			n += slots
		case array.TString:
			n += slots * 4
			for _, v := range col.Strs {
				n += int64(len(v))
			}
		case array.TArray:
			n += slots
			for _, nested := range col.Arrs {
				if nested != nil {
					if payload, err := EncodeArray(nested); err == nil {
						n += 4 + int64(len(payload))
					}
				}
			}
		}
		if col.Sigma != nil {
			n += slots * 8
		}
		if col.HasShared {
			n += 8
		}
	}
	return n
}
