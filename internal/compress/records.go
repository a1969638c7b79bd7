package compress

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/bits"
	"sync"
)

// Byte planes for fixed-width records. A vector of float64 or int64 values is
// a run of 8-byte records whose bytes differ in kind: the sign and exponent
// bytes of a measured float take a few values, its low mantissa bytes are as
// good as random. Deflating the whole vector searches those random bytes for
// matches that are not there, and inflating it Huffman-decodes them a literal
// at a time. Split into planes instead — plane k is byte k of every record —
// each plane is kept verbatim or deflated on its own, whichever is smaller,
// and a byte histogram spares the deflate attempt on a plane no entropy coder
// could shrink.
//
// The layout behind Auto's tagPlanes byte:
//
//	u8 width | u32 records n | u32 head bytes | u32 tail bytes
//	u32 stored | head: an Auto encoding (raw, delta or gzip) of the bytes before the records
//	u32 stored | tail: the same for the bytes after them
//	width × plane: u8 planeRaw, n bytes | u8 planeDeflate, u32 stored, a raw deflate stream

// RecordEncoder is a codec that can be told where the fixed-width records of
// an input lie. What it writes decodes with its own Decode.
type RecordEncoder interface {
	// AppendRecords appends to dst the encoding of src, whose bytes [lo, hi)
	// are records of width bytes each, and returns the extended slice.
	// Arguments that describe no such records append what Encode returns.
	AppendRecords(dst, src []byte, lo, hi, width int) []byte
}

const (
	// maxRecordWidth bounds the records AppendRecords splits: a word and a
	// half covers a (u32 length, 8-byte value) run.
	maxRecordWidth = 16
	planesHeader   = 1 + 4 + 4 + 4 // width, records, head and tail bytes

	planeRaw     = 0
	planeDeflate = 1

	// minPlanesRegion is the smallest record region split into planes: under
	// 8 KiB, the framing and deflate headers of a dozen small streams cost
	// about what splitting saves, and under 4 KiB more.
	minPlanesRegion = 8 << 10
	// fewRecords is the most distinct records a region left to Encode holds:
	// whole-input deflate stores a repeated record as one short match, where
	// planes pay for each of its bytes in a stream of their own.
	fewRecords = 256
)

// AppendRecords implements RecordEncoder: the records as byte planes, the
// bytes before and after them as Encode would pick. The encoding is staged in
// a pooled buffer and copied to dst once, so a caller appending to a buffer
// with room allocates nothing. Fewer than minPlanesRegion bytes of records,
// no more than fewRecords distinct ones, or an encoding that does not come
// out shorter than src fall back to Encode's, so Auto's bound — never more
// than its tag byte over the input — holds here too.
func (Auto) AppendRecords(dst, src []byte, lo, hi, width int) []byte {
	if width >= 2 && width <= maxRecordWidth && lo >= 0 && hi-lo >= minPlanesRegion && hi <= len(src) &&
		(hi-lo)%width == 0 && len(src) <= math.MaxUint32 && !fewDistinct(src[lo:hi], width) {
		pw := planeWriters.Get().(*planeWriter)
		defer pw.release()
		if pw.seal(src, lo, hi, width) {
			return append(dst, pw.out.Bytes()...)
		}
	}
	g := autoGzipBufs.Get().(*bytes.Buffer)
	defer autoGzipBufs.Put(g)
	tag, _ := autoChoose(src, g)
	return autoAppend(dst, src, tag, g)
}

// planeWriter is AppendRecords' recycled room: the staged encoding, the
// records split into planes, and the deflater (over half a megabyte of
// state).
type planeWriter struct {
	out    bytes.Buffer
	planes []byte
	fw     *flate.Writer
}

var planeWriters = sync.Pool{New: func() any { return new(planeWriter) }}

// maxPooledPlanes is the largest room a plane writer or reader goes back to
// the pool with; one grown past it is dropped rather than held.
const maxPooledPlanes = 16 << 20

func (pw *planeWriter) release() {
	if pw.out.Cap() <= maxPooledPlanes && cap(pw.planes) <= maxPooledPlanes {
		planeWriters.Put(pw)
	}
}

// seal stages the plane encoding of src in pw.out and reports whether it came
// out shorter than src.
func (pw *planeWriter) seal(src []byte, lo, hi, width int) bool {
	n := (hi - lo) / width
	b := &pw.out
	b.Reset()
	var hdr [1 + planesHeader]byte
	hdr[0], hdr[1] = tagPlanes, byte(width)
	binary.LittleEndian.PutUint32(hdr[2:], uint32(n))
	binary.LittleEndian.PutUint32(hdr[6:], uint32(lo))
	binary.LittleEndian.PutUint32(hdr[10:], uint32(len(src)-hi))
	b.Write(hdr[:])
	g := autoGzipBufs.Get().(*bytes.Buffer)
	for _, part := range [2][]byte{src[:lo], src[hi:]} {
		tag, m := autoChoose(part, g)
		b.Write(binary.LittleEndian.AppendUint32(b.AvailableBuffer(), uint32(1+m)))
		b.Write(autoAppend(b.AvailableBuffer(), part, tag, g))
	}
	autoGzipBufs.Put(g)
	if cap(pw.planes) < hi-lo {
		pw.planes = make([]byte, hi-lo)
	}
	var planes [maxRecordWidth][]byte
	for k := 0; k < width; k++ {
		planes[k] = pw.planes[k*n : (k+1)*n]
	}
	split(&planes, src[lo:hi], width, n)
	for k := 0; k < width && b.Len() < len(src); k++ {
		p := planes[k]
		if worthDeflating(p) && pw.deflate(p) {
			continue
		}
		b.WriteByte(planeRaw)
		b.Write(p)
	}
	return b.Len() < len(src)
}

// deflate appends p to pw.out as a deflated plane when that is shorter than
// the plane kept raw, and reports whether it was. Planes are deflated at
// BestSpeed: one hash probe a byte finds the runs and repeats a plane has,
// and Huffman codes take the rest. The default level's lazy search walks
// full hash chains at every byte of a plane of a few byte values — 3 ms
// against 0.2 ms for 16 KiB of 1.8-bit bytes — and is rarely much smaller.
func (pw *planeWriter) deflate(p []byte) bool {
	b := &pw.out
	mark := b.Len()
	b.Write([]byte{planeDeflate, 0, 0, 0, 0})
	if pw.fw == nil {
		pw.fw, _ = flate.NewWriter(b, flate.BestSpeed)
	} else {
		pw.fw.Reset(b)
	}
	_, _ = pw.fw.Write(p)
	_ = pw.fw.Close()
	stored := b.Len() - mark - 5
	if 4+stored >= len(p) {
		b.Truncate(mark)
		return false
	}
	binary.LittleEndian.PutUint32(b.Bytes()[mark+1:], uint32(stored))
	return true
}

// fewDistinct reports whether the width-byte records of rec take no more
// than fewRecords distinct values. It counts keys of the records — a record's
// first word, mixed with the bytes after it — in an open-addressed table, so
// a collision can only undercount, and it stops at the first record past
// the limit: on measured values that is a few hundred records in.
func fewDistinct(rec []byte, width int) bool {
	const slots = 4 * fewRecords
	var keys [slots]uint64
	var used [slots]bool
	distinct := 0
	for i := 0; i+width <= len(rec); i += width {
		var w [16]byte
		copy(w[:], rec[i:i+width])
		key := binary.LittleEndian.Uint64(w[:]) ^ binary.LittleEndian.Uint64(w[8:])*0xff51afd7ed558ccd
		h := key * 0x9e3779b97f4a7c15 >> (64 - 10)
		for used[h] && keys[h] != key {
			h = (h + 1) % slots
		}
		if !used[h] {
			if distinct++; distinct > fewRecords {
				return false
			}
			used[h], keys[h] = true, key
		}
	}
	return true
}

// split writes byte k of each of the n width-byte records in rec to
// planes[k]. (Reading a record a word at a time and storing its bytes to the
// planes measured slower than these strided reads.)
func split(planes *[maxRecordWidth][]byte, rec []byte, width, n int) {
	for k := 0; k < width; k++ {
		p := planes[k][:n]
		for i, j := 0, k; i < len(p); i, j = i+1, j+width {
			p[i] = rec[j]
		}
	}
}

// join reverses split: it rebuilds the n width-byte records in recs from
// their planes, writing each record's bytes as whole words where the width
// allows rather than a strided byte store per plane byte.
func join(recs []byte, planes *[maxRecordWidth][]byte, width, n int) {
	switch width {
	case 8:
		joinWords(recs, planes[0:8], n, 8, 0)
	case 12:
		p0, p1, p2, p3 := planes[0][:n], planes[1][:n], planes[2][:n], planes[3][:n]
		for i := range p0 {
			binary.LittleEndian.PutUint32(recs[12*i:], uint32(p0[i])|uint32(p1[i])<<8|uint32(p2[i])<<16|uint32(p3[i])<<24)
		}
		joinWords(recs, planes[4:12], n, 12, 4)
	default:
		for k := 0; k < width; k++ {
			for i, b := range planes[k][:n] {
				recs[i*width+k] = b
			}
		}
	}
}

// joinWords writes the u64 built from byte i of eight planes at offset off of
// record i, for n records of width bytes.
func joinWords(recs []byte, planes [][]byte, n, width, off int) {
	p0, p1, p2, p3 := planes[0][:n], planes[1][:n], planes[2][:n], planes[3][:n]
	p4, p5, p6, p7 := planes[4][:n], planes[5][:n], planes[6][:n], planes[7][:n]
	for i := range p0 {
		binary.LittleEndian.PutUint64(recs[width*i+off:],
			uint64(p0[i])|uint64(p1[i])<<8|uint64(p2[i])<<16|uint64(p3[i])<<24|
				uint64(p4[i])<<32|uint64(p5[i])<<40|uint64(p6[i])<<48|uint64(p7[i])<<56)
	}
}

// fixedBits is the fraction bits of log2Fixed.
const fixedBits = 16

// worthDeflating reports whether an order-0 entropy coder would store p in
// under 7.9 bits a byte: n·log2 n − Σ c·log2 c over p's byte histogram, in
// integer arithmetic, so which planes are deflated — and so the sealed
// bytes — is the same on every platform.
func worthDeflating(p []byte) bool {
	var hist [256]uint64
	for _, c := range p {
		hist[c]++
	}
	n := uint64(len(p))
	sum := n * log2Fixed(n)
	for _, c := range hist {
		if c > 1 {
			sum -= c * log2Fixed(c)
		}
	}
	return sum*10 < 79*n<<fixedBits
}

// log2Fixed is log2 x for x ≥ 1 with fixedBits fraction bits, rounded down
// and non-decreasing in x: the bits of the fraction come from squaring the
// mantissa, held in [1, 2) with 30 fraction bits.
func log2Fixed(x uint64) uint64 {
	k := bits.Len64(x) - 1
	m := x >> max(k-30, 0) << max(30-k, 0)
	r := uint64(k) << fixedBits
	for i := fixedBits - 1; i >= 0; i-- {
		if m = m * m >> 30; m >= 2<<30 {
			m >>= 1
			r |= 1 << i
		}
	}
	return r
}

// decodePlanes reverses planeWriter.seal into dst's room; src is what follows
// the tag byte. Every length is checked against the input before the room is
// cut or grown: a raw plane must be all there, a deflated one — like the head
// and tail — cannot claim more than deflate's 1032:1, and the planes must end
// the input.
func decodePlanes(dst, src []byte) ([]byte, error) {
	if len(src) < planesHeader {
		return nil, fmt.Errorf("compress: planes input too short")
	}
	width := int(src[0])
	n := binary.LittleEndian.Uint32(src[1:])
	lo, tail := binary.LittleEndian.Uint32(src[5:]), binary.LittleEndian.Uint32(src[9:])
	if width < 2 || width > maxRecordWidth || n == 0 {
		return nil, fmt.Errorf("compress: %d planes of %d records", width, n)
	}
	rest := src[planesHeader:]
	headBlob, rest, err := cutBlob(rest)
	if err != nil {
		return nil, err
	}
	tailBlob, rest, err := cutBlob(rest)
	if err != nil {
		return nil, err
	}
	var planes [maxRecordWidth][]byte
	var deflated uint32
	for k := 0; k < width; k++ {
		if len(rest) == 0 {
			return nil, fmt.Errorf("compress: input ends before plane %d", k)
		}
		kind := rest[0]
		rest = rest[1:]
		switch kind {
		case planeRaw:
			if uint64(len(rest)) < uint64(n) {
				return nil, fmt.Errorf("compress: raw plane %d has %d of its %d bytes", k, len(rest), n)
			}
			planes[k], rest = rest[:n], rest[n:]
		case planeDeflate:
			if planes[k], rest, err = cutBlob(rest); err != nil {
				return nil, err
			}
			if uint64(n) > uint64(len(planes[k]))*maxInflate {
				return nil, fmt.Errorf("compress: plane %d claims %d bytes from %d", k, n, len(planes[k]))
			}
			deflated |= 1 << k
		default:
			return nil, fmt.Errorf("compress: plane %d of unknown kind %d", k, kind)
		}
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("compress: %d bytes after the last plane", len(rest))
	}
	if uint64(lo) > uint64(len(headBlob))*maxInflate || uint64(tail) > uint64(len(tailBlob))*maxInflate {
		return nil, fmt.Errorf("compress: head and tail claim %d and %d bytes from %d and %d", lo, tail, len(headBlob), len(tailBlob))
	}
	recs := int(n) * width
	size := int(lo) + recs + int(tail)
	out := room(dst, size, size)
	if err := autoDecodeInto(out[:lo], headBlob); err != nil {
		return nil, err
	}
	if err := autoDecodeInto(out[int(lo)+recs:], tailBlob); err != nil {
		return nil, err
	}
	pr := planeReaders.Get().(*planeReader)
	defer pr.release()
	if err := pr.inflate(&planes, deflated, int(n)); err != nil {
		return nil, err
	}
	join(out[lo:int(lo)+recs], &planes, width, int(n))
	return out, nil
}

// cutBlob splits a u32-length-prefixed blob off the front of src.
func cutBlob(src []byte) (blob, rest []byte, err error) {
	if len(src) < 4 {
		return nil, nil, fmt.Errorf("compress: input ends in a length")
	}
	m := binary.LittleEndian.Uint32(src)
	if uint64(m) > uint64(len(src)-4) {
		return nil, nil, fmt.Errorf("compress: %d-byte blob in %d bytes", m, len(src)-4)
	}
	return src[4 : 4+m], src[4+m:], nil
}

// planeReader is decodePlanes' recycled room: the inflater (tens of
// kilobytes of state), the reader it reads through, and the scratch the
// deflated planes are inflated into.
type planeReader struct {
	br      bytes.Reader
	fr      io.ReadCloser
	scratch []byte
	one     [1]byte
}

var planeReaders = sync.Pool{New: func() any { return new(planeReader) }}

func (pr *planeReader) release() {
	if cap(pr.scratch) <= maxPooledPlanes {
		planeReaders.Put(pr)
	}
}

// inflate replaces each plane whose bit is set in deflated by the n bytes its
// deflate stream holds, which must end exactly where the plane does.
func (pr *planeReader) inflate(planes *[maxRecordWidth][]byte, deflated uint32, n int) error {
	need := bits.OnesCount32(deflated) * n
	if cap(pr.scratch) < need {
		pr.scratch = make([]byte, need)
	}
	buf := pr.scratch[:need]
	for k := range planes {
		if deflated&(1<<k) == 0 {
			continue
		}
		pr.br.Reset(planes[k])
		if pr.fr == nil {
			pr.fr = flate.NewReader(&pr.br)
		} else if err := pr.fr.(flate.Resetter).Reset(&pr.br, nil); err != nil {
			return err
		}
		planes[k], buf = buf[:n], buf[n:]
		if _, err := io.ReadFull(pr.fr, planes[k]); err != nil {
			return fmt.Errorf("compress: plane %d: %w", k, err)
		}
		if m, err := pr.fr.Read(pr.one[:]); m != 0 || err != io.EOF || pr.br.Len() != 0 {
			return fmt.Errorf("compress: plane %d's deflate stream does not end with the plane", k)
		}
	}
	return nil
}
