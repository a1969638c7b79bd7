// Package compress provides the bucket compression codecs used by the
// storage manager (§2.8: "compress the bucket and write it to disk";
// "what compression algorithms to employ" is one of the storage-layer
// optimization questions, answered empirically by the STORE experiment).
package compress

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"math/bits"
	"sync"
)

// Codec encodes and decodes byte buffers.
type Codec interface {
	Name() string
	Encode(src []byte) []byte
	// Decode decodes src into the room of dst — its whole capacity, whatever
	// its length — and returns the decoded bytes. It allocates only when that
	// room is too short, checking every length the input claims against the
	// input first; the result never shares src. On an error it returns nil,
	// and the room's content is undefined.
	Decode(dst, src []byte) ([]byte, error)
}

// room returns dst's room cut to n bytes, or, when its capacity is short, a
// fresh slice of n bytes with capacity c ≥ n.
func room(dst []byte, n, c int) []byte {
	if cap(dst) >= n {
		return dst[:n]
	}
	return make([]byte, n, c)
}

// ByName returns a codec by its registered name.
func ByName(name string) (Codec, error) {
	switch name {
	case "none":
		return None{}, nil
	case "rle":
		return RLE{}, nil
	case "delta":
		return Delta{}, nil
	case "gzip":
		return Gzip{}, nil
	case "auto":
		return Auto{}, nil
	}
	return nil, fmt.Errorf("compress: unknown codec %q", name)
}

// tagNames numbers the codecs for containers that record, per stored
// section, which codec wrote it (the storage manager's bucket files). The
// numbers are part of that on-disk format: append, never reorder.
var tagNames = [...]string{"none", "rle", "delta", "gzip", "auto"}

// Tag returns the format number of c, found by its name, and whether it
// has one.
func Tag(c Codec) (uint8, bool) {
	for t, name := range tagNames {
		if c.Name() == name {
			return uint8(t), true
		}
	}
	return 0, false
}

// ByTag returns the codec a format number names.
func ByTag(t uint8) (Codec, error) {
	if int(t) >= len(tagNames) {
		return nil, fmt.Errorf("compress: unknown codec tag %d", t)
	}
	return ByName(tagNames[t])
}

// All returns every concrete codec, for benchmarking sweeps.
func All() []Codec { return []Codec{None{}, RLE{}, Delta{}, Gzip{}} }

// None is the identity codec.
type None struct{}

// Name implements Codec.
func (None) Name() string { return "none" }

// Encode implements Codec.
func (None) Encode(src []byte) []byte { return append([]byte(nil), src...) }

// Decode implements Codec.
func (None) Decode(dst, src []byte) ([]byte, error) { return append(dst[:0], src...), nil }

// RLE is byte-level run-length encoding: pairs of (count, byte). Effective
// for sparse presence bitmaps and constant slabs (e.g. cloud-free masks).
type RLE struct{}

// Name implements Codec.
func (RLE) Name() string { return "rle" }

// Encode implements Codec.
func (RLE) Encode(src []byte) []byte {
	out := make([]byte, 0, len(src)/2+8)
	var lenBuf [8]byte
	binary.LittleEndian.PutUint64(lenBuf[:], uint64(len(src)))
	out = append(out, lenBuf[:]...)
	i := 0
	for i < len(src) {
		b := src[i]
		run := 1
		for i+run < len(src) && src[i+run] == b && run < 255 {
			run++
		}
		out = append(out, byte(run), b)
		i += run
	}
	return out
}

// Decode implements Codec.
func (RLE) Decode(dst, src []byte) ([]byte, error) {
	if len(src) < 8 {
		return nil, fmt.Errorf("compress: rle input too short")
	}
	n := binary.LittleEndian.Uint64(src[:8])
	// A pair decodes to at most 255 bytes, which bounds the allocation.
	if n > uint64(len(src)-8)/2*255 {
		return nil, fmt.Errorf("compress: rle claims %d bytes from %d", n, len(src))
	}
	out := room(dst, int(n), int(n))
	at := 0
	for i := 8; i+1 < len(src); i += 2 {
		run, b := int(src[i]), src[i+1]
		if run > len(out)-at {
			return nil, fmt.Errorf("compress: rle decodes past its %d bytes", n)
		}
		for k := range out[at : at+run] {
			out[at+k] = b
		}
		at += run
	}
	if at != len(out) {
		return nil, fmt.Errorf("compress: rle decoded %d bytes, want %d", at, n)
	}
	return out, nil
}

// Delta delta-encodes the buffer as little-endian uint64 words (the natural
// word size of int64/float64 attribute vectors loaded in a dominant-
// dimension order, where neighboring values are close) and varint-encodes
// the zig-zagged deltas. A non-multiple-of-8 tail is stored raw.
type Delta struct{}

// Name implements Codec.
func (Delta) Name() string { return "delta" }

// Encode implements Codec.
func (Delta) Encode(src []byte) []byte { return appendDelta(make([]byte, 0, len(src)/2+16), src) }

// appendDelta appends the Delta encoding of src to out.
func appendDelta(out, src []byte) []byte {
	nWords := len(src) / 8
	out = binary.LittleEndian.AppendUint64(out, uint64(nWords))
	var prev uint64
	for i := 0; i < nWords; i++ {
		w := binary.LittleEndian.Uint64(src[i*8:])
		out = binary.AppendVarint(out, int64(w-prev))
		prev = w
	}
	return append(out, src[nWords*8:]...)
}

// deltaLen is len(Delta{}.Encode(src)), counted without writing it.
func deltaLen(src []byte) int {
	nWords := len(src) / 8
	n := 8 + len(src) - nWords*8
	var prev uint64
	for i := 0; i < nWords; i++ {
		w := binary.LittleEndian.Uint64(src[i*8:])
		d := int64(w - prev)
		prev = w
		// A varint holds 7 bits of the zig-zagged delta per byte.
		n += (bits.Len64(uint64(d<<1)^uint64(d>>63)|1) + 6) / 7
	}
	return n
}

// Decode implements Codec.
func (Delta) Decode(dst, src []byte) ([]byte, error) {
	if len(src) < 8 {
		return nil, fmt.Errorf("compress: delta input too short")
	}
	nWords := binary.LittleEndian.Uint64(src[:8])
	src = src[8:]
	// A word costs at least one varint byte, which bounds the allocation;
	// the raw tail is under one word.
	if nWords > uint64(len(src)) {
		return nil, fmt.Errorf("compress: delta claims %d words from %d bytes", nWords, len(src))
	}
	out := room(dst, int(nWords*8), int(nWords*8+7))
	var prev uint64
	for i := 0; i < len(out); i += 8 {
		d, n := binary.Varint(src)
		if n <= 0 {
			return nil, fmt.Errorf("compress: delta varint truncated at word %d", i/8)
		}
		src = src[n:]
		prev += uint64(d)
		binary.LittleEndian.PutUint64(out[i:], prev)
	}
	return append(out, src...), nil
}

// Gzip wraps compress/gzip at the default level. Writers and readers are
// pooled: a deflate compressor is over a megabyte of state and an inflater
// tens of kilobytes, and the storage manager runs one per bucket section.
type Gzip struct{}

var gzipWriters sync.Pool

// gunzipper is a pooled inflater with the reader it reads its input
// through. Both zero values are ready: Reset sets up the inflater.
type gunzipper struct {
	br bytes.Reader
	zr gzip.Reader
}

var gunzippers = sync.Pool{New: func() any { return new(gunzipper) }}

// Name implements Codec.
func (Gzip) Name() string { return "gzip" }

// Encode implements Codec.
func (Gzip) Encode(src []byte) []byte {
	var buf bytes.Buffer
	gzipInto(&buf, src)
	return buf.Bytes()
}

// gzipInto writes the Gzip encoding of src to buf.
func gzipInto(buf *bytes.Buffer, src []byte) {
	w, _ := gzipWriters.Get().(*gzip.Writer)
	if w == nil {
		w = gzip.NewWriter(buf)
	} else {
		w.Reset(buf)
	}
	_, _ = w.Write(src)
	_ = w.Close()
	gzipWriters.Put(w)
}

// maxInflate bounds deflate's expansion (1032:1 is its limit), so a
// corrupt length cannot force a huge allocation.
const maxInflate = 1032

// Decode implements Codec. The stream's trailer records the decoded length
// (ISIZE), so a short room is replaced once, at the final size.
func (Gzip) Decode(dst, src []byte) ([]byte, error) {
	if len(src) < 18 {
		return nil, fmt.Errorf("compress: gzip input too short")
	}
	n := uint64(binary.LittleEndian.Uint32(src[len(src)-4:]))
	if n > uint64(len(src))*maxInflate {
		return nil, fmt.Errorf("compress: gzip claims %d bytes from %d", n, len(src))
	}
	out := room(dst, int(n), int(n))
	g := gunzippers.Get().(*gunzipper)
	defer gunzippers.Put(g)
	g.br.Reset(src)
	r := &g.zr
	if err := r.Reset(&g.br); err != nil {
		return nil, err
	}
	r.Multistream(false)
	if _, err := io.ReadFull(r, out); err != nil {
		return nil, err
	}
	// The stream must end here; reaching its end is also what makes gzip
	// check its own CRC and length.
	var one [1]byte
	if m, err := r.Read(one[:]); m != 0 || err != io.EOF {
		if err == nil || err == io.EOF {
			err = fmt.Errorf("compress: gzip stream longer than its recorded %d bytes", n)
		}
		return nil, err
	}
	return out, nil
}

// Auto encodes the input raw, with Delta and with Gzip — each on the raw
// input — and keeps whichever is smallest (ties to the earlier, in that
// order), prefixing one tag byte. This is the storage manager's default:
// the paper leaves codec choice as a research question, and picking per
// section is the pragmatic answer.
type Auto struct{}

// Name implements Codec.
func (Auto) Name() string { return "auto" }

// Tag bytes for Auto encoding.
const (
	tagRaw   = 0
	tagDelta = 1
	tagGzip  = 2
	// tagPlanes is AppendRecords' layout (records.go): fixed-width records
	// as byte planes, the bytes around them under one of the three above.
	tagPlanes = 3
)

// autoGzipBufs holds the buffers Auto gzips into: the gzip candidate is
// written in full to be measured, and usually loses.
var autoGzipBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// Encode implements Codec. The delta candidate is measured without being
// written and the gzip one goes to a pooled buffer, so the only allocation
// is the winner's copy behind its tag.
func (Auto) Encode(src []byte) []byte {
	g := autoGzipBufs.Get().(*bytes.Buffer)
	defer autoGzipBufs.Put(g)
	tag, n := autoChoose(src, g)
	return autoAppend(make([]byte, 0, 1+n), src, tag, g)
}

// autoChoose picks Auto's encoding of src, leaving the gzip candidate in g,
// and returns its tag and its length behind the tag.
func autoChoose(src []byte, g *bytes.Buffer) (tag byte, n int) {
	tag, n = tagRaw, len(src)
	if d := deltaLen(src); d < n {
		tag, n = tagDelta, d
	}
	g.Reset()
	gzipInto(g, src)
	if g.Len() < n {
		tag, n = tagGzip, g.Len()
	}
	return tag, n
}

// autoAppend appends the encoding autoChoose picked for src to out.
func autoAppend(out, src []byte, tag byte, g *bytes.Buffer) []byte {
	out = append(out, tag)
	switch tag {
	case tagDelta:
		return appendDelta(out, src)
	case tagGzip:
		return append(out, g.Bytes()...)
	}
	return append(out, src...)
}

// Decode implements Codec.
func (Auto) Decode(dst, src []byte) ([]byte, error) {
	if len(src) == 0 {
		return nil, fmt.Errorf("compress: auto input empty")
	}
	switch src[0] {
	case tagRaw:
		return append(dst[:0], src[1:]...), nil
	case tagDelta:
		return Delta{}.Decode(dst, src[1:])
	case tagGzip:
		return Gzip{}.Decode(dst, src[1:])
	case tagPlanes:
		return decodePlanes(dst, src[1:])
	}
	return nil, fmt.Errorf("compress: auto unknown tag %d", src[0])
}

// autoDecodeInto decodes an Auto encoding under one of the three whole-input
// tags into dst, which it must fill exactly: a decode of that length is one
// into dst's room.
func autoDecodeInto(dst, src []byte) error {
	if len(src) > 0 && src[0] == tagPlanes {
		return fmt.Errorf("compress: auto tag %d where a whole-input one belongs", src[0])
	}
	out, err := Auto{}.Decode(dst[:0:len(dst)], src)
	if err == nil && len(out) != len(dst) {
		err = fmt.Errorf("compress: auto decodes to %d bytes, want %d", len(out), len(dst))
	}
	return err
}
