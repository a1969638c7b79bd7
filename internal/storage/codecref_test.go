package storage

// The chunk codec as it stood before its kernels were rewritten — a value or
// a run per Write, packBits/unpackBits over fresh word vectors, RLE tables
// grown by append, zone maps' distinct counts in a Go map — kept verbatim as
// the reference TestCodecMatchesReference and FuzzColumnRoundTrip hold the
// rewritten codec to, byte for byte and vector for vector. The present-only
// layout of a partial chunk's int and float columns was added to it later,
// written a slot at a time (refPresentValues, refScatter, refDecodeColumn).

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"math"
	"math/bits"

	"scidb/internal/array"
	"scidb/internal/compress"
)

// refZoneDistinctCap is array's zoneDistinctCap.
const refZoneDistinctCap = 256

// refPackBits packs vals (each < 2^width) LSB-first into little-endian u64
// words. A zero width packs nothing (every value is zero by construction).
func refPackBits(vals []uint64, width uint) []uint64 {
	if width == 0 || len(vals) == 0 {
		return nil
	}
	words := make([]uint64, packedWords(int64(len(vals)), width))
	bit := 0
	for _, v := range vals {
		w, off := bit/64, uint(bit%64)
		words[w] |= v << off
		if off+width > 64 {
			words[w+1] = v >> (64 - off)
		}
		bit += int(width)
	}
	return words
}

// refUnpackBits reverses refPackBits into count values.
func refUnpackBits(words []uint64, width uint, count int64) []uint64 {
	out := make([]uint64, count)
	if width == 0 {
		return out
	}
	mask := ^uint64(0)
	if width < 64 {
		mask = uint64(1)<<width - 1
	}
	bit := 0
	for i := range out {
		w, off := bit/64, uint(bit%64)
		v := words[w] >> off
		if off+width > 64 {
			v |= words[w+1] << (64 - off)
		}
		out[i] = v & mask
		bit += int(width)
	}
	return out
}

// refWritePackedWords writes a u32 word count followed by the words.
func refWritePackedWords(w *FieldWriter, words []uint64) {
	w.U32(uint32(len(words)))
	w.U64sRaw(words)
}

// refReadPackedWords reads the words written by refWritePackedWords, validating
// the count against the expected packed size and the remaining buffer.
func refReadPackedWords(r *FieldReader, count int64, width uint) ([]uint64, error) {
	n := int64(r.U32())
	if want := packedWords(count, width); n != want {
		return nil, fmt.Errorf("storage: packed column has %d words, want %d", n, want)
	}
	if !r.Need(n * 8) {
		return nil, r.Err()
	}
	words := make([]uint64, n)
	r.U64sInto(words)
	return words, r.Err()
}

// refEncodeIntValues picks and writes the cheapest encoding for an integer
// vector: const, RLE, delta+bit-packing, or raw.
func refEncodeIntValues(w *FieldWriter, vals []int64) {
	n := len(vals)
	if n == 0 {
		w.U8(encRaw)
		return
	}
	runs := 1
	var maxZig uint64
	for i := 1; i < n; i++ {
		if vals[i] != vals[i-1] {
			runs++
		}
		if z := zigzag(vals[i] - vals[i-1]); z > maxZig {
			maxZig = z
		}
	}
	if runs == 1 {
		w.U8(encConst)
		w.I64(vals[0])
		return
	}
	width := uint(bits.Len64(maxZig))
	rawSize := int64(8 * n)
	rleSize := int64(4 + runs*12)
	deltaSize := 8 + 1 + 4 + 8*packedWords(int64(n-1), width)
	switch {
	case deltaSize < rawSize && deltaSize <= rleSize:
		w.U8(encDelta)
		w.I64(vals[0])
		w.U8(uint8(width))
		zigs := make([]uint64, n-1)
		for i := 1; i < n; i++ {
			zigs[i-1] = zigzag(vals[i] - vals[i-1])
		}
		refWritePackedWords(w, refPackBits(zigs, width))
	case rleSize < rawSize:
		w.U8(encRLE)
		w.U32(uint32(runs))
		for i := 0; i < n; {
			j := i + 1
			for j < n && vals[j] == vals[i] {
				j++
			}
			w.U32(uint32(j - i))
			w.I64(vals[i])
			i = j
		}
	default:
		w.U8(encRaw)
		w.I64sRaw(vals)
	}
}

// refDecodeIntValues reverses refEncodeIntValues into a slots-sized vector.
func refDecodeIntValues(r *FieldReader, slots int64) ([]int64, error) {
	tag := r.U8()
	if slots == 0 {
		return nil, r.Err()
	}
	switch tag {
	case encRaw:
		if !r.Need(slots * 8) {
			return nil, r.Err()
		}
		out := make([]int64, slots)
		r.I64sInto(out)
		return out, r.Err()
	case encConst:
		v := r.I64()
		if r.Err() != nil {
			return nil, r.Err()
		}
		out := make([]int64, slots)
		for i := range out {
			out[i] = v
		}
		return out, nil
	case encRLE:
		out := make([]int64, 0, slots)
		if err := refDecodeRuns(r, slots, func(runLen int64) error {
			v := r.I64()
			for k := int64(0); k < runLen; k++ {
				out = append(out, v)
			}
			return r.Err()
		}); err != nil {
			return nil, err
		}
		return out, nil
	case encDelta:
		first := r.I64()
		width := uint(r.U8())
		if r.Err() != nil {
			return nil, r.Err()
		}
		if width > 64 {
			return nil, fmt.Errorf("storage: delta column bit width %d", width)
		}
		words, err := refReadPackedWords(r, slots-1, width)
		if err != nil {
			return nil, err
		}
		out := make([]int64, slots)
		out[0] = first
		prev := first
		for i, z := range refUnpackBits(words, width, slots-1) {
			prev += unzigzag(z)
			out[i+1] = prev
		}
		return out, nil
	}
	return nil, fmt.Errorf("storage: unknown int column encoding %d", tag)
}

// refEncodeFloatValues picks const, RLE, or raw for a float vector. Run
// detection compares IEEE-754 bit images so NaNs and signed zeros
// round-trip byte-exactly.
func refEncodeFloatValues(w *FieldWriter, vals []float64) {
	n := len(vals)
	if n == 0 {
		w.U8(encRaw)
		return
	}
	runs := 1
	for i := 1; i < n; i++ {
		if math.Float64bits(vals[i]) != math.Float64bits(vals[i-1]) {
			runs++
		}
	}
	switch {
	case runs == 1:
		w.U8(encConst)
		w.F64(vals[0])
	case int64(4+runs*12) < int64(8*n):
		w.U8(encRLE)
		w.U32(uint32(runs))
		for i := 0; i < n; {
			j := i + 1
			for j < n && math.Float64bits(vals[j]) == math.Float64bits(vals[i]) {
				j++
			}
			w.U32(uint32(j - i))
			w.F64(vals[i])
			i = j
		}
	default:
		w.U8(encRaw)
		w.F64sRaw(vals)
	}
}

// refDecodeFloatValues reverses refEncodeFloatValues.
func refDecodeFloatValues(r *FieldReader, slots int64) ([]float64, error) {
	tag := r.U8()
	if slots == 0 {
		return nil, r.Err()
	}
	switch tag {
	case encRaw:
		if !r.Need(slots * 8) {
			return nil, r.Err()
		}
		out := make([]float64, slots)
		r.F64sInto(out)
		return out, r.Err()
	case encConst:
		v := r.F64()
		if r.Err() != nil {
			return nil, r.Err()
		}
		out := make([]float64, slots)
		for i := range out {
			out[i] = v
		}
		return out, nil
	case encRLE:
		out := make([]float64, 0, slots)
		if err := refDecodeRuns(r, slots, func(runLen int64) error {
			v := r.F64()
			for k := int64(0); k < runLen; k++ {
				out = append(out, v)
			}
			return r.Err()
		}); err != nil {
			return nil, err
		}
		return out, nil
	}
	return nil, fmt.Errorf("storage: unknown float column encoding %d", tag)
}

// refEncodeBoolValues picks const, RLE, or raw for a bool vector.
func refEncodeBoolValues(w *FieldWriter, vals []bool) {
	n := len(vals)
	if n == 0 {
		w.U8(encRaw)
		return
	}
	runs := 1
	for i := 1; i < n; i++ {
		if vals[i] != vals[i-1] {
			runs++
		}
	}
	switch {
	case runs == 1:
		w.U8(encConst)
		w.Bool(vals[0])
	case int64(4+runs*5) < int64(n):
		w.U8(encRLE)
		w.U32(uint32(runs))
		for i := 0; i < n; {
			j := i + 1
			for j < n && vals[j] == vals[i] {
				j++
			}
			w.U32(uint32(j - i))
			w.Bool(vals[i])
			i = j
		}
	default:
		w.U8(encRaw)
		for _, v := range vals {
			w.Bool(v)
		}
	}
}

// refDecodeBoolValues reverses refEncodeBoolValues.
func refDecodeBoolValues(r *FieldReader, slots int64) ([]bool, error) {
	tag := r.U8()
	if slots == 0 {
		return nil, r.Err()
	}
	switch tag {
	case encRaw:
		if !r.Need(slots) {
			return nil, r.Err()
		}
		out := make([]bool, slots)
		for i, b := range r.next(int(slots)) {
			out[i] = b != 0
		}
		return out, r.Err()
	case encConst:
		v := r.Bool()
		if r.Err() != nil {
			return nil, r.Err()
		}
		out := make([]bool, slots)
		for i := range out {
			out[i] = v
		}
		return out, nil
	case encRLE:
		out := make([]bool, 0, slots)
		if err := refDecodeRuns(r, slots, func(runLen int64) error {
			v := r.Bool()
			for k := int64(0); k < runLen; k++ {
				out = append(out, v)
			}
			return r.Err()
		}); err != nil {
			return nil, err
		}
		return out, nil
	}
	return nil, fmt.Errorf("storage: unknown bool column encoding %d", tag)
}

// refEncodeStringValues picks const, dict, RLE, or raw for a string vector.
func refEncodeStringValues(w *FieldWriter, vals []string) {
	n := len(vals)
	if n == 0 {
		w.U8(encRaw)
		return
	}
	// One stats pass: raw size, run count + RLE size, capped distinct set.
	var rawSize, rleSize int64 = 0, 4
	runs := 1
	dict := map[string]uint64{vals[0]: 0}
	order := []string{vals[0]}
	var dictStrBytes int64 = 4 + int64(len(vals[0]))
	for i, v := range vals {
		rawSize += 4 + int64(len(v))
		if i > 0 && v != vals[i-1] {
			runs++
		}
		if dict != nil {
			if _, ok := dict[v]; !ok {
				if len(dict) >= maxDictSize {
					dict, order = nil, nil
				} else {
					dict[v] = uint64(len(order))
					order = append(order, v)
					dictStrBytes += 4 + int64(len(v))
				}
			}
		}
	}
	for i := 0; i < n; {
		j := i + 1
		for j < n && vals[j] == vals[i] {
			j++
		}
		rleSize += 4 + 4 + int64(len(vals[i]))
		i = j
	}
	if runs == 1 {
		w.U8(encConst)
		w.String(vals[0])
		return
	}
	dictSize := int64(math.MaxInt64)
	var width uint
	if dict != nil {
		width = uint(bits.Len64(uint64(len(order) - 1)))
		dictSize = 4 + dictStrBytes + 1 + 4 + 8*packedWords(int64(n), width)
	}
	switch {
	case dictSize < rawSize && dictSize <= rleSize:
		w.U8(encDict)
		w.U32(uint32(len(order)))
		for _, s := range order {
			w.String(s)
		}
		w.U8(uint8(width))
		idx := make([]uint64, n)
		for i, v := range vals {
			idx[i] = dict[v]
		}
		refWritePackedWords(w, refPackBits(idx, width))
	case rleSize < rawSize:
		w.U8(encRLE)
		w.U32(uint32(runs))
		for i := 0; i < n; {
			j := i + 1
			for j < n && vals[j] == vals[i] {
				j++
			}
			w.U32(uint32(j - i))
			w.String(vals[i])
			i = j
		}
	default:
		w.U8(encRaw)
		for _, v := range vals {
			w.String(v)
		}
	}
}

// refDecodeStringValues reverses refEncodeStringValues.
func refDecodeStringValues(r *FieldReader, slots int64) ([]string, error) {
	tag := r.U8()
	if slots == 0 {
		return nil, r.Err()
	}
	switch tag {
	case encRaw:
		// Every string costs at least its 4-byte length prefix.
		if !r.Need(slots * 4) {
			return nil, r.Err()
		}
		out := make([]string, slots)
		for i := range out {
			out[i] = r.String()
			if r.Err() != nil {
				return nil, r.Err()
			}
		}
		return out, nil
	case encConst:
		v := r.String()
		if r.Err() != nil {
			return nil, r.Err()
		}
		out := make([]string, slots)
		for i := range out {
			out[i] = v
		}
		return out, nil
	case encRLE:
		out := make([]string, 0, slots)
		if err := refDecodeRuns(r, slots, func(runLen int64) error {
			v := r.String()
			for k := int64(0); k < runLen; k++ {
				out = append(out, v)
			}
			return r.Err()
		}); err != nil {
			return nil, err
		}
		return out, nil
	case encDict:
		dictLen := int64(r.U32())
		if dictLen <= 0 || !r.Need(dictLen*4) {
			if r.Err() == nil {
				return nil, fmt.Errorf("storage: dict column with empty dictionary")
			}
			return nil, r.Err()
		}
		dict := make([]string, dictLen)
		for i := range dict {
			dict[i] = r.String()
			if r.Err() != nil {
				return nil, r.Err()
			}
		}
		width := uint(r.U8())
		if width > 64 {
			return nil, fmt.Errorf("storage: dict column bit width %d", width)
		}
		words, err := refReadPackedWords(r, slots, width)
		if err != nil {
			return nil, err
		}
		out := make([]string, slots)
		for i, idx := range refUnpackBits(words, width, slots) {
			if idx >= uint64(dictLen) {
				return nil, fmt.Errorf("storage: dict index %d out of range %d", idx, dictLen)
			}
			out[i] = dict[idx]
		}
		return out, nil
	}
	return nil, fmt.Errorf("storage: unknown string column encoding %d", tag)
}

// refDecodeRuns drives an RLE decode: it reads the run count, validates it
// against the remaining buffer, and calls readRun with each run length,
// enforcing that the lengths sum exactly to slots.
func refDecodeRuns(r *FieldReader, slots int64, readRun func(runLen int64) error) error {
	runs := int64(r.U32())
	// Each run costs at least a u32 length plus a 1-byte value.
	if !r.Need(runs * 5) {
		return r.Err()
	}
	var total int64
	for i := int64(0); i < runs; i++ {
		runLen := int64(r.U32())
		if r.Err() != nil {
			return r.Err()
		}
		if runLen <= 0 || total+runLen > slots {
			return fmt.Errorf("storage: RLE runs exceed %d slots", slots)
		}
		total += runLen
		if err := readRun(runLen); err != nil {
			return err
		}
	}
	if total != slots {
		return fmt.Errorf("storage: RLE runs cover %d of %d slots", total, slots)
	}
	return nil
}

// refEncodeChunkZones is EncodeChunk plus the per-column zone maps computed
// during encoding (nil entries for nested-array columns). The store keeps
// them in its bucket metadata so scans can prune buckets before reading
// them back from disk. perSlot writes every column's values per slot, a
// partial chunk's included: the layout written before present-only columns.
func refEncodeChunkZones(s *array.Schema, ch *array.Chunk, perSlot bool) ([]byte, []*array.ZoneMap, error) {
	if len(ch.Cols) != len(s.Attrs) || len(ch.Origin) != len(s.Dims) {
		return nil, nil, fmt.Errorf("storage: chunk has %d columns and %d dims, schema %d and %d",
			len(ch.Cols), len(ch.Origin), len(s.Attrs), len(s.Dims))
	}
	if len(s.Attrs) >= math.MaxUint16 || len(s.Dims) > math.MaxUint8 {
		return nil, nil, fmt.Errorf("storage: schema too wide to encode")
	}
	// Sections are written behind a reserved header, filled in once their
	// lengths and checksums are known.
	hlen := headerLen(s)
	var b bytes.Buffer
	b.Write(make([]byte, hlen))
	w := NewFieldWriter(&b)
	ends := make([]int, 0, 1+len(ch.Cols))
	writeBitmap(w, ch.Present)
	ends = append(ends, b.Len())
	zones := make([]*array.ZoneMap, len(ch.Cols))
	for ai, col := range ch.Cols {
		var err error
		if zones[ai], err = refEncodeColumn(w, s.Attrs[ai], col, ch.Present, perSlot); err != nil {
			return nil, nil, err
		}
		ends = append(ends, b.Len())
	}
	if w.Err() != nil {
		return nil, nil, w.Err()
	}
	data := b.Bytes()
	hdr := chunkHeader{origin: ch.Origin, shape: ch.Shape, secs: make([]section, len(ends))}
	verbatim, _ := compress.Tag(compress.None{})
	start := hlen
	for i, end := range ends {
		if end-start > maxFieldLen {
			return nil, nil, fmt.Errorf("storage: section of %d bytes exceeds limit", end-start)
		}
		n := uint32(end - start)
		hdr.secs[i] = section{stored: n, decoded: n, codec: verbatim, crc: crc32.Checksum(data[start:end], castagnoli)}
		start = end
	}
	hdr.put(data[:hlen])
	return data, zones, nil
}

// refEncodeColumn writes one column section: flag byte, null bitmap, zone map
// (zone-mappable types), the values under the encoding colenc.go picks,
// then the uncertainty tail. Nested-array columns are written verbatim —
// their payloads are recursively encoded arrays, which compress internally.
// It returns the column's zone map (nil for nested columns) so the caller can
// index the chunk without re-scanning: the one a decoder attached, which
// Column's contract keeps only while the column is as decoded, or else one
// computed here. An int64 or float64 column of a chunk with absent slots
// writes its present slots' values and sigma tail only, unless perSlot.
func refEncodeColumn(w *FieldWriter, at array.Attribute, col *array.Column, present *array.Bitmap, perSlot bool) (*array.ZoneMap, error) {
	var flags uint8
	if col.Sigma != nil {
		flags |= colFlagSigma
	}
	if col.HasShared {
		flags |= colFlagShared
	}
	presentOnly := false
	if (at.Type == array.TInt64 || at.Type == array.TFloat64) && !perSlot {
		presentOnly = refCountPresent(present) < present.Len()
	}
	ints, floats, sigma := col.Ints, col.Floats, col.Sigma
	if presentOnly {
		flags |= colFlagPresentOnly
		ints, floats, sigma = refPresentValues(ints, present), refPresentValues(floats, present), refPresentValues(sigma, present)
	}
	zone := col.Zone
	if zone == nil {
		zone = refComputeZone(col, present)
	}
	if zone != nil {
		flags |= colFlagZone
	}
	w.U8(flags)
	writeBitmap(w, col.Nulls)
	if zone != nil {
		encodeZoneMap(w, zone)
	}
	switch at.Type {
	case array.TInt64:
		refEncodeIntValues(w, ints)
	case array.TFloat64:
		refEncodeFloatValues(w, floats)
	case array.TBool:
		refEncodeBoolValues(w, col.Bools)
	case array.TString:
		refEncodeStringValues(w, col.Strs)
	case array.TArray:
		w.U8(encRaw)
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
	w.F64sRaw(sigma)
	if col.HasShared {
		w.F64(col.SharedSigma)
	}
	return zone, nil
}

// refCountPresent counts present's set bits a bit at a time.
func refCountPresent(present *array.Bitmap) int64 {
	var n int64
	for i := int64(0); i < present.Len(); i++ {
		if present.Get(i) {
			n++
		}
	}
	return n
}

// refPresentValues is the values of vals at present's set bits, in slot
// order: nil for a nil vector.
func refPresentValues[T any](vals []T, present *array.Bitmap) []T {
	if vals == nil {
		return nil
	}
	out := []T{}
	for i := int64(0); i < present.Len(); i++ {
		if present.Get(i) {
			out = append(out, vals[i])
		}
	}
	return out
}

// refScatter places the values of a present-only vector at present's set
// bits, in slot order, in a zeroed vector of present's length.
func refScatter[T any](vals []T, present *array.Bitmap) []T {
	out := make([]T, present.Len())
	k := 0
	for i := range out {
		if present.Get(int64(i)) {
			out[i] = vals[k]
			k++
		}
	}
	return out
}

// refDecodeChunk reverses refEncodeChunkZones through refDecodeColumn, with
// the header, checksum and section handling DecodeChunk uses.
func refDecodeChunk(s *array.Schema, data []byte) (*array.Chunk, error) {
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
		err := cr.decodeSection(1+a, func(r *FieldReader) (err error) {
			ch.Cols[a], err = refDecodeColumn(r, s.Attrs[a], ch.Present)
			return err
		})
		if err != nil {
			return nil, err
		}
	}
	return ch, nil
}

// refDecodeColumn reverses refEncodeColumn for a chunk whose presence bitmap
// is present: a present-only column's values are decoded as a vector of the
// present slots and placed a slot at a time. Nested-array columns are not
// covered.
func refDecodeColumn(r *FieldReader, at array.Attribute, present *array.Bitmap) (*array.Column, error) {
	slots := present.Len()
	flags := r.U8()
	if r.Err() != nil {
		return nil, r.Err()
	}
	if flags&^uint8(colFlagsKnown) != 0 {
		return nil, fmt.Errorf("storage: unknown column flags %#x", flags)
	}
	presentOnly := flags&colFlagPresentOnly != 0
	if presentOnly && at.Type != array.TInt64 && at.Type != array.TFloat64 {
		return nil, fmt.Errorf("storage: present-only values in a %v column", at.Type)
	}
	nulls, err := readBitmap(r, slots)
	if err != nil {
		return nil, err
	}
	col := &array.Column{Type: at.Type, Nulls: nulls}
	if flags&colFlagZone != 0 {
		if at.Type == array.TArray {
			return nil, fmt.Errorf("storage: zone map on a nested-array column")
		}
		if col.Zone, err = decodeZoneMap(r, at.Type, slots); err != nil {
			return nil, err
		}
	}
	n := slots
	if presentOnly {
		if n = refCountPresent(present); n == slots {
			return nil, fmt.Errorf("storage: present-only values in a full chunk")
		}
	}
	switch at.Type {
	case array.TInt64:
		col.Ints, err = refDecodeIntValues(r, n)
		if err == nil && presentOnly {
			col.Ints = refScatter(col.Ints, present)
		}
	case array.TFloat64:
		col.Floats, err = refDecodeFloatValues(r, n)
		if err == nil && presentOnly {
			col.Floats = refScatter(col.Floats, present)
		}
	case array.TBool:
		col.Bools, err = refDecodeBoolValues(r, slots)
	case array.TString:
		col.Strs, err = refDecodeStringValues(r, slots)
	default:
		return nil, fmt.Errorf("reference: no decoder for %v columns", at.Type)
	}
	if err != nil {
		return nil, err
	}
	if flags&colFlagSigma != 0 {
		if !r.Need(n * 8) {
			return nil, r.Err()
		}
		col.Sigma = make([]float64, n)
		r.F64sInto(col.Sigma)
		if presentOnly {
			col.Sigma = refScatter(col.Sigma, present)
		}
	}
	if flags&colFlagShared != 0 {
		col.HasShared = true
		col.SharedSigma = r.F64()
	}
	return col, r.Err()
}

// refComputeZone builds a zone map for col restricted to the slots marked in
// present. Nested-array columns have no useful ordering and return nil.
func refComputeZone(col *array.Column, present *array.Bitmap) *array.ZoneMap {
	switch col.Type {
	case array.TInt64, array.TFloat64, array.TString, array.TBool:
	default:
		return nil
	}
	z := &array.ZoneMap{Kind: col.Type}
	n := col.Len()
	switch col.Type {
	case array.TInt64:
		distinct := make(map[int64]struct{}, 16)
		for i := int64(0); i < n; i++ {
			if !present.Get(i) {
				continue
			}
			if col.Nulls.Get(i) {
				z.Nulls++
				continue
			}
			v := col.Ints[i]
			if !z.HasRange {
				z.HasRange, z.MinInt, z.MaxInt = true, v, v
			} else if v < z.MinInt {
				z.MinInt = v
			} else if v > z.MaxInt {
				z.MaxInt = v
			}
			if distinct != nil {
				if distinct[v] = struct{}{}; len(distinct) > refZoneDistinctCap {
					distinct = nil
				}
			}
		}
		if distinct != nil {
			z.Distinct = int64(len(distinct))
		}
	case array.TFloat64:
		distinct := make(map[float64]struct{}, 16)
		for i := int64(0); i < n; i++ {
			if !present.Get(i) {
				continue
			}
			if col.Nulls.Get(i) {
				z.Nulls++
				continue
			}
			v := col.Floats[i]
			if math.IsNaN(v) {
				z.HasNaN = true
				continue
			}
			if !z.HasRange {
				z.HasRange, z.MinFloat, z.MaxFloat = true, v, v
			} else if v < z.MinFloat {
				z.MinFloat = v
			} else if v > z.MaxFloat {
				z.MaxFloat = v
			}
			if distinct != nil {
				if distinct[v] = struct{}{}; len(distinct) > refZoneDistinctCap {
					distinct = nil
				}
			}
		}
		if distinct != nil {
			z.Distinct = int64(len(distinct))
		}
	case array.TString:
		distinct := make(map[string]struct{}, 16)
		for i := int64(0); i < n; i++ {
			if !present.Get(i) {
				continue
			}
			if col.Nulls.Get(i) {
				z.Nulls++
				continue
			}
			v := col.Strs[i]
			if !z.HasRange {
				z.HasRange, z.MinStr, z.MaxStr = true, v, v
			} else if v < z.MinStr {
				z.MinStr = v
			} else if v > z.MaxStr {
				z.MaxStr = v
			}
			if distinct != nil {
				if distinct[v] = struct{}{}; len(distinct) > refZoneDistinctCap {
					distinct = nil
				}
			}
		}
		if distinct != nil {
			z.Distinct = int64(len(distinct))
		}
	case array.TBool:
		var seenTrue, seenFalse bool
		for i := int64(0); i < n; i++ {
			if !present.Get(i) {
				continue
			}
			if col.Nulls.Get(i) {
				z.Nulls++
				continue
			}
			if col.Bools[i] {
				seenTrue = true
			} else {
				seenFalse = true
			}
		}
		if seenTrue || seenFalse {
			z.HasRange = true
			if seenTrue {
				z.MaxInt = 1
			}
			if !seenFalse {
				z.MinInt = 1
			}
			z.Distinct = 1
			if seenTrue && seenFalse {
				z.Distinct = 2
			}
		}
	}
	return z
}
