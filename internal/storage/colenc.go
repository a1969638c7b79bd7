package storage

// Lightweight per-column value encodings for the chunk format (the paper's
// §2.8 storage manager "compresses each bucket"; the general-purpose codec
// in internal/compress still runs over the whole bucket afterwards, but the
// encodings here exploit per-column structure the byte-level codecs cannot
// see: constant columns, runs, small integer deltas, low-cardinality
// strings).
//
// A column writes one tag byte after the null bitmap and zone map:
//
//	encRaw   — values verbatim
//	encConst — a single value covering every slot
//	encRLE   — u32 run count, then (u32 run length, value) pairs
//	encDelta — first value, u8 bit width, zigzag deltas bit-packed into
//	           little-endian u64 words (integer columns only)
//	encDict  — u32 dictionary size, the dictionary strings, u8 bit width,
//	           bit-packed dictionary indices (string columns only)
//
// The encoder chooses per column from one cheap stats pass (run count,
// all-equal, max zigzag delta width, distinct count) by computing each
// candidate's exact encoded size and keeping the smallest; encRaw is the
// universal fallback, so every column of every type always encodes. The
// vector is a column's slots, or — an int64 or float64 column of a chunk with
// absent slots (colFlagPresentOnly, encode.go) — its present slots only.
import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"

	"scidb/internal/array"
)

// Column-encoding tags.
const (
	encRaw   = 0
	encConst = 1
	encRLE   = 2
	encDelta = 3
	encDict  = 4
)

// maxDictSize caps the string dictionary the encoder will build; columns
// with more distinct values fall back to RLE or raw.
const maxDictSize = 1 << 12

// zigzag maps a signed delta to an unsigned value with small magnitudes
// near zero (two's-complement wrap-around is intentional: decode adds the
// delta back with the same wrapping arithmetic).
func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

// unzigzag reverses zigzag.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// packedWords returns the number of u64 words needed to hold count values
// of the given bit width.
func packedWords(count int64, width uint) int64 {
	if width == 0 || count <= 0 {
		return 0
	}
	return (count*int64(width) + 63) / 64
}

// bitPacker packs values of one bit width LSB-first into little-endian u64
// words, a word at a time: the one pack routine, which the delta and
// dictionary encoders feed a value (< 2^width) at a time.
type bitPacker struct {
	words []uint64
	cur   uint64 // the word being filled
	used  uint   // its bits taken
	width uint
}

func (p *bitPacker) put(v uint64) {
	p.cur |= v << p.used
	if p.used += p.width; p.used >= 64 {
		p.words = append(p.words, p.cur)
		p.used -= 64
		p.cur = v >> (p.width - p.used)
	}
}

// writePacked writes the values pack puts at width — a u32 word count, then
// the words — with w's packer, whose words are reused. A zero width packs
// nothing (every value is zero by construction).
func writePacked(w *FieldWriter, width uint, pack func(p *bitPacker)) {
	p := &w.pk
	*p = bitPacker{words: p.words[:0], width: width}
	if width > 0 {
		pack(p)
		if p.used > 0 {
			p.words = append(p.words, p.cur)
		}
	}
	w.U32(uint32(len(p.words)))
	w.U64sRaw(p.words)
}

// bitUnpacker reads packed values back a value at a time, straight from the
// words' little-endian bytes: the one unpack routine.
type bitUnpacker struct {
	p     []byte // the words not yet loaded
	cur   uint64 // the word being read
	left  uint   // its bits not yet read
	width uint
	mask  uint64
}

func (u *bitUnpacker) next() uint64 {
	if u.left == 0 {
		u.cur, u.p, u.left = binary.LittleEndian.Uint64(u.p), u.p[8:], 64
	}
	v := u.cur >> (64 - u.left)
	if u.left >= u.width {
		u.left -= u.width
		return v & u.mask
	}
	// The value straddles into the next word.
	u.cur, u.p = binary.LittleEndian.Uint64(u.p), u.p[8:]
	v |= u.cur << u.left
	u.left += 64 - u.width
	return v & u.mask
}

// readPacked reads what writePacked wrote for count values of width: it
// checks the word count against them and against the bytes that remain, and
// unpacks from those bytes where they lie.
func readPacked(r *FieldReader, count int64, width uint) (bitUnpacker, error) {
	n := int64(r.U32())
	if want := packedWords(count, width); n != want {
		return bitUnpacker{}, fmt.Errorf("storage: packed column has %d words, want %d", n, want)
	}
	if !r.Need(n * 8) {
		return bitUnpacker{}, r.Err()
	}
	u := bitUnpacker{p: r.next(int(n * 8)), width: width, mask: ^uint64(0) >> (64 - width)}
	if width == 0 {
		u.left = 64 // every value is zero: no word to load
	}
	return u, r.Err()
}

// encodeIntValues picks and writes the cheapest encoding for an integer
// vector: const, RLE, delta+bit-packing, or raw.
func encodeIntValues(w *FieldWriter, vals []int64) {
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
		writePacked(w, width, func(p *bitPacker) {
			for i := 1; i < n; i++ {
				p.put(zigzag(vals[i] - vals[i-1]))
			}
		})
	case rleSize < rawSize:
		w.U8(encRLE)
		w.U32(uint32(runs))
		st := w.stage()
		for i := 0; i < n; {
			j := i + 1
			for j < n && vals[j] == vals[i] {
				j++
			}
			st.room(12)
			st.b = binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint32(st.b, uint32(j-i)), uint64(vals[i]))
			i = j
		}
		st.flush()
	default:
		w.U8(encRaw)
		w.I64sRaw(vals)
	}
}

// decodeIntValues reverses encodeIntValues of n values (n is the chunk's
// slots but for a present-only column).
func decodeIntValues(r *FieldReader, n int64) ([]int64, error) {
	tag := r.U8()
	if n == 0 {
		return nil, r.Err()
	}
	switch tag {
	case encRaw:
		if !r.Need(n * 8) {
			return nil, r.Err()
		}
		out := make([]int64, n)
		r.I64sInto(out)
		return out, r.Err()
	case encConst:
		v := r.I64()
		if r.Err() != nil {
			return nil, r.Err()
		}
		out := make([]int64, n)
		for i := range out {
			out[i] = v
		}
		return out, nil
	case encRLE:
		return decodeRLE(r, n, 8, func(b []byte) int64 { return int64(binary.LittleEndian.Uint64(b)) }, r.I64)
	case encDelta:
		first := r.I64()
		width := uint(r.U8())
		if r.Err() != nil {
			return nil, r.Err()
		}
		if width > 64 {
			return nil, fmt.Errorf("storage: delta column bit width %d", width)
		}
		u, err := readPacked(r, n-1, width)
		if err != nil {
			return nil, err
		}
		out := make([]int64, n)
		out[0] = first
		for i := int64(1); i < n; i++ {
			out[i] = out[i-1] + unzigzag(u.next())
		}
		return out, nil
	}
	return nil, fmt.Errorf("storage: unknown int column encoding %d", tag)
}

// encodeFloatValues picks const, RLE, or raw for a float vector. Run
// detection compares IEEE-754 bit images so NaNs and signed zeros
// round-trip byte-exactly.
func encodeFloatValues(w *FieldWriter, vals []float64) {
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
		st := w.stage()
		for i := 0; i < n; {
			v := math.Float64bits(vals[i])
			j := i + 1
			for j < n && math.Float64bits(vals[j]) == v {
				j++
			}
			st.room(12)
			st.b = binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint32(st.b, uint32(j-i)), v)
			i = j
		}
		st.flush()
	default:
		w.U8(encRaw)
		w.F64sRaw(vals)
	}
}

// decodeFloatValues reverses encodeFloatValues as decodeIntValues does.
func decodeFloatValues(r *FieldReader, n int64) ([]float64, error) {
	tag := r.U8()
	if n == 0 {
		return nil, r.Err()
	}
	switch tag {
	case encRaw:
		if !r.Need(n * 8) {
			return nil, r.Err()
		}
		out := make([]float64, n)
		r.F64sInto(out)
		return out, r.Err()
	case encConst:
		v := r.F64()
		if r.Err() != nil {
			return nil, r.Err()
		}
		out := make([]float64, n)
		for i := range out {
			out[i] = v
		}
		return out, nil
	case encRLE:
		return decodeRLE(r, n, 8, func(b []byte) float64 { return math.Float64frombits(binary.LittleEndian.Uint64(b)) }, r.F64)
	}
	return nil, fmt.Errorf("storage: unknown float column encoding %d", tag)
}

// encodeBoolValues picks const, RLE, or raw for a bool vector.
func encodeBoolValues(w *FieldWriter, vals []bool) {
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
		st := w.stage()
		for i := 0; i < n; {
			j := i + 1
			for j < n && vals[j] == vals[i] {
				j++
			}
			st.room(5)
			st.b = append(binary.LittleEndian.AppendUint32(st.b, uint32(j-i)), boolByte(vals[i]))
			i = j
		}
		st.flush()
	default:
		w.U8(encRaw)
		st := w.stage()
		for _, v := range vals {
			st.room(1)
			st.b = append(st.b, boolByte(v))
		}
		st.flush()
	}
}

// boolByte is a bool's one-byte form.
func boolByte(v bool) byte {
	if v {
		return 1
	}
	return 0
}

// decodeBoolValues reverses encodeBoolValues.
func decodeBoolValues(r *FieldReader, slots int64) ([]bool, error) {
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
		return decodeRLE(r, slots, 1, func(b []byte) bool { return b[0] != 0 }, r.Bool)
	}
	return nil, fmt.Errorf("storage: unknown bool column encoding %d", tag)
}

// encodeStringValues picks const, dict, RLE, or raw for a string vector.
func encodeStringValues(w *FieldWriter, vals []string) {
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
		st := w.stage()
		for _, s := range order {
			st.str(s)
		}
		st.flush()
		w.U8(uint8(width))
		writePacked(w, width, func(p *bitPacker) {
			for _, v := range vals {
				p.put(dict[v])
			}
		})
	case rleSize < rawSize:
		w.U8(encRLE)
		w.U32(uint32(runs))
		st := w.stage()
		for i := 0; i < n; {
			j := i + 1
			for j < n && vals[j] == vals[i] {
				j++
			}
			st.room(4)
			st.b = binary.LittleEndian.AppendUint32(st.b, uint32(j-i))
			st.str(vals[i])
			i = j
		}
		st.flush()
	default:
		w.U8(encRaw)
		st := w.stage()
		for _, v := range vals {
			st.str(v)
		}
		st.flush()
	}
}

// decodeStringValues reverses encodeStringValues.
func decodeStringValues(r *FieldReader, slots int64) ([]string, error) {
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
		return decodeRLE(r, slots, 0, nil, r.String)
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
		u, err := readPacked(r, slots, width)
		if err != nil {
			return nil, err
		}
		out := make([]string, slots)
		for i := range out {
			idx := u.next()
			if idx >= uint64(dictLen) {
				return nil, fmt.Errorf("storage: dict index %d out of range %d", idx, dictLen)
			}
			out[i] = dict[idx]
		}
		return out, nil
	}
	return nil, fmt.Errorf("storage: unknown string column encoding %d", tag)
}

// decodeRLE reads a run-length vector of n values — a u32 run count, then per
// run a u32 length and a value, the lengths summing to n — bounding the
// count against the bytes that remain first. A run whose record (length plus size value bytes, which at
// decodes) lies whole in a slice reader's buffer is taken from it in one
// piece; any other, and every run when at is nil, is read field by field
// with read, so a table cut short fails as the reader does.
func decodeRLE[T any](r *FieldReader, n int64, size int, at func([]byte) T, read func() T) ([]T, error) {
	runs := int64(r.U32())
	// Each run costs at least a u32 length plus a 1-byte value.
	if !r.Need(runs * 5) {
		return nil, r.Err()
	}
	out := make([]T, n)
	var total int64
	for range runs {
		var rec []byte
		if at != nil {
			rec = r.whole(4 + size)
		}
		var run int64
		if rec != nil {
			run = int64(binary.LittleEndian.Uint32(rec))
		} else if run = int64(r.U32()); r.Err() != nil {
			return nil, r.Err()
		}
		if run <= 0 || total+run > n {
			return nil, fmt.Errorf("storage: RLE runs exceed %d slots", n)
		}
		var v T
		if rec != nil {
			v = at(rec[4:])
		} else if v = read(); r.Err() != nil {
			return nil, r.Err()
		}
		for i := total; i < total+run; i++ {
			out[i] = v
		}
		total += run
	}
	if total != n {
		return nil, fmt.Errorf("storage: RLE runs cover %d of %d slots", total, n)
	}
	return out, nil
}

// Zone-map kind tags (serialized behind colFlagZone, see encode.go).
const (
	zoneInt    = 1
	zoneFloat  = 2
	zoneString = 3
	zoneBool   = 4
)

// Zone-map flag bits.
const (
	zoneHasRange = 1 << 0
	zoneHasNaN   = 1 << 1

	zoneFlagsKnown = zoneHasRange | zoneHasNaN
)

// encodeZoneMap serializes a per-column zone map: kind tag, flags, null
// count, distinct hint, then the min/max pair when a range exists.
func encodeZoneMap(w *FieldWriter, z *array.ZoneMap) {
	var kind uint8
	switch z.Kind {
	case array.TInt64:
		kind = zoneInt
	case array.TFloat64:
		kind = zoneFloat
	case array.TString:
		kind = zoneString
	case array.TBool:
		kind = zoneBool
	}
	w.U8(kind)
	var fl uint8
	if z.HasRange {
		fl |= zoneHasRange
	}
	if z.HasNaN {
		fl |= zoneHasNaN
	}
	w.U8(fl)
	w.I64(z.Nulls)
	w.I64(z.Distinct)
	if !z.HasRange {
		return
	}
	switch z.Kind {
	case array.TInt64, array.TBool:
		w.I64(z.MinInt)
		w.I64(z.MaxInt)
	case array.TFloat64:
		w.F64(z.MinFloat)
		w.F64(z.MaxFloat)
	case array.TString:
		w.String(z.MinStr)
		w.String(z.MaxStr)
	}
}

// decodeZoneMap reverses encodeZoneMap, validating every field against the
// column it describes: the kind must match the attribute type, counts must
// fit in the slot budget, and bounds must be ordered (and, for floats,
// non-NaN — NaN presence travels in the flag, never in the range). A zone
// map that fails validation poisons the chunk decode; pruning on a corrupt
// range would silently drop cells.
func decodeZoneMap(r *FieldReader, want array.Type, slots int64) (*array.ZoneMap, error) {
	kind := r.U8()
	fl := r.U8()
	nulls := r.I64()
	distinct := r.I64()
	if r.Err() != nil {
		return nil, r.Err()
	}
	if fl&^uint8(zoneFlagsKnown) != 0 {
		return nil, fmt.Errorf("storage: unknown zone-map flags %#x", fl)
	}
	if nulls < 0 || nulls > slots {
		return nil, fmt.Errorf("storage: zone-map null count %d outside %d slots", nulls, slots)
	}
	if distinct < 0 || distinct > slots {
		return nil, fmt.Errorf("storage: zone-map distinct hint %d outside %d slots", distinct, slots)
	}
	z := &array.ZoneMap{
		HasRange: fl&zoneHasRange != 0,
		HasNaN:   fl&zoneHasNaN != 0,
		Nulls:    nulls,
		Distinct: distinct,
	}
	var wantKind uint8
	switch want {
	case array.TInt64:
		wantKind = zoneInt
	case array.TFloat64:
		wantKind = zoneFloat
	case array.TString:
		wantKind = zoneString
	case array.TBool:
		wantKind = zoneBool
	}
	if kind != wantKind {
		return nil, fmt.Errorf("storage: zone-map kind %d for column type %v", kind, want)
	}
	if z.HasNaN && kind != zoneFloat {
		return nil, fmt.Errorf("storage: zone-map NaN flag on non-float column")
	}
	z.Kind = want
	if !z.HasRange {
		return z, r.Err()
	}
	switch kind {
	case zoneInt, zoneBool:
		z.MinInt = r.I64()
		z.MaxInt = r.I64()
		if r.Err() != nil {
			return nil, r.Err()
		}
		if z.MinInt > z.MaxInt {
			return nil, fmt.Errorf("storage: zone-map int bounds inverted [%d,%d]", z.MinInt, z.MaxInt)
		}
		if kind == zoneBool && (z.MinInt < 0 || z.MaxInt > 1) {
			return nil, fmt.Errorf("storage: zone-map bool bounds [%d,%d]", z.MinInt, z.MaxInt)
		}
	case zoneFloat:
		z.MinFloat = r.F64()
		z.MaxFloat = r.F64()
		if r.Err() != nil {
			return nil, r.Err()
		}
		if math.IsNaN(z.MinFloat) || math.IsNaN(z.MaxFloat) || z.MinFloat > z.MaxFloat {
			return nil, fmt.Errorf("storage: zone-map float bounds inverted [%v,%v]", z.MinFloat, z.MaxFloat)
		}
	case zoneString:
		z.MinStr = r.String()
		z.MaxStr = r.String()
		if r.Err() != nil {
			return nil, r.Err()
		}
		if z.MinStr > z.MaxStr {
			return nil, fmt.Errorf("storage: zone-map string bounds inverted [%q,%q]", z.MinStr, z.MaxStr)
		}
	}
	return z, r.Err()
}
