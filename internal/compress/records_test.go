package compress

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// recordCase is an input AppendRecords meets: records of width bytes at
// [lo, hi) between a head and a tail.
type recordCase struct {
	name          string
	src           []byte
	lo, hi, width int
}

// recordCases builds records of every kind a column section holds — random,
// smooth and integer-valued floats, NaN payloads, signed zeros and
// infinities, extreme ints, RLE runs — behind a mostly-zero head and, some of
// them, before a tail, with regions below and above minPlanesRegion.
func recordCases() []recordCase {
	rng := rand.New(rand.NewSource(3))
	words := func(n int, v func(i int) uint64) []byte {
		b := make([]byte, 8*n)
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint64(b[8*i:], v(i))
		}
		return b
	}
	f := math.Float64bits
	specials := []uint64{f(0), f(math.Copysign(0, -1)), f(math.Inf(1)), f(math.Inf(-1)), f(1.5)}
	vals := map[string]func(i int) uint64{
		"random":   func(int) uint64 { return f(rng.NormFloat64() * 1e3) },
		"smooth":   func(i int) uint64 { return f(100 * math.Sin(float64(i)/50)) },
		"integral": func(int) uint64 { return f(float64(rng.Intn(4096))) },
		"nan":      func(int) uint64 { return 0x7ff8_0000_0000_0000 | rng.Uint64()&0x7_ffff_ffff_ffff },
		"specials": func(i int) uint64 { return specials[rng.Intn(len(specials))] },
		"extremes": func(i int) uint64 {
			return uint64([]int64{math.MinInt64, math.MaxInt64, 0, -1}[rng.Intn(4)] + int64(rng.Intn(3)))
		},
	}
	var out []recordCase
	for name, v := range vals {
		for _, n := range []int{1, 7, 300, 1100, 16384} {
			head := make([]byte, 40+n/8)
			head[0], head[len(head)-1] = 0x40, 2
			recs := words(n, v)
			tail := []byte{}
			if n%2 == 0 {
				tail = words(1, func(int) uint64 { return f(0.25) })
			}
			src := append(append(append([]byte{}, head...), recs...), tail...)
			out = append(out, recordCase{name, src, len(head), len(head) + len(recs), 8})
		}
	}
	// RLE runs: a u32 length and an 8-byte value each, lengths mostly short.
	for _, n := range []int{1, 500, 800, 5000} {
		src := binary.LittleEndian.AppendUint32([]byte{0x40}, uint32(n))
		for i := 0; i < n; i++ {
			src = binary.LittleEndian.AppendUint32(src, uint32(1+rng.Intn(3)*rng.Intn(40)))
			src = binary.LittleEndian.AppendUint64(src, f(float64(rng.Intn(2))*rng.Float64()))
		}
		out = append(out, recordCase{"rle", src, 5, len(src), 12})
	}
	return out
}

// TestAppendRecordsRoundTrip: every record input decodes back through Auto's
// Decode, and its encoding is never more than Auto's one tag byte over it.
func TestAppendRecordsRoundTrip(t *testing.T) {
	var planes int
	for _, c := range recordCases() {
		enc := (Auto{}).AppendRecords(nil, c.src, c.lo, c.hi, c.width)
		if len(enc) > 1+len(c.src) {
			t.Errorf("%s, %d bytes: encoded to %d", c.name, len(c.src), len(enc))
		}
		if enc[0] == tagPlanes {
			planes++
		}
		dec, err := sameInEveryRoom(t, Auto{}, enc)
		if err != nil || !bytes.Equal(dec, c.src) {
			t.Fatalf("%s, %d bytes (tag %d): round trip failed: %v", c.name, len(c.src), enc[0], err)
		}
		if got := (Auto{}).AppendRecords([]byte("x"), c.src, c.lo, c.hi, c.width); string(got[:1]) != "x" || !bytes.Equal(got[1:], enc) {
			t.Fatalf("%s, %d bytes: appended to a prefix, the encoding changes", c.name, len(c.src))
		}
		whole := (Auto{}).Encode(c.src)
		t.Logf("%-8s w%-2d %7d bytes: records %7d, whole %7d (tag %d)", c.name, c.width, len(c.src), len(enc), len(whole), enc[0])
	}
	if planes == 0 {
		t.Fatal("no input was encoded as planes")
	}
}

// TestAppendRecordsRejectsBadRegions: arguments that describe no records
// encode as Encode does, and so do records too few or too alike for planes.
func TestAppendRecordsRejectsBadRegions(t *testing.T) {
	src := make([]byte, 8192)
	rand.New(rand.NewSource(1)).Read(src)
	for i := range src {
		src[i] &= 0x0f // 4 bits a byte: planes shrink
	}
	if enc := (Auto{}).AppendRecords(nil, src, 0, len(src), 8); enc[0] != tagPlanes {
		t.Fatalf("%d bytes of records encoded with tag %d", len(src), enc[0])
	}
	for _, a := range [][3]int{{0, 0, 8}, {-8, 8192, 8}, {0, 8200, 8}, {0, 4088, 8}, {0, 8188, 8}, {0, 8192, 1}, {0, 8192, 17}, {0, 8192, 0}} {
		if got := (Auto{}).AppendRecords(nil, src, a[0], a[1], a[2]); !bytes.Equal(got, (Auto{}).Encode(src)) {
			t.Errorf("AppendRecords(lo %d, hi %d, width %d) differs from Encode", a[0], a[1], a[2])
		}
	}
	alike := bytes.Repeat(src[:8*fewRecords], 4)
	if got := (Auto{}).AppendRecords(nil, alike, 0, len(alike), 8); !bytes.Equal(got, (Auto{}).Encode(alike)) {
		t.Errorf("%d distinct records were split into planes", fewRecords)
	}
}

// planesInput returns a well-formed plane encoding of width-byte records
// whose planes are all raw, and the record bytes it holds.
func planesInput(width, n int) ([]byte, []byte) {
	recs := make([]byte, width*n)
	for i := range recs {
		recs[i] = byte(i * 7)
	}
	b := []byte{tagPlanes, byte(width)}
	b = binary.LittleEndian.AppendUint32(b, uint32(n))
	b = binary.LittleEndian.AppendUint32(b, 0)
	b = binary.LittleEndian.AppendUint32(b, 0)
	b = append(binary.LittleEndian.AppendUint32(b, 1), tagRaw)
	b = append(binary.LittleEndian.AppendUint32(b, 1), tagRaw)
	var planes [maxRecordWidth][]byte
	for k := 0; k < width; k++ {
		planes[k] = make([]byte, n)
	}
	split(&planes, recs, width, n)
	for k := 0; k < width; k++ {
		b = append(append(b, planeRaw), planes[k]...)
	}
	return b, recs
}

// TestAutoRecordsDecodeStrict: inconsistent widths and counts, blobs longer
// than their input, unknown plane kinds, trailing bytes, and a deflate
// stream that does not end where its plane does are all rejected.
func TestAutoRecordsDecodeStrict(t *testing.T) {
	good, recs := planesInput(3, 5)
	if dec, err := sameInEveryRoom(t, Auto{}, good); err != nil || !bytes.Equal(dec, recs) {
		t.Fatalf("well-formed input: %v", err)
	}
	// Two 64-byte planes, the first deflated with extra bytes in its stream.
	deflated := func(extra []byte) []byte {
		pw := new(planeWriter)
		if !pw.deflate(bytes.Repeat([]byte{9}, 64)) {
			t.Fatal("a constant plane did not deflate")
		}
		raw := append(pw.out.Bytes(), extra...)
		binary.LittleEndian.PutUint32(raw[1:], uint32(len(raw)-5))
		in := []byte{tagPlanes, 2}
		in = binary.LittleEndian.AppendUint32(in, 64)
		in = append(in, make([]byte, 8)...)
		in = append(binary.LittleEndian.AppendUint32(in, 1), tagRaw)
		in = append(binary.LittleEndian.AppendUint32(in, 1), tagRaw)
		in = append(in, raw...)
		return append(append(in, planeRaw), make([]byte, 64)...)
	}
	if _, err := sameInEveryRoom(t, Auto{}, deflated(nil)); err != nil {
		t.Fatalf("well-formed deflated plane: %v", err)
	}
	mutate := func(f func(b []byte) []byte) []byte { return f(append([]byte(nil), good...)) }
	for name, in := range map[string][]byte{
		"width 1":           mutate(func(b []byte) []byte { b[1] = 1; return b }),
		"width 17":          mutate(func(b []byte) []byte { b[1] = 17; return b }),
		"no records":        mutate(func(b []byte) []byte { copy(b[2:], []byte{0, 0, 0, 0}); return b }),
		"more records":      mutate(func(b []byte) []byte { b[2]++; return b }),
		"head too long":     mutate(func(b []byte) []byte { b[14] = 200; return b }),
		"head mismatch":     mutate(func(b []byte) []byte { b[6] = 1; return b }),
		"unknown kind":      mutate(func(b []byte) []byte { b[24] = 7; return b }),
		"trailing byte":     mutate(func(b []byte) []byte { return append(b, 0) }),
		"truncated":         good[:len(good)-1],
		"nested planes":     mutate(func(b []byte) []byte { b[18] = tagPlanes; return b }),
		"stream runs on":    deflated([]byte{0}),
		"header cut":        good[:10],
		"plane length cut":  deflated(nil)[:27],
		"deflate claims 2x": func() []byte { b := deflated(nil); b[2] = 128; return b }(),
	} {
		if _, err := sameInEveryRoom(t, Auto{}, in); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestAutoRecordsDecodeBounded: a plane encoding of a few dozen bytes that
// claims a GiB is refused before anything near that is allocated.
func TestAutoRecordsDecodeBounded(t *testing.T) {
	in := []byte{tagPlanes, 2}
	in = binary.LittleEndian.AppendUint32(in, 1<<29) // 2-byte records: 1 GiB
	in = append(in, make([]byte, 8)...)
	in = append(binary.LittleEndian.AppendUint32(in, 1), tagRaw)
	in = append(binary.LittleEndian.AppendUint32(in, 1), tagRaw)
	for k := 0; k < 2; k++ {
		in = append(binary.LittleEndian.AppendUint32(append(in, planeDeflate), 1), 0)
	}
	if len(in) > 64 {
		t.Fatalf("input is %d bytes", len(in))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := (Auto{}).Decode(nil, in)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a 1 GiB claim from a few bytes was accepted")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("rejecting it allocated %d bytes", got)
	}
}

// TestAppendRecordsAllocations: sealing a 16 384-slot float section as
// planes into a buffer with room allocates nothing: the staging, the planes
// and the deflaters are recycled.
func TestAppendRecordsAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	rng := rand.New(rand.NewSource(5))
	const slots = 16384
	src := make([]byte, 2100+8*slots)
	for i := 0; i < slots; i++ {
		binary.LittleEndian.PutUint64(src[2100+8*i:], math.Float64bits(rng.NormFloat64()))
	}
	dst := make([]byte, 0, len(src))
	if enc := (Auto{}).AppendRecords(dst, src, 2100, len(src), 8); enc[0] != tagPlanes {
		t.Fatalf("tag %d", enc[0])
	}
	if allocs := testing.AllocsPerRun(20, func() { (Auto{}).AppendRecords(dst, src, 2100, len(src), 8) }); allocs > 0 {
		t.Errorf("AppendRecords of a %d-slot section: %.1f allocations, want none", slots, allocs)
	}
}

// FuzzAutoRecords: arbitrary records round-trip through AppendRecords and
// Decode within Auto's bound, and arbitrary bytes behind the planes tag
// decode or fail, never panic. Every decode — of the encoding, of the bytes
// behind the planes tag, and of the bytes themselves by every codec — gives
// the same answer into a nil, short, exact, long or dirty room, an error
// with none of the room's bytes included.
func FuzzAutoRecords(f *testing.F) {
	for _, c := range recordCases() {
		if len(c.src) < 16<<10 {
			f.Add(c.src, c.lo, c.hi, c.width)
		}
	}
	good, _ := planesInput(3, 5)
	f.Add(good[1:], 0, 0, 0)
	f.Add([]byte{}, 0, 0, 8)
	f.Fuzz(func(t *testing.T, src []byte, lo, hi, width int) {
		enc := (Auto{}).AppendRecords(nil, src, lo, hi, width)
		if len(enc) > 1+len(src) {
			t.Fatalf("%d bytes encoded to %d", len(src), len(enc))
		}
		dec, err := sameInEveryRoom(t, Auto{}, enc)
		if err != nil || !bytes.Equal(dec, src) {
			t.Fatalf("round trip failed (tag %d): %v", enc[0], err)
		}
		_, _ = sameInEveryRoom(t, Auto{}, append([]byte{tagPlanes}, src...))
		for _, c := range append(All(), Auto{}) {
			_, _ = sameInEveryRoom(t, c, src)
		}
	})
}
