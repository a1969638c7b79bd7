package compress

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"testing/quick"
)

func roundTrip(t *testing.T, c Codec, data []byte) {
	t.Helper()
	enc := c.Encode(data)
	dec, err := sameInEveryRoom(t, c, enc)
	if err != nil {
		t.Fatalf("%s: decode: %v", c.Name(), err)
	}
	if !bytes.Equal(dec, data) {
		t.Fatalf("%s: round trip mismatch: %d bytes in, %d out", c.Name(), len(data), len(dec))
	}
}

// testRoom is a destination a decode is tried into.
type testRoom struct {
	name string
	dst  []byte
}

// rooms returns fresh destinations for a decode of n bytes: none, too short,
// exactly n, longer, and n and more full of bytes the decode must not serve.
func rooms(n int) []testRoom {
	return []testRoom{
		{"nil", nil},
		{"short", make([]byte, 0, n/2)},
		{"exact", make([]byte, 0, n)},
		{"long", make([]byte, 3, 2*n+16)},
		{"dirty", bytes.Repeat([]byte{0xa5}, n+9)[:5]},
	}
}

// sameInEveryRoom decodes src with c into nil, then into every room, and
// fails unless each decode agrees with the first: the same bytes — in the
// room itself where it holds them — or an error with no bytes at all. It
// returns the decode into nil.
func sameInEveryRoom(t testing.TB, c Codec, src []byte) ([]byte, error) {
	t.Helper()
	want, werr := c.Decode(nil, src)
	if werr != nil && want != nil {
		t.Fatalf("%s: error %v with %d bytes", c.Name(), werr, len(want))
	}
	n := len(want)
	if werr != nil {
		n = len(src)
	}
	for _, r := range rooms(n) {
		got, err := c.Decode(r.dst, src)
		switch {
		case (err == nil) != (werr == nil):
			t.Fatalf("%s, %s room: error %v, into nil %v", c.Name(), r.name, err, werr)
		case err != nil && got != nil:
			t.Fatalf("%s, %s room: error %v with %d bytes of the room", c.Name(), r.name, err, len(got))
		case err == nil && !bytes.Equal(got, want):
			t.Fatalf("%s, %s room: %d bytes differ from the %d decoded into nil", c.Name(), r.name, len(got), len(want))
		case err == nil && n > 0 && cap(r.dst) >= n && &got[0] != &r.dst[:1][0]:
			t.Fatalf("%s, %s room: %d bytes allocated beside a room of %d", c.Name(), r.name, n, cap(r.dst))
		}
	}
	return want, werr
}

func TestRoundTripAllCodecs(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	inputs := [][]byte{
		nil,
		{},
		{0},
		{1, 1, 1, 1, 1, 1},
		[]byte("hello world hello world"),
		make([]byte, 1000), // zeros
	}
	random := make([]byte, 4096)
	rng.Read(random)
	inputs = append(inputs, random)
	// Monotone int64 sequence (ideal for delta).
	mono := make([]byte, 8*512)
	for i := 0; i < 512; i++ {
		binary.LittleEndian.PutUint64(mono[i*8:], uint64(1000+i*3))
	}
	inputs = append(inputs, mono)
	// Non-multiple-of-8 length.
	inputs = append(inputs, random[:4097-84])

	codecs := append(All(), Auto{})
	for _, c := range codecs {
		for _, in := range inputs {
			roundTrip(t, c, in)
		}
	}
}

func TestRoundTripProperty(t *testing.T) {
	codecs := append(All(), Auto{})
	for _, c := range codecs {
		c := c
		f := func(data []byte) bool {
			dec, err := sameInEveryRoom(t, c, c.Encode(data))
			return err == nil && bytes.Equal(dec, data)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
			t.Errorf("%s: %v", c.Name(), err)
		}
	}
}

func TestDeltaCompressesMonotone(t *testing.T) {
	mono := make([]byte, 8*4096)
	for i := 0; i < 4096; i++ {
		binary.LittleEndian.PutUint64(mono[i*8:], uint64(100000+i))
	}
	enc := (Delta{}).Encode(mono)
	if len(enc) >= len(mono)/4 {
		t.Errorf("delta on monotone data: %d -> %d bytes; expected >=4x reduction", len(mono), len(enc))
	}
}

func TestRLECompressesConstant(t *testing.T) {
	data := bytes.Repeat([]byte{7}, 10000)
	enc := (RLE{}).Encode(data)
	if len(enc) >= len(data)/10 {
		t.Errorf("rle on constant data: %d -> %d bytes; expected >=10x reduction", len(data), len(enc))
	}
}

func TestGzipCompressesText(t *testing.T) {
	data := bytes.Repeat([]byte("the quick brown fox "), 500)
	enc := (Gzip{}).Encode(data)
	if len(enc) >= len(data)/5 {
		t.Errorf("gzip on text: %d -> %d bytes", len(data), len(enc))
	}
}

func TestAutoPicksSmallest(t *testing.T) {
	// Monotone floats: delta should win or at least beat raw.
	mono := make([]byte, 8*1024)
	for i := 0; i < 1024; i++ {
		binary.LittleEndian.PutUint64(mono[i*8:], math.Float64bits(float64(i)))
	}
	enc := (Auto{}).Encode(mono)
	if len(enc) >= len(mono)+1 {
		t.Errorf("auto did not compress monotone data: %d -> %d", len(mono), len(enc))
	}
	// Random data: auto must not blow up beyond raw+1.
	rng := rand.New(rand.NewSource(7))
	rnd := make([]byte, 4096)
	rng.Read(rnd)
	enc = (Auto{}).Encode(rnd)
	if len(enc) > len(rnd)+1 {
		t.Errorf("auto expanded random data: %d -> %d", len(rnd), len(enc))
	}
}

// autoReference is Auto.Encode as it was written first: every candidate
// materialised in full, each copied again behind its tag.
func autoReference(src []byte) []byte {
	best := append([]byte{tagRaw}, src...)
	nWords := len(src) / 8
	d := binary.LittleEndian.AppendUint64(nil, uint64(nWords))
	var prev uint64
	for i := 0; i < nWords; i++ {
		w := binary.LittleEndian.Uint64(src[i*8:])
		d = binary.AppendVarint(d, int64(w-prev))
		prev = w
	}
	d = append(d, src[nWords*8:]...)
	if len(d)+1 < len(best) {
		best = append([]byte{tagDelta}, d...)
	}
	if g := (Gzip{}).Encode(src); len(g)+1 < len(best) {
		best = append([]byte{tagGzip}, g...)
	}
	return best
}

// autoInputs are sections of every shape Auto meets, each named.
func autoInputs() map[string][]byte {
	rng := rand.New(rand.NewSource(11))
	in := map[string][]byte{"empty": {}}
	for n := 1; n <= 7; n++ {
		tail := make([]byte, n)
		rng.Read(tail)
		in[fmt.Sprintf("tail%d", n)] = tail
	}
	in["constant"] = bytes.Repeat([]byte{0x2a, 0, 0, 0, 0, 0, 0, 0}, 4096)
	inc := make([]byte, 8*4096+3) // slowly increasing int64 words, 3-byte tail
	for i := 0; i < 4096; i++ {
		binary.LittleEndian.PutUint64(inc[i*8:], uint64(1_000_000+i*3+rng.Intn(3)))
	}
	in["increasing"] = inc
	flt := make([]byte, 8*4096)
	for i := 0; i < 4096; i++ {
		binary.LittleEndian.PutUint64(flt[i*8:], math.Float64bits(rng.NormFloat64()))
	}
	in["random-float"] = flt
	in["gzipped"] = (Gzip{}).Encode(flt)
	return in
}

// TestAutoEncodeUnchanged: Auto's one-allocation encoder writes the same
// bytes, and so picks the same codec, as the reference on every input —
// stored buckets do not change.
func TestAutoEncodeUnchanged(t *testing.T) {
	tags := map[byte]bool{}
	for name, src := range autoInputs() {
		got, want := (Auto{}).Encode(src), autoReference(src)
		if got[0] != want[0] {
			t.Errorf("%s: tag %d, reference %d", name, got[0], want[0])
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: %d bytes differ from the reference's %d", name, len(got), len(want))
		}
		if cap(got) != len(got) {
			t.Errorf("%s: %d bytes in a %d-byte slice; the winner is not sized exactly", name, len(got), cap(got))
		}
		if d := deltaLen(src); d != len((Delta{}).Encode(src)) {
			t.Errorf("%s: deltaLen %d, Delta writes %d", name, d, len((Delta{}).Encode(src)))
		}
		tags[want[0]] = true
	}
	if len(tags) != 3 {
		t.Errorf("inputs chose tags %v; want raw, delta and gzip all covered", tags)
	}
}

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// TestAutoEncodeAllocations: sealing a section allocates the winner's copy
// and little else — no candidate is materialised beside it.
func TestAutoEncodeAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	src := make([]byte, 128<<10)
	for i := 0; i < len(src)/8; i++ {
		binary.LittleEndian.PutUint64(src[i*8:], uint64(5000+i/3))
	}
	if allocs := testing.AllocsPerRun(20, func() { (Auto{}).Encode(src) }); allocs > 2 {
		t.Errorf("Auto.Encode of 128 KiB: %.1f allocations, want ≤ 2", allocs)
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"none", "rle", "delta", "gzip", "auto"} {
		c, err := ByName(name)
		if err != nil || c.Name() != name {
			t.Errorf("ByName(%q) = %v, %v", name, c, err)
		}
	}
	if _, err := ByName("zstd"); err == nil {
		t.Error("unknown codec accepted")
	}
}

// TestDecodeCorrupt: each codec refuses a damaged input into every room,
// serving none of the room's bytes.
func TestDecodeCorrupt(t *testing.T) {
	rle := (RLE{}).Encode(bytes.Repeat([]byte{3}, 600))
	gz := (Gzip{}).Encode(bytes.Repeat([]byte("abc"), 100))
	for _, c := range []struct {
		name  string
		codec Codec
		in    []byte
	}{
		{"short rle", RLE{}, []byte{1, 2}},
		{"rle runs past its length", RLE{}, append(slices.Clone(rle), 1, 3)},
		{"rle short of its length", RLE{}, rle[:len(rle)-2]},
		{"short delta", Delta{}, []byte{1}},
		// Truncated delta varint stream.
		{"truncated delta", Delta{}, (Delta{}).Encode(bytes.Repeat([]byte{0xFF}, 64))[:9]},
		{"bad gzip", Gzip{}, []byte("not gzip")},
		{"gzip length off by one", Gzip{}, func() []byte {
			b := slices.Clone(gz)
			b[len(b)-4]++
			return b
		}()},
		{"empty auto", Auto{}, nil},
		{"bad auto tag", Auto{}, []byte{9}},
		{"auto delta truncated", Auto{}, append([]byte{tagDelta}, (Delta{}).Encode(bytes.Repeat([]byte{0xFF}, 64))[:9]...)},
	} {
		if _, err := sameInEveryRoom(t, c.codec, c.in); err == nil {
			t.Errorf("%s accepted", c.name)
		}
	}
}

// TestDecodeIntoRoomAllocations: a section sealed as planes — its head
// gzipped — decodes into a room that holds it with next to no allocation:
// what is left is the standard inflater's Huffman tables for long codes,
// not the output.
func TestDecodeIntoRoomAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	rng := rand.New(rand.NewSource(9))
	const slots = 16384
	src := make([]byte, 2100+8*slots)
	for i := 0; i < 2100; i++ {
		src[i] = byte(i % 7)
	}
	for i := 0; i < slots; i++ {
		binary.LittleEndian.PutUint64(src[2100+8*i:], math.Float64bits(rng.NormFloat64()))
	}
	enc := (Auto{}).AppendRecords(nil, src, 2100, len(src), 8)
	if enc[0] != tagPlanes || enc[1+planesHeader+4] != tagGzip {
		t.Fatalf("tag %d, head tag %d: want planes behind a gzipped head", enc[0], enc[1+planesHeader+4])
	}
	dst := make([]byte, len(src))
	decode := func() {
		if _, err := (Auto{}).Decode(dst, enc); err != nil {
			t.Fatal(err)
		}
	}
	decode()
	// The least of five trials: a collection between runs empties the pools.
	const runs = 20
	per := uint64(math.MaxUint64)
	for trial := 0; trial < 5; trial++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			decode()
		}
		runtime.ReadMemStats(&after)
		per = min(per, (after.TotalAlloc-before.TotalAlloc)/runs)
	}
	if per > uint64(len(src))/16 {
		t.Errorf("Auto.Decode of a %d-byte section into its room: %d bytes allocated, want under %d", len(src), per, len(src)/16)
	}
}
