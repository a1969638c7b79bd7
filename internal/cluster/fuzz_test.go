package cluster

import (
	"bytes"
	"math"
	"testing"

	"scidb/internal/ops"
)

// FuzzDecodeClusterMessage feeds arbitrary bytes to decodeMessage: it must
// return an error or a message, never panic or over-allocate on a poisoned
// length prefix; a successful decode must survive an encode/decode round
// trip unchanged (compared as bytes: a partial table may hold NaNs, which
// are not equal to themselves). The seeds cover the full field set
// (including a read's fold spec — with aggregates and, a count, without —
// its partial-table and seen-cells answers, a join read, and the exclusion
// and heat blocks),
// truncations, and a bit-flipped frame, so the fuzzer starts inside every
// block decoder.
func FuzzDecodeClusterMessage(f *testing.F) {
	for _, m := range []*Message{
		wireTestMessage(),
		{},
		{Op: "ping"},
		{Op: "loadchunks", Array: "a", BoxLo: []int64{1}, BoxHi: []int64{64}}, // a migrated chunk's release
		{Op: "loadchunks", Array: "a", BoxLo: []int64{1}, BoxHi: []int64{64}, Chunks: [][]byte{{0x01}}},
		{Op: "chunks", Held: []HeatSample{{Array: "a", Origin: []int64{1, 65}, Score: 7}}},
		{Op: "read", Array: "a", Fold: &ops.FoldSpec{Dims: []string{"x"}, Aggs: []ops.AggSpec{{Agg: "max", Attr: "v"}}}},
		{Op: "read", Array: "a", Fold: &ops.FoldSpec{}, ExclLo: [][]int64{{1}}, ExclHi: [][]int64{{64}}},
		{Op: "read", Array: "a", Join: "b"},
		{Op: "read", Cells: 3, Seen: 9, Chunks: [][]byte{{0, 0, 0, 0}}},
		{Op: "read", Table: &ops.FoldTable{Lo: []int64{0}, Shape: []int64{3}, Cells: []int64{4, 0, 2},
			Cols: []ops.FoldState{{N: []int64{4, 0, 1}, F: []float64{2.5, 0, math.NaN()}, M2: []float64{0.5, 0, 0}}}}},
	} {
		enc, err := encodeMessage(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
		f.Add(enc[:len(enc)/2])
		mut := append([]byte(nil), enc...)
		mut[len(mut)/2] ^= 0xFF
		f.Add(mut)
	}
	// The two rejections: presence bits this decoder does not know (1, the
	// retired stats block, and 4), and bytes left after the last block.
	plain, err := encodeMessage(&Message{Op: "ping"})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(append(append([]byte(nil), plain[:len(plain)-1]...), 1<<1|1<<4))
	f.Add(append(append([]byte(nil), plain...), 0x00, 0x42))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := decodeMessage(data)
		if err != nil {
			return
		}
		enc, err := encodeMessage(m)
		if err != nil {
			t.Fatalf("decoded message fails to re-encode: %v", err)
		}
		back, err := decodeMessage(enc)
		if err != nil {
			t.Fatalf("re-encoded message fails to decode: %v", err)
		}
		if enc2, err := encodeMessage(back); err != nil || !bytes.Equal(enc, enc2) {
			t.Fatalf("re-encode round trip mismatch (%v):\n in: %+v\nout: %+v", err, m, back)
		}
	})
}
