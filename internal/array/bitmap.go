package array

import "math/bits"

// Bitmap is a fixed-length bit set used for chunk presence and null masks.
type Bitmap struct {
	n     int64
	words []uint64
}

// NewBitmap allocates a cleared bitmap of n bits.
func NewBitmap(n int64) *Bitmap {
	return &Bitmap{n: n, words: make([]uint64, (n+63)/64)}
}

// Len returns the bit count.
func (b *Bitmap) Len() int64 { return b.n }

// Set sets bit i.
func (b *Bitmap) Set(i int64) { b.words[i>>6] |= 1 << uint(i&63) }

// Clear clears bit i.
func (b *Bitmap) Clear(i int64) { b.words[i>>6] &^= 1 << uint(i&63) }

// Get reports bit i.
func (b *Bitmap) Get(i int64) bool { return b.words[i>>6]&(1<<uint(i&63)) != 0 }

// SetAll sets every bit.
func (b *Bitmap) SetAll() {
	for i := range b.words {
		b.words[i] = ^uint64(0)
	}
	b.trim()
}

// Count returns the number of set bits. It only reads the bitmap, so
// parallel readers of a shared chunk may call it.
func (b *Bitmap) Count() int64 { return b.CountRange(0, b.n) }

// CountRange returns the number of set bits in [lo, hi), clamped to the
// bitmap's length. It is the ranged popcount the fold's count kernel uses
// per run of slots.
func (b *Bitmap) CountRange(lo, hi int64) int64 {
	// No trim here: the hi mask already excludes bits past hi-1, and
	// trimming would mutate a bitmap shared by parallel workers.
	w0, w1, loMask, hiMask, ok := b.span(lo, hi)
	if !ok {
		return 0
	}
	if w0 == w1 {
		return int64(bits.OnesCount64(b.words[w0] & loMask & hiMask))
	}
	n := bits.OnesCount64(b.words[w0] & loMask)
	for w := w0 + 1; w < w1; w++ {
		n += bits.OnesCount64(b.words[w])
	}
	n += bits.OnesCount64(b.words[w1] & hiMask)
	return int64(n)
}

// span clamps [lo, hi) to the bitmap and returns the first and last word it
// touches with the masks selecting its bits in them; ok is false when the
// range is empty.
func (b *Bitmap) span(lo, hi int64) (w0, w1 int64, loMask, hiMask uint64, ok bool) {
	if lo < 0 {
		lo = 0
	}
	if hi > b.n {
		hi = b.n
	}
	if lo >= hi {
		return 0, 0, 0, 0, false
	}
	return lo >> 6, (hi - 1) >> 6, ^uint64(0) << uint(lo&63), ^uint64(0) >> uint(63-(hi-1)&63), true
}

// CountPresentNotNull returns the number of slots in [lo, hi) that are set
// in present and clear in nulls — the cells an aggregate actually steps.
func CountPresentNotNull(present, nulls *Bitmap, lo, hi int64) int64 {
	n := present.n
	if nulls.n < n {
		n = nulls.n
	}
	if lo < 0 {
		lo = 0
	}
	if hi > n {
		hi = n
	}
	if lo >= hi {
		return 0
	}
	w0, w1 := lo>>6, (hi-1)>>6
	loMask := ^uint64(0) << uint(lo&63)
	hiMask := ^uint64(0) >> uint(63-(hi-1)&63)
	if w0 == w1 {
		return int64(bits.OnesCount64(present.words[w0] &^ nulls.words[w0] & loMask & hiMask))
	}
	c := bits.OnesCount64(present.words[w0] &^ nulls.words[w0] & loMask)
	for w := w0 + 1; w < w1; w++ {
		c += bits.OnesCount64(present.words[w] &^ nulls.words[w])
	}
	c += bits.OnesCount64(present.words[w1] &^ nulls.words[w1] & hiMask)
	return int64(c)
}

// Clone copies the bitmap.
func (b *Bitmap) Clone() *Bitmap {
	out := &Bitmap{n: b.n, words: append([]uint64(nil), b.words...)}
	return out
}

// Words exposes the raw words for serialization.
func (b *Bitmap) Words() []uint64 { return b.words }

// FromWords reconstructs a bitmap from serialized words.
func FromWords(n int64, words []uint64) *Bitmap {
	return &Bitmap{n: n, words: words}
}

// trim clears bits beyond n so Count stays exact after SetAll.
func (b *Bitmap) trim() {
	if b.n%64 == 0 || len(b.words) == 0 {
		return
	}
	last := len(b.words) - 1
	b.words[last] &= (1 << uint(b.n%64)) - 1
}

// ClearRange clears every bit in [lo, hi), clamped to the bitmap's length.
func (b *Bitmap) ClearRange(lo, hi int64) {
	w0, w1, loMask, hiMask, ok := b.span(lo, hi)
	if !ok {
		return
	}
	if w0 == w1 {
		b.words[w0] &^= loMask & hiMask
		return
	}
	b.words[w0] &^= loMask
	for w := w0 + 1; w < w1; w++ {
		b.words[w] = 0
	}
	b.words[w1] &^= hiMask
}

// OrRange sets every bit in [lo, hi) that is set in src, a bitmap of the
// same length: the word-at-a-time copy chunk masks are built with.
func (b *Bitmap) OrRange(src *Bitmap, lo, hi int64) {
	w0, w1, loMask, hiMask, ok := b.span(lo, hi)
	if !ok {
		return
	}
	if w0 == w1 {
		b.words[w0] |= src.words[w0] & loMask & hiMask
		return
	}
	b.words[w0] |= src.words[w0] & loMask
	for w := w0 + 1; w < w1; w++ {
		b.words[w] |= src.words[w]
	}
	b.words[w1] |= src.words[w1] & hiMask
}

// AndNot clears every bit that is set in o, a bitmap of the same length: a
// word at a time, the mask of a chunk version minus the slots a newer
// version of the same chunk holds.
func (b *Bitmap) AndNot(o *Bitmap) {
	for i, w := range o.words {
		b.words[i] &^= w
	}
}

// NextSet returns the index of the first set bit at or after i, or Len()
// when there is none. `for i := b.NextSet(0); i < b.Len(); i = b.NextSet(i+1)`
// visits the set bits in order, skipping clear words whole.
func (b *Bitmap) NextSet(i int64) int64 {
	if i < 0 {
		i = 0
	}
	for i < b.n {
		w := b.words[i>>6] >> uint(i&63)
		if w != 0 {
			if i += int64(bits.TrailingZeros64(w)); i < b.n {
				return i
			}
			return b.n
		}
		i = (i | 63) + 1
	}
	return b.n
}
