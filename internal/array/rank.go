package array

import (
	"fmt"
	"math/bits"
	"slices"
)

// Column representation. A column is open or sealed. An open column's value
// vectors (Ints, Floats, Strs, Bools, Arrs and Sigma) hold one entry per slot
// of its chunk: slot i's value is at i, and an absent slot's entry is unused.
// A sealed column's hold one entry per present slot, in slot order: slot i's
// value is at its rank, the number of present slots below i, which the
// column's Rank answers in O(1). Nulls is slot-indexed either way. A full
// chunk is both at once (rank(i) = i) and carries no Rank, so every dense
// path reads its vectors exactly as an open column's.
//
// Cell-at-a-time writers (Array.Set and Slot, the ingest fill, a store's
// memory buffer) write open chunks; Chunk.Seal packs one. The storage
// decoder and ChunkBuilder — every operator's output — produce sealed
// chunks directly. A writer that reaches a sealed partial chunk through an
// Array unpacks it once (Chunk.Open).

// Rank is the rank directory of a sealed partial chunk: for each 64-slot word
// of the chunk's presence bitmap, the number of present slots before it. The
// bitmap is the chunk's own, shared; it is never written while a rank refers
// to it, since Chunk.Open gives the chunk a fresh one before any write. A nil
// *Rank is the identity: every method answers as for a full chunk.
type Rank struct {
	present *Bitmap
	base    []int32
}

// NewRank builds the rank directory of present, or returns nil when every
// slot is present.
func NewRank(present *Bitmap) *Rank {
	if present.Count() == present.n {
		return nil
	}
	words := present.words
	r := &Rank{present: present, base: make([]int32, len(words))}
	var n int32
	for wi, w := range words {
		r.base[wi] = n
		if rest := present.n - int64(wi)<<6; rest < 64 {
			w &= 1<<uint(rest) - 1
		}
		n += int32(bits.OnesCount64(w))
	}
	return r
}

// Of returns the value index of present slot i.
func (r *Rank) Of(i int64) int64 {
	if r == nil {
		return i
	}
	return int64(r.base[i>>6]) + int64(bits.OnesCount64(r.present.words[i>>6]&(1<<uint(i&63)-1)))
}

// Base returns the value index of the first present slot of word wi: where
// a word whose 64 slots are all present has its 64 values.
func (r *Rank) Base(wi int64) int64 {
	if r == nil {
		return wi << 6
	}
	return int64(r.base[wi])
}

// At returns the value index of present slot b of word wi.
func (r *Rank) At(wi int64, b int) int64 {
	if r == nil {
		return wi<<6 + int64(b)
	}
	return int64(r.base[wi]) + int64(bits.OnesCount64(r.present.words[wi]&(1<<uint(b)-1)))
}

// Word returns presence word wi: the slots of the word that have a value.
func (r *Rank) Word(wi int64) uint64 {
	if r == nil {
		return ^uint64(0)
	}
	return r.present.words[wi]
}

// Bytes is the directory's size, for memory accounting.
func (r *Rank) Bytes() int64 {
	if r == nil {
		return 0
	}
	return int64(len(r.base)) * 4
}

// Pack returns dst — a fresh vector when dst is nil — grown as needed, holding the values of vals — a
// slot-sized vector — at the slots present marks, in slot order: a presence
// word at a time, a full word's 64 values in one copy.
func Pack[T any](dst, vals []T, present *Bitmap) []T {
	n := present.Count()
	if dst == nil || cap(dst) < int(n) {
		dst = make([]T, n)
	}
	dst = dst[:n]
	slots, k := present.n, 0
	for wi, word := range present.words {
		base := int64(wi) << 6
		if rest := slots - base; rest < 64 {
			word &= 1<<uint(rest) - 1
		}
		if word == ^uint64(0) {
			k += copy(dst[k:], vals[base:base+64])
			continue
		}
		for ; word != 0; word &= word - 1 {
			dst[k] = vals[base+int64(bits.TrailingZeros64(word))]
			k++
		}
	}
	return dst
}

// Unpack reverses Pack into a fresh slot-sized vector: the values of vals
// move out to the slots present marks, every other slot left zero.
func Unpack[T any](vals []T, present *Bitmap) []T {
	out := make([]T, present.n)
	k := 0
	for wi, word := range present.words {
		base := int64(wi) << 6
		if rest := present.n - base; rest < 64 {
			word &= 1<<uint(rest) - 1
		}
		if word == ^uint64(0) {
			k += copy(out[base:base+64], vals[k:])
			continue
		}
		for ; word != 0; word &= word - 1 {
			out[base+int64(bits.TrailingZeros64(word))] = vals[k]
			k++
		}
	}
	return out
}

// Rank returns the column's rank directory: nil when the column holds one
// value per slot.
func (c *Column) Rank() *Rank { return c.rank }

// Packed records that c's vectors hold one value per present slot of r's
// chunk — a decoder's present-only vectors — and returns c. A nil r leaves c
// one value per slot.
func (c *Column) Packed(r *Rank) *Column {
	c.rank = r
	return c
}

// Index returns where present slot i's value sits in the column's vectors.
func (c *Column) Index(i int64) int64 { return c.rank.Of(i) }

// Seal packs an open column — one value per slot — under r, its chunk's
// rank directory.
func (c *Column) Seal(r *Rank) {
	p := r.present
	switch c.Type {
	case TInt64:
		c.Ints = Pack(nil, c.Ints, p)
	case TFloat64:
		c.Floats = Pack(nil, c.Floats, p)
	case TString:
		c.Strs = Pack(nil, c.Strs, p)
	case TBool:
		c.Bools = Pack(nil, c.Bools, p)
	case TArray:
		c.Arrs = Pack(nil, c.Arrs, p)
	}
	if c.Sigma != nil {
		c.Sigma = Pack(nil, c.Sigma, p)
	}
	c.rank = r
}

// open unpacks a sealed column to one value per slot.
func (c *Column) open() {
	p := c.rank.present
	switch c.Type {
	case TInt64:
		c.Ints = Unpack(c.Ints, p)
	case TFloat64:
		c.Floats = Unpack(c.Floats, p)
	case TString:
		c.Strs = Unpack(c.Strs, p)
	case TBool:
		c.Bools = Unpack(c.Bools, p)
	case TArray:
		c.Arrs = Unpack(c.Arrs, p)
	}
	if c.Sigma != nil {
		c.Sigma = Unpack(c.Sigma, p)
	}
	c.rank = nil
}

// Sealed reports whether the chunk's columns hold present values only: it
// is partial and sealed. A full chunk is never sealed, nor does it need to
// be.
func (ch *Chunk) Sealed() bool {
	for _, c := range ch.Cols {
		if c != nil && c.rank != nil {
			return true
		}
	}
	return false
}

// Seal packs the chunk's open columns when some slot is absent. Present must
// not be written afterwards but through Open. A chunk is sealed before it
// enters an Array (PutChunk), never while one holds it: the Array checks a
// chunk for writers once, when it caches it.
func (ch *Chunk) Seal() {
	r := NewRank(ch.Present)
	if r == nil {
		return
	}
	for _, c := range ch.Cols {
		if c != nil && c.rank == nil {
			c.Seal(r)
		}
	}
}

// Open unpacks a sealed chunk's columns to one value per slot, so that
// cells may be written and erased, and gives the chunk a copy of its
// presence bitmap to write: the one the rank directories refer to stays as
// it was, for any other holder of them. The chunk forgets the payload it
// kept (KeepEncoded), which its writes would leave stale.
func (ch *Chunk) Open() {
	ch.encoded, ch.encodedAs = nil, nil
	if !ch.Sealed() {
		return
	}
	for _, c := range ch.Cols {
		if c != nil && c.rank != nil {
			c.open()
		}
	}
	ch.Present = ch.Present.Clone()
}

// ChunkBuilder writes a sealed chunk in slot order, one present cell at a
// time: Add takes the next present slot, then each column of Cols takes that
// slot's value through an Append method, and Chunk seals the result. It is
// how operators write their outputs, so a sparse output never holds a value
// per slot of its box.
type ChunkBuilder struct {
	ch        *Chunk
	words     []uint64 // ch's presence words
	next      int64    // the lowest slot Add may take
	unordered bool     // some Add broke the order
}

// NewChunkBuilder starts a chunk of schema s at origin with the given shape;
// hint is the number of cells expected, to size the value vectors.
func NewChunkBuilder(s *Schema, origin Coord, shape []int64, hint int64) *ChunkBuilder {
	n := int64(1)
	for _, e := range shape {
		n *= e
	}
	hint = min(max(hint, 0), n)
	ch := &Chunk{Origin: origin.Clone(), Shape: append([]int64(nil), shape...), Present: NewBitmap(n)}
	ch.Cols = make([]*Column, len(s.Attrs))
	for i, a := range s.Attrs {
		ch.Cols[i] = newColumn(a, n, 0, hint)
	}
	return &ChunkBuilder{ch: ch, words: ch.Present.words}
}

// Cols returns the columns under construction.
func (b *ChunkBuilder) Cols() []*Column { return b.ch.Cols }

// Add marks slot present. Slots must be added in ascending order, each
// once — Chunk panics otherwise — and every column must then append one
// value for it.
func (b *ChunkBuilder) Add(slot int64) {
	b.unordered = b.unordered || slot < b.next
	b.words[slot>>6] |= 1 << uint(slot&63)
	b.next = slot + 1
}

// AddWord marks present the slots of presence word wi that w names: Add for
// 64 slots at once, under the same order, and every column must then append
// one value for each of them (AppendWord).
func (b *ChunkBuilder) AddWord(wi int64, w uint64) {
	if w == 0 {
		return
	}
	b.unordered = b.unordered || wi<<6+int64(bits.TrailingZeros64(w)) < b.next
	b.words[wi] |= w
	b.next = wi<<6 + 64 - int64(bits.LeadingZeros64(w))
}

// Chunk seals and returns the chunk built, or nil when no cell was added.
// The builder must not be used afterwards.
func (b *ChunkBuilder) Chunk() *Chunk {
	if b.unordered {
		panic("array: ChunkBuilder slots added out of order")
	}
	n := b.ch.Present.Count()
	if n == 0 {
		return nil
	}
	r := NewRank(b.ch.Present)
	for _, c := range b.ch.Cols {
		if c.values() != n {
			panic(fmt.Sprintf("array: ChunkBuilder column holds %d values for %d cells", c.values(), n))
		}
		c.rank = r
	}
	return b.ch
}

// values returns the length of the column's value vector.
func (c *Column) values() int64 {
	switch c.Type {
	case TInt64:
		return int64(len(c.Ints))
	case TFloat64:
		return int64(len(c.Floats))
	case TString:
		return int64(len(c.Strs))
	case TBool:
		return int64(len(c.Bools))
	case TArray:
		return int64(len(c.Arrs))
	}
	return 0
}

// AppendNull appends a NULL as the value of slot i, the slot just added to
// the column's ChunkBuilder.
func (c *Column) AppendNull(i int64) {
	c.Nulls.Set(i)
	switch c.Type {
	case TInt64:
		c.Ints = append(c.Ints, 0)
	case TFloat64:
		c.Floats = append(c.Floats, 0)
	case TString:
		c.Strs = append(c.Strs, "")
	case TBool:
		c.Bools = append(c.Bools, false)
	case TArray:
		c.Arrs = append(c.Arrs, nil)
	}
	if c.Sigma != nil {
		c.Sigma = append(c.Sigma, 0)
	}
}

// AppendInt appends v as the value of slot i of an int64 column.
func (c *Column) AppendInt(i int64, v int64) { c.Ints = append(c.Ints, v) }

// AppendFloat appends v, with error bar sigma, as the value of slot i of a
// float64 column.
func (c *Column) AppendFloat(i int64, v, sigma float64) {
	c.Floats = append(c.Floats, v)
	if c.Sigma != nil {
		c.Sigma = append(c.Sigma, sigma)
	}
}

// Append appends v as the value of slot i, converting numerics as Set does.
func (c *Column) Append(i int64, v Value) {
	if v.Null {
		c.AppendNull(i)
		return
	}
	switch c.Type {
	case TInt64:
		c.AppendInt(i, v.AsInt())
	case TFloat64:
		c.AppendFloat(i, v.AsFloat(), v.Sigma)
	case TString:
		c.Strs = append(c.Strs, v.Str)
	case TBool:
		c.Bools = append(c.Bools, v.Bool)
	case TArray:
		c.Arrs = append(c.Arrs, v.Arr)
	}
}

// AppendFrom appends slot src of o as the value of slot i: CopyFrom for a
// ChunkBuilder's column, preserving nulls and error bars.
func (c *Column) AppendFrom(o *Column, i, src int64) {
	if o.Type != c.Type {
		c.Append(i, o.Get(src))
		return
	}
	if o.Nulls.Get(src) {
		c.AppendNull(i)
		return
	}
	k := o.rank.Of(src)
	switch c.Type {
	case TInt64:
		c.Ints = append(c.Ints, o.Ints[k])
	case TFloat64:
		c.Floats = append(c.Floats, o.Floats[k])
	case TString:
		c.Strs = append(c.Strs, o.Strs[k])
	case TBool:
		c.Bools = append(c.Bools, o.Bools[k])
	case TArray:
		c.Arrs = append(c.Arrs, o.Arrs[k])
	}
	if c.Sigma != nil {
		c.Sigma = append(c.Sigma, o.sigmaAt(k))
	}
}

// sigmaAt returns the error bar of the value at index k.
func (c *Column) sigmaAt(k int64) float64 {
	switch {
	case c.HasShared:
		return c.SharedSigma
	case c.Sigma != nil:
		return c.Sigma[k]
	}
	return 0
}

// MergeParts merges two chunks at one origin, of one shape, into a sealed
// chunk in slot order: each present slot of either, the value newer's where
// it has one and older's otherwise. It goes a presence word at a time: a
// word one part supplies whole — every word of a part a node boundary along
// an outer dimension cut — is one copy of that part's values; a word both
// parts supply goes a slot at a time. A column takes older's form of error
// bars — one shared bar, one per cell, or none — unless a cell of newer
// carries a bar that form cannot hold: then it keeps one per cell, so every
// cell keeps its own. Neither part is written.
func MergeParts(older, newer *Chunk) *Chunk {
	n := older.Present.n
	b := builderLike(older, older.Present.Count()+newer.Present.Count())
	for ai, col := range b.Cols() {
		if o := older.Cols[ai]; o.Sigma == nil && !sharesSigma(newer, ai, o.SharedSigma) {
			col.HasShared, col.SharedSigma = false, 0
			col.Sigma = make([]float64, 0, cap(col.Floats))
		}
	}
	for wi := range b.words {
		tail := ^uint64(0)
		if rest := n - int64(wi)<<6; rest < 64 {
			tail = 1<<uint(rest) - 1
		}
		nw := newer.Present.words[wi] & tail
		ow := older.Present.words[wi] &^ nw & tail
		b.AddWord(int64(wi), nw|ow)
		for ai, col := range b.Cols() {
			switch {
			case ow == 0:
				col.AppendWord(newer.Cols[ai], int64(wi), nw)
			case nw == 0:
				col.AppendWord(older.Cols[ai], int64(wi), ow)
			default:
				for w := nw | ow; w != 0; w &= w - 1 {
					i := int64(wi)<<6 + int64(bits.TrailingZeros64(w))
					from := older
					if nw&(w&-w) != 0 {
						from = newer
					}
					col.AppendFrom(from.Cols[ai], i, i)
				}
			}
		}
	}
	return b.Chunk()
}

// sharesSigma reports whether every present cell of ch carries error bar
// sigma in column ai; a column without error bars carries 0.
func sharesSigma(ch *Chunk, ai int, sigma float64) bool {
	c := ch.Cols[ai]
	switch {
	case c.HasShared:
		return c.SharedSigma == sigma
	case c.Sigma == nil:
		return sigma == 0
	}
	for i := ch.Present.NextSet(0); i < ch.Present.n; i = ch.Present.NextSet(i + 1) {
		if c.Sigma[c.rank.Of(i)] != sigma {
			return false
		}
	}
	return true
}

// Select returns a fresh sealed chunk at ch's origin and shape holding the
// cells of ch that live marks, a subset of its present ones, or nil when it
// marks none; every column of ch must be there (no projection). It is how cells move from one array to another: the result
// shares no vector or bitmap with ch, so ch may be a shared read-only chunk
// (a buffer-pool entry), and it is a whole chunk that MergeChunk adopts or
// unions. It goes a presence word at a time, a word ch supplies whole in one
// copy. A selection of every present cell keeps ch's zone maps, as Clone
// does; a strict subset carries none, since they summarize cells it lacks.
func (ch *Chunk) Select(live *Bitmap) *Chunk {
	n := live.Count()
	b := builderLike(ch, n)
	for wi, w := range live.words {
		if rest := live.n - int64(wi)<<6; rest < 64 {
			w &= 1<<uint(rest) - 1
		}
		b.AddWord(int64(wi), w)
		for ai, col := range b.Cols() {
			col.AppendWord(ch.Cols[ai], int64(wi), w)
		}
	}
	out := b.Chunk()
	if out != nil && n == ch.Present.Count() {
		for ai, col := range out.Cols {
			col.Zone = ch.Cols[ai].Zone
		}
	}
	return out
}

// builderLike starts a ChunkBuilder at ch's origin and shape whose columns
// have the types and the form of error bars of ch's; hint is the number of
// cells expected.
func builderLike(ch *Chunk, hint int64) *ChunkBuilder {
	slots := ch.Slots()
	hint = min(max(hint, 0), slots)
	out := &Chunk{Origin: ch.Origin.Clone(), Shape: slices.Clone(ch.Shape), Present: NewBitmap(slots)}
	out.Cols = make([]*Column, len(ch.Cols))
	for i, o := range ch.Cols {
		c := newColumn(Attribute{Type: o.Type, Uncertain: o.Sigma != nil}, slots, 0, hint)
		c.HasShared, c.SharedSigma = o.HasShared, o.SharedSigma
		out.Cols[i] = c
	}
	return &ChunkBuilder{ch: out, words: out.Present.words}
}

// AppendWord appends the values of o's slots that word wi's marks name, as
// the values of the same slots of c's chunk — a chunk of o's shape — as
// AppendFrom would one at a time: one copy of o's vector when they are all
// of o's values in the word (its rank's word, or a full word of an open
// column), slot by slot otherwise. A copied NULL cell carries whatever value
// o holds under it; it reads as NULL. c is a ChunkBuilder's column, and the
// slots are the ones its builder took last (AddWord).
func (c *Column) AppendWord(o *Column, wi int64, marks uint64) {
	if marks == 0 {
		return
	}
	if o.Type != c.Type || marks != o.rank.Word(wi) {
		for w := marks; w != 0; w &= w - 1 {
			i := wi<<6 + int64(bits.TrailingZeros64(w))
			c.AppendFrom(o, i, i)
		}
		return
	}
	lo := o.rank.Base(wi)
	hi := lo + int64(bits.OnesCount64(marks))
	switch c.Type {
	case TInt64:
		c.Ints = append(c.Ints, o.Ints[lo:hi]...)
	case TFloat64:
		c.Floats = append(c.Floats, o.Floats[lo:hi]...)
	case TString:
		c.Strs = append(c.Strs, o.Strs[lo:hi]...)
	case TBool:
		c.Bools = append(c.Bools, o.Bools[lo:hi]...)
	case TArray:
		c.Arrs = append(c.Arrs, o.Arrs[lo:hi]...)
	}
	if c.Sigma != nil {
		for k := lo; k < hi; k++ {
			c.Sigma = append(c.Sigma, o.sigmaAt(k))
		}
	}
	c.Nulls.words[wi] |= o.Nulls.words[wi] & marks
}
