package array

import (
	"fmt"
	"slices"
)

// Column holds one attribute's values for the present cells of a chunk, as
// typed vectors plus a slot-indexed null bitmap — open or sealed (rank.go).
// Uncertain attributes carry a parallel Sigma vector; when every cell shares
// one error bar the chunk stores a single SharedSigma instead ("arrays with
// the same error bounds for all values will require negligible extra
// space", §2.13).
type Column struct {
	Type        Type
	Ints        []int64
	Floats      []float64
	Strs        []string
	Bools       []bool
	Arrs        []*Array
	Nulls       *Bitmap
	Sigma       []float64
	SharedSigma float64
	HasShared   bool

	// Zone is the advisory view attached by the storage decoder: it
	// summarizes the present, non-null values for chunk skipping. It
	// describes the column only while it is unmodified — Set and CopyFrom
	// drop it, and so does Chunk.Erase, since it is over the chunk's present
	// cells — so a non-nil Zone is the column's, and the storage encoder
	// writes it out as it stands.
	Zone *ZoneMap

	// rank places a sealed column's values; nil for one value per slot.
	rank *Rank
}

// NewColumn allocates an open column of n slots for attribute a.
func NewColumn(a Attribute, n int64) *Column { return newColumn(a, n, n, n) }

// NewPackedColumn allocates a column of attribute a for a chunk of slots
// slots whose rank directory is r (nil for a full chunk): no values yet, room
// for n, which the Append methods add in slot order.
func NewPackedColumn(a Attribute, slots, n int64, r *Rank) *Column {
	return newColumn(a, slots, 0, n).Packed(r)
}

// newColumn allocates a column of attribute a for a chunk of slots slots,
// its vectors of n values with room for size.
func newColumn(a Attribute, slots, n, size int64) *Column {
	c := &Column{Type: a.Type, Nulls: NewBitmap(slots)}
	switch a.Type {
	case TInt64:
		c.Ints = make([]int64, n, size)
	case TFloat64:
		c.Floats = make([]float64, n, size)
	case TString:
		c.Strs = make([]string, n, size)
	case TBool:
		c.Bools = make([]bool, n, size)
	case TArray:
		c.Arrs = make([]*Array, n, size)
	}
	if a.Uncertain && a.Type == TFloat64 {
		c.Sigma = make([]float64, n, size)
	}
	return c
}

// Get returns the value at slot i, which must be present.
func (c *Column) Get(i int64) Value {
	v := Value{Type: c.Type}
	if c.Nulls.Get(i) {
		v.Null = true
		return v
	}
	k := c.rank.Of(i)
	switch c.Type {
	case TInt64:
		v.Int = c.Ints[k]
	case TFloat64:
		v.Float = c.Floats[k]
	case TString:
		v.Str = c.Strs[k]
	case TBool:
		v.Bool = c.Bools[k]
	case TArray:
		v.Arr = c.Arrs[k]
	}
	v.Sigma = c.sigmaAt(k)
	return v
}

// Set stores the value at slot i, converting numerics as needed, through
// the typed setters below.
func (c *Column) Set(i int64, v Value) {
	if v.Null {
		c.SetNull(i)
		return
	}
	switch c.Type {
	case TInt64:
		c.SetInt(i, v.AsInt())
	case TFloat64:
		c.SetFloat(i, v.AsFloat(), v.Sigma)
	case TString:
		c.SetString(i, v.Str)
	case TBool:
		c.SetBool(i, v.Bool)
	case TArray:
		c.Arrs[c.write(i)] = v.Arr
	}
}

// SetNull makes slot i NULL. Like every setter it drops Zone.
func (c *Column) SetNull(i int64) {
	c.Zone = nil
	c.Nulls.Set(i)
}

// write clears slot i's NULL bit for a typed setter's value, drops Zone, and
// returns where the value goes: i, since the setters write open columns
// only. A sealed column has no place for an absent slot, so a writer opens
// its chunk first (Chunk.Open; Array.Set and Slot do), and a setter on a
// sealed column panics.
func (c *Column) write(i int64) int64 {
	if c.rank != nil {
		panic("array: a typed setter on a sealed column; open its chunk first")
	}
	c.Zone = nil
	c.Nulls.Clear(i)
	return i
}

// SetInt stores v at slot i of an int64 column.
func (c *Column) SetInt(i int64, v int64) { c.Ints[c.write(i)] = v }

// SetFloat stores v at slot i of a float64 column, with error bar sigma
// when the column keeps error bars.
func (c *Column) SetFloat(i int64, v, sigma float64) {
	k := c.write(i)
	c.Floats[k] = v
	c.setSigma(k, sigma)
}

// setSigma gives the value at k error bar sigma when the column keeps error
// bars. A column that shares one bar other than sigma first spreads it over a
// vector of one bar per value, so every other value keeps its own.
func (c *Column) setSigma(k int64, sigma float64) {
	if c.HasShared && sigma != c.SharedSigma {
		c.Sigma = make([]float64, len(c.Floats))
		for j := range c.Sigma {
			c.Sigma[j] = c.SharedSigma
		}
		c.HasShared, c.SharedSigma = false, 0
	}
	if c.Sigma != nil {
		c.Sigma[k] = sigma
	}
}

// SetString stores v at slot i of a string column.
func (c *Column) SetString(i int64, v string) { c.Strs[c.write(i)] = v }

// SetBool stores v at slot i of a bool column.
func (c *Column) SetBool(i int64, v bool) { c.Bools[c.write(i)] = v }

// CopyFrom copies slot src of o into slot dst of c, preserving nulls and
// error bars. It is the columnar transfer primitive the chunk-parallel
// operators use instead of boxing each cell into a Value and back; a column
// of another type (Concat's right side may have one) converts the way Set
// converts a Value.
func (c *Column) CopyFrom(o *Column, dst, src int64) {
	if o.Type != c.Type {
		c.Set(dst, o.Get(src))
		return
	}
	if o.Nulls.Get(src) {
		c.SetNull(dst)
		return
	}
	d, s := c.write(dst), o.rank.Of(src)
	switch c.Type {
	case TInt64:
		c.Ints[d] = o.Ints[s]
	case TFloat64:
		c.Floats[d] = o.Floats[s]
	case TString:
		c.Strs[d] = o.Strs[s]
	case TBool:
		c.Bools[d] = o.Bools[s]
	case TArray:
		c.Arrs[d] = o.Arrs[s]
	}
	if c.Type == TFloat64 {
		c.setSigma(d, o.sigmaAt(s))
	}
}

// Len returns the slot count.
func (c *Column) Len() int64 { return c.Nulls.Len() }

// Clone deep-copies the column (nested arrays are shared).
func (c *Column) Clone() *Column {
	out := &Column{Type: c.Type, Nulls: c.Nulls.Clone(), SharedSigma: c.SharedSigma, HasShared: c.HasShared,
		Zone: c.Zone, // the zone map stays valid for an identical copy
		rank: c.rank} // and so does the rank directory, whose bitmap is never written
	out.Ints, out.Floats, out.Strs = slices.Clone(c.Ints), slices.Clone(c.Floats), slices.Clone(c.Strs)
	out.Bools, out.Arrs, out.Sigma = slices.Clone(c.Bools), slices.Clone(c.Arrs), slices.Clone(c.Sigma)
	return out
}

// Chunk is a rectangular, columnar slab of cells: the in-memory form of the
// paper's storage bucket (§2.8) and the unit shipped between grid nodes.
// A cell slot may be absent (presence bit clear): Subsample results, sparse
// loads, and Cjoin misses all use absence.
type Chunk struct {
	Origin  Coord   // coordinate of the first cell
	Shape   []int64 // extent per dimension
	Cols    []*Column
	Present *Bitmap

	encoded   []byte  // the payload KeepEncoded kept, read-only
	encodedAs *Schema // the schema it was decoded under
}

// KeepEncoded keeps payload, the canonical encoding under s the chunk was
// just decoded from, for an encoder to hand on instead of encoding the chunk
// again; no one may write payload afterwards. Open forgets it, and a chunk
// made from this one (Clone, Select, MergeParts, a builder) never has it.
func (ch *Chunk) KeepEncoded(s *Schema, payload []byte) { ch.encoded, ch.encodedAs = payload, s }

// Encoded returns the payload KeepEncoded kept and its schema, or nils.
func (ch *Chunk) Encoded() (*Schema, []byte) { return ch.encodedAs, ch.encoded }

// NewChunk allocates an empty (all-absent) chunk for the given schema region.
func NewChunk(s *Schema, origin Coord, shape []int64) *Chunk {
	n := int64(1)
	for _, e := range shape {
		n *= e
	}
	ch := &Chunk{Origin: origin.Clone(), Shape: append([]int64(nil), shape...), Present: NewBitmap(n)}
	ch.Cols = make([]*Column, len(s.Attrs))
	for i, a := range s.Attrs {
		ch.Cols[i] = NewColumn(a, n)
	}
	return ch
}

// Box returns the chunk's coordinate region.
func (ch *Chunk) Box() Box {
	hi := make(Coord, len(ch.Origin))
	for i := range hi {
		hi[i] = ch.Origin[i] + ch.Shape[i] - 1
	}
	return Box{Lo: ch.Origin.Clone(), Hi: hi}
}

// Slots returns the number of cell slots.
func (ch *Chunk) Slots() int64 { return ch.Present.Len() }

// CellsPresent returns the number of present cells.
func (ch *Chunk) CellsPresent() int64 { return ch.Present.Count() }

// Index converts a coordinate to the chunk-local slot index. The caller
// must ensure the coordinate is inside the chunk.
func (ch *Chunk) Index(c Coord) int64 { return RowMajorIndex(ch.Origin, ch.Shape, c) }

// Get returns the cell at the coordinate and whether it is present.
func (ch *Chunk) Get(c Coord) (Cell, bool) {
	i := ch.Index(c)
	if !ch.Present.Get(i) {
		return nil, false
	}
	cell := make(Cell, len(ch.Cols))
	for a, col := range ch.Cols {
		cell[a] = col.Get(i)
	}
	return cell, true
}

// Set writes the cell at the coordinate, marking it present; a sealed chunk
// opens first.
func (ch *Chunk) Set(c Coord, cell Cell) error {
	if len(cell) != len(ch.Cols) {
		return fmt.Errorf("array: cell has %d values, chunk has %d attributes", len(cell), len(ch.Cols))
	}
	ch.Open()
	i := ch.Index(c)
	ch.Present.Set(i)
	for a, col := range ch.Cols {
		col.Set(i, cell[a])
	}
	return nil
}

// Erase marks the cell absent; a sealed chunk opens first. A column's zone
// map covers present cells only, so it goes the way Column.Set sends it.
func (ch *Chunk) Erase(c Coord) {
	ch.Open()
	ch.Present.Clear(ch.Index(c))
	for _, col := range ch.Cols {
		if col != nil {
			col.Zone = nil
		}
	}
}

// Clone deep-copies the chunk.
func (ch *Chunk) Clone() *Chunk {
	out := &Chunk{
		Origin:  ch.Origin.Clone(),
		Shape:   append([]int64(nil), ch.Shape...),
		Present: ch.Present.Clone(),
	}
	out.Cols = make([]*Column, len(ch.Cols))
	for i, c := range ch.Cols {
		out.Cols[i] = c.Clone()
	}
	return out
}

// ByteSize estimates the in-memory payload size of the chunk, used by the
// storage manager's memory accounting and the version-space experiments: a
// sealed chunk's columns count their present values only. Columns a
// projected read left nil cost nothing.
func (ch *Chunk) ByteSize() int64 {
	n := int64(len(ch.Present.Words()) * 8)
	for _, c := range ch.Cols {
		if c != nil {
			n += c.ByteSize()
		}
	}
	return n
}

// ByteSize is one column's share of Chunk.ByteSize.
func (c *Column) ByteSize() int64 {
	n := int64(len(c.Ints))*8 + int64(len(c.Floats))*8 + int64(len(c.Bools)) + int64(len(c.Sigma))*8
	for _, s := range c.Strs {
		n += int64(len(s)) + 16
	}
	n += int64(len(c.Arrs)) * 8
	n += int64(len(c.Nulls.Words())*8) + c.rank.Bytes()
	return n
}
