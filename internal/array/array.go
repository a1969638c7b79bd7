package array

import (
	"errors"
	"fmt"
	"sort"
)

// Enhancement attaches a pseudo-coordinate system to a basic array (§2.1):
// any function over the integer dimensions — transposition, scaling,
// translation, irregular coordinates, Mercator geometry, wall-clock time for
// the history dimension. The basic [ ... ] addressing keeps working; the
// enhanced { ... } addressing resolves through the enhancement. The array
// model does not dictate how pseudo-coordinates are implemented; this is the
// paper's "functional representation" option.
type Enhancement interface {
	// Name identifies the enhancement (the UDF name it was created from).
	Name() string
	// OutDims names the pseudo-coordinates this enhancement adds.
	OutDims() []string
	// Map converts a basic integer coordinate to pseudo-coordinate values.
	Map(basic Coord) []Value
	// Invert converts pseudo-coordinate values back to a basic coordinate.
	// ok is false when the pseudo-coordinates address no cell.
	Invert(pseudo []Value) (basic Coord, ok bool)
}

// ShapeFunc defines ragged (non-rectangular) array boundaries (§2.1): a
// user-defined function with integer arguments returning low- and high-water
// marks. Arrays that digitize circles and other complex shapes are possible.
type ShapeFunc interface {
	// Name identifies the shape function.
	Name() string
	// Contains reports whether the coordinate is inside the ragged boundary.
	Contains(c Coord) bool
	// Bounds returns the minimum low-water and maximum high-water mark of
	// dimension dim when the other dimensions are fixed as given; entries of
	// fixed that are 0 are unspecified (the paper's shape-function(A[7,*])
	// and shape-function(A[I,*]) queries).
	Bounds(dim int, fixed Coord) (lo, hi int64)
}

// Array is a physical array instance: a schema plus a set of rectangular
// chunks laid out on a regular chunking grid, with optional enhancements
// and at most one shape function (§2.1).
type Array struct {
	Schema *Schema
	// chunks maps chunk-origin keys to chunks.
	chunks map[string]*Chunk
	// hwm is the observed high-water mark per dimension; for bounded
	// dimensions it equals the declared bound.
	hwm []int64
	// Enhancements added with "Enhance A with f".
	Enhancements []Enhancement
	// Shape is the optional shape function added with "Shape A with f".
	Shape ShapeFunc
	// last caches the most recently touched chunk; sequential access
	// patterns (loads, scans) hit it almost always. Arrays are not safe
	// for concurrent mutation, so a plain cache is fine.
	last    *Chunk
	lastBox Box
	// lastOpen records that a writer has opened last (see writable), so
	// the per-cell write path skips the check while it stays cached.
	lastOpen bool
	// sorted caches the origin-ordered chunk list; invalidated when the
	// chunk population changes.
	sorted []*Chunk
}

// New creates an empty array instance of the schema. The schema is validated.
func New(s *Schema) (*Array, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	a := &Array{Schema: s, chunks: map[string]*Chunk{}}
	a.hwm = make([]int64, len(s.Dims))
	for i, d := range s.Dims {
		if d.High != Unbounded {
			a.hwm[i] = d.High
		}
	}
	return a, nil
}

// MustNew is New for statically correct schemas; it panics on error.
func MustNew(s *Schema) *Array {
	a, err := New(s)
	if err != nil {
		panic(err)
	}
	return a
}

// Hwm returns the current high-water mark of dimension i (for unbounded
// dimensions, the largest coordinate written so far).
func (a *Array) Hwm(i int) int64 { return a.hwm[i] }

// Bounds returns the current effective bounds of all dimensions.
func (a *Array) Bounds() []int64 { return append([]int64(nil), a.hwm...) }

// DefaultChunkLen is the chunking stride used for unbounded dimensions that
// do not declare a ChunkLen.
const DefaultChunkLen = 64

// chunkOrigin returns the origin of the chunk containing c.
func (a *Array) chunkOrigin(c Coord) Coord {
	o := make(Coord, len(c))
	for i, d := range a.Schema.Dims {
		cl := d.GridLen()
		o[i] = ((c[i]-1)/cl)*cl + 1
	}
	return o
}

// chunkShape returns the shape of the chunk at the given origin.
func (a *Array) chunkShape(origin Coord) []int64 {
	sh := make([]int64, len(origin))
	for i, d := range a.Schema.Dims {
		sh[i] = d.GridLen()
		if d.High != Unbounded && origin[i]+sh[i]-1 > d.High {
			sh[i] = d.High - origin[i] + 1
		}
	}
	return sh
}

// GridOrigin returns the origin of this array's grid chunk containing c.
func (a *Array) GridOrigin(c Coord) Coord { return a.chunkOrigin(c) }

// GridShape returns the shape of this array's grid chunk at origin: the
// declared chunk extents clamped to the dimension bounds. Chunk-parallel
// operators size their disjoint output chunks with it.
func (a *Array) GridShape(origin Coord) []int64 { return a.chunkShape(origin) }

// CoordInside reports whether c is a legal cell address: correct
// dimensionality, >= 1 everywhere, within declared bounds, and inside the
// shape function if any. It is the allocation-free form of the check At
// performs, safe for concurrent readers.
func (a *Array) CoordInside(c Coord) bool {
	if len(c) != len(a.Schema.Dims) {
		return false
	}
	for i, d := range a.Schema.Dims {
		if c[i] < 1 || (d.High != Unbounded && c[i] > d.High) {
			return false
		}
	}
	return a.Shape == nil || a.Shape.Contains(c)
}

// checkCoord validates a coordinate against dimensionality, bounds, and the
// shape function if any.
func (a *Array) checkCoord(c Coord) error {
	if len(c) != len(a.Schema.Dims) {
		return fmt.Errorf("array %s: coordinate %v has %d dims, want %d", a.Schema.Name, c, len(c), len(a.Schema.Dims))
	}
	for i, d := range a.Schema.Dims {
		if c[i] < 1 {
			return fmt.Errorf("array %s: coordinate %v below 1 in dimension %s", a.Schema.Name, c, d.Name)
		}
		if d.High != Unbounded && c[i] > d.High {
			return fmt.Errorf("array %s: coordinate %v exceeds high-water mark %d in dimension %s", a.Schema.Name, c, d.High, d.Name)
		}
	}
	if a.Shape != nil && !a.Shape.Contains(c) {
		return fmt.Errorf("array %s: coordinate %v outside shape function %s", a.Schema.Name, c, a.Shape.Name())
	}
	return nil
}

// chunkFor returns the chunk containing c, allocating it if create is set,
// consulting the last-chunk cache first.
func (a *Array) chunkFor(c Coord, create bool) *Chunk {
	if a.last != nil && a.lastBox.Contains(c) {
		return a.last
	}
	o := a.chunkOrigin(c)
	key := o.Key()
	ch, ok := a.chunks[key]
	if !ok {
		if !create {
			return nil
		}
		ch = NewChunk(a.Schema, o, a.chunkShape(o))
		a.chunks[key] = ch
		a.sorted = nil
	}
	a.last = ch
	a.lastBox = ch.Box()
	a.lastOpen = false
	return ch
}

// writable returns the chunk containing c for a writer, allocating it
// (open) on first touch and opening a sealed one. A chunk is checked when
// it enters the last-chunk cache, not at every cell written into it.
func (a *Array) writable(c Coord) *Chunk {
	if a.last == nil || !a.lastOpen || !a.lastBox.Contains(c) {
		a.chunkFor(c, true).Open()
		a.lastOpen = true
	}
	return a.last
}

// Set writes a cell at the coordinate. It retains neither argument, so a
// caller may pass the reused Coord and Cell of IterReuse or a Dataset scan.
func (a *Array) Set(c Coord, cell Cell) error {
	if len(cell) != len(a.Schema.Attrs) {
		return fmt.Errorf("array: cell has %d values, chunk has %d attributes", len(cell), len(a.Schema.Attrs))
	}
	ch, i, err := a.Slot(c)
	if err != nil {
		return err
	}
	for at, col := range ch.Cols {
		col.Set(i, cell[at])
	}
	return nil
}

// Slot is Set for a writer that fills the columns itself, with the typed
// Column setters: it checks c as Set does, allocates c's chunk on first
// touch, raises the high-water marks, marks the cell present and returns
// the chunk and c's slot in it. Every column's slot is then the writer's to
// fill. A sealed chunk opens first. It does not retain c.
func (a *Array) Slot(c Coord) (*Chunk, int64, error) {
	if err := a.checkCoord(c); err != nil {
		return nil, 0, err
	}
	ch := a.writable(c)
	for i := range c {
		if c[i] > a.hwm[i] {
			a.hwm[i] = c[i]
		}
	}
	i := ch.Index(c)
	ch.Present.Set(i)
	return ch, i, nil
}

// Holds reports whether the chunk that would hold c is allocated. A
// coordinate in the chunk last touched is answered from the cache, with no
// allocation.
func (a *Array) Holds(c Coord) bool {
	if a.last != nil && a.lastBox.Contains(c) {
		return true
	}
	_, ok := a.chunks[a.chunkOrigin(c).Key()]
	return ok
}

// At returns the cell at the coordinate. ok is false for absent cells.
// Exists?[A, c...] (§2.2.1) is At with the ok result.
func (a *Array) At(c Coord) (Cell, bool) {
	if err := a.checkCoord(c); err != nil {
		return nil, false
	}
	ch := a.chunkFor(c, false)
	if ch == nil {
		return nil, false
	}
	return ch.Get(c)
}

// PeekAt is At without the last-chunk cache update, so it is safe for
// concurrent readers (the chunk-parallel operators probe join inputs with
// it) as long as no goroutine mutates the array. Callers fanning out tasks
// should call Chunks() once beforehand so the lazily built sorted list
// isn't raced either.
func (a *Array) PeekAt(c Coord) (Cell, bool) {
	if err := a.checkCoord(c); err != nil {
		return nil, false
	}
	ch, ok := a.chunks[a.chunkOrigin(c).Key()]
	if !ok {
		return nil, false
	}
	return ch.Get(c)
}

// Exists reports whether a cell is present at the coordinate (§2.2.1
// "Exists? [A, 7, 7]").
func (a *Array) Exists(c Coord) bool {
	_, ok := a.At(c)
	return ok
}

// AtEnhanced resolves a cell through the named enhancement's pseudo-
// coordinates: the paper's A{16.3, 48.2} addressing.
func (a *Array) AtEnhanced(name string, pseudo []Value) (Cell, bool) {
	for _, e := range a.Enhancements {
		if e.Name() == name {
			basic, ok := e.Invert(pseudo)
			if !ok {
				return nil, false
			}
			return a.At(basic)
		}
	}
	return nil, false
}

// Enhance attaches a pseudo-coordinate system (§2.1 "Enhance A with f").
// Any number of enhancements may be attached.
func (a *Array) Enhance(e Enhancement) { a.Enhancements = append(a.Enhancements, e) }

// SetShape attaches the array's single shape function (§2.1
// "Shape array_name with shape_function"). It replaces any previous one.
func (a *Array) SetShape(f ShapeFunc) { a.Shape = f }

// Erase removes a cell if present.
func (a *Array) Erase(c Coord) {
	if ch := a.chunkFor(c, false); ch != nil {
		ch.Erase(c)
	}
}

// Count returns the number of present cells.
func (a *Array) Count() int64 {
	var n int64
	for _, ch := range a.chunks {
		n += ch.CellsPresent()
	}
	return n
}

// NumChunks returns how many chunks the array has allocated.
func (a *Array) NumChunks() int { return len(a.chunks) }

// Chunks returns the array's chunks ordered by origin (deterministic).
// The returned slice is cached and shared; callers must not modify it.
func (a *Array) Chunks() []*Chunk {
	if a.sorted != nil {
		return a.sorted
	}
	out := make([]*Chunk, 0, len(a.chunks))
	for _, ch := range a.chunks {
		out = append(out, ch)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Origin, out[j].Origin
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
	a.sorted = out
	return out
}

// PutChunk installs a prebuilt chunk (used by the loader, the cluster
// transport, and in-situ adaptors). The chunk must align with the array's
// chunking grid. High-water marks advance to the largest coordinate of a
// present cell, not the chunk's box, so sparse chunks in unbounded arrays
// report accurate bounds.
func (a *Array) PutChunk(ch *Chunk) {
	a.chunks[ch.Origin.Key()] = ch
	a.last = nil // the cache may point at a replaced chunk
	a.sorted = nil
	box := ch.Box()
	dense, grows := ch.CellsPresent() == ch.Slots(), false
	for i := range a.hwm {
		if box.Hi[i] > a.hwm[i] {
			grows = true
			if dense {
				// Dense chunk: the box is exact.
				a.hwm[i] = box.Hi[i]
			}
		}
	}
	if dense || !grows {
		// Nothing left to find: a box inside the marks (any chunk of a
		// bounded array) cannot hold a cell beyond them.
		return
	}
	IterBox(box, func(c Coord) bool {
		if ch.Present.Get(ch.Index(c)) {
			for i := range a.hwm {
				if c[i] > a.hwm[i] {
					a.hwm[i] = c[i]
				}
			}
		}
		return true
	})
}

// DropChunk removes the chunk at origin, if allocated. The high-water marks
// stay where they are, as Erase leaves them.
func (a *Array) DropChunk(origin Coord) {
	delete(a.chunks, origin.Key())
	a.last, a.sorted = nil, nil
}

// ErrOffGrid reports a chunk that is not one chunk of an array's grid: its
// origin is not a grid origin, or its shape is not the grid's there, which a
// bounded dimension clips at High.
var ErrOffGrid = errors.New("array: chunk off the array's grid")

// chunkAligned reports whether ch's origin and shape land exactly on this
// array's chunking grid, inside its bounds.
func (a *Array) chunkAligned(ch *Chunk) bool {
	if len(ch.Origin) != len(a.Schema.Dims) || len(ch.Shape) != len(ch.Origin) {
		return false
	}
	want, shape := a.chunkOrigin(ch.Origin), a.chunkShape(ch.Origin)
	for i := range want {
		if ch.Origin[i] < 1 || ch.Origin[i] != want[i] || ch.Shape[i] != shape[i] {
			return false
		}
	}
	return true
}

// MergeChunk unions a chunk of the array's grid into the array, its
// cells winning: adopted whole via PutChunk — no per-cell work — when its
// origin is not yet populated, merged with the chunk there into a fresh one
// (MergeParts) when it is. An off-grid chunk fails with ErrOffGrid; a nil
// one, as Select returns for no cell, holds no cell. Cells move between
// arrays only this way, as whole chunks: a part of a chunk is first taken
// out of it by Select.
func (a *Array) MergeChunk(ch *Chunk) error {
	if ch == nil || ch.CellsPresent() == 0 {
		return nil
	}
	if !a.chunkAligned(ch) {
		return fmt.Errorf("array %s: chunk %v of shape %v: %w", a.Schema.Name, ch.Origin, ch.Shape, ErrOffGrid)
	}
	if old, taken := a.chunks[ch.Origin.Key()]; taken {
		ch = MergeParts(old, ch)
	}
	a.PutChunk(ch)
	return nil
}

// ChunkAt returns the chunk containing the coordinate, if allocated.
func (a *Array) ChunkAt(c Coord) (*Chunk, bool) {
	ch, ok := a.chunks[a.chunkOrigin(c).Key()]
	return ch, ok
}

// Iter calls fn for every present cell in row-major coordinate order
// within each chunk (chunks ordered by origin). The Coord and Cell passed
// to fn are freshly allocated per cell and may be retained.
// Return false from fn to stop.
func (a *Array) Iter(fn func(Coord, Cell) bool) {
	nd := len(a.Schema.Dims)
	for _, ch := range a.Chunks() {
		slots := ch.Slots()
		if ch.CellsPresent() == 0 {
			continue
		}
		// Walk slots linearly, tracking the coordinate incrementally.
		c := ch.Origin.Clone()
		for idx := int64(0); idx < slots; idx++ {
			if ch.Present.Get(idx) {
				cell := make(Cell, len(ch.Cols))
				for ai, col := range ch.Cols {
					cell[ai] = col.Get(idx)
				}
				if !fn(c.Clone(), cell) {
					return
				}
			}
			// Increment the row-major coordinate (last dim fastest).
			for d := nd - 1; d >= 0; d-- {
				c[d]++
				if c[d] < ch.Origin[d]+ch.Shape[d] {
					break
				}
				c[d] = ch.Origin[d]
			}
		}
	}
}

// IterReuse is the allocation-free variant of Iter for operator inner
// loops: the Coord and Cell passed to fn are REUSED between calls — fn must
// copy anything it retains. Iteration order matches Iter.
func (a *Array) IterReuse(fn func(Coord, Cell) bool) {
	nd := len(a.Schema.Dims)
	var cell Cell
	var c Coord
	for _, ch := range a.Chunks() {
		if ch.CellsPresent() == 0 {
			continue
		}
		if cell == nil {
			cell = make(Cell, len(ch.Cols))
			c = make(Coord, nd)
		}
		copy(c, ch.Origin)
		slots := ch.Slots()
		for idx := int64(0); idx < slots; idx++ {
			if ch.Present.Get(idx) {
				for ai, col := range ch.Cols {
					cell[ai] = col.Get(idx)
				}
				if !fn(c, cell) {
					return
				}
			}
			for d := nd - 1; d >= 0; d-- {
				c[d]++
				if c[d] < ch.Origin[d]+ch.Shape[d] {
					break
				}
				c[d] = ch.Origin[d]
			}
		}
	}
}

// IterBoxReuse streams the present cells intersecting q, pruning chunks
// whose boxes miss it — the engine's predicate-pushdown scan kernel. Like
// IterReuse, the Coord and Cell passed to fn are reused between calls.
func (a *Array) IterBoxReuse(q Box, fn func(Coord, Cell) bool) {
	var cell Cell
	for _, ch := range a.Chunks() {
		inter, ok := ch.Box().Intersect(q)
		if !ok || ch.CellsPresent() == 0 {
			continue
		}
		if cell == nil {
			cell = make(Cell, len(ch.Cols))
		}
		stop := false
		IterBox(inter, func(c Coord) bool {
			idx := ch.Index(c)
			if !ch.Present.Get(idx) {
				return true
			}
			for ai, col := range ch.Cols {
				cell[ai] = col.Get(idx)
			}
			if !fn(c, cell) {
				stop = true
				return false
			}
			return true
		})
		if stop {
			return
		}
	}
}

// ScanFloats is the engine's columnar scan kernel: it streams one float64
// attribute's present values within q, reading the chunk column directly
// with a tight loop over the innermost dimension. The Coord passed to fn is
// reused between calls. This is the fast path dense analytics (slab
// averages, regrids, threshold scans) compile to.
func (a *Array) ScanFloats(q Box, attr int, fn func(c Coord, v float64) bool) {
	nd := len(a.Schema.Dims)
	c := make(Coord, nd)
	for _, ch := range a.Chunks() {
		inter, ok := ch.Box().Intersect(q)
		if !ok || ch.CellsPresent() == 0 {
			continue
		}
		floats, rank := ch.Cols[attr].Floats, ch.Cols[attr].Rank()
		if floats == nil {
			continue
		}
		present := ch.Present
		// Iterate the outer dimensions; run the innermost as a tight loop
		// over contiguous slots.
		copy(c, inter.Lo)
		last := nd - 1
		for {
			// base is the slot of (outer dims of c, inner = inter.Lo).
			base := RowMajorIndex(ch.Origin, ch.Shape, c)
			for j := inter.Lo[last]; j <= inter.Hi[last]; j++ {
				idx := base + (j - inter.Lo[last])
				if present.Get(idx) {
					c[last] = j
					if !fn(c, floats[rank.Of(idx)]) {
						return
					}
				}
			}
			c[last] = inter.Lo[last]
			// Advance the outer dimensions.
			d := last - 1
			for d >= 0 {
				c[d]++
				if c[d] <= inter.Hi[d] {
					break
				}
				c[d] = inter.Lo[d]
				d--
			}
			if d < 0 {
				break
			}
		}
	}
}

// Fill populates every cell of a bounded array using gen.
func (a *Array) Fill(gen func(Coord) Cell) error {
	if a.Schema.CellCount() < 0 {
		return fmt.Errorf("array %s: cannot Fill an unbounded array", a.Schema.Name)
	}
	var err error
	IterBox(WholeBox(a.Schema), func(c Coord) bool {
		if a.Shape != nil && !a.Shape.Contains(c) {
			return true
		}
		if e := a.Set(c, gen(c)); e != nil {
			err = e
			return false
		}
		return true
	})
	return err
}

// ByteSize estimates total in-memory payload.
func (a *Array) ByteSize() int64 {
	var n int64
	for _, ch := range a.chunks {
		n += ch.ByteSize()
	}
	return n
}

// View returns a read-only alias of the array: it shares the chunks but
// has its own lazy caches (sorted chunk list, last-touched chunk), which
// reads fill in. Concurrent readers that each take a View therefore never
// race, as long as nothing mutates the array meanwhile.
func (a *Array) View() *Array {
	return &Array{Schema: a.Schema, chunks: a.chunks, hwm: a.hwm, Enhancements: a.Enhancements, Shape: a.Shape}
}

// Clone deep-copies the array (enhancements and shape are shared; they are
// immutable).
func (a *Array) Clone() *Array {
	out := &Array{
		Schema:       a.Schema.Clone(),
		chunks:       make(map[string]*Chunk, len(a.chunks)),
		hwm:          append([]int64(nil), a.hwm...),
		Enhancements: append([]Enhancement(nil), a.Enhancements...),
		Shape:        a.Shape,
	}
	for k, ch := range a.chunks {
		out.chunks[k] = ch.Clone()
	}
	return out
}
