package array

import (
	"fmt"
	"math"
	"strconv"
)

// Coord is a cell address: one 1-based integer per dimension.
type Coord []int64

// Clone copies the coordinate.
func (c Coord) Clone() Coord { return append(Coord(nil), c...) }

// Equal reports coordinate equality.
func (c Coord) Equal(o Coord) bool {
	if len(c) != len(o) {
		return false
	}
	for i := range c {
		if c[i] != o[i] {
			return false
		}
	}
	return true
}

// Key returns a map key for the coordinate. It is allocation-light
// (strconv into a small buffer), as it sits on the Set/At hot path.
func (c Coord) Key() string {
	buf := make([]byte, 0, 12*len(c))
	for i, v := range c {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = strconv.AppendInt(buf, v, 36)
	}
	return string(buf)
}

// String renders the coordinate in the paper's bracket syntax, e.g. [7, 8].
func (c Coord) String() string {
	s := "["
	for i, v := range c {
		if i > 0 {
			s += ", "
		}
		s += fmt.Sprintf("%d", v)
	}
	return s + "]"
}

// Box is an axis-aligned rectangular coordinate region, inclusive on both
// ends. Storage buckets (§2.8) and partitions (§2.7) are boxes.
type Box struct {
	Lo, Hi Coord
}

// NewBox builds a box and normalizes degenerate input.
func NewBox(lo, hi Coord) Box { return Box{Lo: lo.Clone(), Hi: hi.Clone()} }

// Contains reports whether the coordinate lies inside the box.
func (b Box) Contains(c Coord) bool {
	if len(c) != len(b.Lo) {
		return false
	}
	for i := range c {
		if c[i] < b.Lo[i] || c[i] > b.Hi[i] {
			return false
		}
	}
	return true
}

// Intersects reports whether two boxes overlap.
func (b Box) Intersects(o Box) bool {
	if len(b.Lo) != len(o.Lo) {
		return false
	}
	for i := range b.Lo {
		if b.Hi[i] < o.Lo[i] || o.Hi[i] < b.Lo[i] {
			return false
		}
	}
	return true
}

// Intersect returns the overlap of two boxes and whether it is nonempty.
func (b Box) Intersect(o Box) (Box, bool) {
	if !b.Intersects(o) {
		return Box{}, false
	}
	lo := make(Coord, len(b.Lo))
	hi := make(Coord, len(b.Hi))
	for i := range b.Lo {
		lo[i] = max64(b.Lo[i], o.Lo[i])
		hi[i] = min64(b.Hi[i], o.Hi[i])
	}
	return Box{Lo: lo, Hi: hi}, true
}

// Shape returns the per-dimension extent of the box.
func (b Box) Shape() []int64 {
	out := make([]int64, len(b.Lo))
	for i := range b.Lo {
		out[i] = b.Hi[i] - b.Lo[i] + 1
	}
	return out
}

// Cells returns the number of cells in the box.
func (b Box) Cells() int64 {
	n := int64(1)
	for i := range b.Lo {
		n *= b.Hi[i] - b.Lo[i] + 1
	}
	return n
}

// String renders the box as [lo..hi] per dimension.
func (b Box) String() string {
	s := "["
	for i := range b.Lo {
		if i > 0 {
			s += ", "
		}
		s += fmt.Sprintf("%d:%d", b.Lo[i], b.Hi[i])
	}
	return s + "]"
}

// MaxCoord is the upper edge WholeBox gives an unbounded dimension: beyond
// any stored coordinate, with headroom so box arithmetic cannot overflow.
const MaxCoord int64 = math.MaxInt64 / 4

// WholeBox returns the box spanning an entire schema; an unbounded
// dimension reaches MaxCoord.
func WholeBox(s *Schema) Box {
	lo := make(Coord, len(s.Dims))
	hi := make(Coord, len(s.Dims))
	for i, d := range s.Dims {
		lo[i] = 1
		hi[i] = d.High
		if d.High == Unbounded {
			hi[i] = MaxCoord
		}
	}
	return Box{Lo: lo, Hi: hi}
}

// RowMajorIndex converts a coordinate within a box of the given origin and
// shape to a linear index, iterating the last dimension fastest.
func RowMajorIndex(origin Coord, shape []int64, c Coord) int64 {
	idx := int64(0)
	for i := range shape {
		idx = idx*shape[i] + (c[i] - origin[i])
	}
	return idx
}

// CoordAt is the inverse of RowMajorIndex.
func CoordAt(origin Coord, shape []int64, idx int64) Coord {
	c := make(Coord, len(shape))
	for i := len(shape) - 1; i >= 0; i-- {
		c[i] = origin[i] + idx%shape[i]
		idx /= shape[i]
	}
	return c
}

// IterBox calls fn for every coordinate in the box in row-major order
// (last dimension fastest). fn may return false to stop early.
func IterBox(b Box, fn func(Coord) bool) {
	n := len(b.Lo)
	c := b.Lo.Clone()
	for {
		if !fn(c) {
			return
		}
		i := n - 1
		for i >= 0 {
			c[i]++
			if c[i] <= b.Hi[i] {
				break
			}
			c[i] = b.Lo[i]
			i--
		}
		if i < 0 {
			return
		}
	}
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
