package array

import (
	"fmt"
	"strings"
)

// Unbounded is the High value of a dimension declared with "*" (§2.1):
// the array may grow without restriction in that dimension and the schema
// tracks only a high-water mark.
const Unbounded int64 = -1

// HistoryDim is the reserved name of the history dimension that every
// updatable array acquires (§2.5). The version subsystem appends it
// automatically.
const HistoryDim = "history"

// Dimension is one named, integer-valued dimension. Per the paper, each
// dimension has contiguous integer values between 1 and N (the high-water
// mark). An unbounded dimension has High == Unbounded and grows as cells
// are written.
type Dimension struct {
	Name string
	High int64 // high-water mark, or Unbounded
	// ChunkLen is the storage stride in this dimension (§2.8 buckets are
	// "defined by a stride in each dimension"). Zero means one chunk spans
	// the whole dimension.
	ChunkLen int64
}

// GridLen is the dimension's chunk grid step: ChunkLen, or when that is
// unset the whole dimension if it is bounded and DefaultChunkLen if not.
func (d Dimension) GridLen() int64 {
	switch {
	case d.ChunkLen > 0:
		return d.ChunkLen
	case d.High != Unbounded:
		return d.High
	}
	return DefaultChunkLen
}

// Bounded reports whether the dimension has a fixed high-water mark.
func (d Dimension) Bounded() bool { return d.High != Unbounded }

// Attribute is one named value in each cell's record. An attribute is a
// scalar or a nested array (Type == TArray, element schema in Nested).
// Uncertain marks the paper's "uncertain x" declaration (§2.13).
type Attribute struct {
	Name      string
	Type      Type
	Uncertain bool
	Nested    *Schema
}

// Schema describes an array type: named dimensions plus the record type of
// each cell. It corresponds to the paper's
//
//	define ArrayType ({name = Type-1}) ({dname})
//
// statement; a physical array is a Schema plus chunk data, created with
// concrete high-water marks.
type Schema struct {
	Name      string
	Dims      []Dimension
	Attrs     []Attribute
	Updatable bool // declared "define updatable ..." (§2.5)
}

// DimIndex returns the position of the named dimension, or -1.
func (s *Schema) DimIndex(name string) int {
	for i, d := range s.Dims {
		if d.Name == name {
			return i
		}
	}
	return -1
}

// AttrIndex returns the position of the named attribute, or -1.
func (s *Schema) AttrIndex(name string) int {
	for i, a := range s.Attrs {
		if a.Name == name {
			return i
		}
	}
	return -1
}

// Validate checks structural invariants: nonempty dims and attrs, unique
// names, positive bounds, valid types.
func (s *Schema) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("array: schema has no name")
	}
	if len(s.Dims) == 0 {
		return fmt.Errorf("array %s: at least one dimension required", s.Name)
	}
	if len(s.Attrs) == 0 {
		return fmt.Errorf("array %s: at least one attribute required", s.Name)
	}
	seen := map[string]bool{}
	for _, d := range s.Dims {
		if d.Name == "" {
			return fmt.Errorf("array %s: unnamed dimension", s.Name)
		}
		if seen[d.Name] {
			return fmt.Errorf("array %s: duplicate name %q", s.Name, d.Name)
		}
		seen[d.Name] = true
		if d.High != Unbounded && d.High < 1 {
			return fmt.Errorf("array %s: dimension %s has high-water mark %d < 1", s.Name, d.Name, d.High)
		}
		if d.ChunkLen < 0 {
			return fmt.Errorf("array %s: dimension %s has negative chunk length", s.Name, d.Name)
		}
	}
	for _, a := range s.Attrs {
		if a.Name == "" {
			return fmt.Errorf("array %s: unnamed attribute", s.Name)
		}
		if seen[a.Name] {
			return fmt.Errorf("array %s: duplicate name %q", s.Name, a.Name)
		}
		seen[a.Name] = true
		switch a.Type {
		case TInt64, TFloat64, TString, TBool:
		case TArray:
			if a.Nested == nil {
				return fmt.Errorf("array %s: nested attribute %s has no element schema", s.Name, a.Name)
			}
			if err := a.Nested.Validate(); err != nil {
				return fmt.Errorf("array %s: nested attribute %s: %w", s.Name, a.Name, err)
			}
		default:
			return fmt.Errorf("array %s: attribute %s has invalid type", s.Name, a.Name)
		}
	}
	return nil
}

// Clone deep-copies the schema.
func (s *Schema) Clone() *Schema {
	out := &Schema{Name: s.Name, Updatable: s.Updatable}
	out.Dims = append([]Dimension(nil), s.Dims...)
	out.Attrs = make([]Attribute, len(s.Attrs))
	for i, a := range s.Attrs {
		out.Attrs[i] = a
		if a.Nested != nil {
			out.Attrs[i].Nested = a.Nested.Clone()
		}
	}
	return out
}

// String renders the schema in the paper's define/create syntax, e.g.
//
//	Remote (s1 = float, s2 = float, s3 = float) [I=1024, J=1024]
func (s *Schema) String() string {
	var b strings.Builder
	b.WriteString(s.Name)
	b.WriteString(" (")
	for i, a := range s.Attrs {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s = ", a.Name)
		if a.Uncertain {
			b.WriteString("uncertain ")
		}
		if a.Type == TArray {
			b.WriteString(a.Nested.String())
		} else {
			b.WriteString(a.Type.String())
		}
	}
	b.WriteString(") [")
	for i, d := range s.Dims {
		if i > 0 {
			b.WriteString(", ")
		}
		if d.High == Unbounded {
			fmt.Fprintf(&b, "%s=*", d.Name)
		} else {
			fmt.Fprintf(&b, "%s=%d", d.Name, d.High)
		}
	}
	b.WriteString("]")
	return b.String()
}

// Bounds returns the per-dimension high-water marks.
func (s *Schema) Bounds() []int64 {
	out := make([]int64, len(s.Dims))
	for i, d := range s.Dims {
		out[i] = d.High
	}
	return out
}

// CellCount returns the total number of addressable cells, or -1 if any
// dimension is unbounded.
func (s *Schema) CellCount() int64 {
	n := int64(1)
	for _, d := range s.Dims {
		if d.High == Unbounded {
			return -1
		}
		n *= d.High
	}
	return n
}
