package array

import (
	"math"
	"testing"
	"testing/quick"
)

// remoteSchema is the paper's running example:
//
//	define Remote (s1 = float, s2 = float, s3 = float) (I, J)
//	create My_remote as Remote [1024,1024]
func remoteSchema(hi int64) *Schema {
	return &Schema{
		Name: "My_remote",
		Dims: []Dimension{{Name: "I", High: hi}, {Name: "J", High: hi}},
		Attrs: []Attribute{
			{Name: "s1", Type: TFloat64},
			{Name: "s2", Type: TFloat64},
			{Name: "s3", Type: TFloat64},
		},
	}
}

func TestSchemaValidate(t *testing.T) {
	s := remoteSchema(16)
	if err := s.Validate(); err != nil {
		t.Fatalf("valid schema rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*Schema)
	}{
		{"no name", func(s *Schema) { s.Name = "" }},
		{"no dims", func(s *Schema) { s.Dims = nil }},
		{"no attrs", func(s *Schema) { s.Attrs = nil }},
		{"dup dim", func(s *Schema) { s.Dims[1].Name = "I" }},
		{"dup attr", func(s *Schema) { s.Attrs[1].Name = "s1" }},
		{"dim/attr clash", func(s *Schema) { s.Attrs[0].Name = "I" }},
		{"zero bound", func(s *Schema) { s.Dims[0].High = 0 }},
		{"nested missing schema", func(s *Schema) { s.Attrs[0] = Attribute{Name: "n", Type: TArray} }},
		{"bad type", func(s *Schema) { s.Attrs[0].Type = TInvalid }},
	}
	for _, c := range cases {
		bad := remoteSchema(16)
		c.mut(bad)
		if err := bad.Validate(); err == nil {
			t.Errorf("%s: invalid schema accepted", c.name)
		}
	}
}

func TestSchemaString(t *testing.T) {
	s := remoteSchema(1024)
	got := s.String()
	want := "My_remote (s1 = float, s2 = float, s3 = float) [I=1024, J=1024]"
	if got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestUnboundedSchema(t *testing.T) {
	// create My_remote_2 as Remote [*, *]
	s := &Schema{
		Name:  "My_remote_2",
		Dims:  []Dimension{{Name: "I", High: Unbounded}, {Name: "J", High: Unbounded}},
		Attrs: []Attribute{{Name: "s1", Type: TFloat64}},
	}
	a, err := New(s)
	if err != nil {
		t.Fatal(err)
	}
	if s.CellCount() != -1 {
		t.Errorf("unbounded CellCount = %d, want -1", s.CellCount())
	}
	// Unbounded arrays grow without restriction.
	if err := a.Set(Coord{500, 3}, Cell{Float64(1.5)}); err != nil {
		t.Fatal(err)
	}
	if a.Hwm(0) != 500 || a.Hwm(1) != 3 {
		t.Errorf("hwm = %d,%d want 500,3", a.Hwm(0), a.Hwm(1))
	}
	cell, ok := a.At(Coord{500, 3})
	if !ok || cell[0].Float != 1.5 {
		t.Errorf("At(500,3) = %v,%v", cell, ok)
	}
}

func TestSetAtRoundTrip(t *testing.T) {
	a := MustNew(remoteSchema(8))
	want := Cell{Float64(1), Float64(2), Float64(3)}
	if err := a.Set(Coord{7, 8}, want); err != nil {
		t.Fatal(err)
	}
	got, ok := a.At(Coord{7, 8})
	if !ok {
		t.Fatal("cell absent after Set")
	}
	for i := range want {
		if !got[i].Equal(want[i]) {
			t.Errorf("attr %d = %v, want %v", i, got[i], want[i])
		}
	}
	// A[7,8].x style access: attribute by index.
	if idx := a.Schema.AttrIndex("s2"); got[idx].Float != 2 {
		t.Errorf("A[7,8].s2 = %v, want 2", got[idx])
	}
}

func TestBoundsChecks(t *testing.T) {
	a := MustNew(remoteSchema(8))
	if err := a.Set(Coord{0, 1}, Cell{Float64(0), Float64(0), Float64(0)}); err == nil {
		t.Error("coordinate 0 accepted; dimensions start at 1")
	}
	if err := a.Set(Coord{9, 1}, Cell{Float64(0), Float64(0), Float64(0)}); err == nil {
		t.Error("coordinate above high-water mark accepted")
	}
	if err := a.Set(Coord{1}, Cell{Float64(0), Float64(0), Float64(0)}); err == nil {
		t.Error("wrong dimensionality accepted")
	}
	if err := a.Set(Coord{1, 1}, Cell{Float64(0)}); err == nil {
		t.Error("wrong attribute count accepted")
	}
}

func TestExists(t *testing.T) {
	a := MustNew(remoteSchema(8))
	if a.Exists(Coord{7, 7}) {
		t.Error("Exists?[A,7,7] true before write")
	}
	_ = a.Set(Coord{7, 7}, Cell{Float64(1), Float64(1), Float64(1)})
	if !a.Exists(Coord{7, 7}) {
		t.Error("Exists?[A,7,7] false after write")
	}
	a.Erase(Coord{7, 7})
	if a.Exists(Coord{7, 7}) {
		t.Error("Exists?[A,7,7] true after erase")
	}
}

func TestNullCells(t *testing.T) {
	a := MustNew(remoteSchema(4))
	_ = a.Set(Coord{1, 1}, Cell{NullValue(TFloat64), Float64(2), NullValue(TFloat64)})
	cell, ok := a.At(Coord{1, 1})
	if !ok {
		t.Fatal("cell absent")
	}
	if !cell[0].Null || cell[1].Null || !cell[2].Null {
		t.Errorf("null pattern wrong: %v", cell)
	}
	if !math.IsNaN(cell[0].AsFloat()) {
		t.Error("NULL AsFloat should be NaN")
	}
}

func TestNestedArrayAttribute(t *testing.T) {
	// §2.14: a 1-D time series with embedded arrays for search results.
	inner := &Schema{
		Name:  "results",
		Dims:  []Dimension{{Name: "rank", High: Unbounded}},
		Attrs: []Attribute{{Name: "item", Type: TInt64}, {Name: "clicked", Type: TBool}},
	}
	outer := &Schema{
		Name:  "session",
		Dims:  []Dimension{{Name: "t", High: Unbounded}},
		Attrs: []Attribute{{Name: "query", Type: TString}, {Name: "results", Type: TArray, Nested: inner}},
	}
	s := MustNew(outer)
	r := MustNew(inner)
	_ = r.Set(Coord{1}, Cell{Int64(7), Bool64(true)})
	_ = r.Set(Coord{2}, Cell{Int64(9), Bool64(false)})
	if err := s.Set(Coord{1}, Cell{String64("pre-war Gibson banjo"), Nested(r)}); err != nil {
		t.Fatal(err)
	}
	cell, ok := s.At(Coord{1})
	if !ok {
		t.Fatal("outer cell absent")
	}
	got := cell[1].Arr
	if got == nil {
		t.Fatal("nested array lost")
	}
	in, ok := got.At(Coord{2})
	if !ok || in[0].Int != 9 || in[1].Bool {
		t.Errorf("nested cell = %v,%v", in, ok)
	}
}

func TestChunkedLayout(t *testing.T) {
	s := remoteSchema(10)
	s.Dims[0].ChunkLen = 4
	s.Dims[1].ChunkLen = 4
	a := MustNew(s)
	if err := a.Fill(func(c Coord) Cell {
		return Cell{Float64(float64(c[0]*100 + c[1])), Float64(0), Float64(0)}
	}); err != nil {
		t.Fatal(err)
	}
	if got := a.Count(); got != 100 {
		t.Fatalf("Count = %d, want 100", got)
	}
	// 10/4 -> 3 chunks per dim -> 9 chunks; edge chunks are trimmed.
	chunks := a.Chunks()
	if len(chunks) != 9 {
		t.Fatalf("chunk count = %d, want 9", len(chunks))
	}
	last := chunks[len(chunks)-1]
	if last.Shape[0] != 2 || last.Shape[1] != 2 {
		t.Errorf("edge chunk shape = %v, want [2 2]", last.Shape)
	}
	for _, c := range []Coord{{1, 1}, {4, 4}, {5, 5}, {10, 10}, {4, 5}} {
		cell, ok := a.At(c)
		if !ok || cell[0].Float != float64(c[0]*100+c[1]) {
			t.Errorf("At%v = %v,%v", c, cell, ok)
		}
	}
}

func TestIterOrderAndStop(t *testing.T) {
	s := remoteSchema(3)
	s.Dims[0].ChunkLen = 2
	s.Dims[1].ChunkLen = 2
	a := MustNew(s)
	_ = a.Fill(func(c Coord) Cell { return Cell{Float64(0), Float64(0), Float64(0)} })
	var n int
	a.Iter(func(c Coord, cell Cell) bool {
		n++
		return n < 5
	})
	if n != 5 {
		t.Errorf("early stop visited %d cells, want 5", n)
	}
	n = 0
	a.Iter(func(c Coord, cell Cell) bool { n++; return true })
	if n != 9 {
		t.Errorf("full iteration visited %d, want 9", n)
	}
}

func TestRowMajorRoundTrip(t *testing.T) {
	f := func(x, y, z uint8) bool {
		shape := []int64{4, 5, 6}
		origin := Coord{1, 1, 1}
		c := Coord{int64(x%4) + 1, int64(y%5) + 1, int64(z%6) + 1}
		idx := RowMajorIndex(origin, shape, c)
		back := CoordAt(origin, shape, idx)
		return back.Equal(c) && idx >= 0 && idx < 4*5*6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBoxAlgebra(t *testing.T) {
	b1 := NewBox(Coord{1, 1}, Coord{4, 4})
	b2 := NewBox(Coord{3, 3}, Coord{6, 6})
	b3 := NewBox(Coord{5, 1}, Coord{6, 2})
	inter, ok := b1.Intersect(b2)
	if !ok || !inter.Lo.Equal(Coord{3, 3}) || !inter.Hi.Equal(Coord{4, 4}) {
		t.Errorf("intersect = %v,%v", inter, ok)
	}
	if _, ok := b1.Intersect(b3); ok {
		t.Error("disjoint boxes intersect")
	}
	if b1.Cells() != 16 {
		t.Errorf("cells = %d", b1.Cells())
	}
	if !b1.Contains(Coord{4, 4}) || b1.Contains(Coord{5, 4}) {
		t.Error("contains wrong")
	}
}

func TestBoxIntersectsProperty(t *testing.T) {
	f := func(a1, a2, b1, b2 int8) bool {
		lo1, hi1 := int64(min8(a1, a2)), int64(max8(a1, a2))
		lo2, hi2 := int64(min8(b1, b2)), int64(max8(b1, b2))
		x := NewBox(Coord{lo1}, Coord{hi1})
		y := NewBox(Coord{lo2}, Coord{hi2})
		want := hi1 >= lo2 && hi2 >= lo1
		return x.Intersects(y) == want && y.Intersects(x) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func min8(a, b int8) int8 {
	if a < b {
		return a
	}
	return b
}

func max8(a, b int8) int8 {
	if a > b {
		return a
	}
	return b
}

func TestBitmap(t *testing.T) {
	b := NewBitmap(130)
	b.Set(0)
	b.Set(64)
	b.Set(129)
	if !b.Get(0) || !b.Get(64) || !b.Get(129) || b.Get(1) {
		t.Error("get/set wrong")
	}
	if b.Count() != 3 {
		t.Errorf("count = %d, want 3", b.Count())
	}
	b.Clear(64)
	if b.Get(64) || b.Count() != 2 {
		t.Error("clear wrong")
	}
	b.SetAll()
	if b.Count() != 130 {
		t.Errorf("SetAll count = %d, want 130", b.Count())
	}
	c := b.Clone()
	c.Clear(0)
	if !b.Get(0) {
		t.Error("clone aliases original")
	}
}

func TestBitmapProperty(t *testing.T) {
	f := func(idxs []uint16) bool {
		b := NewBitmap(1 << 16)
		seen := map[uint16]bool{}
		for _, i := range idxs {
			b.Set(int64(i))
			seen[i] = true
		}
		if b.Count() != int64(len(seen)) {
			return false
		}
		for i := range seen {
			if !b.Get(int64(i)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestValueCompareAndEqual(t *testing.T) {
	if !Int64(3).Equal(Float64(3)) {
		t.Error("cross-numeric equality failed")
	}
	if Int64(3).Equal(Int64(4)) {
		t.Error("3 == 4")
	}
	if NullValue(TInt64).Equal(NullValue(TInt64)) {
		t.Error("NULL == NULL should be false (join semantics)")
	}
	if Int64(1).Compare(Int64(2)) != -1 || Int64(2).Compare(Int64(1)) != 1 || Int64(2).Compare(Int64(2)) != 0 {
		t.Error("int compare wrong")
	}
	if String64("a").Compare(String64("b")) != -1 {
		t.Error("string compare wrong")
	}
	if NullValue(TInt64).Compare(Int64(0)) != -1 {
		t.Error("NULL should sort first")
	}
}

func TestUncertainValue(t *testing.T) {
	v := UncertainFloat(3.5, 0.2)
	if v.Sigma != 0.2 || v.Float != 3.5 {
		t.Error("uncertain value lost components")
	}
	if v.String() != "3.5±0.2" {
		t.Errorf("String = %q", v.String())
	}
	s := &Schema{
		Name:  "U",
		Dims:  []Dimension{{Name: "i", High: 4}},
		Attrs: []Attribute{{Name: "x", Type: TFloat64, Uncertain: true}},
	}
	a := MustNew(s)
	_ = a.Set(Coord{2}, Cell{UncertainFloat(1.0, 0.5)})
	got, _ := a.At(Coord{2})
	if got[0].Sigma != 0.5 {
		t.Errorf("sigma lost through chunk: %v", got[0])
	}
}

func TestCloneIndependence(t *testing.T) {
	a := MustNew(remoteSchema(4))
	_ = a.Fill(func(c Coord) Cell { return Cell{Float64(1), Float64(1), Float64(1)} })
	b := a.Clone()
	_ = b.Set(Coord{1, 1}, Cell{Float64(9), Float64(9), Float64(9)})
	orig, _ := a.At(Coord{1, 1})
	if orig[0].Float != 1 {
		t.Error("clone aliases original chunks")
	}
}

func TestParseType(t *testing.T) {
	for _, c := range []struct {
		in   string
		want Type
	}{{"float", TFloat64}, {"int64", TInt64}, {"integer", TInt64}, {"string", TString}, {"bool", TBool}} {
		got, err := ParseType(c.in)
		if err != nil || got != c.want {
			t.Errorf("ParseType(%q) = %v,%v", c.in, got, err)
		}
	}
	if _, err := ParseType("quaternion"); err == nil {
		t.Error("unknown type accepted")
	}
}

func TestRender2D(t *testing.T) {
	s := &Schema{
		Name:  "A",
		Dims:  []Dimension{{Name: "x", High: 2}, {Name: "y", High: 2}},
		Attrs: []Attribute{{Name: "v", Type: TInt64}},
	}
	a := MustNew(s)
	_ = a.Set(Coord{1, 1}, Cell{Int64(1)})
	_ = a.Set(Coord{2, 2}, Cell{NullValue(TInt64)})
	out := Render(a)
	if !containsAll(out, "x\\y", "NULL", "1", ".") {
		t.Errorf("render missing parts:\n%s", out)
	}
}

func containsAll(s string, subs ...string) bool {
	for _, sub := range subs {
		if !contains(s, sub) {
			return false
		}
	}
	return true
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 || indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

func TestPlumbingAccessors(t *testing.T) {
	s := remoteSchema(8)
	s.Dims[0].ChunkLen = 4
	a := MustNew(s)
	_ = a.Set(Coord{3, 3}, Cell{Float64(1), Float64(2), Float64(3)})

	if b := a.Bounds(); len(b) != 2 || b[0] != 8 || b[1] != 8 {
		t.Errorf("Bounds = %v", b)
	}
	ch, ok := a.ChunkAt(Coord{3, 3})
	if !ok || ch == nil {
		t.Fatal("ChunkAt missed allocated chunk")
	}
	if ch.Slots() == 0 || ch.Cols[0].Len() != ch.Slots() {
		t.Errorf("chunk slots/len = %d/%d", ch.Slots(), ch.Cols[0].Len())
	}
	if _, ok := a.ChunkAt(Coord{8, 8}); ok {
		t.Error("ChunkAt found unallocated chunk")
	}
	// Holds answers from the last-chunk cache and, past it, from the map.
	if !a.Holds(Coord{4, 8}) || a.Holds(Coord{8, 8}) {
		t.Error("Holds after one chunk: want [4 8] held, [8 8] not")
	}
	if _, _, err := a.Slot(Coord{8, 8}); err != nil {
		t.Fatal(err)
	}
	if !a.Holds(Coord{1, 1}) || !a.Holds(Coord{5, 5}) {
		t.Error("Holds lost a chunk once another was touched")
	}
	if _, _, err := a.Slot(Coord{9, 1}); err == nil {
		t.Error("Slot took a coordinate past the bound")
	}
	if a.ByteSize() == 0 || ch.ByteSize() == 0 {
		t.Error("ByteSize = 0")
	}
	if !s.Dims[0].Bounded() {
		t.Error("bounded dim reports unbounded")
	}
	ub := Dimension{Name: "u", High: Unbounded}
	if ub.Bounded() {
		t.Error("unbounded dim reports bounded")
	}
	// Bitmap word round trip.
	b := NewBitmap(70)
	b.Set(1)
	b.Set(69)
	back := FromWords(70, b.Words())
	if !back.Get(1) || !back.Get(69) || back.Get(2) {
		t.Error("FromWords round trip wrong")
	}
	// Box Shape and String.
	box := NewBox(Coord{2, 3}, Coord{4, 9})
	if sh := box.Shape(); sh[0] != 3 || sh[1] != 7 {
		t.Errorf("Shape = %v", sh)
	}
	if box.String() != "[2:4, 3:9]" {
		t.Errorf("Box.String = %q", box.String())
	}
	if Coord([]int64{7, 8}).String() != "[7, 8]" {
		t.Errorf("Coord.String = %q", Coord([]int64{7, 8}).String())
	}
}

func TestRender1DAndList(t *testing.T) {
	s := &Schema{
		Name:  "v",
		Dims:  []Dimension{{Name: "x", High: 3}},
		Attrs: []Attribute{{Name: "val", Type: TInt64}},
	}
	a := MustNew(s)
	_ = a.Set(Coord{1}, Cell{Int64(7)})
	_ = a.Set(Coord{3}, Cell{NullValue(TInt64)})
	out := Render(a)
	if !containsAll(out, "x", "val", "7", "NULL", ".") {
		t.Errorf("render1D:\n%s", out)
	}
	// 3-D arrays fall back to the coordinate list form.
	s3 := &Schema{
		Name: "cube",
		Dims: []Dimension{
			{Name: "a", High: 2}, {Name: "b", High: 2}, {Name: "c", High: 2},
		},
		Attrs: []Attribute{{Name: "v", Type: TInt64}},
	}
	cube := MustNew(s3)
	_ = cube.Set(Coord{1, 2, 1}, Cell{Int64(5)})
	out = Render(cube)
	if !containsAll(out, "[1, 2, 1]", "5") {
		t.Errorf("renderList:\n%s", out)
	}
}

func TestSchemaClone(t *testing.T) {
	inner := &Schema{
		Name:  "in",
		Dims:  []Dimension{{Name: "k", High: 2}},
		Attrs: []Attribute{{Name: "n", Type: TInt64}},
	}
	s := &Schema{
		Name: "outer",
		Dims: []Dimension{{Name: "x", High: 4}},
		Attrs: []Attribute{
			{Name: "v", Type: TFloat64},
			{Name: "sub", Type: TArray, Nested: inner},
		},
	}
	cp := s.Clone()
	cp.Attrs[1].Nested.Dims[0].High = 99
	if inner.Dims[0].High != 2 {
		t.Error("Clone aliases nested schema")
	}
}
