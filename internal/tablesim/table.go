package tablesim

import (
	"fmt"
	"math"

	"scidb/internal/array"
)

// Column describes one table column. Values reuse array.Value so the two
// engines share scalar semantics (NULL, comparison, arithmetic).
type Column struct {
	Name string
	Type array.Type
}

// Row is one tuple.
type Row []array.Value

// Table is a heap of rows plus optional B-tree indexes over integer
// columns.
type Table struct {
	Name    string
	Cols    []Column
	rows    []Row
	indexes map[string]*tableIndex
}

type tableIndex struct {
	cols []int
	tree *BTree
}

// NewTable creates an empty table.
func NewTable(name string, cols []Column) (*Table, error) {
	if name == "" || len(cols) == 0 {
		return nil, fmt.Errorf("tablesim: table needs a name and columns")
	}
	seen := map[string]bool{}
	for _, c := range cols {
		if c.Name == "" || seen[c.Name] {
			return nil, fmt.Errorf("tablesim: bad column name %q", c.Name)
		}
		seen[c.Name] = true
	}
	return &Table{Name: name, Cols: cols, indexes: map[string]*tableIndex{}}, nil
}

// ColIndex resolves a column name.
func (t *Table) ColIndex(name string) int {
	for i, c := range t.Cols {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// NumRows returns the row count.
func (t *Table) NumRows() int { return len(t.rows) }

// Insert appends a tuple, maintaining all indexes, and returns its row id.
func (t *Table) Insert(r Row) (int64, error) {
	if len(r) != len(t.Cols) {
		return 0, fmt.Errorf("tablesim: row has %d values, table %s has %d columns", len(r), t.Name, len(t.Cols))
	}
	id := int64(len(t.rows))
	t.rows = append(t.rows, append(Row(nil), r...))
	for _, idx := range t.indexes {
		idx.tree.Insert(t.keyFor(idx, r), id)
	}
	return id, nil
}

// Row fetches a tuple by id.
func (t *Table) Row(id int64) Row { return t.rows[id] }

func (t *Table) keyFor(idx *tableIndex, r Row) bKey {
	k := make(bKey, len(idx.cols))
	for i, c := range idx.cols {
		k[i] = r[c].AsInt()
	}
	return k
}

// CreateIndex builds a B-tree over the named integer columns. Existing rows
// are indexed.
func (t *Table) CreateIndex(name string, cols ...string) error {
	if _, ok := t.indexes[name]; ok {
		return fmt.Errorf("tablesim: index %q exists", name)
	}
	idx := &tableIndex{tree: NewBTree()}
	for _, cn := range cols {
		c := t.ColIndex(cn)
		if c < 0 {
			return fmt.Errorf("tablesim: unknown column %q", cn)
		}
		idx.cols = append(idx.cols, c)
	}
	if len(idx.cols) == 0 {
		return fmt.Errorf("tablesim: index needs at least one column")
	}
	for id, r := range t.rows {
		idx.tree.Insert(t.keyFor(idx, r), int64(id))
	}
	t.indexes[name] = idx
	return nil
}

// Scan calls fn for every row (full table scan). Return false to stop.
func (t *Table) Scan(fn func(id int64, r Row) bool) {
	for id, r := range t.rows {
		if !fn(int64(id), r) {
			return
		}
	}
}

// IndexRange walks rows whose index key is within [lo, hi] via the named
// B-tree — the access path a table-simulated array uses for a subslab.
func (t *Table) IndexRange(index string, lo, hi []int64, fn func(id int64, r Row) bool) error {
	idx, ok := t.indexes[index]
	if !ok {
		return fmt.Errorf("tablesim: unknown index %q", index)
	}
	stop := false
	idx.tree.Range(bKey(lo), bKey(hi), func(k bKey, rows []int64) bool {
		for _, id := range rows {
			if !fn(id, t.rows[id]) {
				stop = true
				return false
			}
		}
		return true
	})
	_ = stop
	return nil
}

// IndexLookup fetches rows with exactly the given key.
func (t *Table) IndexLookup(index string, key []int64) ([]Row, error) {
	idx, ok := t.indexes[index]
	if !ok {
		return nil, fmt.Errorf("tablesim: unknown index %q", index)
	}
	ids := idx.tree.Get(bKey(key))
	out := make([]Row, len(ids))
	for i, id := range ids {
		out[i] = t.rows[id]
	}
	return out, nil
}

// Select materializes rows matching pred, projecting the named columns
// (nil = all).
func (t *Table) Select(pred func(Row) bool, cols []string) (*Table, error) {
	proj := make([]int, 0, len(cols))
	var outCols []Column
	if cols == nil {
		for i, c := range t.Cols {
			proj = append(proj, i)
			outCols = append(outCols, c)
		}
	} else {
		for _, cn := range cols {
			i := t.ColIndex(cn)
			if i < 0 {
				return nil, fmt.Errorf("tablesim: unknown column %q", cn)
			}
			proj = append(proj, i)
			outCols = append(outCols, t.Cols[i])
		}
	}
	out, err := NewTable(t.Name+"_sel", outCols)
	if err != nil {
		return nil, err
	}
	for _, r := range t.rows {
		if pred != nil && !pred(r) {
			continue
		}
		nr := make(Row, len(proj))
		for i, c := range proj {
			nr[i] = r[c]
		}
		if _, err := out.Insert(nr); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// GroupBy groups rows by the named key columns and aggregates the agg
// column with a simple aggregate ("sum", "count", "avg", "min", "max"),
// mirroring SQL GROUP BY on a weblog-style table.
func (t *Table) GroupBy(keyCols []string, agg, aggCol string) (*Table, error) {
	kidx := make([]int, len(keyCols))
	for i, cn := range keyCols {
		c := t.ColIndex(cn)
		if c < 0 {
			return nil, fmt.Errorf("tablesim: unknown column %q", cn)
		}
		kidx[i] = c
	}
	vidx := 0
	if aggCol != "" && aggCol != "*" {
		vidx = t.ColIndex(aggCol)
		if vidx < 0 {
			return nil, fmt.Errorf("tablesim: unknown column %q", aggCol)
		}
	}
	type acc struct {
		key        Row
		sum        float64
		count      int64
		min, max   float64
		seenMinMax bool // a non-NaN value set min and max
	}
	groups := map[string]*acc{}
	order := []string{}
	for _, r := range t.rows {
		key := make(Row, len(kidx))
		ks := ""
		for i, c := range kidx {
			key[i] = r[c]
			ks += "|" + r[c].String()
		}
		g, ok := groups[ks]
		if !ok {
			g = &acc{key: key}
			groups[ks] = g
			order = append(order, ks)
		}
		v := r[vidx]
		if v.Null {
			continue
		}
		x := v.AsFloat()
		g.sum += x
		g.count++
		// min and max pass over NaNs as they pass over NULLs; a group with
		// values but no number answers NaN.
		if math.IsNaN(x) {
			continue
		}
		if !g.seenMinMax || x < g.min {
			g.min = x
		}
		if !g.seenMinMax || x > g.max {
			g.max = x
		}
		g.seenMinMax = true
	}
	outCols := make([]Column, 0, len(kidx)+1)
	for i := range kidx {
		outCols = append(outCols, t.Cols[kidx[i]])
	}
	aggType := array.TFloat64
	if agg == "count" {
		aggType = array.TInt64
	}
	outCols = append(outCols, Column{Name: agg, Type: aggType})
	out, err := NewTable(t.Name+"_grp", outCols)
	if err != nil {
		return nil, err
	}
	for _, ks := range order {
		g := groups[ks]
		var v array.Value
		switch agg {
		case "sum":
			v = array.Float64(g.sum)
		case "count":
			v = array.Int64(g.count)
		case "avg":
			if g.count == 0 {
				v = array.NullValue(array.TFloat64)
			} else {
				v = array.Float64(g.sum / float64(g.count))
			}
		case "min", "max":
			switch {
			case g.count == 0:
				v = array.NullValue(array.TFloat64)
			case !g.seenMinMax:
				v = array.Float64(math.NaN())
			case agg == "min":
				v = array.Float64(g.min)
			default:
				v = array.Float64(g.max)
			}
		default:
			return nil, fmt.Errorf("tablesim: unknown aggregate %q", agg)
		}
		if _, err := out.Insert(append(append(Row(nil), g.key...), v)); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// HashJoin equijoins two tables on left.lcol = right.rcol, concatenating
// tuples.
func HashJoin(left, right *Table, lcol, rcol string) (*Table, error) {
	li := left.ColIndex(lcol)
	ri := right.ColIndex(rcol)
	if li < 0 || ri < 0 {
		return nil, fmt.Errorf("tablesim: join column missing")
	}
	outCols := append([]Column(nil), left.Cols...)
	for _, c := range right.Cols {
		name := c.Name
		for _, e := range outCols {
			if e.Name == name {
				name = right.Name + "_" + name
				break
			}
		}
		outCols = append(outCols, Column{Name: name, Type: c.Type})
	}
	out, err := NewTable(left.Name+"_join_"+right.Name, outCols)
	if err != nil {
		return nil, err
	}
	// Build on the smaller side.
	build, probe, bi, pi, buildIsRight := right, left, ri, li, true
	if left.NumRows() < right.NumRows() {
		build, probe, bi, pi, buildIsRight = left, right, li, ri, false
	}
	ht := map[string][]Row{}
	build.Scan(func(_ int64, r Row) bool {
		if !r[bi].Null {
			k := r[bi].String()
			ht[k] = append(ht[k], r)
		}
		return true
	})
	var insErr error
	probe.Scan(func(_ int64, r Row) bool {
		if r[pi].Null {
			return true
		}
		for _, m := range ht[r[pi].String()] {
			var joined Row
			if buildIsRight {
				joined = append(append(Row(nil), r...), m...)
			} else {
				joined = append(append(Row(nil), m...), r...)
			}
			if _, err := out.Insert(joined); err != nil {
				insErr = err
				return false
			}
		}
		return true
	})
	return out, insErr
}

// FromArray stores an array as a relational table — the "simulating arrays
// on top of tables" representation the ASAP study measured: one row per
// cell with the coordinates as integer columns, plus a composite B-tree
// over the coordinates.
func FromArray(a *array.Array, indexName string) (*Table, error) {
	var cols []Column
	var dimNames []string
	for _, d := range a.Schema.Dims {
		cols = append(cols, Column{Name: d.Name, Type: array.TInt64})
		dimNames = append(dimNames, d.Name)
	}
	for _, at := range a.Schema.Attrs {
		if at.Type == array.TArray {
			return nil, fmt.Errorf("tablesim: nested attribute %s cannot be flattened", at.Name)
		}
		cols = append(cols, Column{Name: at.Name, Type: at.Type})
	}
	t, err := NewTable(a.Schema.Name+"_tab", cols)
	if err != nil {
		return nil, err
	}
	var insErr error
	a.Iter(func(c array.Coord, cell array.Cell) bool {
		r := make(Row, 0, len(c)+len(cell))
		for _, v := range c {
			r = append(r, array.Int64(v))
		}
		r = append(r, cell...)
		if _, err := t.Insert(r); err != nil {
			insErr = err
			return false
		}
		return true
	})
	if insErr != nil {
		return nil, insErr
	}
	if indexName != "" {
		if err := t.CreateIndex(indexName, dimNames...); err != nil {
			return nil, err
		}
	}
	return t, nil
}
