package core

import (
	"fmt"
	"testing"

	"scidb/internal/array"
	"scidb/internal/cluster"
	"scidb/internal/partition"
)

// TestNamesResolveByOneRule runs filter, apply, cjoin and a pushed-down
// aggregate(filter(…)) over every kind of name an expression can hold, and
// checks each answer against the name rule worked out by hand: "Q.name" is
// attribute Q_name, then attribute name, then dimension name; a plain name
// is an attribute, then a dimension. A is a 6×4 grid array with v = 10x+y
// (NULL at [2, 2]), Q_v = xy and Q_x = 3y, held on two nodes; B holds
// v = i and w = 10i for i in 1..3, so cjoin(A, B, …) names B's v "B_v".
func TestNamesResolveByOneRule(t *testing.T) {
	db := testDB()
	tr := cluster.NewLocalWithOptions(2, cluster.WorkerOptions{Stride: []int64{4, 4}})
	defer tr.Close()
	co := cluster.NewCoordinator(tr, 0)
	db.AttachCluster(co)
	for _, name := range []string{"A", "E"} {
		s := &array.Schema{
			Name: name,
			Dims: []array.Dimension{{Name: "x", High: 6}, {Name: "y", High: 4}},
			Attrs: []array.Attribute{
				{Name: "v", Type: array.TInt64}, {Name: "Q_v", Type: array.TInt64}, {Name: "Q_x", Type: array.TInt64},
			},
		}
		if err := co.Create(name, s, partition.Block{Nodes: 2, SplitDim: 0, High: 6}); err != nil {
			t.Fatal(err)
		}
	}
	for x := int64(1); x <= 6; x++ {
		for y := int64(1); y <= 4; y++ {
			v := array.Int64(10*x + y)
			if x == 2 && y == 2 {
				v = array.NullValue(array.TInt64)
			}
			if err := co.Put("A", array.Coord{x, y}, array.Cell{v, array.Int64(x * y), array.Int64(3 * y)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := co.Flush("A"); err != nil {
		t.Fatal(err)
	}
	exec(t, db, "define array TB (v = int64, w = int64) (i)")
	exec(t, db, "create array B as TB [3]")
	for i := int64(1); i <= 3; i++ {
		exec(t, db, fmt.Sprintf("insert into B [%d] values (%d, %d)", i, i, 10*i))
	}

	// val is the value the name must denote at A's cell [x, y] (and B's
	// cell [i]); null reports a NULL there.
	type val func(x, y, i int64) (n int64, null bool)
	for _, c := range []struct {
		kind, name string
		k          int64
		val        val
		joinOnly   bool
	}{
		{"plain attribute", "v", 25, func(x, y, _ int64) (int64, bool) { return 10*x + y, x == 2 && y == 2 }, false},
		{"dimension", "x", 3, func(x, _, _ int64) (int64, bool) { return x, false }, false},
		{"qualified attribute", "A.v", 40, func(x, y, _ int64) (int64, bool) { return 10*x + y, x == 2 && y == 2 }, false},
		{"qualified dimension", "A.y", 2, func(_, y, _ int64) (int64, bool) { return y, false }, false},
		{"Q_name before the attribute", "Q.v", 6, func(x, y, _ int64) (int64, bool) { return x * y, false }, false},
		{"attribute shadowing a dimension", "Q.x", 6, func(_, y, _ int64) (int64, bool) { return 3 * y, false }, false},
		{"join-collided Q_name", "B.v", 1, func(_, _, i int64) (int64, bool) { return i, false }, true},
		{"join-collided name written out", "B_v", 2, func(_, _, i int64) (int64, bool) { return i, false }, true},
		{"right-side attribute", "w", 15, func(_, _, i int64) (int64, bool) { return 10 * i, false }, true},
		{"right-side dimension", "i", 1, func(_, _, i int64) (int64, bool) { return i, false }, true},
	} {
		keep := func(x, y, i int64) bool {
			n, null := c.val(x, y, i)
			return !null && n > c.k
		}
		pred := fmt.Sprintf("%s > %d", c.name, c.k)

		r := exec(t, db, fmt.Sprintf("cjoin(A, B, %s)", pred))
		for x := int64(1); x <= 6; x++ {
			for y := int64(1); y <= 4; y++ {
				for i := int64(1); i <= 3; i++ {
					cell, ok := r.Array.At(array.Coord{x, y, i})
					if !ok || !cell[1].Null != keep(x, y, i) {
						t.Errorf("%s: cjoin(A, B, %s) at [%d, %d, %d] = %v, %v", c.kind, pred, x, y, i, cell, ok)
					}
				}
			}
		}
		if c.joinOnly {
			continue
		}

		r = exec(t, db, fmt.Sprintf("filter(A, %s)", pred))
		var count, sum int64
		for x := int64(1); x <= 6; x++ {
			for y := int64(1); y <= 4; y++ {
				cell, ok := r.Array.At(array.Coord{x, y})
				if !ok || !cell[1].Null != keep(x, y, 0) {
					t.Errorf("%s: filter(A, %s) at [%d, %d] = %v, %v", c.kind, pred, x, y, cell, ok)
				}
				if keep(x, y, 0) {
					count, sum = count+1, sum+x*y
				}
			}
		}

		r = exec(t, db, fmt.Sprintf("apply(A, z = %s)", c.name))
		for x := int64(1); x <= 6; x++ {
			for y := int64(1); y <= 4; y++ {
				n, null := c.val(x, y, 0)
				cell, ok := r.Array.At(array.Coord{x, y})
				if !ok || cell[3].Null != null || !null && cell[3].Int != n {
					t.Errorf("%s: apply(A, z = %s) at [%d, %d] = %v, %v; want %d (NULL %v)", c.kind, c.name, x, y, cell, ok, n, null)
				}
			}
		}

		r = exec(t, db, fmt.Sprintf("aggregate(filter(A, %s), {}, count(Q_v), sum(Q_v))", pred))
		cell, ok := r.Array.At(array.Coord{1})
		if !ok || cell[0].Int != count || cell[1].Null != (count == 0) || count > 0 && cell[1].Int != sum {
			t.Errorf("%s: aggregate(filter(A, %s)) = %v, %v; want count %d, sum %d", c.kind, pred, cell, ok, count, sum)
		}
	}

	// An unknown name fails where a cell is evaluated, so over the empty E
	// every statement answers.
	for _, q := range []string{
		"filter(%s, zz > 1)", "apply(%s, z = zz)", "cjoin(%s, B, zz > 1)", "aggregate(filter(%s, zz > 1), {}, count(Q_v))",
		"filter(%s, Q.zz > 1)", "cjoin(%s, B, B.zz > 1)",
	} {
		execErr(t, db, fmt.Sprintf(q, "A"))
		exec(t, db, fmt.Sprintf(q, "E"))
	}
}
