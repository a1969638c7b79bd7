package experiments

import (
	"context"
	"fmt"
	"io"

	"scidb/internal/array"
	"scidb/internal/ops"
	"scidb/internal/udf"
)

// figVec builds the figures' 1-D inputs: value i at index i.
func figVec(name, dim string, vals ...int64) *array.Array {
	s := &array.Schema{
		Name:  name,
		Dims:  []array.Dimension{{Name: dim, High: int64(len(vals))}},
		Attrs: []array.Attribute{{Name: "val", Type: array.TInt64}},
	}
	a := array.MustNew(s)
	for i, v := range vals {
		_ = a.Set(array.Coord{int64(i + 1)}, array.Cell{array.Int64(v)})
	}
	return a
}

func init() {
	register(&Experiment{
		ID:    "FIG1",
		Title: "Figure 1: Sjoin(A, B, A.x = B.x) on two 1-D arrays",
		Run: func(w io.Writer, _ bool) error {
			header(w, "FIG1", "Sjoin(A, B, A.x = B.x)")
			a := figVec("A", "x", 1, 2)
			b := figVec("B", "x", 1, 2)
			res, err := ops.Sjoin(a, b, []ops.DimPair{{LDim: "x", RDim: "x"}})
			if err != nil {
				return err
			}
			fmt.Fprintln(w, "input A:")
			fmt.Fprint(w, array.Render(a))
			fmt.Fprintln(w, "input B:")
			fmt.Fprint(w, array.Render(b))
			fmt.Fprintln(w, "Sjoin(A, B, A.x = B.x):")
			fmt.Fprint(w, array.Render(res))
			fmt.Fprintf(w, "dimensionality: %d (m + n - k = 1 + 1 - 1); paper expects [1 -> 1,1; 2 -> 2,2]\n",
				len(res.Schema.Dims))
			return checkCells(res, map[string][2]int64{
				"[1]": {1, 1},
				"[2]": {2, 2},
			})
		},
	})

	register(&Experiment{
		ID:    "FIG2",
		Title: "Figure 2: Aggregate(H, {Y}, Sum(*)) groups on y",
		Run: func(w io.Writer, _ bool) error {
			header(w, "FIG2", "Aggregate(H, {Y}, Sum(*))")
			s := &array.Schema{
				Name:  "H",
				Dims:  []array.Dimension{{Name: "x", High: 2}, {Name: "y", High: 2}},
				Attrs: []array.Attribute{{Name: "val", Type: array.TInt64}},
			}
			h := array.MustNew(s)
			for _, c := range []struct {
				x, y, v int64
			}{{1, 1, 1}, {1, 2, 3}, {2, 1, 3}, {2, 2, 4}} {
				_ = h.Set(array.Coord{c.x, c.y}, array.Cell{array.Int64(c.v)})
			}
			res, err := ops.Aggregate(h, []string{"y"}, []ops.AggSpec{{Agg: "sum", Attr: "*"}}, udf.NewRegistry())
			if err != nil {
				return err
			}
			fmt.Fprintln(w, "input H:")
			fmt.Fprint(w, array.Render(h))
			fmt.Fprintln(w, "Aggregate(H, {Y}, Sum(*)):")
			fmt.Fprint(w, array.Render(res))
			fmt.Fprintln(w, "paper expects [y=1 -> 4; y=2 -> 7]")
			c1, _ := res.At(array.Coord{1})
			c2, _ := res.At(array.Coord{2})
			if c1 == nil || c2 == nil || c1[0].AsInt() != 4 || c2[0].AsInt() != 7 {
				return fmt.Errorf("FIG2 mismatch: got %v, %v", c1, c2)
			}
			return nil
		},
	})

	register(&Experiment{
		ID:    "FIG3",
		Title: "Figure 3: Cjoin(A, B, A.val = B.val) with NULL fills",
		Run: func(w io.Writer, _ bool) error {
			header(w, "FIG3", "Cjoin(A, B, A.val = B.val)")
			a := figVec("A", "x", 1, 2)
			b := figVec("B", "y", 1, 2)
			pred := ops.Binary{Op: ops.OpEq, L: ops.AttrRef{Name: "val"}, R: ops.AttrRef{Name: "B_val"}}
			res, err := ops.Cjoin(context.Background(), a, b, pred, udf.NewRegistry())
			if err != nil {
				return err
			}
			fmt.Fprintln(w, "Cjoin(A, B, A.val = B.val):")
			fmt.Fprint(w, array.Render(res))
			fmt.Fprintf(w, "dimensionality: %d (m + n); paper expects diagonal tuples, off-diagonal NULL\n",
				len(res.Schema.Dims))
			for _, probe := range []struct {
				c        array.Coord
				wantNull bool
				want     int64
			}{
				{array.Coord{1, 1}, false, 1},
				{array.Coord{2, 2}, false, 2},
				{array.Coord{1, 2}, true, 0},
				{array.Coord{2, 1}, true, 0},
			} {
				cell, ok := res.At(probe.c)
				if !ok {
					return fmt.Errorf("FIG3: cell %v absent", probe.c)
				}
				if probe.wantNull != cell[0].Null {
					return fmt.Errorf("FIG3: cell %v null=%v, want %v", probe.c, cell[0].Null, probe.wantNull)
				}
				if !probe.wantNull && cell[0].AsInt() != probe.want {
					return fmt.Errorf("FIG3: cell %v = %v, want %d", probe.c, cell[0], probe.want)
				}
			}
			return nil
		},
	})
}

// checkCells verifies a 1-D two-attribute result against expected pairs.
func checkCells(a *array.Array, want map[string][2]int64) error {
	for key, pair := range want {
		var c array.Coord
		if _, err := fmt.Sscanf(key, "[%d]", new(int64)); err == nil {
			var v int64
			fmt.Sscanf(key, "[%d]", &v)
			c = array.Coord{v}
		}
		cell, ok := a.At(c)
		if !ok {
			return fmt.Errorf("cell %s absent", key)
		}
		if cell[0].AsInt() != pair[0] || cell[1].AsInt() != pair[1] {
			return fmt.Errorf("cell %s = %v, want %v", key, cell, pair)
		}
	}
	return nil
}
