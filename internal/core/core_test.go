package core

import (
	"fmt"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"scidb/internal/array"
	"scidb/internal/insitu"
	"scidb/internal/provenance"
	"scidb/internal/udf"
)

func testDB() *Database {
	db := Open()
	var tick int64
	db.SetClock(func() int64 { tick++; return tick * 1000 })
	return db
}

func exec(t *testing.T, db *Database, src string) *Result {
	t.Helper()
	r, err := db.Exec(src)
	if err != nil {
		t.Fatalf("Exec(%q): %v", src, err)
	}
	return r
}

func execErr(t *testing.T, db *Database, src string) {
	t.Helper()
	if _, err := db.Exec(src); err == nil {
		t.Errorf("Exec(%q) succeeded, want error", src)
	}
}

func TestDefineCreateInsertQuery(t *testing.T) {
	db := testDB()
	exec(t, db, "define array Remote (s1 = float, s2 = float) (I, J)")
	exec(t, db, "create array My_remote as Remote [8, 8]")
	exec(t, db, "insert into My_remote [7, 8] values (1.5, 2.5)")
	r := exec(t, db, "My_remote")
	cell, ok := r.Array.At(array.Coord{7, 8})
	if !ok || cell[0].Float != 1.5 || cell[1].Float != 2.5 {
		t.Errorf("cell = %v,%v", cell, ok)
	}
	// Errors.
	execErr(t, db, "define array Remote (x = float) (I)")         // duplicate type
	execErr(t, db, "create array My_remote as Remote [8, 8]")     // duplicate array
	execErr(t, db, "create array X as Ghost [8]")                 // unknown type
	execErr(t, db, "create array X as Remote [8]")                // bounds arity
	execErr(t, db, "insert into Ghost [1, 1] values (1, 2)")      // unknown array
	execErr(t, db, "insert into My_remote [99, 1] values (1, 2)") // out of bounds
	execErr(t, db, "define array Bad (x = quaternion) (I)")       // bad type
}

func TestUnboundedCreate(t *testing.T) {
	db := testDB()
	exec(t, db, "define array T (v = float) (I, J)")
	exec(t, db, "create array A as T [*, *]")
	exec(t, db, "insert into A [500, 2] values (9)")
	r := exec(t, db, "A")
	if r.Array.Hwm(0) != 500 {
		t.Errorf("hwm = %d", r.Array.Hwm(0))
	}
}

func TestQueryPipelineEndToEnd(t *testing.T) {
	db := testDB()
	exec(t, db, "define array T (v = int64) (x, y)")
	exec(t, db, "create array A as T [4, 4]")
	for i := int64(1); i <= 4; i++ {
		for j := int64(1); j <= 4; j++ {
			a, _ := db.Array("A")
			_ = a.Set(array.Coord{i, j}, array.Cell{array.Int64(i * j)})
		}
	}
	// Nested query: aggregate(filter(subsample)).
	r := exec(t, db, "aggregate(filter(subsample(A, even(x)), v > 2), {y}, count(v))")
	// even rows: x=2,4 -> values 2j and 4j. After filter v>2: y=1 keeps only 4;
	// y=2 keeps 4,8; y=3 keeps 6,12; y=4 keeps 8,16.
	wants := map[int64]int64{1: 1, 2: 2, 3: 2, 4: 2}
	for y, want := range wants {
		cell, ok := r.Array.At(array.Coord{y})
		if !ok || cell[0].Int != want {
			t.Errorf("count(y=%d) = %v,%v; want %d", y, cell, ok, want)
		}
	}
}

func TestStoreAndProvenance(t *testing.T) {
	db := testDB()
	exec(t, db, "define array T (v = float) (x, y)")
	exec(t, db, "create array Raw as T [4, 4]")
	a, _ := db.Array("Raw")
	_ = a.Fill(func(c array.Coord) array.Cell { return array.Cell{array.Float64(float64(c[0] + c[1]))} })

	exec(t, db, "store apply(Raw, cal = v * 2) into Calibrated")
	exec(t, db, "store regrid(Calibrated, [2, 2], avg(cal)) into Coarse")

	// The derivation is queryable.
	if _, err := db.Array("Coarse"); err != nil {
		t.Fatal(err)
	}
	// Backward trace: Coarse[1,1] <- Calibrated 2x2 block <- Raw.
	steps, err := db.Provenance().TraceBack(provenance.CellRef{Array: "Coarse", Coord: array.Coord{1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) == 0 {
		t.Fatal("no provenance steps")
	}
	if steps[0].Command.Kind != provenance.KindRegrid || len(steps[0].Refs) != 4 {
		t.Errorf("first step = %v with %d refs", steps[0].Command.Kind, len(steps[0].Refs))
	}
	// Forward trace: Raw[1,1] affects Calibrated[1,1] and Coarse[1,1].
	refs, err := db.Provenance().TraceForward(provenance.CellRef{Array: "Raw", Coord: array.Coord{1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if len(refs) != 2 {
		t.Errorf("forward refs = %v", refs)
	}
	// Store to an existing name fails.
	execErr(t, db, "store Raw into Calibrated")
}

func TestStoreNestedDerivationChain(t *testing.T) {
	db := testDB()
	exec(t, db, "define array T (v = float) (x)")
	exec(t, db, "create array A as T [8]")
	a, _ := db.Array("A")
	_ = a.Fill(func(c array.Coord) array.Cell { return array.Cell{array.Float64(float64(c[0]))} })
	// Nested store: filter over regrid — two commands with a synthetic
	// intermediate.
	exec(t, db, "store filter(regrid(A, [2], sum(v)), sum_v > 5) into F")
	cmds := db.Provenance().Commands()
	if len(cmds) != 2 {
		t.Fatalf("commands = %d, want 2", len(cmds))
	}
	steps, err := db.Provenance().TraceBack(provenance.CellRef{Array: "F", Coord: array.Coord{4}})
	if err != nil {
		t.Fatal(err)
	}
	// F[4] <- F#1[4] (regrid output) <- A[7..8].
	var sawRegrid bool
	for _, s := range steps {
		if s.Command.Kind == provenance.KindRegrid {
			sawRegrid = true
			if len(s.Refs) != 2 {
				t.Errorf("regrid refs = %d, want 2", len(s.Refs))
			}
		}
	}
	if !sawRegrid {
		t.Error("chain did not reach the regrid step")
	}
}

func TestUpdatableArraysViaAQL(t *testing.T) {
	db := testDB()
	exec(t, db, "define updatable array R2 (s1 = float) (I, J)")
	exec(t, db, "create array M as R2 [16, 16]")
	exec(t, db, "insert into M [2, 2] values (1.0)")
	exec(t, db, "insert into M [2, 2] values (2.0)")
	u, err := db.Updatable("M")
	if err != nil {
		t.Fatal(err)
	}
	if u.History() != 2 {
		t.Fatalf("history = %d", u.History())
	}
	// Travel the history dimension.
	if c, _ := u.At(array.Coord{2, 2}, 1); c[0].Float != 1.0 {
		t.Error("history 1 wrong")
	}
	if c, _ := u.At(array.Coord{2, 2}, 2); c[0].Float != 2.0 {
		t.Error("history 2 wrong")
	}
	// Deletion flag.
	exec(t, db, "delete from M [2, 2]")
	if _, ok := u.AtLatest(array.Coord{2, 2}); ok {
		t.Error("cell visible after delete")
	}
	// Query resolves the latest snapshot.
	r := exec(t, db, "M")
	if r.Array.Exists(array.Coord{2, 2}) {
		t.Error("snapshot shows deleted cell")
	}
}

func TestNamedVersionsViaAQL(t *testing.T) {
	db := testDB()
	exec(t, db, "define updatable array R2 (s1 = float) (I, J)")
	exec(t, db, "create array M as R2 [8, 8]")
	exec(t, db, "insert into M [1, 1] values (100)")
	exec(t, db, "create version study from M")
	tree, _ := db.VersionTree("M")
	v, err := tree.Get("study")
	if err != nil {
		t.Fatal(err)
	}
	tx := v.Begin()
	_ = tx.Put(array.Coord{1, 1}, array.Cell{array.Float64(200)})
	_, _ = tx.Commit(99)
	// VERSION() reads through the version; the base is unchanged.
	r := exec(t, db, "version(M, study)")
	cell, ok := r.Array.At(array.Coord{1, 1})
	if !ok || cell[0].Float != 200 {
		t.Errorf("version read = %v,%v", cell, ok)
	}
	r = exec(t, db, "M")
	cell, ok = r.Array.At(array.Coord{1, 1})
	if !ok || cell[0].Float != 100 {
		t.Errorf("base read = %v,%v", cell, ok)
	}
	execErr(t, db, "create version v2 from Nope")
	execErr(t, db, "version(M, ghost)")
}

func TestEnhanceViaAQL(t *testing.T) {
	db := testDB()
	exec(t, db, "define array T (v = float) (I, J)")
	exec(t, db, "create array A as T [16, 16]")
	exec(t, db, "insert into A [7, 8] values (42)")
	// Register Scale10 and its inverse, then enhance.
	reg := db.Registry()
	_ = reg.RegisterFunc(&udf.Func{
		Name: "Scale10",
		In:   []array.Type{array.TInt64, array.TInt64},
		Out:  []array.Type{array.TInt64, array.TInt64},
		Body: func(a []array.Value) ([]array.Value, error) {
			return []array.Value{array.Int64(a[0].Int * 10), array.Int64(a[1].Int * 10)}, nil
		},
	})
	_ = reg.RegisterFunc(&udf.Func{
		Name: "inv_Scale10",
		In:   []array.Type{array.TInt64, array.TInt64},
		Out:  []array.Type{array.TInt64, array.TInt64},
		Body: func(a []array.Value) ([]array.Value, error) {
			return []array.Value{array.Int64(a[0].Int / 10), array.Int64(a[1].Int / 10)}, nil
		},
	})
	exec(t, db, "enhance A with Scale10")
	a, _ := db.Array("A")
	cell, ok := a.AtEnhanced("Scale10", []array.Value{array.Int64(70), array.Int64(80)})
	if !ok || cell[0].Float != 42 {
		t.Errorf("A{70,80} = %v,%v", cell, ok)
	}
	execErr(t, db, "enhance A with Ghost")
	execErr(t, db, "enhance Nope with Scale10")
}

func TestShapeViaAQL(t *testing.T) {
	db := testDB()
	exec(t, db, "define array T (v = float) (I, J)")
	exec(t, db, "create array A as T [10, 10]")
	exec(t, db, "shape A with circle(5, 5, 3)")
	execErr(t, db, "insert into A [1, 1] values (1)") // outside the circle
	exec(t, db, "insert into A [5, 5] values (1)")    // center ok
	execErr(t, db, "shape A with pentagon(1)")
	execErr(t, db, "shape Nope with circle(1, 1, 1)")
}

func TestLoadViaAQL(t *testing.T) {
	db := testDB()
	// Write a CSV, load it, query it.
	s := &array.Schema{
		Name:  "ext",
		Dims:  []array.Dimension{{Name: "i", High: 4}},
		Attrs: []array.Attribute{{Name: "v", Type: array.TFloat64}},
	}
	src := array.MustNew(s)
	_ = src.Fill(func(c array.Coord) array.Cell { return array.Cell{array.Float64(float64(c[0] * 11))} })
	path := filepath.Join(t.TempDir(), "ext.csv")
	if err := insitu.WriteCSV(path, src); err != nil {
		t.Fatal(err)
	}
	exec(t, db, "load Ext from '"+path+"' using csv")
	r := exec(t, db, "filter(Ext, v > 20)")
	n := 0
	r.Array.Iter(func(c array.Coord, cell array.Cell) bool {
		if !cell[0].Null {
			n++
		}
		return true
	})
	if n != 3 { // 33, 44 pass; 11, 22 fail -> wait: v>20 keeps 22? no, 22>20 yes
		// values: 11, 22, 33, 44 -> v > 20 keeps 3.
		t.Errorf("filtered cells = %d, want 3", n)
	}
	// The metadata repository records the load.
	cmd, ok := db.Provenance().Producer("Ext")
	if !ok || cmd.Params["adaptor"] != "csv" {
		t.Error("load not recorded in metadata repository")
	}
	execErr(t, db, "load Ext from '"+path+"' using csv") // duplicate name
	execErr(t, db, "load X from '/nonexistent' using csv")
	execErr(t, db, "load X from '"+path+"' using hdf5")
}

func TestCjoinQualifiedNamesViaAQL(t *testing.T) {
	db := testDB()
	exec(t, db, "define array T (val = int64) (x)")
	exec(t, db, "create array A as T [2]")
	exec(t, db, "define array U (val = int64) (y)")
	exec(t, db, "create array B as U [2]")
	exec(t, db, "insert into A [1] values (1)")
	exec(t, db, "insert into A [2] values (2)")
	exec(t, db, "insert into B [1] values (1)")
	exec(t, db, "insert into B [2] values (2)")
	// Figure 3 via the text language, with qualified attribute names.
	r := exec(t, db, "cjoin(A, B, A.val = B.val)")
	cell, ok := r.Array.At(array.Coord{1, 1})
	if !ok || cell[0].Int != 1 || cell[1].Int != 1 {
		t.Errorf("cjoin[1,1] = %v,%v", cell, ok)
	}
	cell, ok = r.Array.At(array.Coord{1, 2})
	if !ok || !cell[0].Null {
		t.Errorf("cjoin[1,2] = %v,%v; want NULL", cell, ok)
	}
}

func TestDropAndNames(t *testing.T) {
	db := testDB()
	exec(t, db, "define array T (v = float) (x)")
	exec(t, db, "create array A as T [2]")
	exec(t, db, "define updatable array U (v = float) (x)")
	exec(t, db, "create array B as U [2]")
	names := db.Names()
	if len(names) != 2 || names[0] != "A" || names[1] != "B" {
		t.Errorf("Names = %v", names)
	}
	if err := db.Drop("A"); err != nil {
		t.Fatal(err)
	}
	if err := db.Drop("B"); err != nil {
		t.Fatal(err)
	}
	if err := db.Drop("C"); err == nil {
		t.Error("dropping unknown array accepted")
	}
	if len(db.Names()) != 0 {
		t.Error("names not empty after drops")
	}
}

func TestPutArray(t *testing.T) {
	db := testDB()
	s := &array.Schema{
		Name:  "x",
		Dims:  []array.Dimension{{Name: "i", High: 2}},
		Attrs: []array.Attribute{{Name: "v", Type: array.TInt64}},
	}
	a := array.MustNew(s)
	if err := db.PutArray("Mine", a); err != nil {
		t.Fatal(err)
	}
	if a.Schema.Name != "Mine" {
		t.Error("PutArray did not rename schema")
	}
	if err := db.PutArray("Mine", a); err == nil {
		t.Error("duplicate PutArray accepted")
	}
	got, err := db.Array("Mine")
	if err != nil || got != a {
		t.Error("Array lookup failed")
	}
}

func TestUncertainInsertViaAQL(t *testing.T) {
	db := testDB()
	exec(t, db, "define array T (v = uncertain float) (x)")
	exec(t, db, "create array A as T [4]")
	exec(t, db, "insert into A [1] values (3.5 ± 0.5)")
	exec(t, db, "insert into A [2] values (1.5 ± 0.5)")
	// Executor arithmetic propagates error bars.
	r := exec(t, db, "apply(A, doubled = v + v)")
	cell, ok := r.Array.At(array.Coord{1})
	if !ok {
		t.Fatal("cell missing")
	}
	d := cell[1]
	if d.Float != 7 || d.Sigma < 0.7 || d.Sigma > 0.71 { // hypot(0.5,0.5) ~= 0.707
		t.Errorf("doubled = %v±%v", d.Float, d.Sigma)
	}
	// Aggregates propagate too.
	r = exec(t, db, "aggregate(A, {}, sum(v))")
	cell, _ = r.Array.At(array.Coord{1})
	if cell[0].Float != 5 || cell[0].Sigma < 0.7 || cell[0].Sigma > 0.71 {
		t.Errorf("sum = %v±%v", cell[0].Float, cell[0].Sigma)
	}
}

func TestErrorMessagesAreActionable(t *testing.T) {
	db := testDB()
	_, err := db.Exec("create version v from A")
	if err == nil || !strings.Contains(err.Error(), "updatable") {
		t.Errorf("version-on-plain error unhelpful: %v", err)
	}
}

func TestDefineFunctionAndEnhanceFullFlow(t *testing.T) {
	// The paper's complete extensibility flow: register object code (a Go
	// body), DEFINE FUNCTION with a signature, then ENHANCE an array.
	db := testDB()
	_ = db.Registry().RegisterFunc(&udf.Func{
		Name: "scale10_impl",
		Body: func(args []array.Value) ([]array.Value, error) {
			out := make([]array.Value, len(args))
			for i, a := range args {
				out[i] = array.Int64(a.AsInt() * 10)
			}
			return out, nil
		},
	})
	_ = db.Registry().RegisterFunc(&udf.Func{
		Name: "unscale10_impl",
		Body: func(args []array.Value) ([]array.Value, error) {
			out := make([]array.Value, len(args))
			for i, a := range args {
				out[i] = array.Int64(a.AsInt() / 10)
			}
			return out, nil
		},
	})
	exec(t, db, "define function Scale10 (integer I, integer J) returns (integer K, integer L) 'go:scale10_impl'")
	exec(t, db, "define function inv_Scale10 (integer K, integer L) returns (integer I, integer J) 'go:unscale10_impl'")
	exec(t, db, "define array T (v = float) (I, J)")
	exec(t, db, "create array A as T [16, 16]")
	exec(t, db, "insert into A [7, 8] values (42)")
	exec(t, db, "enhance A with Scale10")
	a, _ := db.Array("A")
	cell, ok := a.AtEnhanced("Scale10", []array.Value{array.Int64(70), array.Int64(80)})
	if !ok || cell[0].Float != 42 {
		t.Fatalf("A{70,80} = %v,%v", cell, ok)
	}
	// The declared signature is enforced at call time.
	f, err := db.Registry().Func("Scale10")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Call([]array.Value{array.Int64(1)}); err == nil {
		t.Error("declared arity not enforced")
	}
	// Errors.
	execErr(t, db, "define function Bad (integer I) returns (integer K) 'cpp:whatever'")
	execErr(t, db, "define function Bad (integer I) returns (integer K) 'go:ghost'")
	execErr(t, db, "define function Bad (quaternion I) returns (integer K) 'go:scale10_impl'")
}

func TestAttachInSituQueries(t *testing.T) {
	db := testDB()
	// Build an NCL file to attach.
	s := &array.Schema{
		Name:  "ext",
		Dims:  []array.Dimension{{Name: "x", High: 32}, {Name: "y", High: 32}},
		Attrs: []array.Attribute{{Name: "v", Type: array.TFloat64}},
	}
	src := array.MustNew(s)
	_ = src.Fill(func(c array.Coord) array.Cell {
		return array.Cell{array.Float64(float64(c[0]*100 + c[1]))}
	})
	path := filepath.Join(t.TempDir(), "ext.ncl")
	if err := insitu.WriteNCL(path, src); err != nil {
		t.Fatal(err)
	}
	exec(t, db, "attach Ext from '"+path+"' using ncl")

	// Box-expressible subsample reads only the box from the file.
	r := exec(t, db, "subsample(Ext, x >= 3 and x <= 4 and y = 7)")
	if r.Array.Count() != 2 {
		t.Fatalf("pushdown cells = %d, want 2", r.Array.Count())
	}
	cell, ok := r.Array.At(array.Coord{1, 1})
	if !ok || cell[0].Float != 307 {
		t.Errorf("pushdown cell = %v,%v", cell, ok)
	}
	// Original indices retained through the subsample enhancement.
	oc, ok := r.Array.AtEnhanced("subsample_origin", []array.Value{array.Int64(4), array.Int64(7)})
	if !ok || oc[0].Float != 407 {
		t.Errorf("origin addressing = %v,%v", oc, ok)
	}
	// Whole-array reference materializes and caches.
	r = exec(t, db, "aggregate(Ext, {}, count(v))")
	cell, _ = r.Array.At(array.Coord{1})
	if cell[0].Int != 32*32 {
		t.Errorf("count = %v", cell[0])
	}
	// Non-box predicates (even) still work via materialization.
	r = exec(t, db, "subsample(Ext, even(x))")
	if r.Array.Hwm(0) != 16 {
		t.Errorf("even-subsample bounds = %d", r.Array.Hwm(0))
	}
	// Name management.
	names := db.Names()
	found := false
	for _, n := range names {
		if n == "Ext" {
			found = true
		}
	}
	if !found {
		t.Errorf("attached array missing from Names: %v", names)
	}
	execErr(t, db, "attach Ext from '"+path+"' using ncl") // duplicate
	execErr(t, db, "attach X from '/nope' using ncl")
	execErr(t, db, "attach X from '"+path+"' using hdf5")
	if err := db.Drop("Ext"); err != nil {
		t.Fatal(err)
	}
	execErr(t, db, "Ext")
}

func TestAttachPushdownEmptyBox(t *testing.T) {
	db := testDB()
	s := &array.Schema{
		Name:  "ext",
		Dims:  []array.Dimension{{Name: "x", High: 8}},
		Attrs: []array.Attribute{{Name: "v", Type: array.TFloat64}},
	}
	src := array.MustNew(s)
	_ = src.Fill(func(c array.Coord) array.Cell { return array.Cell{array.Float64(1)} })
	path := filepath.Join(t.TempDir(), "e.ncl")
	if err := insitu.WriteNCL(path, src); err != nil {
		t.Fatal(err)
	}
	exec(t, db, "attach E from '"+path+"' using ncl")
	r := exec(t, db, "subsample(E, x > 5 and x < 4)") // contradictory
	if r.Array.Count() != 0 {
		t.Errorf("empty-box pushdown returned %d cells", r.Array.Count())
	}
}

func TestExistsViaAQL(t *testing.T) {
	db := testDB()
	exec(t, db, "define array T (v = float) (x, y)")
	exec(t, db, "create array A as T [8, 8]")
	exec(t, db, "insert into A [7, 7] values (1)")
	// The paper's Exists? [A, 7, 7].
	r := exec(t, db, "exists(A, 7, 7)")
	cell, _ := r.Array.At(array.Coord{1})
	if !cell[0].Bool {
		t.Error("exists(A,7,7) = false after insert")
	}
	r = exec(t, db, "exists(A, 7, 8)")
	cell, _ = r.Array.At(array.Coord{1})
	if cell[0].Bool {
		t.Error("exists(A,7,8) = true without insert")
	}
	execErr(t, db, "exists(Ghost, 1)")
}

func TestReDerivePropagatesCorrection(t *testing.T) {
	// The full §2.12 workflow: find a bad element, fix it, re-derive only
	// the affected downstream values.
	db := testDB()
	exec(t, db, "define array T (v = float) (x, y)")
	exec(t, db, "create array Raw as T [4, 4]")
	raw, _ := db.Array("Raw")
	_ = raw.Fill(func(c array.Coord) array.Cell { return array.Cell{array.Float64(1)} })
	exec(t, db, "store apply(Raw, cal = v * 2) into Cal")
	exec(t, db, "store regrid(Cal, [2, 2], sum(cal)) into Coarse")

	// Sanity: Coarse[1,1] sums the calibrated 2x2 block = 4*2 = 8.
	coarse, _ := db.Array("Coarse")
	cell, _ := coarse.At(array.Coord{1, 1})
	if cell[0].Float != 8 {
		t.Fatalf("pre-correction Coarse[1,1] = %v", cell[0])
	}

	// The scientist finds Raw[1,1] was wrong and fixes it (new value, not
	// an overwrite of derived data).
	_ = raw.Set(array.Coord{1, 1}, array.Cell{array.Float64(11)})
	affected, err := db.ReDerive(provenance.CellRef{Array: "Raw", Coord: array.Coord{1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	// Exactly Cal[1,1] and Coarse[1,1] are affected.
	if len(affected) != 2 {
		t.Fatalf("affected = %v", affected)
	}
	cal, _ := db.Array("Cal")
	cell, _ = cal.At(array.Coord{1, 1})
	if cell[1].Float != 22 {
		t.Errorf("re-derived Cal[1,1] = %v, want 22", cell[1])
	}
	cell, _ = coarse.At(array.Coord{1, 1})
	if cell[0].Float != 2+2+2+22 {
		t.Errorf("re-derived Coarse[1,1] = %v, want 28", cell[0])
	}
	// Unaffected cells untouched.
	cell, _ = coarse.At(array.Coord{2, 2})
	if cell[0].Float != 8 {
		t.Errorf("unaffected Coarse[2,2] = %v, want 8", cell[0])
	}
	cell, _ = cal.At(array.Coord{3, 3})
	if cell[1].Float != 2 {
		t.Errorf("unaffected Cal[3,3] = %v, want 2", cell[1])
	}
}

func TestReDeriveThroughFilterProjectAggregateSubsample(t *testing.T) {
	db := testDB()
	exec(t, db, "define array T (v = float) (x)")
	exec(t, db, "create array A as T [8]")
	a, _ := db.Array("A")
	_ = a.Fill(func(c array.Coord) array.Cell { return array.Cell{array.Float64(float64(c[0]))} })
	exec(t, db, "store filter(A, v > 2) into F")         // F: NULL below 3
	exec(t, db, "store subsample(A, even(x)) into E")    // E: 2,4,6,8
	exec(t, db, "store aggregate(A, {}, sum(v)) into S") // S[1] = 36
	exec(t, db, "store project(F, v) into P")

	// Correct A[4] from 4 to 40.
	_ = a.Set(array.Coord{4}, array.Cell{array.Float64(40)})
	affected, err := db.ReDerive(provenance.CellRef{Array: "A", Coord: array.Coord{4}})
	if err != nil {
		t.Fatal(err)
	}
	if len(affected) < 3 {
		t.Fatalf("affected = %v", affected)
	}
	f, _ := db.Array("F")
	if cell, _ := f.At(array.Coord{4}); cell[0].Float != 40 {
		t.Errorf("F[4] = %v", cell[0])
	}
	e, _ := db.Array("E")
	if cell, _ := e.At(array.Coord{2}); cell[0].Float != 40 { // orig index 4 -> compact 2
		t.Errorf("E[2] = %v", cell[0])
	}
	s, _ := db.Array("S")
	if cell, _ := s.At(array.Coord{1}); cell[0].Float != 36-4+40 {
		t.Errorf("S[1] = %v, want 72", cell[0])
	}
	// P derives from F; the trace walks two levels.
	p, _ := db.Array("P")
	if cell, _ := p.At(array.Coord{4}); cell[0].Float != 40 {
		t.Errorf("P[4] = %v", cell[0])
	}
	// A correction that filter rejects becomes NULL downstream.
	_ = a.Set(array.Coord{5}, array.Cell{array.Float64(1)})
	if _, err := db.ReDerive(provenance.CellRef{Array: "A", Coord: array.Coord{5}}); err != nil {
		t.Fatal(err)
	}
	if cell, _ := f.At(array.Coord{5}); !cell[0].Null {
		t.Errorf("F[5] = %v, want NULL after correction below threshold", cell[0])
	}
}

// TestReDeriveThroughUncertainApply: a correction carrying an error bar
// reaches an apply's output with the bar propagated — the rerun runs the
// apply operator itself, so σ goes through the same arithmetic.
func TestReDeriveThroughUncertainApply(t *testing.T) {
	db := testDB()
	exec(t, db, "define array T (v = uncertain float) (x)")
	exec(t, db, "create array A as T [4]")
	for x := 1; x <= 4; x++ {
		exec(t, db, fmt.Sprintf("insert into A [%d] values (%d.5 ± 0.5)", x, x))
	}
	exec(t, db, "store apply(A, w = v + v) into W")
	exec(t, db, "store project(W, w) into P")
	a, _ := db.Array("A")
	if err := a.Set(array.Coord{2}, array.Cell{array.UncertainFloat(10, 3)}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.ReDerive(provenance.CellRef{Array: "A", Coord: array.Coord{2}}); err != nil {
		t.Fatal(err)
	}
	w, _ := db.Array("W")
	cell, _ := w.At(array.Coord{2})
	if cell[0].Float != 10 || cell[0].Sigma != 3 {
		t.Errorf("W[2].v = %v±%v, want the corrected 10±3", cell[0].Float, cell[0].Sigma)
	}
	want := math.Hypot(3, 3)
	if cell[1].Float != 20 || math.Abs(cell[1].Sigma-want) > 1e-12 {
		t.Errorf("W[2].w = %v±%v, want 20±%v", cell[1].Float, cell[1].Sigma, want)
	}
	p, _ := db.Array("P")
	if cell, _ := p.At(array.Coord{2}); cell[0].Float != 20 || math.Abs(cell[0].Sigma-want) > 1e-12 {
		t.Errorf("P[2] = %v±%v, want 20±%v", cell[0].Float, cell[0].Sigma, want)
	}
	if cell, _ := w.At(array.Coord{3}); cell[1].Float != 7 || math.Abs(cell[1].Sigma-math.Hypot(0.5, 0.5)) > 1e-12 {
		t.Errorf("unaffected W[3].w = %v±%v", cell[1].Float, cell[1].Sigma)
	}
}

// TestReDeriveUnrunnableCommand: ReDerive re-runs a correction whole or not
// at all. A command logged by hand has no rerun, so a correction reaching it
// fails before the re-runnable command upstream of it touches its target.
func TestReDeriveUnrunnableCommand(t *testing.T) {
	db := testDB()
	exec(t, db, "define array T (v = float) (x)")
	exec(t, db, "create array A as T [4]")
	a, _ := db.Array("A")
	_ = a.Fill(func(c array.Coord) array.Cell { return array.Cell{array.Float64(1)} })
	exec(t, db, "store apply(A, w = v * 2) into W")
	db.Provenance().Append(&provenance.Command{
		Kind: provenance.KindElementwise, Input: "W", Output: "X", Text: "an external program over W",
	})
	_ = a.Set(array.Coord{1}, array.Cell{array.Float64(5)})
	_, err := db.ReDerive(provenance.CellRef{Array: "A", Coord: array.Coord{1}})
	if err == nil || !strings.Contains(err.Error(), "not re-runnable") {
		t.Errorf("ReDerive through a command with no rerun: %v, want it not re-runnable", err)
	}
	w, _ := db.Array("W")
	if cell, _ := w.At(array.Coord{1}); cell[1].Float != 2 {
		t.Errorf("W[1].w = %v after the refused ReDerive, want the unchanged 2", cell[1])
	}
}
