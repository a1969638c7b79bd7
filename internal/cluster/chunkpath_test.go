package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"scidb/internal/array"
	"scidb/internal/exec"
	"scidb/internal/ops"
	"scidb/internal/storage"
	"scidb/internal/udf"
)

// The differential property test for the chunk-at-a-time read path: seeded
// random partitions on each backing (a store three ways, an in-situ file) read
// with random fragments — box × zone predicates × (fold | cells | count) — and
// exclusion boxes at parallelism 1 and 4. Every answer must equal a cell-level
// oracle written here — the reference implementation of the worker's read
// semantics — and the two parallelisms must answer bit for bit alike.

const diffExtent = 40 // cells per dimension; chunks of 16 leave a ragged edge

func diffSchema() *array.Schema {
	return &array.Schema{
		Name: "d",
		Dims: []array.Dimension{
			{Name: "x", High: diffExtent, ChunkLen: 16},
			{Name: "y", High: diffExtent, ChunkLen: 16},
		},
		Attrs: []array.Attribute{
			{Name: "v", Type: array.TFloat64},
			{Name: "k", Type: array.TInt64},
			{Name: "tag", Type: array.TString},
		},
	}
}

type xy [2]int64

// diffCell draws a cell whose numeric values are small dyadic rationals, so
// sums and sums of squares are exact in any fold order and the oracle can
// demand bit equality; NULLs and NaNs are mixed in.
func diffCell(rng *rand.Rand) array.Cell {
	v := array.Float64(float64(rng.Intn(801)-400) / 8)
	switch r := rng.Intn(20); {
	case r == 0:
		v = array.Float64(math.NaN())
	case r <= 2:
		v = array.NullValue(array.TFloat64)
	}
	k := array.Int64(int64(rng.Intn(101) - 50))
	if rng.Intn(8) == 0 {
		k = array.NullValue(array.TInt64)
	}
	return array.Cell{v, k, array.String64(string(rune('a' + rng.Intn(3))))}
}

func randBox(rng *rand.Rand) array.Box {
	var b array.Box
	for d := 0; d < 2; d++ {
		lo := 1 + rng.Int63n(diffExtent)
		hi := lo + rng.Int63n(diffExtent-lo+1)
		b.Lo, b.Hi = append(b.Lo, lo), append(b.Hi, hi)
	}
	return b
}

// diffBatches draws the write history: boxes of cells at varying density,
// later batches overwriting earlier ones. final is the newest-wins content.
func diffBatches(rng *rand.Rand) (batches []map[xy]array.Cell, final map[xy]array.Cell) {
	final = map[xy]array.Cell{}
	for b := 0; b < 5; b++ {
		box, density := randBox(rng), 0.2+0.8*rng.Float64()
		batch := map[xy]array.Cell{}
		array.IterBox(box, func(c array.Coord) bool {
			if rng.Float64() < density {
				cell := diffCell(rng)
				batch[xy{c[0], c[1]}], final[xy{c[0], c[1]}] = cell, cell
			}
			return true
		})
		batches = append(batches, batch)
	}
	return batches, final
}

func handleOK(t testing.TB, w *Worker, req *Message) *Message {
	t.Helper()
	resp := w.Handle(req)
	if resp.Err != "" {
		t.Fatalf("%s: %s", req.Op, resp.Err)
	}
	return resp
}

// putBatch sends cells through the worker's "put" op.
func putBatch(t testing.TB, w *Worker, cells map[xy]array.Cell) {
	t.Helper()
	a := array.MustNew(PartitionSchema(diffSchema()))
	for c, cell := range cells {
		if err := a.Set(array.Coord{c[0], c[1]}, cell); err != nil {
			t.Fatal(err)
		}
	}
	chunks, err := encodeForTest(a)
	if err != nil {
		t.Fatal(err)
	}
	handleOK(t, w, &Message{Op: "put", Array: "d", Chunks: chunks})
}

// buildDiffWorker creates a worker holding final on the named backing. The
// store backings replay the batches with flushes between them — overlapping
// buckets, shadowed cells — and leave the last batch in the memory buffer;
// the stored array's chunk grid is drawn independently of the one the
// batches and the oracle are built on. "store
// on disk" keeps its buckets in files and reads them through a pool, "store
// in memory" has neither a directory nor a pool, and "store, 1-byte pool" has
// a pool that keeps nothing: every read loads its projected sections again,
// and readahead's pins are all that holds a bucket between its load and its
// use.
func buildDiffWorker(t testing.TB, rng *rand.Rand, backing string, batches []map[xy]array.Cell, final map[xy]array.Cell) *Worker {
	t.Helper()
	if strings.HasPrefix(backing, "store") {
		stored := diffSchema()
		stored.Dims[0].ChunkLen = []int64{8, 16, 24}[rng.Intn(3)]
		stored.Dims[1].ChunkLen = stored.Dims[0].ChunkLen
		opts := WorkerOptions{Readahead: 2}
		switch backing {
		case "store on disk":
			opts.Dir, opts.CacheBytes = t.TempDir(), 1<<20
		case "store, 1-byte pool":
			opts.CacheBytes = 1
		}
		w := NewWorkerWithOptions(0, opts)
		handleOK(t, w, &Message{Op: "create", Array: "d", Schema: stored})
		for i, b := range batches {
			putBatch(t, w, b)
			if i < len(batches)-1 {
				handleOK(t, w, &Message{Op: "flush", Array: "d"})
			}
		}
		return w
	}
	var csv strings.Builder
	fmt.Fprintf(&csv, "# scidb-csv\n# dims: x:%d, y:%d\n# attrs: v:%s, k:%s, tag:%s\n",
		diffExtent, diffExtent, array.TFloat64, array.TInt64, array.TString)
	for c, cell := range final {
		fields := []string{strconv.FormatInt(c[0], 10), strconv.FormatInt(c[1], 10), "NULL", "NULL", cell[2].Str}
		if !cell[0].Null {
			fields[2] = strconv.FormatFloat(cell[0].Float, 'g', -1, 64)
		}
		if !cell[1].Null {
			fields[3] = strconv.FormatInt(cell[1].Int, 10)
		}
		csv.WriteString(strings.Join(fields, ",") + "\n")
	}
	path := filepath.Join(t.TempDir(), "d.csv")
	if err := os.WriteFile(path, []byte(csv.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	w := NewWorkerWithOptions(0, WorkerOptions{CacheBytes: 1 << 20})
	handleOK(t, w, &Message{Op: "insitu", Array: "d", Schema: diffSchema(), Path: path, Adaptor: "csv",
		BoxLo: []int64{1, 1}, BoxHi: []int64{diffExtent, diffExtent}})
	return w
}

// diffQuery is one random read request.
type diffQuery struct {
	box    array.Box // zero value: no box on the wire
	excl   []array.Box
	preds  []array.ZonePred
	attr   string
	groups []string
}

func randQuery(rng *rand.Rand) diffQuery {
	var q diffQuery
	if rng.Intn(4) > 0 {
		q.box = randBox(rng)
	}
	for n := rng.Intn(3); n > 0; n-- {
		b := randBox(rng)
		if rng.Intn(2) == 0 { // a whole grid chunk, the shape routing excludes
			o := array.Coord{(b.Lo[0]-1)/16*16 + 1, (b.Lo[1]-1)/16*16 + 1}
			b = array.Box{Lo: o, Hi: array.Coord{o[0] + 15, o[1] + 15}}
		}
		q.excl = append(q.excl, b)
	}
	for n := rng.Intn(3); n > 0; n-- {
		p := array.ZonePred{Attr: rng.Intn(2), Op: []string{"=", "!=", "<", "<=", ">", ">="}[rng.Intn(6)]}
		if p.Attr == 0 {
			p.Val = array.Float64(float64(rng.Intn(801)-400) / 8)
		} else {
			p.Val = array.Int64(int64(rng.Intn(101) - 50))
		}
		q.preds = append(q.preds, p)
	}
	q.attr = []string{"v", "k", "tag", "*"}[rng.Intn(4)]
	q.groups = [][]string{nil, {"x"}, {"y"}, {"y", "x"}}[rng.Intn(4)]
	return q
}

// message is the query as a read request with the given sink: nil ships the
// cells, a fold its table, a fold without aggregates the count.
func (q diffQuery) message(fold *ops.FoldSpec) *Message {
	m := &Message{Op: "read", Array: "d", BoxLo: q.box.Lo, BoxHi: q.box.Hi, Preds: q.preds, Fold: fold}
	for _, b := range q.excl {
		m.ExclLo, m.ExclHi = append(m.ExclLo, b.Lo), append(m.ExclHi, b.Hi)
	}
	return m
}

// visible is the oracle's cell filter: inside the box, outside every
// exclusion.
func (q diffQuery) visible(c xy) bool {
	co := array.Coord{c[0], c[1]}
	if len(q.box.Lo) > 0 && !q.box.Contains(co) {
		return false
	}
	for _, b := range q.excl {
		if b.Contains(co) {
			return false
		}
	}
	return true
}

// aggFold is the fold the oracle checks cell by cell: the count of the
// query's attribute per group and, when the attribute is numeric, its sum,
// minimum, maximum and mean as well.
func (q diffQuery) aggFold() *ops.FoldSpec {
	fs := &ops.FoldSpec{Dims: q.groups, Aggs: []ops.AggSpec{{Agg: "count", Attr: q.attr}}}
	if q.attr != "tag" {
		for _, agg := range []string{"sum", "min", "max", "avg"} {
			fs.Aggs = append(fs.Aggs, ops.AggSpec{Agg: agg, Attr: q.attr})
		}
	}
	return fs
}

// oracleGroup is one group of the cell-level oracle.
type oracleGroup struct {
	key      array.Coord
	count    int64
	sum      float64 // exact in any order: the values are small dyadic rationals
	min, max float64
	numbers  int64 // non-NULL, non-NaN values: what min and max range over
}

// oracleAgg folds seen (the cells the fragment's box and exclusions leave)
// one by one, the way a worker's fold sink is specified. A grouped fold folds
// the cells the predicates pass and no other. Under a grand total the
// predicates are a filter, and a filter keeps a refuted cell, all NULL: it
// opens the one row and adds nothing to it. Of the cells folded, every one
// opens its group, NULLs do not enter it, and NaNs enter the count and the
// sum but neither extreme.
func oracleAgg(seen map[xy]array.Cell, q diffQuery) map[string]*oracleGroup {
	attr := map[string]int{"v": 0, "k": 1, "tag": 2, "*": 0}[q.attr]
	groups := map[string]*oracleGroup{}
	for c, cell := range seen {
		passes := ops.CellMatchesPreds(q.preds, cell)
		if !passes && len(q.groups) > 0 {
			continue
		}
		key := array.Coord{1}
		if len(q.groups) > 0 {
			key = make(array.Coord, len(q.groups))
			for i, g := range q.groups {
				key[i] = c[map[string]int{"x": 0, "y": 1}[g]]
			}
		}
		g, ok := groups[key.Key()]
		if !ok {
			g = &oracleGroup{key: key, min: math.Inf(1), max: math.Inf(-1)}
			groups[key.Key()] = g
		}
		if !passes || cell[attr].Null {
			continue
		}
		g.count++
		if attr == 2 {
			continue
		}
		x := cell[attr].AsFloat()
		g.sum += x
		if !math.IsNaN(x) {
			g.numbers++
			g.min, g.max = math.Min(g.min, x), math.Max(g.max, x)
		}
	}
	return groups
}

// checkAgainstOracle holds the array a worker's table terminates into to the
// oracle's groups: exactly those, each with the oracle's values. pruned says
// the node skipped buckets unread: a grand total's row is then there whatever
// the oracle saw, as a pruned bucket occupies it by itself.
func checkAgainstOracle(t testing.TB, name string, got *array.Array, groups map[string]*oracleGroup, q diffQuery, pruned bool) {
	t.Helper()
	if total := (array.Coord{1}); pruned && len(q.groups) == 0 && groups[total.Key()] == nil {
		groups[total.Key()] = &oracleGroup{key: total}
	}
	if got.Count() != int64(len(groups)) {
		t.Fatalf("%s: %d groups, oracle has %d", name, got.Count(), len(groups))
	}
	for _, g := range groups {
		cell, ok := got.At(g.key)
		if !ok {
			t.Fatalf("%s: group %v missing", name, g.key)
		}
		if cell[0].Null || cell[0].Int != g.count {
			t.Fatalf("%s: group %v count %v, oracle %d", name, g.key, cell[0], g.count)
		}
		if q.attr == "tag" {
			continue
		}
		want := []float64{g.sum, g.min, g.max, g.sum / float64(g.count)}
		if g.numbers == 0 {
			want[1], want[2] = math.NaN(), math.NaN() // values, but no number among them
		}
		for i, w := range want {
			v := cell[1+i]
			if v.Null != (g.count == 0) || (!v.Null && !sameFloat(v.AsFloat(), w)) {
				t.Fatalf("%s: group %v %s(%s) = %v, oracle %v over %d values", name, g.key, q.aggFold().Aggs[1+i].Agg, q.attr, v, w, g.count)
			}
		}
	}
}

// foldResult terminates one worker's table the way the coordinator does.
func foldResult(t testing.TB, spec ops.FoldSpec, table *ops.FoldTable) *array.Array {
	t.Helper()
	fold, err := ops.NewFold(diffSchema(), spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	a, err := fold.Result([]*ops.FoldTable{table})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// sameKernelFolds are the folds the worker must answer exactly as
// ops.FoldArray (the body of ops.Aggregate and ops.Regrid) answers over the
// same cells in memory — it is the same kernel: each of the six aggregates
// over the float and the int attribute, one multi-aggregate fold and one
// strided one.
func sameKernelFolds(groups []string) []ops.FoldSpec {
	var out []ops.FoldSpec
	for _, attr := range []string{"v", "k"} {
		for _, agg := range []string{"count", "sum", "avg", "min", "max", "stdev"} {
			out = append(out, ops.FoldSpec{Dims: groups, Aggs: []ops.AggSpec{{Agg: agg, Attr: attr}}})
		}
	}
	return append(out,
		ops.FoldSpec{Dims: []string{"y"}, Aggs: []ops.AggSpec{
			{Agg: "min", Attr: "v"}, {Agg: "max", Attr: "v", As: "hi"}, {Agg: "count", Attr: "tag"}, {Agg: "sum", Attr: "k"}, {Agg: "stdev", Attr: "k"}}},
		ops.FoldSpec{Dims: []string{"x", "y"}, Strides: []int64{3, 5}, Aggs: []ops.AggSpec{{Agg: "avg", Attr: "v"}}},
	)
}

// checkAgainstOps compares a worker's answer with the local fold's over the
// same cells: schema, groups, and every value to the bit — except stdev, as
// the partition's buckets are not the memory array's chunks and Welford
// states then merge in another order.
func checkAgainstOps(t testing.TB, name string, spec ops.FoldSpec, got, cells *array.Array) {
	t.Helper()
	want, err := ops.FoldArray(context.Background(), cells, array.WholeBox(cells.Schema), spec, udf.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got.Schema.Dims, got.Schema.Attrs) != fmt.Sprint(want.Schema.Dims, want.Schema.Attrs) || got.Count() != want.Count() {
		t.Fatalf("%s %+v: worker fold gives %v %v, %d cells; ops gives %v %v, %d cells", name, spec,
			got.Schema.Dims, got.Schema.Attrs, got.Count(), want.Schema.Dims, want.Schema.Attrs, want.Count())
	}
	want.Iter(func(c array.Coord, cell array.Cell) bool {
		g, _ := got.At(c)
		for i := range cell {
			same := g != nil && g[i].Null == cell[i].Null && g[i].Int == cell[i].Int && sameFloat(g[i].Float, cell[i].Float)
			if !same && g != nil && spec.Aggs[i].Agg == "stdev" && !g[i].Null && !cell[i].Null {
				same = math.Abs(g[i].Float-cell[i].Float) <= 1e-12*math.Abs(cell[i].Float)
			}
			if !same {
				t.Fatalf("%s %+v: group %v is %v from the worker fold, %v from ops", name, spec, c, g, cell)
			}
		}
		return true
	})
}

// oneNullCell is an array holding one all-NULL cell: what ops.Filter leaves
// of a cell it refutes.
func oneNullCell(t testing.TB) *array.Array {
	t.Helper()
	a := array.MustNew(diffSchema())
	if err := a.Set(array.Coord{1, 1}, nullCell()); err != nil {
		t.Fatal(err)
	}
	return a
}

func nullCell() array.Cell {
	s := diffSchema()
	cell := make(array.Cell, len(s.Attrs))
	for i, at := range s.Attrs {
		cell[i] = array.NullValue(at.Type)
	}
	return cell
}

func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// sameTable compares partial tables by their wire image (NaN state included).
func sameTable(t testing.TB, a, b *ops.FoldTable) bool {
	t.Helper()
	ea, err := encodeMessage(&Message{Table: a})
	if err != nil {
		t.Fatal(err)
	}
	eb, err := encodeMessage(&Message{Table: b})
	if err != nil {
		t.Fatal(err)
	}
	return bytes.Equal(ea, eb)
}

func sameCell(a, b array.Cell) bool {
	for i := range a {
		if a[i].Null != b[i].Null {
			return false
		}
		if !a[i].Null && (!sameFloat(a[i].Float, b[i].Float) || a[i].Int != b[i].Int || a[i].Str != b[i].Str) {
			return false
		}
	}
	return true
}

func TestChunkPathMatchesCellOracle(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		checkWorkerRead(t, seed)
	}
}

// FuzzWorkerRead hands checkWorkerRead seeds of the fuzzer's choosing, so a
// fragment the read path answers wrongly minimises to the one int64 that
// draws it.
func FuzzWorkerRead(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		f.Add(seed)
	}
	f.Fuzz(checkWorkerRead)
}

// checkWorkerRead draws a write history from seed, holds it on each backing
// and reads it with twelve random queries, each through all three sinks.
func checkWorkerRead(t *testing.T, seed int64) {
	defer exec.SetParallelism(exec.Parallelism())
	for _, backing := range []string{"store on disk", "store in memory", "store, 1-byte pool", "insitu"} {
		rng := rand.New(rand.NewSource(seed))
		batches, final := diffBatches(rng)
		w := buildDiffWorker(t, rng, backing, batches, final)
		for qi := 0; qi < 12; qi++ {
			q := randQuery(rng)
			name := fmt.Sprintf("seed %d %s query %d %+v", seed, backing, qi, q)
			// The oracle: the cells the box and the exclusions leave are
			// seen, those of them the predicates pass are answered — as
			// cells, or folded; the rest a filter would leave all NULL.
			seen := map[xy]array.Cell{}
			wantCells := map[xy]array.Cell{}
			filtered, matched := array.MustNew(diffSchema()), array.MustNew(diffSchema())
			for c, cell := range final {
				if !q.visible(c) {
					continue
				}
				seen[c] = cell
				co := array.Coord{c[0], c[1]}
				if ops.CellMatchesPreds(q.preds, cell) {
					wantCells[c] = cell
					if err := matched.Set(co, cell); err != nil {
						t.Fatal(err)
					}
				} else {
					cell = nullCell()
				}
				if err := filtered.Set(co, cell); err != nil {
					t.Fatal(err)
				}
			}
			wantSeen := int64(len(seen))
			// checkCounters holds a response's counters to the oracle. A
			// bucket pruned unread is not seen, so Seen is exact only
			// without one; only predicates prune.
			checkCounters := func(par int, sink string, resp *Message) {
				t.Helper()
				if resp.Cells != int64(len(wantCells)) {
					t.Fatalf("%s par %d: %s answered %d cells, want %d", name, par, sink, resp.Cells, len(wantCells))
				}
				if resp.Seen < resp.Cells || resp.Seen > wantSeen || resp.Skipped == 0 && resp.Seen != wantSeen {
					t.Fatalf("%s par %d: %s saw %d cells (%d buckets skipped), oracle sees %d and answers %d", name, par, sink, resp.Seen, resp.Skipped, wantSeen, resp.Cells)
				}
				if resp.Skipped != 0 && len(q.preds) == 0 {
					t.Fatalf("%s par %d: %s skipped %d buckets", name, par, sink, resp.Skipped)
				}
			}
			var first [3]*Message
			var firstFolds []*ops.FoldTable
			for _, par := range []int{1, 4} {
				exec.SetParallelism(par)
				before := w.Stats().CellsScanned
				agg := handleOK(t, w, q.message(q.aggFold()))
				checkCounters(par, "fold", agg)
				checkAgainstOracle(t, fmt.Sprintf("%s par %d: fold", name, par), foldResult(t, *q.aggFold(), agg.Table), oracleAgg(seen, q), q, agg.Skipped > 0)
				// Every cell read is scanned, refuted or not.
				if got := w.Stats().CellsScanned - before; got != agg.Seen {
					t.Fatalf("%s par %d: fold scanned %d cells, want the %d it saw", name, par, got, agg.Seen)
				}
				var folds []*ops.FoldTable
				for _, spec := range sameKernelFolds(q.groups) {
					resp := handleOK(t, w, q.message(&spec))
					// The memory side of the statement: a grouped fold over
					// the cells that pass, a grand total over what ops.Filter
					// leaves of the cells seen — of a pruned bucket, if the
					// oracle sees none, one refuted cell.
					cells := matched
					if len(spec.Dims) == 0 && spec.Strides == nil {
						if cells = filtered; wantSeen == 0 && resp.Skipped > 0 {
							cells = oneNullCell(t)
						}
					}
					checkAgainstOps(t, fmt.Sprintf("%s par %d", name, par), spec, foldResult(t, spec, resp.Table), cells)
					folds = append(folds, resp.Table)
				}
				cells := handleOK(t, w, q.message(nil))
				checkCounters(par, "cells", cells)
				got, err := storage.DecodeChunks(PartitionSchema(diffSchema()), cells.Chunks)
				if err != nil {
					t.Fatal(err)
				}
				if got.Count() != cells.Cells {
					t.Fatalf("%s par %d: cells payload holds %d cells, response says %d", name, par, got.Count(), cells.Cells)
				}
				got.Iter(func(c array.Coord, cell array.Cell) bool {
					if want, ok := wantCells[xy{c[0], c[1]}]; !ok || !sameCell(cell, want) {
						t.Fatalf("%s par %d: shipped cell %v = %v, want %v (present %v)", name, par, c, cell, want, ok)
					}
					return true
				})
				before = w.Stats().CellsScanned
				count := handleOK(t, w, q.message(&ops.FoldSpec{}))
				checkCounters(par, "count", count)
				if got := w.Stats().CellsScanned - before; got != 0 && len(q.preds) == 0 {
					t.Fatalf("%s par %d: a count without predicates reads no column, yet scanned %d cells", name, par, got)
				}
				if par == 1 {
					first, firstFolds = [3]*Message{agg, cells, count}, folds
					continue
				}
				if !sameTable(t, agg.Table, first[0].Table) || !sameChunks(cells.Chunks, first[1].Chunks) || !sameTable(t, count.Table, first[2].Table) {
					t.Fatalf("%s: parallelism 4 answered differently from parallelism 1", name)
				}
				for i := range folds {
					if !sameTable(t, folds[i], firstFolds[i]) {
						t.Fatalf("%s: fold %d at parallelism 4 differs from parallelism 1", name, i)
					}
				}
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// A put stream must not pay for the buffer's size on every cell: 256×256
// cells with a string attribute (whose bytes the flush check has to count)
// go into a partition within seconds (the time bound is a loose
// guard; storage's TestBufferedBytesTrackByteSize pins the mechanism), and
// the store flushes exactly where a model of the buffer's size says it
// should.
func TestPutStreamFlushesAtMemLimit(t *testing.T) {
	const n, memLimit = 256, 4 << 20 // storage's default MemLimit
	schema := &array.Schema{
		Name: "s",
		Dims: []array.Dimension{{Name: "x", High: n, ChunkLen: 64}, {Name: "y", High: n, ChunkLen: 64}},
		Attrs: []array.Attribute{
			{Name: "v", Type: array.TFloat64},
			{Name: "tag", Type: array.TString},
		},
	}
	w := NewWorkerWithOptions(0, WorkerOptions{Dir: t.TempDir(), Stride: []int64{64, 64}})
	defer w.Close()
	handleOK(t, w, &Message{Op: "create", Array: "s", Schema: schema})
	ps := PartitionSchema(schema)
	emptyChunk := array.NewChunk(ps, array.Coord{1, 1}, []int64{64, 64}).ByteSize()

	var buffered, wantFlushes int64
	allocated := map[xy]bool{}
	start := time.Now()
	for x := int64(1); x <= n; x++ {
		row := array.MustNew(ps.Clone())
		for y := int64(1); y <= n; y++ {
			tag := strings.Repeat("t", int(16+(x*31+y*17)%64))
			if err := row.Set(array.Coord{x, y}, array.Cell{array.Float64(float64(x + y)), array.String64(tag)}); err != nil {
				t.Fatal(err)
			}
			// The model: a buffered chunk costs its empty size once, each
			// string its bytes; reaching MemLimit flushes and empties it.
			if o := (xy{(x - 1) / 64, (y - 1) / 64}); !allocated[o] {
				allocated[o] = true
				buffered += emptyChunk
			}
			if buffered += int64(len(tag)); buffered >= memLimit {
				wantFlushes++
				buffered, allocated = 0, map[xy]bool{}
			}
		}
		chunks, err := encodeForTest(row)
		if err != nil {
			t.Fatal(err)
		}
		handleOK(t, w, &Message{Op: "put", Array: "s", Chunks: chunks})
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Errorf("put stream took %v", d)
	}
	if wantFlushes == 0 {
		t.Fatal("model predicts no flush; the test exercises nothing")
	}
	if got := w.StoreStats().Flushes; got != wantFlushes {
		t.Errorf("store flushed %d times during the stream, model says %d", got, wantFlushes)
	}
	if got := handleOK(t, w, countReq("s")).Cells; got != n*n {
		t.Errorf("count after stream = %d, want %d", got, n*n)
	}
}

// Read ops share the worker lock: statements pipelined onto one node must
// run side by side and still answer as they do alone. Run under -race this
// also pins that readers of one partition share no mutable state (lazily
// built chunk orders, bitmap tails, counters).
func TestConcurrentReadOpsShareWorker(t *testing.T) {
	for _, backing := range []string{"store on disk", "insitu"} {
		rng := rand.New(rand.NewSource(42))
		batches, final := diffBatches(rng)
		w := buildDiffWorker(t, rng, backing, batches, final)
		reqs := []*Message{
			{Op: "read", Array: "d", Fold: &ops.FoldSpec{Dims: []string{"x"}, Aggs: []ops.AggSpec{{Agg: "sum", Attr: "v"}, {Agg: "stdev", Attr: "v"}}}},
			{Op: "read", Array: "d", BoxLo: []int64{3, 3}, BoxHi: []int64{30, 30}},
			countReq("d"),
			{Op: "read", Array: "d", Preds: []array.ZonePred{{Attr: 1, Op: ">", Val: array.Int64(0)}}},
		}
		// The concurrent requests come first, against a partition nothing
		// has read yet, so every lazily built structure is built under
		// contention; the answers they must match are computed afterwards.
		const rounds = 4
		got := make([]*Message, rounds*len(reqs))
		var wg sync.WaitGroup
		for g := range got {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				got[g] = w.Handle(reqs[g%len(reqs)])
			}(g)
		}
		wg.Wait()
		scanned := w.Stats().CellsScanned
		for i, req := range reqs {
			alone := handleOK(t, w, req)
			for g := i; g < len(got); g += len(reqs) {
				if resp := got[g]; resp.Err != "" || resp.Cells != alone.Cells || !sameChunks(resp.Chunks, alone.Chunks) ||
					!sameTable(t, resp.Table, alone.Table) {
					t.Errorf("%s: concurrent %s differs from the same request run alone (err %q)", backing, spanName(req), resp.Err)
				}
			}
		}
		if after := w.Stats().CellsScanned; after-scanned != scanned/rounds {
			t.Errorf("%s: %d rounds scanned %d cells, one more round %d", backing, rounds, scanned, after-scanned)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// A flipped byte in a bucket file reaches no answer: every read op of a
// persisted worker fails with storage.ErrCorrupt, whichever section the
// byte is in and whether or not the op projects that section away — the
// header's checksum covers the table every read needs — and once the file
// is whole again the same ops answer as before, because a failed read
// cached nothing.
func TestWorkerOpsReportCorruptBucket(t *testing.T) {
	dir := t.TempDir()
	w := NewWorkerWithOptions(0, WorkerOptions{Dir: dir, CacheBytes: 1 << 20})
	defer w.Close()
	one := diffSchema() // one bucket
	one.Dims[0].ChunkLen, one.Dims[1].ChunkLen = 64, 64
	handleOK(t, w, &Message{Op: "create", Array: "d", Schema: one})
	rng := rand.New(rand.NewSource(3))
	_, final := diffBatches(rng)
	putBatch(t, w, final)
	handleOK(t, w, &Message{Op: "flush", Array: "d"})
	path := filepath.Join(dir, "d", "bucket-000000.sdb")
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	reqs := []*Message{
		{Op: "read", Array: "d", Fold: &ops.FoldSpec{Aggs: []ops.AggSpec{{Agg: "sum", Attr: "k"}}}},
		{Op: "read", Array: "d"},
		countReq("d"),
	}
	want := make([]*Message, len(reqs))
	for i, req := range reqs {
		want[i] = handleOK(t, w, req)
	}
	w.mu.Lock()
	st := w.stores["d"]
	w.mu.Unlock()
	// One byte of the header, and the file's last, which is the tag
	// column's: the first fails every op, the second those that read tag.
	for _, c := range []struct {
		off  int
		fail []bool
	}{{7, []bool{true, true, true}}, {len(good) - 1, []bool{false, true, false}}} {
		mut := append([]byte(nil), good...)
		mut[c.off] ^= 0x10
		if err := os.WriteFile(path, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		for i, req := range reqs {
			st.ReleaseRegion(array.WholeBox(st.Schema())) // read the file, not the pool
			_, err := w.handle(req)
			if c.fail[i] && !errors.Is(err, storage.ErrCorrupt) {
				t.Errorf("byte %d flipped: %s error = %v, want ErrCorrupt", c.off, spanName(req), err)
			} else if !c.fail[i] && err != nil {
				t.Errorf("byte %d flipped in a column %s does not read: %v", c.off, spanName(req), err)
			}
		}
	}
	if err := os.WriteFile(path, good, 0o644); err != nil {
		t.Fatal(err)
	}
	st.ReleaseRegion(array.WholeBox(st.Schema()))
	for i, req := range reqs {
		got := handleOK(t, w, req)
		if got.Cells != want[i].Cells || !sameChunks(got.Chunks, want[i].Chunks) || (got.Table != nil && !sameTable(t, got.Table, want[i].Table)) {
			t.Errorf("%s answers differently once the file is restored", spanName(req))
		}
	}
}
