package experiments

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"scidb/internal/array"
	"scidb/internal/cluster"
	"scidb/internal/compress"
	"scidb/internal/core"
	"scidb/internal/insitu"
	"scidb/internal/obs"
	"scidb/internal/ops"
	"scidb/internal/parser"
	"scidb/internal/partition"
	"scidb/internal/storage"
)

// PART reproduces §2.7: fixed partitioning balances uniform sky scans but
// cannot balance steerable (El Niño-style) hotspots; the automatic designer
// (and an epoch scheme that switches at time T) restores balance.
func init() {
	register(&Experiment{
		ID:    "PART",
		Title: "§2.7 fixed vs. adaptive partitioning under uniform and skewed workloads",
		Run: func(w io.Writer, quick bool) error {
			header(w, "PART", "load imbalance: max node load / mean node load")
			nodes := 8
			samples := 20000
			if quick {
				nodes, samples = 4, 4000
			}
			rng := rand.New(rand.NewSource(21))
			uniform := make([]partition.SampleAccess, samples)
			for i := range uniform {
				uniform[i] = partition.SampleAccess{
					Coord:  array.Coord{int64(i + 1), rng.Int63n(1000) + 1},
					Weight: 1,
				}
			}
			// El Niño: 90% of accesses hit a 3% band of the coordinate
			// space ("during El Nino events, it is very interesting").
			skew := make([]partition.SampleAccess, samples)
			for i := range skew {
				y := rng.Int63n(1000) + 1
				if rng.Float64() < 0.9 {
					y = 480 + rng.Int63n(30)
				}
				skew[i] = partition.SampleAccess{Coord: array.Coord{int64(i + 1), y}, Weight: 1}
			}
			fixed := partition.Block{Nodes: nodes, SplitDim: 1, High: 1000}
			designedUniform, err := partition.Design(uniform, 1, nodes)
			if err != nil {
				return err
			}
			designedSkew, err := partition.Design(skew, 1, nodes)
			if err != nil {
				return err
			}
			// Epoch scheme: fixed before T, designed after (the paper's
			// "first partitioning scheme for time less than T").
			boundary := int64(samples / 2)
			epoch := partition.Epoch{
				TimeDim:    0,
				Boundaries: []int64{boundary},
				Schemes:    []partition.Scheme{fixed, designedSkew},
			}
			if err := epoch.Validate(); err != nil {
				return err
			}
			fmt.Fprintf(w, "%-22s %-24s %10s\n", "workload", "scheme", "imbalance")
			rows := []struct {
				workload string
				scheme   partition.Scheme
				data     []partition.SampleAccess
			}{
				{"uniform sky scan", fixed, uniform},
				{"uniform sky scan", designedUniform, uniform},
				{"el-nino hotspot", fixed, skew},
				{"el-nino hotspot", designedSkew, skew},
				{"el-nino hotspot", epoch, skew},
			}
			var fixedSkewImb, designedSkewImb float64
			for _, r := range rows {
				imb := partition.Imbalance(r.scheme, r.data)
				fmt.Fprintf(w, "%-22s %-24s %9.2fx\n", r.workload, r.scheme.Name(), imb)
				if r.workload == "el-nino hotspot" {
					if r.scheme.Name() == fixed.Name() {
						fixedSkewImb = imb
					}
					if r.scheme.Name() == designedSkew.Name() {
						designedSkewImb = imb
					}
				}
			}
			fmt.Fprintln(w, "claim shape: fixed partitioning is fine for uniform scans but badly")
			fmt.Fprintln(w, "imbalanced under steerable hotspots; the workload-driven designer fixes it.")
			if fixedSkewImb < 2*designedSkewImb {
				return fmt.Errorf("PART: designer (%.2f) did not clearly beat fixed (%.2f) under skew",
					designedSkewImb, fixedSkewImb)
			}
			return nil
		},
	})
}

// COPART reproduces §2.7's co-partitioning point: arrays partitioned the
// same way join without moving their cells. AQL's sjoin over two arrays
// placed alike runs on the nodes — each joins the chunk pairs it holds — and
// only the joined cells travel to the coordinator; over independently (hash-)
// placed arrays both inputs are gathered whole to be joined there, until a
// repartition places B by A's scheme. Every answer is the memory join's.
func init() {
	register(&Experiment{
		ID:    "COPART",
		Title: "§2.7 co-partitioned joins avoid data movement",
		Run: func(w io.Writer, quick bool) error {
			header(w, "COPART", "bytes the coordinator gathers to answer sjoin(A, B)")
			nodes := 4
			n := int64(256)
			if quick {
				n = 64
			}
			// One chunk column per node, as the block scheme places whole
			// chunks. A holds every x, B every third one.
			vecSchema := func(name string) *array.Schema {
				return &array.Schema{
					Name:  name,
					Dims:  []array.Dimension{{Name: "x", High: n, ChunkLen: n / int64(nodes)}},
					Attrs: []array.Attribute{{Name: "v", Type: array.TFloat64}},
				}
			}
			cells := map[string]func(i int64) (array.Cell, bool){
				"A": func(i int64) (array.Cell, bool) { return array.Cell{array.Float64(float64(i))}, true },
				"B": func(i int64) (array.Cell, bool) { return array.Cell{array.Float64(float64(i * 2))}, i%3 == 0 },
			}
			const stmt = "sjoin(A, B, A.x = B.x)"
			mem := map[string]*array.Array{}
			for _, name := range []string{"A", "B"} {
				mem[name] = array.MustNew(vecSchema(name))
				for i := int64(1); i <= n; i++ {
					if cell, ok := cells[name](i); ok {
						if err := mem[name].Set(array.Coord{i}, cell); err != nil {
							return err
						}
					}
				}
			}
			ref, err := ops.Sjoin(mem["A"], mem["B"], []ops.DimPair{{LDim: "x", RDim: "x"}})
			if err != nil {
				return err
			}
			want := cellLines(ref)
			block := partition.Block{Nodes: nodes, SplitDim: 0, High: n}
			type row struct {
				placement, plan string
				gathered, moved int64
				cells           int
			}
			// answer runs the AQL join on db, traced, and checks it against the
			// memory join: its plan, the bytes its reads gathered, its cells.
			answer := func(db *core.Database, placement string, moved int64) (row, error) {
				r := row{placement: placement, moved: moved}
				plan, err := db.Exec("explain " + stmt)
				if err != nil {
					return r, err
				}
				r.plan = "gathered"
				if head, _, _ := strings.Cut(plan.Msg, "\n"); head == "sjoin [per-node chunk pairs]" {
					r.plan = "pushed"
				}
				parsed, err := parser.Parse(stmt)
				if err != nil {
					return r, err
				}
				root := obs.NewTrace(stmt).Root()
				res, err := db.RunCtx(obs.ContextWithSpan(context.Background(), root), parsed)
				root.End()
				if err != nil {
					return r, err
				}
				r.gathered = root.Totals()["bytes_gathered"]
				got := cellLines(res.Array)
				if r.cells = len(got); !slices.Equal(got, want) {
					return r, fmt.Errorf("COPART: %s: the join has %d cells, the memory join %d, or they differ", placement, len(got), len(want))
				}
				return r, nil
			}
			run := func(coPartitioned bool) ([]row, error) {
				schemeB := partition.Scheme(block)
				if !coPartitioned {
					schemeB = partition.Hash{Nodes: nodes, Dims: []int{0}}
				}
				tr := cluster.NewLocal(nodes)
				defer tr.Close()
				co := cluster.NewCoordinator(tr, 0)
				for _, name := range []string{"A", "B"} {
					scheme := partition.Scheme(block)
					if name == "B" {
						scheme = schemeB
					}
					if err := co.Create(name, vecSchema(name), scheme); err != nil {
						return nil, err
					}
					var err error
					mem[name].Iter(func(c array.Coord, cell array.Cell) bool {
						err = co.Put(name, c.Clone(), cell)
						return err == nil
					})
					if err == nil {
						err = co.Flush(name)
					}
					if err != nil {
						return nil, err
					}
				}
				db := core.Open()
				db.AttachCluster(co)
				if coPartitioned {
					r, err := answer(db, "co-partitioned", co.BytesMoved())
					return []row{r}, err
				}
				first, err := answer(db, "independently partitioned", co.BytesMoved())
				if err != nil {
					return nil, err
				}
				if err := co.Repartition("B", block); err != nil {
					return nil, err
				}
				then, err := answer(db, "  after Repartition(B)", co.BytesMoved())
				return []row{first, then}, err
			}
			co, err := run(true)
			if err != nil {
				return err
			}
			un, err := run(false)
			if err != nil {
				return err
			}
			rows := append(co, un...)
			fmt.Fprintf(w, "%-28s %-9s %15s %12s %6s\n", "placement", "plan", "bytes gathered", "bytes moved", "cells")
			for _, r := range rows {
				fmt.Fprintf(w, "%-28s %-9s %15d %12d %6d\n", r.placement, r.plan, r.gathered, r.moved, r.cells)
			}
			fmt.Fprintln(w, "claim shape: co-partitioned arrays join where they lie, moving no cells")
			fmt.Fprintln(w, "and gathering only the joined ones; misaligned arrays are gathered whole,")
			fmt.Fprintln(w, "or pay a repartition before they join where they lie.")
			pushed, gathered, after := rows[0], rows[1], rows[2]
			if pushed.plan != "pushed" || gathered.plan != "gathered" || after.plan != "pushed" {
				return fmt.Errorf("COPART: plans %s, %s, %s; want pushed, gathered, pushed", pushed.plan, gathered.plan, after.plan)
			}
			if pushed.moved != 0 || after.moved == 0 {
				return fmt.Errorf("COPART: the co-partitioned join moved %d bytes, the repartition %d", pushed.moved, after.moved)
			}
			if pushed.gathered >= gathered.gathered || after.gathered != pushed.gathered {
				return fmt.Errorf("COPART: the pushed join gathered %d bytes (%d after the repartition), the gather %d", pushed.gathered, after.gathered, gathered.gathered)
			}
			return nil
		},
	})
}

// cellLines renders the cells of arrays one per line, sorted: what two joins
// must agree on whatever their schemas' bounds and however they are split.
func cellLines(arrays ...*array.Array) []string {
	var lines []string
	for _, a := range arrays {
		a.Iter(func(c array.Coord, cell array.Cell) bool {
			lines = append(lines, fmt.Sprint(c, cell))
			return true
		})
	}
	slices.Sort(lines)
	return lines
}

// STORE reproduces §2.8: bucket formation from a load stream, the codec
// trade-off, and compaction's effect on buckets visited per read.
func init() {
	register(&Experiment{
		ID:    "STORE",
		Title: "§2.8 bucket storage: codecs, chunk-origin reads, compaction",
		Run: func(w io.Writer, quick bool) error {
			header(w, "STORE", "compression sweep + compaction ablation")
			n := int64(128)
			if quick {
				n = 64
			}
			schema := &array.Schema{
				Name:  "sensor",
				Dims:  []array.Dimension{{Name: "t", High: n}, {Name: "site", High: n}},
				Attrs: []array.Attribute{{Name: "v", Type: array.TFloat64}},
			}
			// Each part stores the array on its own chunk grid: a bucket is
			// one chunk.
			onGrid := func(cl int64) *array.Schema {
				s := schema.Clone()
				s.Dims[0].ChunkLen, s.Dims[1].ChunkLen = cl, cl
				return s
			}
			// Smooth time-ordered data (the loader's dominant-dimension
			// assumption) so delta compression has something to find.
			cells := func() []struct {
				c array.Coord
				v float64
			} {
				out := make([]struct {
					c array.Coord
					v float64
				}, 0, n*n)
				for t := int64(1); t <= n; t++ {
					for s := int64(1); s <= n; s++ {
						out = append(out, struct {
							c array.Coord
							v float64
						}{array.Coord{t, s}, float64(t) + float64(s)*0.001})
					}
				}
				return out
			}()
			rawBytes := int64(len(cells)) * 8
			dir := filepath.Join(os.TempDir(), fmt.Sprintf("scidb-store-%d", time.Now().UnixNano()))
			defer os.RemoveAll(dir)

			fmt.Fprintf(w, "%-8s %12s %10s %12s %12s\n", "codec", "bytes", "vs raw", "write", "point read")
			codecs := append(compress.All(), compress.Auto{})
			for _, codec := range codecs {
				st, err := storage.NewStore(onGrid(32), storage.Options{
					Dir:      filepath.Join(dir, codec.Name()),
					Codec:    codec,
					MemLimit: 64 << 10,
				})
				if err != nil {
					return err
				}
				start := time.Now()
				for _, cl := range cells {
					if err := st.Put(cl.c, array.Cell{array.Float64(cl.v)}); err != nil {
						return err
					}
				}
				if err := st.Flush(); err != nil {
					return err
				}
				writeDur := time.Since(start)
				readDur, err := timeIt(2*time.Millisecond, func() error {
					_, ok, err := st.Get(array.Coord{n / 2, n / 2})
					if err != nil || !ok {
						return fmt.Errorf("point read failed: %v %v", ok, err)
					}
					return nil
				})
				if err != nil {
					return err
				}
				stats := st.Stats()
				fmt.Fprintf(w, "%-8s %12d %9.2fx %12v %12v\n",
					codec.Name(), stats.BytesWritten,
					float64(rawBytes)/float64(stats.BytesWritten), writeDur, readDur)
				_ = st.Close()
			}

			// Compaction ablation: a store whose chunks hold several
			// versions each vs the same store compacted, range read.
			st, err := storage.NewStore(onGrid(16), storage.Options{MemLimit: 1 << 30})
			if err != nil {
				return err
			}
			for i, cl := range cells {
				_ = st.Put(cl.c, array.Cell{array.Float64(cl.v)})
				if i%512 == 511 {
					_ = st.Flush() // fragment on purpose
				}
			}
			_ = st.Flush()
			before := st.NumBuckets()
			scan := func() error {
				return st.Scan(array.NewBox(array.Coord{1, 1}, array.Coord{n / 2, n / 2}),
					func(array.Coord, array.Cell) bool { return true })
			}
			preDur, err := timeIt(2*time.Millisecond, scan)
			if err != nil {
				return err
			}
			for {
				merged, err := st.MergeOnce()
				if err != nil {
					return err
				}
				if !merged {
					break
				}
			}
			after := st.NumBuckets()
			postDur, err := timeIt(2*time.Millisecond, scan)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "merge: %d buckets -> %d; half-array scan %v -> %v\n",
				before, after, preDur, postDur)
			fmt.Fprintln(w, "claim shape: delta/auto win on smooth load streams; compaction shrinks")
			fmt.Fprintln(w, "the bucket population a range read must visit.")
			if after >= before {
				return fmt.Errorf("STORE: merge did not reduce buckets (%d -> %d)", before, after)
			}
			return nil
		},
	})
}

// INSITU reproduces §2.9: a one-shot query against an external file is far
// cheaper in situ than after a full load; repeated queries amortize the
// load.
func init() {
	register(&Experiment{
		ID:    "INSITU",
		Title: "§2.9 in-situ access vs. load-then-query",
		Run: func(w io.Writer, quick bool) error {
			header(w, "INSITU", "one-shot box query on an external NCL file")
			n := int64(256)
			if quick {
				n = 96
			}
			schema := &array.Schema{
				Name:  "external",
				Dims:  []array.Dimension{{Name: "x", High: n}, {Name: "y", High: n}},
				Attrs: []array.Attribute{{Name: "v", Type: array.TFloat64}},
			}
			src := array.MustNew(schema)
			_ = src.Fill(func(c array.Coord) array.Cell {
				return array.Cell{array.Float64(float64(c[0]*3 + c[1]))}
			})
			path := filepath.Join(os.TempDir(), fmt.Sprintf("scidb-insitu-%d.ncl", time.Now().UnixNano()))
			defer os.Remove(path)
			if err := insitu.WriteNCL(path, src); err != nil {
				return err
			}
			box := array.NewBox(array.Coord{1, 1}, array.Coord{16, 16})
			sumBox := func(ds insitu.Dataset) (float64, error) {
				var sum float64
				err := insitu.Scan(ds, box, func(_ array.Coord, cell array.Cell) bool {
					sum += cell[0].AsFloat()
					return true
				})
				return sum, err
			}

			// In-situ: open + box scan, no load.
			start := time.Now()
			ds, err := (insitu.NCLAdaptor{}).Open(path)
			if err != nil {
				return err
			}
			inSituSum, err := sumBox(ds)
			if err != nil {
				return err
			}
			inSitu := time.Since(start)

			// Load-then-query: materialize everything first.
			start = time.Now()
			loaded, err := insitu.Materialize(ds)
			if err != nil {
				return err
			}
			loadDur := time.Since(start)
			start = time.Now()
			var loadedSum float64
			array.IterBox(box, func(c array.Coord) bool {
				if cell, ok := loaded.At(c); ok {
					loadedSum += cell[0].AsFloat()
				}
				return true
			})
			queryDur := time.Since(start)
			_ = ds.Close()

			if inSituSum != loadedSum {
				return fmt.Errorf("INSITU: answers differ: %v vs %v", inSituSum, loadedSum)
			}
			fmt.Fprintf(w, "%-26s %12v\n", "in-situ open+query", inSitu)
			fmt.Fprintf(w, "%-26s %12v (load %v + query %v)\n", "load-then-query",
				loadDur+queryDur, loadDur, queryDur)
			fmt.Fprintf(w, "break-even: ~%.0f repeated box queries amortize the load\n",
				float64(loadDur)/float64(inSitu-queryDur+1))
			fmt.Fprintln(w, "claim shape: for one-shot analysis the load dominates (\"I am still")
			fmt.Fprintln(w, "trying to load my data\"); in-situ reads only the queried box.")
			if loadDur+queryDur < inSitu {
				return fmt.Errorf("INSITU: load-then-query (%v) beat in-situ (%v) on a one-shot query",
					loadDur+queryDur, inSitu)
			}
			return nil
		},
	})
}
