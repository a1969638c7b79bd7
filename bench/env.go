package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"scidb/internal/array"
	"scidb/internal/insitu"
	"scidb/internal/loader"
	"scidb/internal/partition"
	"scidb/internal/ssdb"
)

// loadedArray is one of the three SS-DB arrays as the grid sees it.
type loadedArray struct {
	name   string
	schema *array.Schema // bounded, named as stored
	scheme partition.Block
	csv    string
	cells  int64
}

// env is one set-up of one workload: generated data, its CSV files, the
// running grid with the data bulk-loaded, and the fixed references.
type env struct {
	wl     *workload
	dir    string // holds the CSV files and the grid's data root
	ds     *ssdb.Dataset
	arrays []loadedArray // raw, cooked, catalog
	g      *grid
	refs   refs
	rng    *rand.Rand // per-round slab offsets, from -seed
	// setup is the time spent in data generation, CSV writes, grid start,
	// bulk load and the warm-up rounds.
	setup time.Duration
	// cellsPerRound is the stored cells the last round read or loaded.
	cellsPerRound int64
	// loadedBytes is the grid's disk use after load.bulk's last load, before
	// its drop.
	loadedBytes int64
}

// newEnv sets a workload up under a fresh directory inside baseDir.
func newEnv(wl *workload, seed int64, baseDir string, rec *recorder) (e *env, err error) {
	dir, err := os.MkdirTemp(baseDir, "run-")
	if err != nil {
		return nil, err
	}
	e = &env{wl: wl, dir: dir, rng: rand.New(rand.NewSource(seed))}
	defer func() {
		if err != nil {
			_ = e.close()
		}
	}()

	start := time.Now()
	e.ds, err = ssdb.Setup(ssdb.Config{Size: imageSize, Passes: imagePasses, Seed: seed, Threshold: threshold, Tile: tile})
	if err != nil {
		return nil, err
	}
	// The relational twins are never queried here; holding them would only
	// lengthen every garbage collection of the process under test.
	e.ds.RawTab, e.ds.CookedTab, e.ds.CatalogTab = nil, nil, nil
	for _, src := range []struct {
		name string
		a    *array.Array
	}{{"raw", e.ds.Raw}, {"cooked", e.ds.Cooked}, {"catalog", e.ds.Catalog}} {
		la := loadedArray{name: src.name, csv: filepath.Join(dir, src.name+".csv"), cells: src.a.Count()}
		la.schema = src.a.Schema.Clone()
		la.schema.Name = src.name
		// Every array is block-partitioned on x.
		xdim := la.schema.DimIndex("x")
		la.scheme = partition.Block{Nodes: nodes, SplitDim: xdim, High: imageSize}
		for i := range la.schema.Dims {
			if la.schema.Dims[i].High == array.Unbounded {
				la.schema.Dims[i].High = src.a.Hwm(i)
			}
		}
		if err := insitu.WriteCSV(la.csv, src.a); err != nil {
			return nil, err
		}
		e.arrays = append(e.arrays, la)
	}
	if e.g, err = startGrid(filepath.Join(dir, "grid"), wl.cacheBytes, wl.readahead, rec); err != nil {
		return nil, err
	}
	for i := range e.arrays {
		if err := e.load(&e.arrays[i], e.arrays[i].name); err != nil {
			return nil, err
		}
	}
	e.setup = time.Since(start)

	// The references are the harness's work, not the system's: untimed.
	if e.refs, err = computeRefs(e.ds); err != nil {
		return nil, err
	}
	start = time.Now()
	for i := 0; i < warmupRuns; i++ {
		if _, err := e.round(); err != nil {
			return nil, fmt.Errorf("warm-up round: %w", err)
		}
	}
	e.setup += time.Since(start)
	return e, nil
}

// load creates a cluster array named as and bulk-loads la's CSV into it:
// the only way this benchmark fills the grid.
func (e *env) load(la *loadedArray, as string) error {
	if err := e.create(la, as); err != nil {
		return err
	}
	return e.fill(la, as)
}

func (la *loadedArray) schemaAs(as string) *array.Schema {
	if as == la.name {
		return la.schema
	}
	s := la.schema.Clone()
	s.Name = as
	return s
}

func (e *env) create(la *loadedArray, as string) error {
	return e.g.co.Create(as, la.schemaAs(as), la.scheme)
}

// fill runs the parallel loader from la's CSV file into the cluster array
// as, through the final Flush.
func (e *env) fill(la *loadedArray, as string) error {
	schema := la.schemaAs(as)
	ds, err := insitu.CSVAdaptor{}.Open(la.csv)
	if err != nil {
		return err
	}
	defer ds.Close() // only read
	st, err := loader.LoadParallel(ds, array.WholeBox(schema), schema, la.scheme,
		loader.ClusterDest{Co: e.g.co, Array: as},
		loader.Options{Stride: []int64{bucketStride, bucketStride, bucketStride}})
	if err != nil {
		return err
	}
	if st.Records != la.cells {
		return fmt.Errorf("load %s: %d records, want %d", as, st.Records, la.cells)
	}
	return nil
}

// countLoaded checks that the grid holds every cell of la under the name as.
func (e *env) countLoaded(la *loadedArray, as string) error {
	n, err := e.g.co.Count(as)
	if err == nil && n != la.cells {
		err = fmt.Errorf("count %s: %d cells after load, want %d", as, n, la.cells)
	}
	return err
}

// stored is the grid's disk use and the cells that occupy it: what set-up
// loaded, plus, for load.bulk, the array of its last round before the drop.
func (e *env) stored() (bytes, cells int64, err error) {
	for _, la := range e.arrays {
		cells += la.cells
	}
	if e.wl.stmts == nil {
		return e.loadedBytes, cells + e.arrays[0].cells, nil
	}
	bytes, err = e.g.diskBytes()
	return bytes, cells, err
}

// close stops the grid and removes everything the set-up wrote.
func (e *env) close() error {
	var err error
	if e.g != nil {
		err = e.g.stop()
	}
	if rmErr := os.RemoveAll(e.dir); err == nil {
		err = rmErr
	}
	return err
}

const loadTarget = "raw_load" // the array load.bulk creates and drops each round

// round runs one untraced round and returns the client-observed time of its
// operations. A statement that errors or answers wrong fails the round.
func (e *env) round() (time.Duration, error) {
	if e.wl.stmts == nil {
		return e.loadRound()
	}
	stmts, err := e.wl.stmts(e, e.rng)
	if err != nil {
		return 0, err
	}
	var total time.Duration
	e.cellsPerRound = 0
	for i := range stmts {
		e.cellsPerRound += stmts[i].cellsIn
		start := time.Now()
		res, err := e.g.client.Exec(stmts[i].text)
		total += time.Since(start)
		if err != nil {
			return total, fmt.Errorf("%s: %w", stmts[i].text, err)
		}
		if err := stmts[i].check(res.Array); err != nil {
			return total, err
		}
	}
	return total, nil
}

// loadRound is load.bulk's round: Create + LoadParallel (its final Flush
// included) + Count, timed; measuring the disk and the Drop that follow are
// not.
func (e *env) loadRound() (time.Duration, error) {
	raw := &e.arrays[0]
	e.cellsPerRound = raw.cells
	start := time.Now()
	err := e.load(raw, loadTarget)
	if err == nil {
		err = e.countLoaded(raw, loadTarget)
	}
	d := time.Since(start)
	if err == nil {
		e.loadedBytes, err = e.g.diskBytes()
	}
	if dropErr := e.g.co.Drop(loadTarget); err == nil {
		err = dropErr
	}
	return d, err
}
