package experiments

import (
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"

	"scidb/internal/array"
	"scidb/internal/bufcache"
	"scidb/internal/compress"
	"scidb/internal/core"
	"scidb/internal/obs"
	"scidb/internal/storage"
)

// slowCodec models a storage device with per-read latency: Decode — which a
// store calls once per bucket section it reads — sleeps before delegating.
// The cold scans read through it so zone-map skipping has real latency to
// save — page-cached bucket files on the bench machine decode in
// microseconds.
type slowCodec struct {
	compress.Codec
	delay time.Duration
}

func (c slowCodec) Decode(src []byte) ([]byte, error) {
	time.Sleep(c.delay)
	return c.Codec.Decode(src)
}

// CE quantifies compressed execution: zone-map chunk skipping plus
// operators that run directly on encoded chunks. Part one poses a
// selective scan-heavy aggregate against a store behind a modelled device
// latency, answered two ways: by the query, whose zone maps prove one
// bucket is enough, and by a full scan that reads every bucket and filters
// by hand — what a store without zone maps would have to do. Part two runs
// the encoded operators warm: a dictionary filter and an RLE run-batched
// aggregate. Every result is checked, cell for cell, against the same
// statement over a plain in-memory copy of the data, which has no zone
// maps and no encoded views: the boxed evaluation.
func init() {
	register(&Experiment{
		ID:    "CE",
		Title: "§2.8 compressed execution: zone-map skipping + encoded operators",
		Run: func(w io.Writer, quick bool) error {
			header(w, "CE", "operators on encoded chunks; zone maps prune the scan")
			side := int64(160)
			if quick {
				side = 64
			}
			stride := side / 8 // 8x8 grid of chunks, one bucket each
			dir, err := os.MkdirTemp("", "scidb-ce-exp")
			if err != nil {
				return err
			}
			defer os.RemoveAll(dir)
			// Buckets are the schema's chunks, so gathered buckets are
			// adopted wholesale, advisory views intact — the operators then
			// see the dictionary/RLE structure.
			s := &array.Schema{
				Name: "plume",
				Dims: []array.Dimension{
					{Name: "x", High: side, ChunkLen: side / 8},
					{Name: "y", High: side, ChunkLen: side / 8}},
				Attrs: []array.Attribute{
					{Name: "v", Type: array.TFloat64},     // x+y: range-clustered per bucket
					{Name: "level", Type: array.TFloat64}, // constant per x-row: RLE-friendly
					{Name: "station", Type: array.TString} /* low cardinality: dict-friendly */},
			}
			stations := []string{"station-north", "station-south", "station-east", "station-west"}
			encDir := filepath.Join(dir, "enc")
			plain, err := array.New(s)
			if err != nil {
				return err
			}
			st, err := storage.NewStore(s, storage.Options{
				Dir:   encDir,
				Codec: compress.None{},
			})
			if err != nil {
				return err
			}
			for i := int64(1); i <= side; i++ {
				for j := int64(1); j <= side; j++ {
					cell := array.Cell{
						array.Float64(float64(i + j)),
						array.Float64(float64(i)),
						array.String64(stations[(i+j)%4]),
					}
					if err := st.Put(array.Coord{i, j}, cell); err != nil {
						return err
					}
					if err := plain.Set(array.Coord{i, j}, cell); err != nil {
						return err
					}
				}
			}
			if err := st.Close(); err != nil {
				return err
			}
			ref := core.Open()
			if err := ref.PutArray("E", plain); err != nil {
				return err
			}

			// Part 1: cold selective aggregate. Only the highest bucket can
			// satisfy v > 2*side - stride, and only the zone maps can prove
			// that without reading the other 63.
			const readDelay = 2 * time.Millisecond
			threshold := float64(2*side - stride)
			query := fmt.Sprintf("aggregate(filter(E, v > %d), {}, sum(v), count(v))", 2*side-stride)
			cold := func(run func(*storage.Store) error) (time.Duration, storage.Stats, error) {
				st, err := storage.NewStore(s, storage.Options{
					Dir:        encDir,
					Codec:      slowCodec{Codec: compress.None{}, delay: readDelay},
					CacheBytes: bufcache.DefaultBudget,
				})
				if err != nil {
					return 0, storage.Stats{}, err
				}
				defer st.Close()
				start := time.Now()
				err = run(st)
				return time.Since(start), st.Stats(), err
			}
			var scanSum float64
			var scanCount int64
			rawDur, rawIO, err := cold(func(st *storage.Store) error {
				return st.Scan(array.NewBox(array.Coord{1, 1}, array.Coord{side, side}), func(_ array.Coord, cell array.Cell) bool {
					if v := cell[0].Float; v > threshold {
						scanSum += v
						scanCount++
					}
					return true
				})
			})
			if err != nil {
				return err
			}
			var encRes *core.Result
			encDur, encIO, err := cold(func(st *storage.Store) error {
				db := core.Open()
				if err := db.AttachStore("E", st); err != nil {
					return err
				}
				encRes, err = db.Exec(query)
				return err
			})
			if err != nil {
				return err
			}
			rawRes, err := ref.Exec(query)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "cold %s at %v modelled latency per section read:\n", query, readDelay)
			fmt.Fprintf(w, "%-24s %12s %12s %10s %10s\n", "path", "time", "disk reads", "visited", "skipped")
			fmt.Fprintf(w, "%-24s %12v %12d %10d %10d\n", "full scan (decode all)", rawDur,
				rawIO.BucketsRead, rawIO.ChunksVisited, rawIO.ChunksSkipped)
			fmt.Fprintf(w, "%-24s %12v %12d %10d %10d\n", "query + zone maps", encDur,
				encIO.BucketsRead, encIO.ChunksVisited, encIO.ChunksSkipped)
			fmt.Fprintf(w, "speedup: %.2fx   skip ratio: %.2f\n", ratio(rawDur, encDur), encIO.SkipRatio())

			// The skip decision is visible in the profile tree.
			profile, err := explainSkips(s, encDir, query)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "profile: %s\n", profile)

			// Part 2: warm encoded operators. The encoded store's chunks keep
			// their dictionary and run-length views, so the filter evaluates
			// the string predicate once per dictionary entry and the
			// aggregate steps whole runs; the plain copy re-evaluates per cell.
			runs := obs.Default().Counter("scidb_enc_runs_evaluated", "")
			warmQuery := func(q string) (*core.Result, error) {
				st, err := storage.NewStore(s, storage.Options{
					Dir:        encDir,
					Codec:      compress.None{},
					CacheBytes: bufcache.DefaultBudget,
				})
				if err != nil {
					return nil, err
				}
				defer st.Close()
				db := core.Open()
				if err := db.AttachStore("E", st); err != nil {
					return nil, err
				}
				return db.Exec(q)
			}
			dictQ := "filter(E, station = 'station-east')"
			aggQ := "aggregate(E, {}, count(level), min(level), max(level))"
			runsBefore := runs.Value()
			type pair struct{ raw, enc *core.Result }
			results := map[string]*pair{}
			for _, q := range []string{dictQ, aggQ} {
				p := &pair{}
				if p.raw, err = ref.Exec(q); err != nil {
					return err
				}
				if p.enc, err = warmQuery(q); err != nil {
					return err
				}
				results[q] = p
			}
			runsDelta := runs.Value() - runsBefore
			fmt.Fprintf(w, "\nwarm encoded operators: dict filter + run-batched aggregate\n")
			fmt.Fprintf(w, "%-44s %10s\n", "query", "cells")
			for _, q := range []string{dictQ, aggQ} {
				fmt.Fprintf(w, "%-44s %10d\n", q, results[q].enc.Array.Count())
			}
			fmt.Fprintf(w, "runs evaluated (RLE batching): %d\n", runsDelta)
			fmt.Fprintln(w, "claim shape: zone maps answer selective queries from a fraction of")
			fmt.Fprintln(w, "the buckets, and dictionary/run-length views let operators work on")
			fmt.Fprintln(w, "encoded chunks — with results bit-identical to the decoded path.")

			// Hard assertions.
			if err := sameArray(rawRes.Array, encRes.Array); err != nil {
				return fmt.Errorf("CE: pruned aggregate diverged: %w", err)
			}
			if cell, ok := encRes.Array.At(array.Coord{1}); !ok || cell[0].Float != scanSum || cell[1].Int != scanCount {
				return fmt.Errorf("CE: pruned aggregate %v, full scan found sum %v over %d cells", cell, scanSum, scanCount)
			}
			for q, p := range results {
				if err := sameArray(p.raw.Array, p.enc.Array); err != nil {
					return fmt.Errorf("CE: %s diverged: %w", q, err)
				}
			}
			if encIO.ChunksSkipped == 0 {
				return fmt.Errorf("CE: encoded path skipped no chunks: %+v", encIO)
			}
			if rawIO.ChunksSkipped != 0 {
				return fmt.Errorf("CE: full scan claims skips: %+v", rawIO)
			}
			if encIO.BucketsRead >= rawIO.BucketsRead {
				return fmt.Errorf("CE: pruned query read %d buckets, full scan read %d", encIO.BucketsRead, rawIO.BucketsRead)
			}
			if sp := ratio(rawDur, encDur); sp < 2 {
				return fmt.Errorf("CE: speedup %.2fx < 2x (full scan %v, pruned %v)", sp, rawDur, encDur)
			}
			if !strings.Contains(profile, "enc_chunks_skipped") {
				return fmt.Errorf("CE: EXPLAIN ANALYZE missing enc_chunks_skipped:\n%s", profile)
			}
			if runsDelta == 0 {
				return fmt.Errorf("CE: encoded operators batched no runs")
			}
			return nil
		},
	})
}

// explainSkips reopens the encoded store without the latency model and
// returns the EXPLAIN ANALYZE line carrying the skip counter.
func explainSkips(s *array.Schema, dir string, query string) (string, error) {
	st, err := storage.NewStore(s, storage.Options{
		Dir:        dir,
		Codec:      compress.None{},
		CacheBytes: bufcache.DefaultBudget,
	})
	if err != nil {
		return "", err
	}
	defer st.Close()
	db := core.Open()
	if err := db.AttachStore("E", st); err != nil {
		return "", err
	}
	res, err := db.Exec("explain analyze " + query)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(res.Msg, "\n") {
		if strings.Contains(line, "enc_chunks_skipped") {
			return strings.TrimSpace(line), nil
		}
	}
	return res.Msg, nil
}

// sameArray asserts two arrays are bit-identical: same cells at the same
// coordinates with the same types, null bits, and float bit patterns.
func sameArray(a, b *array.Array) error {
	if a == nil || b == nil {
		return fmt.Errorf("nil array (a=%v b=%v)", a != nil, b != nil)
	}
	if a.Count() != b.Count() {
		return fmt.Errorf("cell counts differ: %d vs %d", a.Count(), b.Count())
	}
	var err error
	a.Iter(func(c array.Coord, cell array.Cell) bool {
		other, ok := b.At(c)
		if !ok {
			err = fmt.Errorf("cell %v missing", c)
			return false
		}
		if len(cell) != len(other) {
			err = fmt.Errorf("cell %v widths differ", c)
			return false
		}
		for i := range cell {
			x, y := cell[i], other[i]
			if x.Type != y.Type || x.Null != y.Null {
				err = fmt.Errorf("cell %v attr %d: %v vs %v", c, i, x, y)
				return false
			}
			if x.Null {
				continue
			}
			if x.Int != y.Int || x.Str != y.Str || x.Bool != y.Bool ||
				math.Float64bits(x.Float) != math.Float64bits(y.Float) ||
				math.Float64bits(x.Sigma) != math.Float64bits(y.Sigma) {
				err = fmt.Errorf("cell %v attr %d: %v vs %v", c, i, x, y)
				return false
			}
		}
		return true
	})
	return err
}
