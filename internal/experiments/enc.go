package experiments

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"scidb/internal/array"
	"scidb/internal/cluster"
	"scidb/internal/compress"
	"scidb/internal/partition"
	"scidb/internal/storage"
)

// encReadahead is the scan prefetch depth used by readahead-aware
// experiments; scidb-bench overrides it via -readahead.
var encReadahead = 4

// SetReadahead overrides the scan prefetch depth used by experiments.
func SetReadahead(n int) {
	if n >= 0 {
		encReadahead = n
	}
}

// Readahead reports the configured scan prefetch depth.
func Readahead() int { return encReadahead }

// slowCodec models a storage device with per-read latency: Decode — which a
// store calls once per bucket section it reads — sleeps before delegating.
// The readahead comparison reads through it so the
// pipeline has real latency to hide — page-cached bucket files on the
// bench machine decode in microseconds, which no amount of overlap can
// improve on.
//
// It forwards AppendRecords by hand — embedding the Codec interface promotes
// none of the wrapped codec's other methods — and counts the sections a
// store seals through it in records, when records is set.
type slowCodec struct {
	compress.Codec
	delay   time.Duration
	records *atomic.Int64
}

func (c slowCodec) Decode(src []byte) ([]byte, error) {
	time.Sleep(c.delay)
	return c.Codec.Decode(src)
}

func (c slowCodec) AppendRecords(dst, src []byte, lo, hi, width int) []byte {
	if c.records != nil {
		c.records.Add(1)
	}
	if rc, ok := c.Codec.(compress.RecordEncoder); ok {
		return rc.AppendRecords(dst, src, lo, hi, width)
	}
	return append(dst, c.Codec.Encode(src)...)
}

// ENC quantifies the lightweight per-column chunk encodings (§2.8's
// "compresses each bucket", pushed below the byte-level codec) and the scan
// readahead pipeline. Part one writes the same array two ways — lightweight
// encodings alone, and stacked under the Auto bucket codec — and compares
// on-disk bytes with the verbatim layout's size, which is arithmetic
// (storage.RawChunkSize: there is no second layout to write). Part two cold-scans
// the encoded store with readahead off and on, overlapping disk + decode
// with the consumer. Deterministic counters (encoded bytes, prefetch
// issued/hits) are asserted; wall-clock is reported as the headline.
func init() {
	register(&Experiment{
		ID:    "ENC",
		Title: "§2.8 columnar chunk encodings + scan readahead",
		Run: func(w io.Writer, quick bool) error {
			header(w, "ENC", "per-column encodings vs raw layout; cold scans with prefetch")
			side := int64(192)
			if quick {
				side = 64
			}
			dir, err := os.MkdirTemp("", "scidb-enc-exp")
			if err != nil {
				return err
			}
			defer os.RemoveAll(dir)
			s := &array.Schema{
				Name: "ticks",
				Dims: []array.Dimension{{Name: "t", High: side}, {Name: "series", High: side}},
				Attrs: []array.Attribute{
					{Name: "tick", Type: array.TInt64},    // monotone: delta-friendly
					{Name: "level", Type: array.TFloat64}, // plateaus: RLE-friendly
					{Name: "station", Type: array.TString} /* low cardinality: dict-friendly */},
			}
			stations := []string{"station-north", "station-south", "station-east", "station-west"}
			fill := func(st *storage.Store) error {
				tick := int64(1_700_000_000_000)
				for i := int64(1); i <= side; i++ {
					for j := int64(1); j <= side; j++ {
						tick += 1 + (i+j)%7
						cell := array.Cell{
							array.Int64(tick),
							array.Float64(float64(j / 16)), // steps every 16 columns
							array.String64(stations[(i+j)%4]),
						}
						if err := st.Put(array.Coord{i, j}, cell); err != nil {
							return err
						}
					}
				}
				return st.Flush()
			}

			// Part 1: the same load, with and without the bucket codec.
			type variant struct {
				name  string
				opts  storage.Options
				stats storage.Stats
			}
			// The auto store is written and, in part 2, read through the
			// latency model, which counts the sections it seals as records.
			const readDelay = 2 * time.Millisecond
			auto := slowCodec{Codec: compress.Auto{}, delay: readDelay, records: new(atomic.Int64)}
			variants := []*variant{
				{name: "lightweight, no codec", opts: storage.Options{Codec: compress.None{}}},
				{name: "lightweight + auto codec", opts: storage.Options{Codec: auto}},
			}
			for i, v := range variants {
				v.opts.Dir = filepath.Join(dir, fmt.Sprintf("v%d", i))
				v.opts.Stride = []int64{32, 32}
				st, err := storage.NewStore(s, v.opts)
				if err != nil {
					return err
				}
				if err := fill(st); err != nil {
					return err
				}
				v.stats = st.Stats()
				if err := st.Close(); err != nil {
					return err
				}
			}
			fmt.Fprintf(w, "%-28s %12s %12s %12s %8s\n", "layout", "raw bytes", "encoded", "on disk", "ratio")
			rawBytes := variants[0].stats.BytesRaw
			fmt.Fprintf(w, "%-28s %12d %12d %12d %7.1fx\n", "raw layout (arithmetic)", rawBytes, rawBytes, rawBytes, 1.0)
			for _, v := range variants {
				fmt.Fprintf(w, "%-28s %12d %12d %12d %7.1fx\n",
					v.name, v.stats.BytesRaw, v.stats.BytesEncoded, v.stats.BytesWritten, v.stats.CompressionRatio())
			}

			// Part 2: cold scans of the encoded store, readahead off vs on.
			// Each pass reopens the store so every bucket read pays the
			// (modelled) device latency plus the decode.
			encDir := variants[1].opts.Dir
			box := array.NewBox(array.Coord{1, 1}, array.Coord{side, side})
			// The pool must retain at least the prefetch window, or
			// prefetched buckets evict before the scan consumes them and
			// the overlap comparison measures eviction churn instead.
			scanBudget := cacheBudget
			if scanBudget < 8<<20 {
				scanBudget = 8 << 20
			}
			coldScan := func(depth int) (time.Duration, storage.Stats, error) {
				st, err := storage.NewStore(s, storage.Options{
					Dir:        encDir,
					Codec:      auto,
					Stride:     []int64{32, 32},
					CacheBytes: scanBudget,
					Readahead:  depth,
				})
				if err != nil {
					return 0, storage.Stats{}, err
				}
				defer st.Close()
				var n int64
				start := time.Now()
				err = st.Scan(box, func(array.Coord, array.Cell) bool {
					n++
					return true
				})
				dur := time.Since(start)
				if err != nil {
					return 0, storage.Stats{}, err
				}
				if n != side*side {
					return 0, storage.Stats{}, fmt.Errorf("ENC: scan saw %d cells, want %d", n, side*side)
				}
				return dur, st.Stats(), nil
			}
			serialDur, serialIO, err := coldScan(0)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "\ncold scans at %v modelled latency per section read:\n", readDelay)
			fmt.Fprintf(w, "%-28s %12s %12s %8s %8s %8s\n", "cold scan", "time", "disk reads", "issued", "hits", "wasted")
			fmt.Fprintf(w, "%-28s %12v %12d %8d %8d %8d\n", "readahead off", serialDur,
				serialIO.BucketsRead, serialIO.PrefetchIssued, serialIO.PrefetchHits, serialIO.PrefetchWasted)
			var aheadDur time.Duration
			var aheadIO storage.Stats
			if encReadahead > 0 {
				aheadDur, aheadIO, err = coldScan(encReadahead)
				if err != nil {
					return err
				}
				fmt.Fprintf(w, "%-28s %12v %12d %8d %8d %8d\n", fmt.Sprintf("readahead %d", encReadahead), aheadDur,
					aheadIO.BucketsRead, aheadIO.PrefetchIssued, aheadIO.PrefetchHits, aheadIO.PrefetchWasted)
				fmt.Fprintf(w, "speedup: %.2fx\n", ratio(serialDur, aheadDur))
			} else {
				fmt.Fprintln(w, "readahead disabled (-readahead 0); skipping the overlap comparison")
			}

			// Part 3: the same counters surfaced across a persistent grid
			// through the cachestats fan-out.
			gridStats, err := gridEncodingStats(side, quick)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "\n%-28s %12s %12s %8s %8s\n", "grid node", "raw bytes", "on disk", "ratio", "hits")
			var gridSum storage.Stats
			for n, st := range gridStats {
				fmt.Fprintf(w, "node %-23d %12d %12d %7.1fx %8d\n",
					n, st.BytesRaw, st.BytesWritten, st.CompressionRatio(), st.PrefetchHits)
				gridSum = gridSum.Add(st)
			}
			fmt.Fprintln(w, "claim shape: per-column encodings shrink buckets below the byte-level")
			fmt.Fprintln(w, "codec alone, wire payloads reuse the encoded bytes, and readahead")
			fmt.Fprintln(w, "overlaps bucket I/O + decode with the scan's consumer.")

			light, stacked := variants[0].stats, variants[1].stats
			if light.BytesEncoded >= light.BytesRaw {
				return fmt.Errorf("ENC: encodings did not shrink: encoded %d >= raw %d", light.BytesEncoded, light.BytesRaw)
			}
			if light.BytesWritten >= rawBytes {
				return fmt.Errorf("ENC: lightweight on-disk %d >= raw layout %d", light.BytesWritten, rawBytes)
			}
			// Auto costs at most its one tag byte per section when no byte
			// codec helps.
			if stacked.BytesWritten > light.BytesWritten+stacked.BucketsWritten*int64(1+len(s.Attrs)) {
				return fmt.Errorf("ENC: auto codec grew buckets: %d > %d", stacked.BytesWritten, light.BytesWritten)
			}
			if auto.records.Load() == 0 {
				return fmt.Errorf("ENC: the auto store sealed no section through its record path")
			}
			if serialIO.PrefetchIssued != 0 {
				return fmt.Errorf("ENC: readahead-off scan issued %d prefetches", serialIO.PrefetchIssued)
			}
			if encReadahead > 0 {
				if aheadIO.PrefetchIssued == 0 || aheadIO.PrefetchHits == 0 {
					return fmt.Errorf("ENC: readahead scan recorded no prefetch: %+v", aheadIO)
				}
				if aheadIO.PrefetchHits+aheadIO.PrefetchWasted != aheadIO.PrefetchIssued {
					return fmt.Errorf("ENC: prefetch counters disagree: %+v", aheadIO)
				}
				if aheadDur >= serialDur {
					return fmt.Errorf("ENC: readahead %v did not beat serial %v", aheadDur, serialDur)
				}
			}
			if gridSum.BytesEncoded >= gridSum.BytesRaw {
				return fmt.Errorf("ENC: grid encodings did not shrink: %+v", gridSum)
			}
			return nil
		},
	})
}

// gridEncodingStats loads a small persistent grid and gathers each node's
// storage counters through the coordinator's cachestats fan-out — the same
// path scidb-bench and operators use against a live cluster.
func gridEncodingStats(side int64, quick bool) ([]storage.Stats, error) {
	nodes := 2
	n := side / 2
	if quick {
		n = 32
	}
	dir, err := os.MkdirTemp("", "scidb-enc-grid")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	tr := cluster.NewLocalWithOptions(nodes, cluster.LocalOptions{
		Dir:        dir,
		Stride:     []int64{16},
		CacheBytes: cacheBudget,
		Readahead:  encReadahead,
	})
	defer tr.Close()
	co := cluster.NewCoordinator(tr, 0)
	s := &array.Schema{
		Name:  "gticks",
		Dims:  []array.Dimension{{Name: "t", High: n}},
		Attrs: []array.Attribute{{Name: "tick", Type: array.TInt64}},
	}
	if err := co.Create("gticks", s, partition.Block{Nodes: nodes, SplitDim: 0, High: n}); err != nil {
		return nil, err
	}
	for i := int64(1); i <= n; i++ {
		if err := co.Put("gticks", array.Coord{i}, array.Cell{array.Int64(1000 + i*3)}); err != nil {
			return nil, err
		}
	}
	if err := co.Flush("gticks"); err != nil {
		return nil, err
	}
	if _, err := co.Scan("gticks", array.NewBox(array.Coord{1}, array.Coord{n})); err != nil {
		return nil, err
	}
	return co.StorageStats()
}
