// Parallel partition-on-load pipeline (§2.8). LoadParallel shards the
// input via the insitu adaptors (byte ranges for CSV, row slabs for NCL,
// chunk groups for SDF), parses the shards concurrently on the exec pool,
// routes cells into per-site chunk builders, encodes chunks — zone maps
// included — at load time, and ships the pre-encoded payloads to their
// owning sites in batches. The owning worker adopts the payload bytes as
// a bucket verbatim (storage.AdoptEncoded), so a cell is parsed once and
// encoded once no matter how many machines the load crosses.
package loader

import (
	"context"
	"sync/atomic"
	"time"

	"scidb/internal/array"
	"scidb/internal/cluster"
	"scidb/internal/exec"
	"scidb/internal/insitu"
	"scidb/internal/obs"
	"scidb/internal/partition"
	"scidb/internal/storage"
)

// Options tunes LoadParallel.
type Options struct {
	// Parallelism is the shard/parse concurrency. Zero uses the exec pool's
	// configured parallelism.
	Parallelism int
	// BatchChunks is how many chunks a site accumulates before its batch is
	// encoded and shipped. Zero means adaptive: when the destination can
	// report an observed link round-trip time (RTTSource), the batch grows
	// with the RTT — a slow link amortizes more chunks per round trip —
	// clamped to [16, 256]; otherwise 16. A nonzero value is an explicit
	// override (scidb-load -batch). Larger batches amortize more
	// round-trips at the cost of load-side memory.
	BatchChunks int
	// Stride overrides the chunk grid per dimension (zero entries keep the
	// schema's ChunkLen). Match it to the destination store's bucket stride
	// so shipped chunks are adopted as whole buckets.
	Stride []int64
}

// ChunkDest receives encoded chunk batches for one site. Implementations
// must be safe for concurrent ShipChunks calls (shards flush
// independently).
type ChunkDest interface {
	// ShipChunks delivers encoded chunk payloads (EncodeChunk bytes) owned
	// by site; cells is the total cell count across them.
	ShipChunks(site int, payloads [][]byte, cells int64) error
	// Flush finalizes the destination after all shards complete (manifest
	// saves, coordinator flush fan-out).
	Flush() error
}

// RTTSource is implemented by destinations that observe their link's round
// trips; LoadParallel uses it to size batches adaptively when
// Options.BatchChunks is zero.
type RTTSource interface {
	// AvgRTT reports the destination link's mean round-trip time so far
	// (zero when nothing has been measured — e.g. an in-process transport).
	AvgRTT() time.Duration
}

// ClusterDest ships chunk batches to the owning workers through a
// coordinator over the batched loadchunks wire op.
type ClusterDest struct {
	Co    *cluster.Coordinator
	Array string
}

// AvgRTT implements RTTSource from the coordinator's transport counters.
func (d ClusterDest) AvgRTT() time.Duration {
	ts, ok := d.Co.TransportStats()
	if !ok || ts.Calls == 0 {
		return 0
	}
	return time.Duration(ts.RoundTripNanos / ts.Calls)
}

// batchForRTT maps an observed link round-trip time to a chunk batch size:
// 16 at sub-millisecond RTT, growing one base batch per millisecond, capped
// at 256 so load-side memory stays bounded. The shape follows the round-trip
// economics: the per-batch overhead a shipment must amortize is one RTT, so
// batch size scales linearly with it.
func batchForRTT(rtt time.Duration) int {
	b := 16 * (1 + int(rtt/time.Millisecond))
	if b < 16 {
		b = 16
	}
	if b > 256 {
		b = 256
	}
	return b
}

// ShipChunks implements ChunkDest. Concurrent calls pipeline over the
// transport's pooled connections.
func (d ClusterDest) ShipChunks(site int, payloads [][]byte, cells int64) error {
	return d.Co.LoadChunks(d.Array, site, payloads, cells)
}

// Flush implements ChunkDest.
func (d ClusterDest) Flush() error { return d.Co.Flush(d.Array) }

// StoreDest adopts chunk batches directly into per-site local stores — the
// single-machine form of the same pipeline, and the unit-test harness for
// it.
type StoreDest struct {
	Schema *array.Schema
	Stores []*storage.Store
}

// ShipChunks implements ChunkDest.
func (d StoreDest) ShipChunks(site int, payloads [][]byte, cells int64) error {
	st := d.Stores[site]
	for _, p := range payloads {
		ch, err := storage.DecodeChunk(d.Schema, p)
		if err != nil {
			return err
		}
		if err := st.AdoptEncoded(p, ch); err != nil {
			return err
		}
	}
	return nil
}

// Flush implements ChunkDest.
func (d StoreDest) Flush() error {
	var err error
	for _, st := range d.Stores {
		if e := st.Flush(); e != nil && err == nil {
			err = e
		}
	}
	return err
}

// loadCounters is the pipeline's obs instrumentation, shared process-wide
// (the LOAD experiment and CI smoke grep these names from BENCH_LOAD.json).
type loadCounters struct {
	records, chunks, batches, bytes *obs.Counter
	parseNanos, encNanos, shipNanos *obs.Counter
}

func newLoadCounters() loadCounters {
	r := obs.Default()
	return loadCounters{
		records:    r.Counter("scidb_load_records_total", "cells routed by the parallel bulk loader"),
		chunks:     r.Counter("scidb_load_chunks_shipped_total", "encoded chunks shipped to owning sites"),
		batches:    r.Counter("scidb_load_batches_shipped_total", "chunk batches shipped (one ShipChunks call each)"),
		bytes:      r.Counter("scidb_load_bytes_shipped_total", "encoded chunk payload bytes shipped"),
		parseNanos: r.Counter("scidb_load_parse_nanos_total", "wall nanoseconds parsing + routing shard input"),
		encNanos:   r.Counter("scidb_load_encode_nanos_total", "wall nanoseconds encoding chunks at load time"),
		shipNanos:  r.Counter("scidb_load_ship_nanos_total", "wall nanoseconds shipping chunk batches"),
	}
}

// LoadParallel runs the parallel partition-on-load pipeline: split ds into
// shards, parse them concurrently, build stride-aligned chunks per site,
// encode at load time, and ship batches to dest. schema is the destination
// array's schema; the chunk grid follows its ChunkLen (or Options.Stride).
//
// Cell-for-cell the result equals a serial Load into the same destination;
// only the bucket boundaries may differ. Input cells must have unique
// coordinates — with duplicates, which copy wins is undefined under
// concurrency (a serial Load makes the last one win).
func LoadParallel(ds insitu.Dataset, box array.Box, schema *array.Schema, scheme partition.Scheme, dest ChunkDest, opts Options) (Stats, error) {
	par := opts.Parallelism
	if par <= 0 {
		par = exec.Parallelism()
	}
	batch := opts.BatchChunks
	if batch <= 0 {
		batch = 16
		if src, ok := dest.(RTTSource); ok {
			batch = batchForRTT(src.AvgRTT())
		}
	}
	bs := schema.Clone()
	bs.Name = schema.Name + "_loadbuf"
	for i := range bs.Dims {
		if i < len(opts.Stride) && opts.Stride[i] > 0 {
			bs.Dims[i].ChunkLen = opts.Stride[i]
		}
	}
	shards, err := insitu.Split(ds, par)
	if err != nil {
		return Stats{}, err
	}
	nSites := scheme.NumNodes()
	ctr := newLoadCounters()
	perSite := make([]atomic.Int64, nSites)
	err = exec.Default().Map(context.Background(), len(shards), func(si int) error {
		shard := shards[si]
		start := time.Now()
		var encNanos, shipNanos time.Duration
		builders := make([]*array.Array, nSites)
		staged := make([]int64, nSites) // cells routed to each site
		defer func() {
			for site, n := range staged {
				perSite[site].Add(n)
			}
		}()
		flushSite := func(site int) error {
			b := builders[site]
			if b == nil {
				return nil
			}
			builders[site] = nil
			t0 := time.Now()
			chunks := b.Chunks() // origin-sorted: deterministic ship order
			payloads := make([][]byte, 0, len(chunks))
			var cells, payloadBytes int64
			for _, ch := range chunks {
				if ch.CellsPresent() == 0 {
					continue
				}
				raw, _, err := storage.EncodeChunkZones(bs, ch)
				if err != nil {
					return err
				}
				payloads = append(payloads, raw)
				cells += ch.CellsPresent()
				payloadBytes += int64(len(raw))
			}
			encNanos += time.Since(t0)
			if len(payloads) == 0 {
				return nil
			}
			t0 = time.Now()
			if err := dest.ShipChunks(site, payloads, cells); err != nil {
				return err
			}
			shipNanos += time.Since(t0)
			ctr.chunks.Add(int64(len(payloads)))
			ctr.batches.Add(1)
			ctr.bytes.Add(payloadBytes)
			return nil
		}
		var innerErr error
		// Set copies the scan's reused Coord and Cell into the builder's
		// columns, so nothing is cloned per cell.
		scanErr := shard.Scan(box, func(c array.Coord, cell array.Cell) bool {
			site := scheme.NodeFor(c)
			b := builders[site]
			if b == nil {
				var err error
				if b, err = array.New(bs); err != nil {
					innerErr = err
					return false
				}
				builders[site] = b
			}
			if err := b.Set(c, cell); err != nil {
				innerErr = err
				return false
			}
			staged[site]++
			if b.NumChunks() >= batch {
				if err := flushSite(site); err != nil {
					innerErr = err
					return false
				}
			}
			return true
		})
		if scanErr != nil {
			return scanErr
		}
		if innerErr != nil {
			return innerErr
		}
		for site := range builders {
			if err := flushSite(site); err != nil {
				return err
			}
		}
		total := time.Since(start)
		if parse := total - encNanos - shipNanos; parse > 0 {
			ctr.parseNanos.Add(int64(parse))
		}
		ctr.encNanos.Add(int64(encNanos))
		ctr.shipNanos.Add(int64(shipNanos))
		return nil
	})
	st := Stats{PerSite: make([]int64, nSites)}
	for i := range perSite {
		st.PerSite[i] = perSite[i].Load()
		st.Records += st.PerSite[i]
	}
	ctr.records.Add(st.Records)
	if err != nil {
		return st, err
	}
	return st, dest.Flush()
}
