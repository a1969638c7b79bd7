// Package loader implements the streaming bulk loader of §2.8: "Most data
// will come into SciDB through a streaming bulk loader. We assume that the
// input stream is ordered by some dominant dimension — often time. SciDB
// will divide the load stream into site-specific substreams. Each one will
// appear in the main memory of the associated node."
//
// LoadParallel runs the ingest pipeline (insitu.Pipeline) across the grid:
// the input is sharded by its adaptor (byte ranges for CSV, row slabs for
// NCL, chunk groups for SDF), the shards parse concurrently on the exec
// pool, cells are routed into per-site chunk builders, chunks are encoded —
// zone maps included — at load time, and the pre-encoded payloads ship to
// their owning sites in batches. The owning worker adopts the payload bytes
// as a bucket verbatim (storage.AdoptEncoded), so a cell is parsed once and
// encoded once no matter how many machines the load crosses.
package loader

import (
	"time"

	"scidb/internal/array"
	"scidb/internal/cluster"
	"scidb/internal/insitu"
	"scidb/internal/obs"
	"scidb/internal/partition"
	"scidb/internal/storage"
)

// Stats summarizes a load.
type Stats struct {
	Records int64
	PerSite []int64
}

// Options tunes LoadParallel.
type Options struct {
	// Stride is unread but for storage.CheckStride: chunks are the
	// destination's grid chunks, and a stride may only restate that grid.
	// The frozen bench/env.go sets it (ROADMAP item 1).
	Stride []int64
}

// ChunkDest receives encoded chunk batches for one site. Implementations
// must be safe for concurrent ShipChunks calls (shards flush
// independently).
type ChunkDest interface {
	// Grid returns the schema the destination stores an array of schema
	// under: its chunk grid is the one every shipped chunk lies on.
	Grid(schema *array.Schema) *array.Schema
	// ShipChunks delivers encoded chunk payloads (EncodeChunk bytes) owned
	// by site; cells is the total cell count across them.
	ShipChunks(site int, payloads [][]byte, cells int64) error
	// Flush finalizes the destination after all shards complete (manifest
	// saves, coordinator flush fan-out).
	Flush() error
}

// RTTSource is implemented by destinations that observe their link's round
// trips; LoadParallel sizes its batches from it.
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

// Grid implements ChunkDest: schema on the chunk grid the workers store its
// partitions on (cluster.PartitionSchema's). It keeps the declared bounds,
// so a chunk at a bound is clipped there, inside its partition cell.
func (d ClusterDest) Grid(schema *array.Schema) *array.Schema {
	g := schema.Clone()
	for i, pd := range cluster.PartitionSchema(schema).Dims {
		g.Dims[i].ChunkLen = pd.ChunkLen
	}
	return g
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
	Stores []*storage.Store
}

// Grid implements ChunkDest: the stores' own schema (every store holds the
// same array).
func (d StoreDest) Grid(*array.Schema) *array.Schema { return d.Stores[0].Schema() }

// ShipChunks implements ChunkDest.
func (d StoreDest) ShipChunks(site int, payloads [][]byte, cells int64) error {
	_, err := d.Stores[site].AdoptPayloads(payloads)
	return err
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

// LoadParallel loads ds's cells inside box into dest: the ingest pipeline
// with one site per node of scheme, on dest's grid for schema, shipping
// batches sized from dest's link RTT when it reports one, 16 chunks
// otherwise. It publishes the pipeline's counts as
// the scidb_load_* counters and ends with dest.Flush. Input cells must have
// unique coordinates: with duplicates, which copy wins is undefined.
func LoadParallel(ds insitu.Dataset, box array.Box, schema *array.Schema, scheme partition.Scheme, dest ChunkDest, opts Options) (Stats, error) {
	grid := dest.Grid(schema)
	if err := storage.CheckStride(grid, opts.Stride); err != nil {
		return Stats{}, err
	}
	var rtt time.Duration
	if src, ok := dest.(RTTSource); ok {
		rtt = src.AvgRTT()
	}
	n, err := insitu.Pipeline{
		Schema: grid,
		Sites:  scheme.NumNodes(),
		Route:  scheme.NodeFor,
		Batch:  batchForRTT(rtt),
		Ship:   dest.ShipChunks,
	}.Run(ds, box)
	st := Stats{PerSite: n.PerSite}
	for _, c := range n.PerSite {
		st.Records += c
	}
	// The LOAD experiment and CI smoke grep these names from
	// BENCH_LOAD.json; bench/ reads them per layer.
	r := obs.Default()
	r.Counter("scidb_load_records_total", "cells routed by the parallel bulk loader").Add(st.Records)
	r.Counter("scidb_load_chunks_shipped_total", "encoded chunks shipped to owning sites").Add(n.Chunks)
	r.Counter("scidb_load_batches_shipped_total", "chunk batches shipped (one ShipChunks call each)").Add(n.Batches)
	r.Counter("scidb_load_bytes_shipped_total", "encoded chunk payload bytes shipped").Add(n.Bytes)
	r.Counter("scidb_load_parse_nanos_total", "wall nanoseconds parsing + routing shard input").Add(int64(n.Parse))
	r.Counter("scidb_load_encode_nanos_total", "wall nanoseconds encoding chunks at load time").Add(int64(n.Encode))
	r.Counter("scidb_load_ship_nanos_total", "wall nanoseconds shipping chunk batches").Add(int64(n.Ship))
	if err != nil {
		return st, err
	}
	return st, dest.Flush()
}
