package insitu

import (
	"context"
	"sync"
	"time"

	"scidb/internal/array"
	"scidb/internal/exec"
	"scidb/internal/storage"
)

// Pipeline is the one body that moves a file's cells into stores (§2.8,
// §2.9): the bulk loader runs it across the grid's sites, and an in-situ
// fill runs it with one site into the partition's own store. Run splits the
// dataset with Split, one shard per exec pool worker, parses the shards
// concurrently, routes each cell into a per-site chunk builder on Schema's
// grid, and every Batch chunks seals a site's builder — each chunk
// through storage.EncodeChunkZones, zone maps included — and hands the
// payloads to Ship. A cell is parsed once, straight into its chunk's
// columns, and encoded once.
//
// Cell-for-cell the stores end up holding the dataset; only the bucket
// boundaries depend on where the shards were cut. Coordinates must be
// unique: with duplicates, which copy wins is undefined.
type Pipeline struct {
	// Schema is the destination stores' schema: its grid is the one every
	// shipped chunk lies on, so each is adopted as one bucket.
	Schema *array.Schema
	// Sites is the number of destinations; Route names a cell's.
	Sites int
	Route func(array.Coord) int
	// Batch is how many chunks a site's builder takes before it is sealed
	// and shipped: a cell that would open one more ships the Batch first.
	Batch int
	// Ship delivers a site's sealed chunks (EncodeChunk payloads, in origin
	// order); cells is their total cell count. Shards ship concurrently.
	Ship func(site int, payloads [][]byte, cells int64) error
}

// Counts is what a Run did: the cells it routed to each site, the chunks,
// batches and payload bytes it shipped, and the wall time its shards spent
// parsing and routing, encoding, and shipping.
type Counts struct {
	PerSite                []int64
	Chunks, Batches, Bytes int64
	Parse, Encode, Ship    time.Duration
}

func (c *Counts) add(o Counts) {
	for site, cells := range o.PerSite {
		c.PerSite[site] += cells
	}
	c.Chunks += o.Chunks
	c.Batches += o.Batches
	c.Bytes += o.Bytes
	c.Parse += o.Parse
	c.Encode += o.Encode
	c.Ship += o.Ship
}

// Run moves ds's cells inside box through the pipeline.
func (p Pipeline) Run(ds Dataset, box array.Box) (Counts, error) {
	bs := p.Schema.Clone()
	bs.Name = p.Schema.Name + "_loadbuf"
	shards, err := Split(ds, exec.Parallelism())
	if err != nil {
		return Counts{}, err
	}
	var mu sync.Mutex // guards n
	n := Counts{PerSite: make([]int64, p.Sites)}
	err = exec.Default().Map(context.Background(), len(shards), func(si int) error {
		start := time.Now()
		my := Counts{PerSite: make([]int64, p.Sites)}
		builders := make([]*array.Array, p.Sites)
		defer func() {
			my.Parse = max(time.Since(start)-my.Encode-my.Ship, 0)
			mu.Lock()
			n.add(my)
			mu.Unlock()
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
				raw, _, err := storage.EncodeChunkZones(bs, ch)
				if err != nil {
					return err
				}
				payloads = append(payloads, raw)
				cells += ch.CellsPresent()
				payloadBytes += int64(len(raw))
			}
			my.Encode += time.Since(t0)
			if len(payloads) == 0 {
				return nil
			}
			t0 = time.Now()
			if err := p.Ship(site, payloads, cells); err != nil {
				return err
			}
			my.Ship += time.Since(t0)
			my.Chunks += int64(len(payloads))
			my.Batches++
			my.Bytes += payloadBytes
			return nil
		}
		// The shard's body writes each cell straight into its site builder's
		// slot. A cell that would open chunk Batch+1 of a builder first seals
		// and ships the Batch it holds, so no chunk is split across batches
		// when cells come in chunk order.
		slot := func(c array.Coord) (*array.Chunk, int64, error) {
			site := p.Route(c)
			b := builders[site]
			if b != nil && b.NumChunks() >= p.Batch && !b.Holds(c) {
				if err := flushSite(site); err != nil {
					return nil, 0, err
				}
				b = nil
			}
			if b == nil {
				var err error
				if b, err = array.New(bs); err != nil {
					return nil, 0, err
				}
				builders[site] = b
			}
			ch, i, err := b.Slot(c)
			if err == nil {
				my.PerSite[site]++
			}
			return ch, i, err
		}
		if err := shards[si].fill(box, slot); err != nil {
			return err
		}
		for site := range builders {
			if err := flushSite(site); err != nil {
				return err
			}
		}
		return nil
	})
	return n, err
}
