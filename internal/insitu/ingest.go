package insitu

import (
	"context"
	"slices"
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
// concurrently, routes each chunk of Schema's grid into the builder of its
// site, and every Batch chunks seals a site's builder — each chunk
// through storage.AppendChunkZones, zone maps included, into one recycled
// buffer — and hands the payloads to Ship. A cell is parsed once, straight
// into its chunk's columns, and encoded once.
//
// Cell-for-cell the stores end up holding the dataset, and input in chunk
// order is stored one bucket per chunk wherever the shards were cut.
// Coordinates must be unique: with duplicates, which copy wins is undefined.
type Pipeline struct {
	// Schema is the destination stores' schema: its grid is the one every
	// shipped chunk lies on, so each is adopted as one bucket.
	Schema *array.Schema
	// Sites is the number of destinations; Route names a cell's, and gives
	// every cell of a chunk the same site, so it is asked once per run of
	// cells in one chunk.
	Sites int
	Route func(array.Coord) int
	// Batch is how many chunks a site's builder takes before it is sealed
	// and shipped: a cell that would open one more ships the Batch first.
	Batch int
	// Ship delivers a site's sealed chunks (EncodeChunk payloads, in origin
	// order). Shards ship concurrently. The payloads are views of a buffer
	// the pipeline reuses once Ship returns, so they are valid only until
	// then: a Ship that keeps a payload, or anything that aliases one, must
	// copy it.
	Ship func(site int, payloads [][]byte) error
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
//
// A shard cut can fall inside a chunk, and the shards on both sides then
// hold a part of it: with input in chunk order, a shard's first and last
// chunk at each site. Unless such a chunk is whole — it has every cell of
// its box, so no other shard has one — a shard does not seal it but merges
// it into edges, the parts held so far. The shard whose part makes a chunk
// there whole seals it; a chunk still partial when the last shard is done
// is sealed then. Either way it is stored as one bucket.
func (p Pipeline) Run(ds Dataset, box array.Box) (Counts, error) {
	bs := p.Schema.Clone()
	bs.Name = p.Schema.Name + "_loadbuf"
	shards, err := Split(ds, exec.Parallelism())
	if err != nil {
		return Counts{}, err
	}
	var mu sync.Mutex // guards n and edges
	n := Counts{PerSite: make([]int64, p.Sites)}
	type edgeKey struct {
		site   int
		origin string
	}
	edges := map[edgeKey]*array.Chunk{}
	err = exec.Default().Map(context.Background(), len(shards), func(si int) error {
		start := time.Now()
		my := Counts{PerSite: make([]int64, p.Sites)}
		builders := make([]*array.Array, p.Sites)
		first, last := make([]*array.Chunk, p.Sites), make([]*array.Chunk, p.Sites)
		defer func() {
			my.Parse = max(time.Since(start)-my.Encode-my.Ship, 0)
			mu.Lock()
			n.add(my)
			mu.Unlock()
		}()
		// shared reports whether a neighbouring shard may have cells of ch:
		// it is the shard's first chunk at site, or, once the shard is done,
		// its last, and it is not whole.
		shared := func(site int, ch *array.Chunk, done bool) bool {
			return (si > 0 && ch == first[site] || done && si < len(shards)-1 && ch == last[site]) && !whole(ch)
		}
		// hold unions ch with the part of its chunk in edges (MergeParts:
		// the two hold disjoint cells) and returns the chunk once it is
		// whole, for the caller to seal, or nil.
		hold := func(site int, ch *array.Chunk) *array.Chunk {
			mu.Lock()
			defer mu.Unlock()
			k := edgeKey{site, ch.Origin.Key()}
			if part := edges[k]; part != nil {
				ch = array.MergeParts(part, ch)
			}
			if whole(ch) {
				delete(edges, k)
				return ch
			}
			edges[k] = ch
			return nil
		}
		// flushSite seals and ships a site's builder, but for the chunks a
		// neighbouring shard may share.
		flushSite := func(site int, done bool) error {
			b := builders[site]
			if b == nil {
				return nil
			}
			builders[site] = nil
			chunks := make([]*array.Chunk, 0, b.NumChunks())
			for _, ch := range b.Chunks() {
				if shared(site, ch, done) {
					if ch = hold(site, ch); ch == nil {
						continue
					}
				}
				chunks = append(chunks, ch)
			}
			return p.seal(bs, site, chunks, &my)
		}
		// The shard's body writes each cell straight into its site builder's
		// slot. A cell that would open chunk Batch+1 of a builder first seals
		// and ships the Batch it holds, so no chunk is split across batches
		// when cells come in chunk order. A cell in the chunk the last cell
		// went to goes to the same site, unrouted.
		var routed *array.Chunk
		site := 0
		slot := func(c array.Coord) (*array.Chunk, int64, error) {
			if routed == nil || !inChunk(routed, c) {
				routed, site = nil, p.Route(c)
			}
			b := builders[site]
			if b != nil && b.NumChunks() >= p.Batch && !b.Holds(c) {
				if err := flushSite(site, false); err != nil {
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
				routed = ch
				my.PerSite[site]++
				if first[site] == nil {
					first[site] = ch
				}
				last[site] = ch
			}
			return ch, i, err
		}
		if err := shards[si].fill(box, slot); err != nil {
			return err
		}
		for site := range builders {
			if err := flushSite(site, true); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return n, err
	}
	// The chunks still partial are sealed a site per pool task, each site's
	// batches in origin order.
	rest := make([][]*array.Chunk, p.Sites)
	for k, ch := range edges {
		rest[k.site] = append(rest[k.site], ch)
	}
	ends := make([]Counts, p.Sites)
	err = exec.Default().Map(context.Background(), p.Sites, func(site int) error {
		ends[site] = Counts{PerSite: make([]int64, p.Sites)}
		chunks := rest[site]
		slices.SortFunc(chunks, func(a, b *array.Chunk) int { return slices.Compare(a.Origin, b.Origin) })
		for len(chunks) > 0 {
			k := min(p.Batch, len(chunks))
			if err := p.seal(bs, site, chunks[:k], &ends[site]); err != nil {
				return err
			}
			chunks = chunks[k:]
		}
		return nil
	})
	for _, c := range ends {
		if c.PerSite != nil {
			n.add(c)
		}
	}
	return n, err
}

// whole reports whether ch has every cell of its box. Coordinates are
// unique, so then no other shard has a cell of it.
func whole(ch *array.Chunk) bool { return ch.CellsPresent() == ch.Slots() }

// inChunk reports whether c lies in ch's box.
func inChunk(ch *array.Chunk, c array.Coord) bool {
	for i, o := range ch.Origin {
		if c[i] < o || c[i] >= o+ch.Shape[i] {
			return false
		}
	}
	return true
}

// seal encodes chunks — each through storage.AppendChunkZones, zone maps
// included, into one recycled buffer — ships them to site as one batch,
// counts it in my, and recycles the buffer: Ship's payloads are views of it.
func (p Pipeline) seal(bs *array.Schema, site int, chunks []*array.Chunk, my *Counts) error {
	if len(chunks) == 0 {
		return nil
	}
	t0 := time.Now()
	room := payloadRooms.Get()
	defer payloadRooms.Put(room)
	ends := make([]int, len(chunks))
	for i, ch := range chunks {
		var err error
		*room, _, err = storage.AppendChunkZones(*room, bs, ch)
		if err != nil {
			return err
		}
		ends[i] = len(*room)
		if i == 0 {
			// The batch's chunks share a grid: room for the rest at the
			// first's size, so a buffer short of room grows about once.
			*room = slices.Grow(*room, ends[0]*(len(chunks)-1))
		}
	}
	payloads := make([][]byte, len(chunks))
	start := 0
	for i, end := range ends {
		payloads[i] = (*room)[start:end:end]
		start = end
	}
	my.Encode += time.Since(t0)
	t0 = time.Now()
	if err := p.Ship(site, payloads); err != nil {
		return err
	}
	my.Ship += time.Since(t0)
	my.Chunks += int64(len(payloads))
	my.Batches++
	my.Bytes += int64(start)
	return nil
}

// payloadRooms recycles the buffers seal encodes a batch into.
var payloadRooms storage.Rooms
