package cluster

// Worker-side halves of the parallel bulk loader and distributed in-situ
// scanning (§2.8–§2.9).
//
// "loadchunks" adopts a batch of pre-encoded chunk payloads as buckets, so
// ingest pays one parse + one encode total, both on the loader side — and a
// chunk the rebalancer copies between nodes arrives bit-identical.
//
// "insitu" registers an external file region as a first-class partition:
// the node materializes stride-aligned chunks of its slab lazily through
// the adaptor → encoded-chunk path into the buffer pool, so the file is
// queryable with no load step. The file must be reachable from the worker
// (shared filesystem or a local copy at the same path) — in-situ data
// stays under user control and gets no replication or recovery.

import (
	"fmt"

	"scidb/internal/array"
	"scidb/internal/bufcache"
	"scidb/internal/insitu"
	"scidb/internal/storage"
)

// loadChunks adopts a batch of pre-encoded chunk payloads verbatim as buckets
// of the partition's store (storage.AdoptEncoded: no re-encode). The parallel
// bulk loader ships its chunks so; the rebalancer does too, with the box of
// the chunk it copies and the routing-table version the copy belongs to.
func (w *Worker) loadChunks(req *Message) (*Message, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	st, err := w.storeLocked(req.Array)
	if err != nil {
		return nil, err
	}
	// With a box the payloads are the region's canonical newest state (the
	// coordinator's write fence flushed and folded every live write before
	// exporting). Clear any buffered cells left over from an earlier
	// ownership stint first — the memory buffer outranks every bucket on
	// reads, so a stale cell would shadow the adopted copy; the box covers
	// sub-chunks the canonical copy holds no cells for.
	if len(req.BoxLo) > 0 {
		st.ClearRegion(array.Box{Lo: req.BoxLo, Hi: req.BoxHi})
	}
	var cells int64
	for _, payload := range req.Chunks {
		ch, err := storage.DecodeChunk(st.Schema(), payload)
		if err != nil {
			return nil, err
		}
		if err := st.AdoptEncoded(payload, ch); err != nil {
			return nil, err
		}
		cells += ch.CellsPresent()
	}
	if req.RouteVersion > w.routeVersion[req.Array] {
		w.routeVersion[req.Array] = req.RouteVersion
	}
	w.stats.cellsHeld.Add(cells)
	w.stats.bytesIn.Add(payloadBytes(req.Chunks))
	return &Message{Op: "loadchunks", Cells: cells, RouteVersion: w.routeVersion[req.Array]}, nil
}

// insituPart is one node's registration of an external file: the adaptor,
// the node's slab of the global coordinate box, and the lazy chunk grid it
// materializes through.
type insituPart struct {
	name    string
	path    string
	adaptor string
	ds      insitu.Dataset
	schema  *array.Schema // partition-local (unbounded dims, ChunkLen set)
	box     array.Box     // this node's slab; unset when empty
	empty   bool
	stride  []int64
	cacheID uint64 // buffer-pool namespace; 0 when uncached
}

// insituOp registers (or replaces) an in-situ partition on this node.
// An absent box means the partitioning assigns this node none of the file.
func (w *Worker) insituOp(req *Message) (*Message, error) {
	if req.Schema == nil {
		return nil, fmt.Errorf("cluster: insitu without schema")
	}
	ad, err := insitu.ByName(req.Adaptor)
	if err != nil {
		return nil, err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if old, ok := w.insitus[req.Array]; ok {
		old.release(w)
	}
	ps := partitionSchema(req.Schema)
	p := &insituPart{name: req.Array, path: req.Path, adaptor: req.Adaptor, schema: ps}
	if len(req.BoxLo) == 0 {
		p.empty = true
	} else {
		ds, err := ad.Open(req.Path)
		if err != nil {
			return nil, err
		}
		p.ds = ds
		p.box = array.Box{Lo: req.BoxLo, Hi: req.BoxHi}
		p.stride = make([]int64, len(ps.Dims))
		for i := range p.stride {
			if i < len(w.opts.Stride) && w.opts.Stride[i] > 0 {
				p.stride[i] = w.opts.Stride[i]
			} else {
				p.stride[i] = ps.Dims[i].ChunkLen
			}
		}
		if w.cache != nil {
			p.cacheID = w.cache.RegisterStore()
		}
	}
	if w.insitus == nil {
		w.insitus = map[string]*insituPart{}
	}
	w.insitus[req.Array] = p
	return &Message{Op: "insitu"}, nil
}

// release closes the part's dataset and drops its pool entries.
func (p *insituPart) release(w *Worker) {
	if p.ds != nil {
		_ = p.ds.Close()
	}
	if w.cache != nil && p.cacheID != 0 {
		w.cache.InvalidateStore(p.cacheID)
	}
}

// gridOrigin aligns c down to the part's chunk grid (1-based strides).
func (p *insituPart) gridOrigin(c array.Coord) array.Coord {
	o := make(array.Coord, len(c))
	for i, cl := range p.stride {
		o[i] = ((c[i]-1)/cl)*cl + 1
	}
	return o
}

// bucketID numbers a grid origin within the slab's chunk grid, row-major —
// the part's stable key space inside the shared buffer pool.
func (p *insituPart) bucketID(origin array.Coord) int64 {
	id := int64(0)
	for i, cl := range p.stride {
		extent := (p.box.Hi[i]-1)/cl + 1
		id = id*extent + (origin[i]-1)/cl
	}
	return id
}

// chunkAt materializes (or fetches from the pool) the grid chunk at origin:
// scan the adaptor over the region, then round-trip through the chunk codec
// so the result carries zone maps and encoded column views like any bucket.
func (p *insituPart) chunkAt(w *Worker, origin array.Coord) (*array.Chunk, func(), error) {
	if w.heat != nil {
		// Every chunk consultation scores a touch, pool hit or miss alike.
		w.heat.Touch(p.name, origin, 1)
	}
	load := func() (bufcache.Sized, error) {
		shape := make([]int64, len(p.stride))
		copy(shape, p.stride)
		ch := array.NewChunk(p.schema, origin.Clone(), shape)
		region, ok := ch.Box().Intersect(p.box)
		if !ok {
			return ch, nil
		}
		var werr error
		if err := p.ds.Scan(region, func(c array.Coord, cell array.Cell) bool {
			if err := ch.Set(c, cell); err != nil {
				werr = err
				return false
			}
			return true
		}); err != nil {
			return nil, err
		}
		if werr != nil {
			return nil, werr
		}
		if ch.CellsPresent() == 0 {
			return ch, nil
		}
		raw, _, err := storage.EncodeChunkZones(p.schema, ch)
		if err != nil {
			return nil, err
		}
		return storage.DecodeChunk(p.schema, raw)
	}
	if w.cache == nil || p.cacheID == 0 {
		ch, err := load()
		if err != nil {
			return nil, nil, err
		}
		return ch.(*array.Chunk), func() {}, nil
	}
	h, err := w.cache.GetOrLoad(bufcache.Key{Store: p.cacheID, Bucket: p.bucketID(origin)}, load)
	if err != nil {
		return nil, nil, err
	}
	return h.Value().(*array.Chunk), h.Release, nil
}
