package core

import (
	"fmt"

	"scidb/internal/array"
	"scidb/internal/bufcache"
	"scidb/internal/ops"
	"scidb/internal/parser"
	"scidb/internal/storage"
)

// AttachStore registers a disk-backed array served by a storage.Store: reads
// go through the store's buffer pool, so repeated queries over the same
// region skip disk and decompression. The database takes ownership — Drop
// closes the store.
func (db *Database) AttachStore(name string, st *storage.Store) error {
	if st == nil {
		return fmt.Errorf("core: AttachStore with nil store")
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.nameTakenLocked(name) || db.attached[name] != nil {
		return fmt.Errorf("core: array %q already exists", name)
	}
	db.stores[name] = st
	return nil
}

// StoreFor returns the storage manager behind a store-backed array.
func (db *Database) StoreFor(name string) (*storage.Store, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if st, ok := db.stores[name]; ok {
		return st, nil
	}
	return nil, fmt.Errorf("core: %q is not store-backed", name)
}

// CacheStats snapshots the pool counters of one store-backed array.
func (db *Database) CacheStats(name string) (bufcache.Stats, error) {
	st, err := db.StoreFor(name)
	if err != nil {
		return bufcache.Stats{}, err
	}
	return st.CacheStats(), nil
}

// storeBackedFor resolves a Ref expression to its store, if any.
func (db *Database) storeBackedFor(e parser.ArrayExpr) *storage.Store {
	ref, ok := e.(*parser.Ref)
	if !ok {
		return nil
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.stores[ref.Name]
}

// storeBox is the full extent of a store's schema (unbounded dims get the
// same ceiling subsampleBox uses).
func storeBox(s *array.Schema) array.Box {
	lo := make(array.Coord, len(s.Dims))
	hi := make(array.Coord, len(s.Dims))
	for i, d := range s.Dims {
		lo[i] = 1
		if d.High == array.Unbounded {
			hi[i] = 1 << 40
		} else {
			hi[i] = d.High
		}
	}
	return array.Box{Lo: lo, Hi: hi}
}

// readStoreBox reads one box of a store into a fresh array, chunk at a
// time, skipping buckets whose zone maps refute preds (it reports how
// many). A chunk that is live in full is cloned out of the shared pool and
// adopted, which skips the cell-by-cell rebuild and — because Clone
// preserves the decoder's advisory views — hands the operators zone maps
// and RLE/dictionary structure for compressed execution; a chunk the box
// cuts or newer data shadows contributes its live slots column-wise.
func readStoreBox(st *storage.Store, box array.Box, preds []array.ZonePred) (*array.Array, int64, error) {
	out, err := array.New(st.Schema().Clone())
	if err != nil {
		return nil, 0, err
	}
	cs := st.ScanChunks(box, preds)
	err = cs.Each(func(lc storage.LiveChunk) error {
		if lc.Live == lc.Chunk.Present {
			return out.MergeChunk(lc.Chunk.Clone())
		}
		return out.MergeMasked(lc.Chunk, lc.Live)
	})
	if err != nil {
		return nil, 0, err
	}
	return out, cs.Skipped(), nil
}

// materializeStore reads a store-backed array's full extent. There is no
// array-level cache on purpose: the chunk pool already makes repeat reads
// memory-resident, and staying pool-backed keeps results consistent with
// later writes to the store.
func (db *Database) materializeStore(st *storage.Store) (*array.Array, error) {
	out, _, err := readStoreBox(st, storeBox(st.Schema()), nil)
	return out, err
}

// evalStoreSubsample is the store pushdown twin of evalAttachedSubsample:
// a box-expressible SUBSAMPLE over a store-backed array scans only that box
// (R-tree pruning + pool), then re-indexes through the operator.
func (db *Database) evalStoreSubsample(st *storage.Store, n *parser.SubsampleExpr) (*array.Array, bool, error) {
	box, ok := subsampleBox(st.Schema(), n.Pred)
	if !ok {
		return nil, false, nil
	}
	partial, _, err := readStoreBox(st, box, nil)
	if err != nil {
		return nil, false, err
	}
	conds, err := dimConds(n.Pred)
	if err != nil {
		return nil, false, err
	}
	res, err := ops.Subsample(partial, conds)
	if err != nil {
		return nil, false, err
	}
	return res, true, nil
}
