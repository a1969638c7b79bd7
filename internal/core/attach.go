package core

import (
	"fmt"
	"os"

	"scidb/internal/array"
	"scidb/internal/bufcache"
	"scidb/internal/insitu"
	"scidb/internal/parser"
	"scidb/internal/storage"
)

// openExternal opens a file through the named adaptor; only the header is
// read.
func openExternal(path, adaptor string) (insitu.Dataset, error) {
	ad, err := insitu.ByName(adaptor)
	if err != nil {
		return nil, err
	}
	if _, err := os.Stat(path); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return ad.Open(path)
}

// runAttach registers the external file for local in-situ querying.
func (db *Database) runAttach(s *parser.Attach) (*Result, error) {
	return db.attachFile(s.Array, s.Path, s.Adaptor, false)
}

// runCreateFromFile registers an external file as a first-class array
// (CREATE ARRAY name FROM FILE 'path' USING adaptor). With a cluster
// attached and a bounded dimension to split on, the file is registered
// in situ across all nodes — each worker copies its block slab into a store
// at the partition's first read, so queries run distributed with no load
// step (the file must be reachable from every worker). Otherwise the file
// attaches locally, exactly like ATTACH.
func (db *Database) runCreateFromFile(s *parser.CreateFromFile) (*Result, error) {
	return db.attachFile(s.Name, s.Path, s.Adaptor, true)
}

// attachFile registers the file under name. Locally the array is a store in
// memory, and the first read copies the whole file into it (db.attached
// holds the fill gate); after that the file is not read again.
func (db *Database) attachFile(name, path, adaptor string, distribute bool) (*Result, error) {
	ds, err := openExternal(path, adaptor)
	if err != nil {
		return nil, err
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	distribute = distribute && db.cluster != nil
	if db.nameTakenLocked(name) || (distribute && db.cluster.Has(name)) {
		ds.Close()
		return nil, fmt.Errorf("core: array %q already exists", name)
	}
	schema := ds.Schema().Clone()
	schema.Name = name
	if distribute {
		if scheme, ok := db.blockScheme(schema); ok {
			ds.Close() // every worker opens its own handle
			if err := db.cluster.RegisterInsitu(name, path, adaptor, schema, scheme); err != nil {
				return nil, err
			}
			return &Result{Msg: fmt.Sprintf("registered %s in situ from '%s' (%s) across %d nodes (block-partitioned on %s); no load performed",
				name, path, adaptor, scheme.Nodes, schema.Dims[scheme.SplitDim].Name)}, nil
		}
	}
	// Buckets are the schema's chunks, so storeSource.read adopts them whole,
	// and a private pool keeps repeated reads in memory.
	stride := make([]int64, len(schema.Dims))
	for i, d := range schema.Dims {
		switch {
		case d.ChunkLen > 0:
			stride[i] = d.ChunkLen
		case d.High != array.Unbounded:
			stride[i] = d.High
		default:
			stride[i] = array.DefaultChunkLen
		}
	}
	st, err := storage.NewStore(schema, storage.Options{Stride: stride, CacheBytes: bufcache.DefaultBudget})
	if err != nil {
		ds.Close()
		return nil, err
	}
	db.stores[name] = st
	db.attached[name] = insitu.NewFillOnce(ds, array.WholeBox(schema))
	return &Result{Msg: fmt.Sprintf("attached %s in situ from '%s' (%s); no load performed",
		name, path, adaptor)}, nil
}
