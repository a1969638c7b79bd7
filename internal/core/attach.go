package core

import (
	"fmt"
	"os"

	"scidb/internal/array"
	"scidb/internal/insitu"
	"scidb/internal/parser"
)

// attachedDS is an external file registered for in-situ querying (§2.9):
// the engine reads it through the adaptor on demand, never loading it
// wholesale unless a query actually touches everything.
type attachedDS struct {
	path    string
	adaptor string
	ds      insitu.Dataset
	// cached holds the whole dataset once some query has read all of it
	// (guarded by Database.mu).
	cached *array.Array
}

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
// in situ across all nodes — each worker materializes its block slab
// lazily through the adaptor, so queries run distributed with no load
// step (the file must be reachable from every worker). Otherwise the
// file attaches locally, exactly like ATTACH.
func (db *Database) runCreateFromFile(s *parser.CreateFromFile) (*Result, error) {
	return db.attachFile(s.Name, s.Path, s.Adaptor, true)
}

func (db *Database) attachFile(name, path, adaptor string, distribute bool) (*Result, error) {
	ds, err := openExternal(path, adaptor)
	if err != nil {
		return nil, err
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	distribute = distribute && db.cluster != nil
	if db.nameTakenLocked(name) || db.attached[name] != nil || (distribute && db.cluster.Has(name)) {
		ds.Close()
		return nil, fmt.Errorf("core: array %q already exists", name)
	}
	if distribute {
		schema := ds.Schema().Clone()
		schema.Name = name
		if scheme, ok := db.blockScheme(schema); ok {
			ds.Close() // every worker opens its own handle
			if err := db.cluster.RegisterInsitu(name, path, adaptor, schema, scheme); err != nil {
				return nil, err
			}
			return &Result{Msg: fmt.Sprintf("registered %s in situ from '%s' (%s) across %d nodes (block-partitioned on %s); no load performed",
				name, path, adaptor, scheme.Nodes, schema.Dims[scheme.SplitDim].Name)}, nil
		}
	}
	db.attached[name] = &attachedDS{path: path, adaptor: adaptor, ds: ds}
	return &Result{Msg: fmt.Sprintf("attached %s in situ from '%s' (%s); no load performed",
		name, path, adaptor)}, nil
}
