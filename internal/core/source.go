package core

import (
	"context"
	"fmt"
	"strings"

	"scidb/internal/array"
	"scidb/internal/cluster"
	"scidb/internal/insitu"
	"scidb/internal/ops"
	"scidb/internal/storage"
)

// source is what an array name resolves to: the one seam between the
// operators and whatever holds the cells (§2.7 grid partitions, §2.9
// in-situ files, stores, arrays in memory).
type source interface {
	// kind names the backing in plans.
	kind() string
	schema() *array.Schema
	// read returns every cell inside frag.Box that could satisfy frag.Preds,
	// possibly more: both are hints, and the caller always re-applies the
	// operator a hint came from. So a memory source ignores them, a store
	// prunes buckets, a cluster worker filters cells. withheld reports
	// whether the predicates kept any stored cell out of the result; it only
	// has to be exact when the result is empty. frag.Fold is no hint: the
	// result is then the fold's, over exactly the cells in the box, and only
	// a source that folds is handed one.
	read(ctx context.Context, frag ops.Fragment) (a *array.Array, withheld bool, err error)
	// folds reports whether read runs a fragment's Fold.
	folds() bool
}

// resolve maps a name to its source. This is the only place names meet
// backings, so the precedence is the same for every statement: sys.* arrays
// cannot be shadowed, then local definitions (plain, updatable, store — an
// attached file is one), then the cluster.
func (db *Database) resolve(name string) (source, error) {
	if strings.HasPrefix(name, "sys.") {
		// Virtual system arrays are computed per scan.
		a, err := db.sysArray(name)
		if err != nil {
			return nil, err
		}
		return held(a), nil
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	if a, ok := db.arrays[name]; ok {
		return held(a), nil
	}
	if u, ok := db.updatables[name]; ok {
		return memSource{u.Schema(), func() (*array.Array, error) { return u.Snapshot(u.History()) }}, nil
	}
	if st, ok := db.stores[name]; ok {
		return storeSource{st, db.attached[name]}, nil
	}
	if co := db.cluster; co != nil && co.Has(name) {
		sch, err := co.ArraySchema(name)
		if err != nil {
			return nil, err
		}
		return clusterSource{co, name, sch}, nil
	}
	return nil, fmt.Errorf("core: unknown array %q", name)
}

// memSource serves what is already in memory: a plain array, the latest
// snapshot of an updatable, a sys.* array.
type memSource struct {
	sch  *array.Schema
	load func() (*array.Array, error)
}

// held serves a: a view of it per read, so reads running at once (the two
// inputs of a join over one array) never share its lazy caches.
func held(a *array.Array) memSource {
	return memSource{a.Schema, func() (*array.Array, error) { return a.View(), nil }}
}

func (s memSource) kind() string          { return "memory" }
func (s memSource) schema() *array.Schema { return s.sch }
func (s memSource) folds() bool           { return false }
func (s memSource) read(context.Context, ops.Fragment) (*array.Array, bool, error) {
	a, err := s.load()
	return a, false, err
}

// storeSource reads a disk-backed array through its buffer pool, or an
// attached file's copy, which fill makes at the first read (§2.9). There is
// no array-level cache on purpose: the chunk pool already makes repeat reads
// memory-resident, and staying pool-backed keeps results consistent with
// later writes to the store.
type storeSource struct {
	st   *storage.Store
	fill *insitu.FillOnce // nil unless a file fills the store
}

func (s storeSource) kind() string {
	if s.fill != nil {
		return "file"
	}
	return "store"
}
func (s storeSource) schema() *array.Schema { return s.st.Schema() }
func (s storeSource) folds() bool           { return false }

// read takes the box chunk at a time, skipping buckets whose zone maps
// refute preds. Each chunk's live cells are taken out of the shared pool by
// Select and adopted or unioned whole: a chunk live in full keeps the
// decoder's zone maps, which lets Filter skip chunks they refute.
func (s storeSource) read(ctx context.Context, frag ops.Fragment) (*array.Array, bool, error) {
	if s.fill != nil {
		if _, err := s.fill.Do(s.st); err != nil {
			return nil, false, err
		}
	}
	out, err := array.New(s.st.Schema().Clone())
	if err != nil {
		return nil, false, err
	}
	cs := s.st.ScanChunks(frag.Box, frag.Preds, nil)
	err = cs.Each(func(lc storage.LiveChunk) error {
		return out.MergeChunk(lc.Chunk.Select(lc.Live))
	})
	if err != nil {
		return nil, false, err
	}
	// Buckets always hold cells, so a skipped one is a withheld cell.
	ops.NoteEncChunksSkipped(ctx, cs.Skipped())
	return out, cs.Skipped() > 0, nil
}

// clusterSource reads a distributed array through the coordinator.
type clusterSource struct {
	co   *cluster.Coordinator
	name string
	sch  *array.Schema
}

func (s clusterSource) kind() string          { return "cluster" }
func (s clusterSource) schema() *array.Schema { return s.sch }
func (s clusterSource) folds() bool           { return true }

// read hands the fragment to the coordinator whole: every node that holds
// part of the box prunes buckets by zone map and drops the cells the
// predicates refute before shipping bytes, or folds what is left into a
// partial table and ships that.
func (s clusterSource) read(ctx context.Context, frag ops.Fragment) (*array.Array, bool, error) {
	got, cells, seen, skipped, err := s.co.Read(ctx, s.name, frag)
	if err != nil || frag.Fold != nil || frag.Join != "" {
		return got, false, err
	}
	// Workers filter cell by cell, so it is what they read and did not ship
	// that says whether an empty gather is an empty array; a bucket they
	// pruned unread always held cells.
	return got, skipped > 0 || seen > cells, nil
}
