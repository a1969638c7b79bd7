package core

import (
	"fmt"

	"scidb/internal/array"
	"scidb/internal/cluster"
	"scidb/internal/partition"
)

// AttachCluster routes this database's DDL, DML, and queries over
// distributed arrays through a coordinator. Non-updatable CREATEs become
// cluster-wide block-partitioned arrays, INSERTs go to the owning node,
// and references read through a clusterSource. Local arrays (updatable,
// attached, stored) are untouched; names resolve local-first.
func (db *Database) AttachCluster(co *cluster.Coordinator) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.cluster = co
}

// Cluster returns the attached coordinator, or nil.
func (db *Database) Cluster() *cluster.Coordinator {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.cluster
}

// blockScheme is where a new array goes on the cluster: block-partitioned
// on its first bounded dimension. ok is false for an all-unbounded schema,
// which has no split key and stays local. The chunk is the unit of
// placement, so a split dimension that sets no chunk length and is too
// short for one default-long chunk column per node is chunked in place into
// one column per node. Called with db.mu held.
func (db *Database) blockScheme(schema *array.Schema) (scheme partition.Block, ok bool) {
	for i := range schema.Dims {
		d := &schema.Dims[i]
		if d.High == array.Unbounded {
			continue
		}
		scheme = partition.Block{Nodes: db.cluster.NumNodes(), SplitDim: i, High: d.High}
		if per := (d.High + int64(scheme.Nodes) - 1) / int64(scheme.Nodes); d.ChunkLen <= 0 && per < array.DefaultChunkLen {
			d.ChunkLen = per
		}
		return scheme, true
	}
	return scheme, false
}

// createOnCluster distributes a new non-updatable array; an empty message
// means it stays local. Called with db.mu held.
func (db *Database) createOnCluster(name string, schema *array.Schema) (string, error) {
	scheme, ok := db.blockScheme(schema)
	if !ok {
		return "", nil
	}
	if db.cluster.Has(name) {
		return "", fmt.Errorf("core: cluster array %q already exists", name)
	}
	if err := db.cluster.Create(name, schema, scheme); err != nil {
		return "", err
	}
	return fmt.Sprintf("created array %s across %d nodes (block-partitioned on %s)",
		name, scheme.Nodes, schema.Dims[scheme.SplitDim].Name), nil
}
