package core

import (
	"fmt"

	"scidb/internal/bufcache"
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
	if db.nameTakenLocked(name) {
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
