package cluster

// Worker-side halves of the parallel bulk loader and distributed in-situ
// scanning (§2.8–§2.9).
//
// "loadchunks" adopts a batch of pre-encoded chunk payloads as buckets, so
// ingest pays one parse + one encode total, both on the loader side — and a
// chunk the rebalancer copies between nodes arrives bit-identical.
//
// "insitu" registers an external file region as a partition: an ordinary
// store, kept in memory, that the first read of the partition fills from the
// node's slab of the file, once (insitu.FillOnce). Every read after that is
// a store read, so the file is queryable with no load step and is parsed
// once per node. The file must be reachable from the worker (shared
// filesystem or a local copy at the same path) — in-situ data stays under
// user control: it gets no replication or recovery, its partition refuses
// writes, and a changed file is seen by registering it again.

import (
	"fmt"

	"scidb/internal/array"
	"scidb/internal/insitu"
	"scidb/internal/storage"
)

// loadChunks writes a batch of pre-encoded chunk payloads into the
// partition's store in one Apply, which adopts each as a bucket verbatim
// where the buffer holds nothing at its origin: no re-encode. The parallel
// bulk loader ships its chunks so. A chunk move sends the box of the chunk it
// moves: with the chunk, to install it on a target, and with no chunks, to
// release it on a holder it leaves.
func (w *Worker) loadChunks(req *Message) (*Message, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	st, err := w.storeLocked(req.Array)
	if err != nil {
		return nil, err
	}
	b, err := storage.DecodeBatch(st.Schema(), req.Chunks)
	if err != nil {
		return nil, err
	}
	// With a box the batch first removes the chunk there (storage.Batch.Clear):
	// an install's payload is the chunk's canonical newest state (the
	// coordinator's write fence flushed every live write before the read that
	// copied it), so nothing an earlier stint left there may outrank it, and a
	// release, with no payload, is that removal alone — buffered cells and
	// buckets, files included, saved before the response.
	if len(req.BoxLo) > 0 {
		b.Clear = array.Box{Lo: req.BoxLo, Hi: req.BoxHi}
	}
	return w.applyLocked(req, st, b)
}

// insituOp registers (or replaces) an in-situ partition on this node: it
// drops whatever held the name and opens an empty store in memory behind a
// fill gate. An absent box means the partitioning assigns this node none of
// the file, and the gate has nothing to fill.
func (w *Worker) insituOp(req *Message) (*Message, error) {
	if req.Schema == nil {
		return nil, fmt.Errorf("cluster: insitu without schema")
	}
	ad, err := insitu.ByName(req.Adaptor)
	if err != nil {
		return nil, err
	}
	var ds insitu.Dataset
	if len(req.BoxLo) > 0 {
		if ds, err = ad.Open(req.Path); err != nil {
			return nil, err
		}
	}
	fill := insitu.NewFillOnce(ds, array.Box{Lo: req.BoxLo, Hi: req.BoxHi})
	w.mu.Lock()
	defer w.mu.Unlock()
	if err = w.dropLocked(req.Array); err == nil {
		// In memory: a copy under Dir would be recovered by a later create of
		// the same name.
		_, err = w.openLocked(req.Array, req.Schema, "")
	}
	if err != nil {
		fill.Close()
		return nil, err
	}
	w.fills[req.Array] = fill
	return &Message{Op: "insitu"}, nil
}

// fillLocked copies an in-situ partition's slab into st if no read has yet;
// concurrent first readers wait for that one pass, and its cells join the
// node's cells_held gauge.
func (w *Worker) fillLocked(name string, st *storage.Store) error {
	fill, ok := w.fills[name]
	if !ok {
		return nil
	}
	n, err := fill.Do(st)
	w.stats.cellsHeld.Add(n)
	return err
}

// unfillLocked removes name's fill gate, closing its file unread if no read
// has filled from it.
func (w *Worker) unfillLocked(name string) {
	if fill, ok := w.fills[name]; ok {
		fill.Close()
		delete(w.fills, name)
	}
}
