// Package insitu implements §2.9: operating on data "in situ", without a
// load process. It defines SDF, a self-describing binary array format, and
// adaptors for external formats — CSV and NCL, a NetCDF-like container we
// also implement (stdlib-only substitute for HDF-5/NetCDF; see DESIGN.md).
// A Dataset can be scanned and queried directly from the file; the INSITU
// experiment compares that against load-then-query.
//
// As the paper notes, in-situ data gets no DBMS services such as recovery:
// it stays under user control.
package insitu

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
	"sync"
	"sync/atomic"

	"scidb/internal/array"
	"scidb/internal/storage"
)

// Dataset is a queryable view over external data, usable without loading.
// Its cells are read by Scan, by Materialize and by the ingest Pipeline,
// all through the format's one body, fill.
type Dataset interface {
	// Schema describes the data.
	Schema() *array.Schema
	// Close releases resources.
	Close() error
	// fill is the format's one body: for every cell inside box it parses
	// the coordinate, asks slot for the cell's chunk and slot, and writes
	// each of the cell's values there with the typed Column setters. An
	// error from slot is returned as it is.
	fill(box array.Box, slot slotFunc) error
}

// slotFunc names where a cell's values go: the chunk and the slot in it for
// coordinate c, marked present. A fill body calls it once per cell, before
// it writes the cell's values, and may reuse c once it returns.
type slotFunc func(c array.Coord) (*array.Chunk, int64, error)

// errStop ends a Scan whose fn returned false.
var errStop = errors.New("insitu: scan stopped")

// Scan visits every cell of ds inside box, in the format's order: the one
// adapter from a fill body to a cell at a time. Each cell is written into a
// one-slot row and handed to fn when the body asks for the next slot, or
// ends. As with Array.IterReuse, the Coord and Cell passed to fn are valid
// only during the call: fn must clone anything it keeps. Return false to
// stop. When the body fails, fn has seen some prefix of the cells before
// the failing one.
func Scan(ds Dataset, box array.Box, fn func(array.Coord, array.Cell) bool) error {
	row := newRow(ds.Schema())
	cell := make(array.Cell, len(row.Cols))
	c := make(array.Coord, 0, len(ds.Schema().Dims))
	pending := false
	emit := func() bool {
		for a, col := range row.Cols {
			cell[a] = col.Get(0)
		}
		return fn(c, cell)
	}
	err := ds.fill(box, func(at array.Coord) (*array.Chunk, int64, error) {
		if pending && !emit() {
			return nil, 0, errStop
		}
		c, pending = append(c[:0], at...), true
		return row, 0, nil
	})
	switch {
	case err == errStop:
		return nil
	case err != nil:
		return err
	case pending:
		emit()
	}
	return nil
}

// newRow makes a one-slot chunk for one cell of schema s, a float's error
// bar included whether or not s keeps it.
func newRow(s *array.Schema) *array.Chunk {
	rs := &array.Schema{Attrs: slices.Clone(s.Attrs)}
	for i := range rs.Attrs {
		rs.Attrs[i].Uncertain = rs.Attrs[i].Type == array.TFloat64
	}
	shape := make([]int64, len(s.Dims))
	for i := range shape {
		shape[i] = 1
	}
	return array.NewChunk(rs, make(array.Coord, len(s.Dims)), shape)
}

// Adaptor opens a path in one external format.
type Adaptor interface {
	Name() string
	Open(path string) (Dataset, error)
}

// ByName returns a registered adaptor ("sdf", "csv", "ncl").
func ByName(name string) (Adaptor, error) {
	switch name {
	case "sdf":
		return SDFAdaptor{}, nil
	case "csv":
		return CSVAdaptor{}, nil
	case "ncl":
		return NCLAdaptor{}, nil
	}
	return nil, fmt.Errorf("insitu: unknown adaptor %q", name)
}

// Materialize loads a dataset fully into an in-memory array — the "load
// stage" the paper's users complain about, measured by the INSITU
// experiment. The format's fill body writes straight into the array.
func Materialize(ds Dataset) (*array.Array, error) {
	s := ds.Schema().Clone()
	a, err := array.New(s)
	if err != nil {
		return nil, err
	}
	if err := ds.fill(array.WholeBox(s), a.Slot); err != nil {
		return nil, err
	}
	return a, nil
}

// Fill copies ds's cells inside box into st and flushes it: an in-situ
// file's one read, after which every query reads the store. It is the
// ingest Pipeline with one site, on the store's own grid, applying each
// sealed batch to st. It returns the cells now in the store — all of them,
// even when it fails part way.
func Fill(ds Dataset, box array.Box, st *storage.Store) (int64, error) {
	var copied atomic.Int64
	_, err := Pipeline{
		Schema: st.Schema(),
		Sites:  1,
		Route:  func(array.Coord) int { return 0 },
		Batch:  fillBatch,
		Ship: func(_ int, payloads [][]byte) error {
			b, err := storage.DecodeBatch(st.Schema(), payloads)
			if err != nil {
				return err
			}
			n, err := st.Apply(b)
			copied.Add(n)
			return err
		},
	}.Run(ds, box)
	if err == nil {
		err = st.Flush()
	}
	return copied.Load(), err
}

// fillBatch is how many chunks a fill's shard seals and adopts at a time:
// the bulk loader's batch on a link with no round trip.
const fillBatch = 16

// FillOnce is an in-situ array's fill gate: the array is a store, and the
// first read of it Fills the store from the file, once. Readers that arrive
// during that pass wait for it, and a failed fill fails every read after it
// with the same error, so a partial copy is never served.
type FillOnce struct {
	once sync.Once
	ds   Dataset // nil: the gate has nothing to fill
	box  array.Box
	err  error
}

// NewFillOnce gates a fill of ds's cells inside box; the gate owns ds and
// closes it after the fill, or at Close if no read came.
func NewFillOnce(ds Dataset, box array.Box) *FillOnce {
	return &FillOnce{ds: ds, box: box}
}

// Do fills st on the first call, which alone is told the cells it copied,
// and returns the fill's error to every call.
func (f *FillOnce) Do(st *storage.Store) (copied int64, err error) {
	f.once.Do(func() {
		if f.ds != nil {
			defer f.ds.Close()
			copied, f.err = Fill(f.ds, f.box, st)
		}
	})
	return copied, f.err
}

// Close ends a gate: the file is closed unread if no read has filled from it.
func (f *FillOnce) Close() {
	f.once.Do(func() {
		if f.ds != nil {
			_ = f.ds.Close()
		}
	})
}

// --- SDF: the self-describing SciDB format -------------------------------

// sdfMagic begins every SDF file.
var sdfMagic = []byte("SDF1")

// sdfHeader is the JSON-encoded self-description.
type sdfHeader struct {
	Schema *array.Schema `json:"schema"`
	Chunks int           `json:"chunks"`
}

// WriteSDF writes an array with its schema — "a self-describing data
// format" any SciDB node can open without a catalog.
func WriteSDF(w io.Writer, a *array.Array) error {
	hdr, err := json.Marshal(sdfHeader{Schema: a.Schema, Chunks: len(a.Chunks())})
	if err != nil {
		return err
	}
	if _, err := w.Write(sdfMagic); err != nil {
		return err
	}
	if err := writeU32(w, uint32(len(hdr))); err != nil {
		return err
	}
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	payload, err := storage.EncodeArray(a)
	if err != nil {
		return err
	}
	if err := writeU32(w, uint32(len(payload))); err != nil {
		return err
	}
	_, err = w.Write(payload)
	return err
}

// ReadSDF reads a self-describing array.
func ReadSDF(r io.Reader) (*array.Array, error) {
	magic := make([]byte, 4)
	if _, err := io.ReadFull(r, magic); err != nil {
		return nil, err
	}
	if string(magic) != string(sdfMagic) {
		return nil, fmt.Errorf("insitu: not an SDF file")
	}
	hlen, err := readU32(r)
	if err != nil {
		return nil, err
	}
	hbuf := make([]byte, hlen)
	if _, err := io.ReadFull(r, hbuf); err != nil {
		return nil, err
	}
	var hdr sdfHeader
	if err := json.Unmarshal(hbuf, &hdr); err != nil {
		return nil, fmt.Errorf("insitu: bad SDF header: %w", err)
	}
	if hdr.Schema == nil {
		return nil, fmt.Errorf("insitu: SDF header missing schema")
	}
	plen, err := readU32(r)
	if err != nil {
		return nil, err
	}
	payload := make([]byte, plen)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, err
	}
	return storage.DecodeArray(hdr.Schema, payload)
}

// SDFAdaptor opens SDF files as datasets.
type SDFAdaptor struct{}

// Name implements Adaptor.
func (SDFAdaptor) Name() string { return "sdf" }

// Open implements Adaptor.
func (SDFAdaptor) Open(path string) (Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	a, err := ReadSDF(f)
	if err != nil {
		return nil, err
	}
	return &memDataset{a: a}, nil
}

// memDataset adapts an in-memory array to the Dataset interface.
type memDataset struct{ a *array.Array }

func (d *memDataset) Schema() *array.Schema { return d.a.Schema }

// fill reads the array's chunks as one chunk shard. A view per read:
// concurrent reads must not share the array's lazily built chunk order.
func (d *memDataset) fill(box array.Box, slot slotFunc) error {
	return (&chunkShard{schema: d.a.Schema, chunks: d.a.View().Chunks()}).fill(box, slot)
}

func (d *memDataset) Close() error { return nil }

func writeU32(w io.Writer, v uint32) error {
	_, err := w.Write([]byte{byte(v), byte(v >> 8), byte(v >> 16), byte(v >> 24)})
	return err
}

func readU32(r io.Reader) (uint32, error) {
	b := make([]byte, 4)
	if _, err := io.ReadFull(r, b); err != nil {
		return 0, err
	}
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24, nil
}
