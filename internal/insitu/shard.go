package insitu

import (
	"bufio"
	"fmt"
	"io"
	"os"

	"scidb/internal/array"
)

// Sharder is implemented by datasets that can split themselves into
// disjoint sub-datasets for parallel scanning. The shards partition the
// dataset's cells: every cell appears in exactly one shard. Shards are
// views into the parent dataset — their Close is a no-op and the parent
// must stay open (and be closed by the caller) while shards are in use.
type Sharder interface {
	Shards(n int) ([]Dataset, error)
}

// Split cuts ds into at most n disjoint shards for parallel scanning,
// falling back to the dataset itself when it cannot split (or n <= 1).
// The returned slice is never empty.
func Split(ds Dataset, n int) ([]Dataset, error) {
	if n > 1 {
		if sh, ok := ds.(Sharder); ok {
			shards, err := sh.Shards(n)
			if err != nil {
				return nil, err
			}
			if len(shards) > 0 {
				return shards, nil
			}
		}
	}
	return []Dataset{ds}, nil
}

// splitRanges cuts [0, size) into at most n non-empty contiguous ranges
// {start, end}. It is the pure core of CSV byte-range sharding, kept
// separate so the boundary logic is directly fuzzable.
func splitRanges(size int64, n int) [][2]int64 {
	if size <= 0 || n < 1 {
		return nil
	}
	if int64(n) > size {
		n = int(size)
	}
	per := size / int64(n)
	rem := size % int64(n)
	out := make([][2]int64, 0, n)
	start := int64(0)
	for i := 0; i < n; i++ {
		end := start + per
		if int64(i) < rem {
			end++
		}
		if end > start {
			out = append(out, [2]int64{start, end})
		}
		start = end
	}
	return out
}

// --- CSV byte-range shards -------------------------------------------------

// Shards implements Sharder by splitting the file into byte ranges. A line
// belongs to the shard whose range contains its first byte (the classic
// split-file rule): each shard but the first discards the partial line at
// its start — the previous shard reads it in full, even past its range end —
// so every line is parsed exactly once no matter where the cuts land.
func (d *csvDataset) Shards(n int) ([]Dataset, error) {
	fi, err := os.Stat(d.path)
	if err != nil {
		return nil, err
	}
	ranges := splitRanges(fi.Size(), n)
	out := make([]Dataset, 0, len(ranges))
	for _, r := range ranges {
		out = append(out, &csvShard{path: d.path, schema: d.schema, start: r[0], end: r[1]})
	}
	return out, nil
}

// csvShard scans the lines of one byte range of a CSV file.
type csvShard struct {
	path       string
	schema     *array.Schema
	start, end int64
}

func (sh *csvShard) Schema() *array.Schema { return sh.schema }

func (sh *csvShard) Close() error { return nil }

// lineBuf is the size of the buffer a CSV scan reads its lines in place
// from; a longer line is put together in a second buffer.
const lineBuf = 64 << 10

func (sh *csvShard) fill(box array.Box, slot slotFunc) error {
	f, err := os.Open(sh.path)
	if err != nil {
		return err
	}
	defer f.Close()
	pos := sh.start
	if sh.start > 0 {
		// Seek to start-1 and discard through the next newline. If byte
		// start-1 is itself '\n', exactly one byte is consumed and the line
		// beginning at start is kept; otherwise the straddling line (owned
		// by the previous shard) is dropped.
		if _, err := f.Seek(sh.start-1, io.SeekStart); err != nil {
			return err
		}
		pos = sh.start - 1
	}
	r := bufio.NewReaderSize(f, lineBuf)
	var long []byte
	// readLine returns the next line, '\n' included, valid until the next
	// call: a slice of r's buffer, or of long when the line outgrows it.
	readLine := func() ([]byte, error) {
		line, err := r.ReadSlice('\n')
		if err != bufio.ErrBufferFull {
			return line, err
		}
		long = append(long[:0], line...)
		for err == bufio.ErrBufferFull {
			line, err = r.ReadSlice('\n')
			long = append(long, line...)
		}
		return long, err
	}
	c := make(array.Coord, len(sh.schema.Dims))
	// A line outside box is parsed all the same, into a spare row, so that
	// it fails as it would inside.
	spare := newRow(sh.schema)
	var slotErr error
	inBox := func(c array.Coord) (*array.Chunk, int64, error) {
		if !box.Contains(c) {
			return spare, 0, nil
		}
		ch, i, err := slot(c)
		slotErr = err
		return ch, i, err
	}
	if sh.start > 0 {
		skipped, err := readLine()
		pos += int64(len(skipped))
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
	}
	for pos < sh.end {
		lineStart := pos
		line, err := readLine()
		pos += int64(len(line))
		if len(line) > 0 {
			if _, perr := parseCSVLine(sh.schema, line, c, inBox); perr != nil {
				if slotErr != nil {
					return slotErr
				}
				return fmt.Errorf("insitu: %s@%d: %w", sh.path, lineStart, perr)
			}
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// --- NCL row slabs ---------------------------------------------------------

// Shards implements Sharder by slicing the outermost dimension into
// contiguous row slabs. NCL supports random access, so each slab reads only
// its own region of the file; the shards share the parent's file handle
// (ReadAt is safe for concurrent use).
func (d *nclDataset) Shards(n int) ([]Dataset, error) {
	return boxSlabs(d, d.schema, n), nil
}

// boxSlabs cuts the schema's outermost bounded dimension into n contiguous
// slabs, each a box-restricted view of ds.
func boxSlabs(ds Dataset, s *array.Schema, n int) []Dataset {
	whole := array.WholeBox(s)
	dim := 0
	rows := whole.Hi[dim] - whole.Lo[dim] + 1
	ranges := splitRanges(rows, n)
	out := make([]Dataset, 0, len(ranges))
	for _, r := range ranges {
		box := array.Box{Lo: whole.Lo.Clone(), Hi: whole.Hi.Clone()}
		box.Lo[dim] = whole.Lo[dim] + r[0]
		box.Hi[dim] = whole.Lo[dim] + r[1] - 1
		out = append(out, &boxShard{ds: ds, box: box})
	}
	return out
}

// boxShard restricts a dataset to a sub-box. Used for formats with random
// access, where reading a sub-box touches only that region.
type boxShard struct {
	ds  Dataset
	box array.Box
}

func (sh *boxShard) Schema() *array.Schema { return sh.ds.Schema() }

func (sh *boxShard) Close() error { return nil }

func (sh *boxShard) fill(box array.Box, slot slotFunc) error {
	q, ok := sh.box.Intersect(box)
	if !ok {
		return nil
	}
	return sh.ds.fill(q, slot)
}

// --- SDF / in-memory chunk-group shards ------------------------------------

// Shards implements Sharder by dealing the decoded chunks into n groups.
// SDF files are fully materialized on Open, so the shards are chunk-index
// partitions of the in-memory array.
func (d *memDataset) Shards(n int) ([]Dataset, error) {
	chunks := d.a.Chunks()
	if len(chunks) == 0 {
		return []Dataset{d}, nil
	}
	if n > len(chunks) {
		n = len(chunks)
	}
	out := make([]Dataset, n)
	for i := 0; i < n; i++ {
		out[i] = &chunkShard{schema: d.a.Schema, chunks: nil}
	}
	for i, ch := range chunks {
		sh := out[i%n].(*chunkShard)
		sh.chunks = append(sh.chunks, ch)
	}
	return out, nil
}

// chunkShard scans a fixed subset of an in-memory array's chunks.
type chunkShard struct {
	schema *array.Schema
	chunks []*array.Chunk
}

func (sh *chunkShard) Schema() *array.Schema { return sh.schema }

func (sh *chunkShard) Close() error { return nil }

// fill copies each present cell inside box column by column into its slot.
func (sh *chunkShard) fill(box array.Box, slot slotFunc) error {
	var err error
	for _, ch := range sh.chunks {
		inter, ok := ch.Box().Intersect(box)
		if !ok {
			continue
		}
		array.IterBox(inter, func(c array.Coord) bool {
			src := ch.Index(c)
			if !ch.Present.Get(src) {
				return true
			}
			dst, i, e := slot(c)
			if e != nil {
				err = e
				return false
			}
			for a, col := range ch.Cols {
				dst.Cols[a].CopyFrom(col, i, src)
			}
			return true
		})
		if err != nil {
			return err
		}
	}
	return nil
}
