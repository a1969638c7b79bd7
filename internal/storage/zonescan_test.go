package storage

import (
	"testing"

	"scidb/internal/array"
)

// fourBuckets writes four disjoint single-cell buckets with values 0, 10,
// 20, 30 into a fresh store (flushing between puts) and returns it.
func fourBuckets(t *testing.T, dir string) *Store {
	t.Helper()
	s := schema2D(32)
	st, err := NewStore(s, Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for k := int64(0); k < 4; k++ {
		if err := st.Put(array.Coord{k*8 + 1, 1}, array.Cell{array.Float64(float64(k) * 10), array.String64("d")}); err != nil {
			t.Fatal(err)
		}
		if err := st.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

func TestScanPrunedSkipsBuckets(t *testing.T) {
	st := fourBuckets(t, t.TempDir())
	defer st.Close()
	q := array.NewBox(array.Coord{1, 1}, array.Coord{32, 32})
	preds := []array.ZonePred{{Attr: 0, Op: ">", Val: array.Float64(25)}}
	var got []float64
	skipped, err := st.ScanPruned(q, preds, func(c array.Coord, cell array.Cell) bool {
		got = append(got, cell[0].Float)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 3 {
		t.Errorf("skipped = %d, want 3", skipped)
	}
	if len(got) != 1 || got[0] != 30 {
		t.Errorf("delivered cells = %v, want [30]", got)
	}
	stats := st.Stats()
	if stats.ChunksSkipped != 3 || stats.ChunksVisited != 1 {
		t.Errorf("stats skipped/visited = %d/%d, want 3/1", stats.ChunksSkipped, stats.ChunksVisited)
	}
	if r := stats.SkipRatio(); r != 0.75 {
		t.Errorf("SkipRatio = %v, want 0.75", r)
	}
}

func TestScanPrunedNeverUnshadows(t *testing.T) {
	// Older bucket holds a matching value at (2,2); a newer bucket at the
	// same coordinate overwrites it with a non-matching value. The newer
	// bucket's zones cannot match the predicate, but skipping it would
	// unshadow the stale matching cell — ScanPruned must read it instead.
	s := schema2D(8)
	st, err := NewStore(s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	_ = st.Put(array.Coord{2, 2}, array.Cell{array.Float64(100), array.String64("")})
	_ = st.Flush()
	_ = st.Put(array.Coord{2, 2}, array.Cell{array.Float64(1), array.String64("")})
	_ = st.Flush()
	q := array.NewBox(array.Coord{1, 1}, array.Coord{8, 8})
	preds := []array.ZonePred{{Attr: 0, Op: ">", Val: array.Float64(50)}}
	var got []float64
	skipped, err := st.ScanPruned(q, preds, func(c array.Coord, cell array.Cell) bool {
		got = append(got, cell[0].Float)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 0 {
		t.Errorf("skipped = %d, want 0 (overlap makes pruning unsafe)", skipped)
	}
	if len(got) != 1 || got[0] != 1 {
		t.Errorf("delivered cells = %v, want the shadowing value [1]", got)
	}
}

// liveCells drains a chunk scan into coordinate-key → first-attribute value.
func liveCells(t *testing.T, cs *ChunkScan) (cells map[string]float64, delivered int, alone []bool) {
	t.Helper()
	cells = map[string]float64{}
	if err := cs.Each(func(lc LiveChunk) error {
		delivered++
		alone = append(alone, lc.Alone)
		ch := lc.Chunk
		for i := lc.Live.NextSet(0); i < ch.Slots(); i = lc.Live.NextSet(i + 1) {
			key := array.CoordAt(ch.Origin, ch.Shape, i).Key()
			if _, dup := cells[key]; dup {
				t.Errorf("cell %s live in two chunks", key)
			}
			cells[key] = ch.Cols[0].Floats[i]
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return cells, delivered, alone
}

func TestScanChunks(t *testing.T) {
	st := fourBuckets(t, "")
	defer st.Close()
	q := array.NewBox(array.Coord{1, 1}, array.Coord{32, 32})
	preds := []array.ZonePred{{Attr: 0, Op: ">=", Val: array.Float64(15)}}
	cs := st.ScanChunks(q, preds, nil)
	cells, delivered, alone := liveCells(t, cs)
	if delivered != 2 || cs.Skipped() != 2 || len(cells) != 2 {
		t.Errorf("delivered/skipped/cells = %d/%d/%d, want 2/2/2", delivered, cs.Skipped(), len(cells))
	}
	for _, a := range alone {
		if !a {
			t.Error("disjoint buckets must be delivered Alone")
		}
	}

	// Disjoint, wholly-inside chunks are delivered with their own presence
	// bitmap as the mask: no shadow bookkeeping, nothing allocated.
	if err := st.ScanChunks(q, nil, nil).Each(func(lc LiveChunk) error {
		if lc.Live != lc.Chunk.Present {
			t.Error("unshadowed chunk inside the box got a private mask")
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	// A pending memory-buffer cell shadows the bucket cell beneath it and is
	// delivered itself; the bucket it overlaps is no longer Alone.
	_ = st.Put(array.Coord{1, 1}, array.Cell{array.Float64(99), array.String64("")})
	_ = st.Put(array.Coord{5, 5}, array.Cell{array.Float64(98), array.String64("")})
	cells, delivered, alone = liveCells(t, st.ScanChunks(q, nil, nil))
	if delivered != 5 || len(cells) != 5 || cells["1,1"] != 99 || cells["5,5"] != 98 {
		t.Errorf("with buffered cells: %d chunks, cells %v", delivered, cells)
	}
	if alone[0] || alone[len(alone)-1] {
		t.Errorf("overlapping buffer chunk and bucket reported Alone: %v", alone)
	}

	// After the flush two buckets overlap on that tile: newest still wins,
	// and a box that cuts the tile trims the masks.
	_ = st.Flush()
	cells, _, _ = liveCells(t, st.ScanChunks(array.NewBox(array.Coord{1, 1}, array.Coord{4, 32}), nil, nil))
	if len(cells) != 1 || cells["1,1"] != 99 {
		t.Errorf("box-cut overlapping buckets: cells %v, want only 1,1=99", cells)
	}
}

func TestManifestKeepsZones(t *testing.T) {
	dir := t.TempDir()
	st := fourBuckets(t, dir)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := NewStore(schema2D(32), Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	q := array.NewBox(array.Coord{1, 1}, array.Coord{32, 32})
	skipped, err := st2.ScanPruned(q, []array.ZonePred{{Attr: 0, Op: "<", Val: array.Float64(-1)}},
		func(array.Coord, array.Cell) bool { return true })
	if err != nil || skipped != 4 {
		t.Errorf("ScanPruned after reopen skipped %d (%v), want 4 (zones lost in manifest?)", skipped, err)
	}
}

func TestRatioGuardsOnEmptyStore(t *testing.T) {
	// The skip ratio must be defined before any pruned scan: a fresh store
	// has every counter at zero.
	s := schema2D(8)
	st, err := NewStore(s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	stats := st.Stats()
	if r := stats.SkipRatio(); r != 0 {
		t.Errorf("SkipRatio on empty store = %v, want 0", r)
	}
	if r := (Stats{}).SkipRatio(); r != 0 {
		t.Errorf("SkipRatio on zero Stats = %v, want 0", r)
	}
}
