package storage

import (
	"fmt"
	"math/rand"
	"testing"

	"scidb/internal/array"
)

// modelSchema is a 20x20 array on an 8x8 grid: the last grid cell of each
// dimension is clipped to 4 at High.
func modelSchema() *array.Schema {
	return &array.Schema{
		Name:  "M",
		Dims:  []array.Dimension{{Name: "x", High: 20, ChunkLen: 8}, {Name: "y", High: 20, ChunkLen: 8}},
		Attrs: []array.Attribute{{Name: "v", Type: array.TInt64}},
	}
}

// storeModel is what a store must answer, kept as two maps: the cells in
// the memory buffer (which ClearRegion drops) and the newest flushed or
// adopted value of every other cell.
type storeModel struct {
	buffered, stored map[[2]int64]int64
}

func (m *storeModel) flush() {
	for c, v := range m.buffered {
		m.stored[c] = v
	}
	m.buffered = map[[2]int64]int64{}
}

func (m *storeModel) get(c [2]int64) (int64, bool) {
	if v, ok := m.buffered[c]; ok {
		return v, true
	}
	v, ok := m.stored[c]
	return v, ok
}

// TestStoreMatchesMapModel drives seeded sequences of writes, flushes,
// adoptions, compactions, region clears and reopens against a store and
// checks every Get and ScanChunks — random boxes, with and without zone
// predicates — against a newest-wins map.
func TestStoreMatchesMapModel(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			runStoreModel(t, seed, 80)
		})
	}
}

func runStoreModel(t *testing.T, seed int64, steps int) {
	rng := rand.New(rand.NewSource(seed))
	s := modelSchema()
	dir := t.TempDir()
	st, err := NewStore(s, Options{Dir: dir, CacheBytes: 1 << 20, Readahead: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { st.Close() }()
	m := &storeModel{buffered: map[[2]int64]int64{}, stored: map[[2]int64]int64{}}
	coord := func() [2]int64 { return [2]int64{1 + rng.Int63n(20), 1 + rng.Int63n(20)} }
	adopt := func(origin array.Coord, shape []int64) (string, error) {
		ch := array.NewChunk(s, origin, shape)
		cells := map[[2]int64]int64{}
		array.IterBox(ch.Box(), func(c array.Coord) bool {
			if rng.Intn(2) == 0 {
				v := rng.Int63n(100)
				cells[[2]int64{c[0], c[1]}] = v
				if err := ch.Set(c, array.Cell{array.Int64(v)}); err != nil {
					t.Fatal(err)
				}
			}
			return true
		})
		raw, _, err := EncodeChunkZones(s, ch)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := DecodeChunk(s, raw)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.AdoptEncoded(raw, dec); err != nil {
			return fmt.Sprintf("adopt %v refused (%v)", ch.Box(), err), err
		}
		if len(cells) > 0 {
			m.flush() // the store spills its buffer ahead of the adopted bucket
		}
		for c, v := range cells {
			m.stored[c] = v
		}
		return fmt.Sprintf("adopt %v (%d cells)", ch.Box(), len(cells)), nil
	}
	for step := 0; step < steps; step++ {
		var what string
		switch r := rng.Intn(20); {
		case r < 9:
			c, v := coord(), rng.Int63n(100)
			if err := st.Put(array.Coord{c[0], c[1]}, array.Cell{array.Int64(v)}); err != nil {
				t.Fatal(err)
			}
			m.buffered[c] = v
			what = fmt.Sprintf("put %v = %d", c, v)
		case r < 11:
			if err := st.Flush(); err != nil {
				t.Fatal(err)
			}
			m.flush()
			what = "flush"
		case r < 14:
			o := array.Coord{1 + 8*rng.Int63n(3), 1 + 8*rng.Int63n(3)}
			shape := []int64{min(8, 21-o[0]), min(8, 21-o[1])}
			var err error
			if what, err = adopt(o, shape); err != nil {
				t.Fatalf("step %d: on-grid %s", step, what)
			}
		case r < 15:
			// Not a grid origin: a store on the grid refuses it, and a store
			// that takes it must still answer newest-wins.
			o := array.Coord{2 + rng.Int63n(12), 2 + rng.Int63n(12)}
			if (o[0]-1)%8 == 0 {
				o[0]++
			}
			what, _ = adopt(o, []int64{8, 8})
		case r < 17:
			merged, err := st.MergeOnce()
			if err != nil {
				t.Fatal(err)
			}
			what = fmt.Sprintf("merge (%v)", merged)
		case r < 19:
			a, b := coord(), coord()
			box := array.NewBox(array.Coord{min(a[0], b[0]), min(a[1], b[1])}, array.Coord{max(a[0], b[0]), max(a[1], b[1])})
			st.ClearRegion(box)
			for c := range m.buffered {
				if box.Contains(array.Coord{c[0], c[1]}) {
					delete(m.buffered, c)
				}
			}
			what = fmt.Sprintf("clear %v", box)
		default:
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			m.flush()
			if st, err = NewStore(s, Options{Dir: dir, CacheBytes: 1 << 20, Readahead: 2}); err != nil {
				t.Fatal(err)
			}
			what = "reopen"
		}
		checkStoreModel(t, rng, st, m, fmt.Sprintf("step %d (%s)", step, what))
		if t.Failed() {
			return
		}
	}
}

func checkStoreModel(t *testing.T, rng *rand.Rand, st *Store, m *storeModel, label string) {
	t.Helper()
	for i := 0; i < 12; i++ {
		c := [2]int64{1 + rng.Int63n(20), 1 + rng.Int63n(20)}
		want, wantOK := m.get(c)
		cell, ok, err := st.Get(array.Coord{c[0], c[1]})
		if err != nil {
			t.Fatalf("%s: Get %v: %v", label, c, err)
		}
		if ok != wantOK || (ok && cell[0].Int != want) {
			t.Fatalf("%s: Get %v = %v,%v, want %d,%v", label, c, cell, ok, want, wantOK)
		}
	}
	for i := 0; i < 4; i++ {
		lo := array.Coord{1 + rng.Int63n(20), 1 + rng.Int63n(20)}
		hi := array.Coord{lo[0] + rng.Int63n(21-lo[0]), lo[1] + rng.Int63n(21-lo[1])}
		q := array.Box{Lo: lo, Hi: hi}
		var preds []array.ZonePred
		if i%2 == 1 {
			op := []string{">", "<"}[rng.Intn(2)]
			preds = []array.ZonePred{{Attr: 0, Op: op, Val: array.Int64(rng.Int63n(100))}}
		}
		match := func(v int64) bool {
			if len(preds) == 0 {
				return true
			}
			if preds[0].Op == ">" {
				return v > preds[0].Val.Int
			}
			return v < preds[0].Val.Int
		}
		got := map[[2]int64]int64{}
		err := st.ScanChunks(q, preds, nil).Each(func(lc LiveChunk) error {
			ch := lc.Chunk
			for s := lc.Live.NextSet(0); s < ch.Slots(); s = lc.Live.NextSet(s + 1) {
				c := [2]int64{ch.Origin[0] + s/ch.Shape[1], ch.Origin[1] + s%ch.Shape[1]}
				if !q.Contains(array.Coord{c[0], c[1]}) {
					return fmt.Errorf("cell %v outside the query box %v", c, q)
				}
				if _, dup := got[c]; dup {
					return fmt.Errorf("cell %v delivered twice", c)
				}
				got[c] = ch.Cols[0].Get(s).Int
			}
			return nil
		})
		if err != nil {
			t.Fatalf("%s: scan %v %v: %v", label, q, preds, err)
		}
		for c, v := range got {
			if want, ok := m.get(c); !ok || want != v {
				t.Fatalf("%s: scan %v %v delivered %v = %d, model has %d,%v", label, q, preds, c, v, want, ok)
			}
		}
		array.IterBox(q, func(ac array.Coord) bool {
			c := [2]int64{ac[0], ac[1]}
			if v, ok := m.get(c); ok && match(v) {
				if _, seen := got[c]; !seen {
					t.Fatalf("%s: scan %v %v missed %v = %d", label, q, preds, c, v)
				}
			}
			return true
		})
	}
}
