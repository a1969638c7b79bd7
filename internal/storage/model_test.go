package storage

import (
	"errors"
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
// the memory buffer and the newest flushed or adopted value of every other
// cell. A batch's Clear drops the cells of its chunk from both.
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

// buffers reports whether the buffer holds a cell inside box: the store then
// holds a chunk at box's origin.
func (m *storeModel) buffers(box array.Box) bool {
	for c := range m.buffered {
		if box.Contains(array.Coord{c[0], c[1]}) {
			return true
		}
	}
	return false
}

// TestStoreMatchesMapModel drives seeded sequences of puts, batches, flushes,
// compactions and reopens against a store and checks every Get and
// ScanChunks — random boxes, with and without zone predicates — against a
// newest-wins map, and every batch's added count against the model's count
// of new cells less those its Clear removed. A batch mixes chunks with and
// without their encoded bytes, some at origins the buffer holds, behind an
// optional Clear of one whole chunk; a Clear of any other box is refused and
// writes nothing of the batch.
func TestStoreMatchesMapModel(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			runStoreModel(t, seed, 80)
		})
	}
}

// FuzzStoreModel runs the model sequence from any seed, so a failing
// sequence of batches minimises to the seed that makes it.
func FuzzStoreModel(f *testing.F) {
	for seed := int64(1); seed <= 6; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		runStoreModel(t, seed, 40)
	})
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
	randBox := func() array.Box {
		a, b := coord(), coord()
		return array.NewBox(array.Coord{min(a[0], b[0]), min(a[1], b[1])}, array.Coord{max(a[0], b[0]), max(a[1], b[1])})
	}
	gridBox := func(o array.Coord) array.Box {
		return array.NewBox(o, array.Coord{min(o[0]+7, 20), min(o[1]+7, 20)})
	}
	// origin picks a grid origin, half the time one whose chunk the buffer
	// holds.
	origin := func() array.Coord {
		var held []array.Coord
		for x := int64(1); x <= 17; x += 8 {
			for y := int64(1); y <= 17; y += 8 {
				if o := (array.Coord{x, y}); m.buffers(gridBox(o)) {
					held = append(held, o)
				}
			}
		}
		if len(held) > 0 && rng.Intn(2) == 0 {
			return held[rng.Intn(len(held))]
		}
		return array.Coord{1 + 8*rng.Int63n(3), 1 + 8*rng.Int63n(3)}
	}
	// entry fills a chunk at origin with random cells, adding it to b with
	// its encoded bytes when raw; shape nil is the grid cell's.
	type cells = map[[2]int64]int64
	entry := func(b *Batch, o array.Coord, shape []int64, raw bool) cells {
		if shape == nil {
			shape = []int64{min(8, 21-o[0]), min(8, 21-o[1])}
		}
		ch := array.NewChunk(s, o, shape)
		got := cells{}
		density := rng.Intn(4)
		array.IterBox(ch.Box(), func(c array.Coord) bool {
			if rng.Intn(4) < density {
				v := rng.Int63n(100)
				got[[2]int64{c[0], c[1]}] = v
				if err := ch.Set(c, array.Cell{array.Int64(v)}); err != nil {
					t.Fatal(err)
				}
			}
			return true
		})
		enc, _, err := EncodeChunkZones(s, ch)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := DecodeChunk(s, enc)
		if err != nil {
			t.Fatal(err)
		}
		b.Chunks = append(b.Chunks, dec)
		if raw {
			b.Raw = append(b.Raw, enc)
		} else {
			b.Raw = append(b.Raw, nil)
		}
		return got
	}
	apply := func(b Batch, entries []cells) string {
		var want int64
		if len(b.Clear.Lo) > 0 {
			if o := b.Clear.Lo; (o[0]-1)%8 != 0 || (o[1]-1)%8 != 0 || !b.Clear.Hi.Equal(gridBox(o).Hi) {
				if held, err := st.Apply(b); !errors.Is(err, ErrOffGrid) || held != 0 {
					t.Fatalf("apply with clear %v: held %d, %v; want ErrOffGrid", b.Clear, held, err)
				}
				return fmt.Sprintf("refused clear %v", b.Clear)
			}
			array.IterBox(b.Clear, func(c array.Coord) bool {
				k := [2]int64{c[0], c[1]}
				if _, ok := m.get(k); ok {
					want--
				}
				delete(m.buffered, k)
				delete(m.stored, k)
				return true
			})
		}
		for i, cs := range entries {
			box := b.Chunks[i].Box()
			into := m.buffered
			if b.Raw[i] != nil && !m.buffers(box) {
				into = m.stored
			}
			for c, v := range cs {
				if _, ok := m.get(c); !ok {
					want++
				}
				into[c] = v
			}
		}
		flushes := st.Stats().Flushes
		added, err := st.Apply(b)
		if err != nil {
			t.Fatalf("apply: %v", err)
		}
		if added != want {
			t.Fatalf("apply of %d chunks (clear %v) changed the cells held by %d, the model %d", len(entries), b.Clear, added, want)
		}
		if st.Stats().Flushes > flushes {
			m.flush() // the batch took the buffer to MemLimit
		}
		return fmt.Sprintf("apply %d chunks, clear %v, added %d", len(entries), b.Clear, added)
	}
	for step := 0; step < steps; step++ {
		var what string
		switch r := rng.Intn(20); {
		case r < 7:
			c, v := coord(), rng.Int63n(100)
			if err := st.Put(array.Coord{c[0], c[1]}, array.Cell{array.Int64(v)}); err != nil {
				t.Fatal(err)
			}
			m.buffered[c] = v
			what = fmt.Sprintf("put %v = %d", c, v)
		case r < 9:
			if err := st.Flush(); err != nil {
				t.Fatal(err)
			}
			m.flush()
			what = "flush"
		case r < 14:
			var b Batch
			switch rng.Intn(3) {
			case 0:
				b.Clear = randBox()
			case 1:
				b.Clear = gridBox(origin())
			}
			var entries []cells
			for n := rng.Intn(4); n > 0; n-- {
				entries = append(entries, entry(&b, origin(), nil, rng.Intn(2) == 0))
			}
			what = apply(b, entries)
		case r < 15:
			// Not a grid origin: the store refuses the whole batch and
			// writes nothing of it.
			o := array.Coord{2 + rng.Int63n(12), 2 + rng.Int63n(12)}
			if (o[0]-1)%8 == 0 {
				o[0]++
			}
			var b Batch
			entry(&b, origin(), nil, true)
			entry(&b, o, []int64{8, 8}, rng.Intn(2) == 0)
			if added, err := st.Apply(b); !errors.Is(err, ErrOffGrid) || added != 0 {
				t.Fatalf("step %d: batch with a chunk at %v: added %d, %v; want ErrOffGrid", step, o, added, err)
			}
			what = fmt.Sprintf("refused chunk at %v", o)
		case r < 17:
			merged, err := st.MergeOnce()
			if err != nil {
				t.Fatal(err)
			}
			what = fmt.Sprintf("merge (%v)", merged)
		case r < 19:
			what = apply(Batch{Clear: randBox()}, nil)
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
		if st.memBytes != st.mem.ByteSize() {
			t.Fatalf("step %d (%s): memBytes %d, buffer ByteSize %d", step, what, st.memBytes, st.mem.ByteSize())
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
