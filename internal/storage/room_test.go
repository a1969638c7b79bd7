package storage

import (
	"fmt"
	"testing"

	"scidb/internal/array"
)

// TestRoomsRecycleAndScribble: a buffer put back comes out of Get empty
// with its capacity, overwritten to that capacity while ScribbleRooms is
// set and left as it was once restored; one grown past maxPooledRoom is
// not pooled.
func TestRoomsRecycleAndScribble(t *testing.T) {
	var rooms Rooms
	restore := ScribbleRooms(0xA5)
	p := rooms.Get()
	*p = append(*p, "payload"...)
	held := (*p)[:7]
	rooms.Put(p)
	for i, b := range held[:cap(held)] {
		if b != 0xA5 {
			t.Fatalf("byte %d of a released buffer is %#x, want the fill 0xa5", i, b)
		}
	}
	restore()
	p = rooms.Get()
	*p = append(*p, "payload"...)
	held = (*p)[:7]
	rooms.Put(p)
	if string(held) != "payload" {
		t.Fatalf("a buffer released with no scribble reads %q", held)
	}
	big := make([]byte, maxPooledRoom+1)
	rooms.Put(&big)
	for range 4 {
		if q := rooms.Get(); len(*q) != 0 || cap(*q) > maxPooledRoom {
			t.Fatalf("Get handed out a buffer of length %d, capacity %d", len(*q), cap(*q))
		}
	}
}

// TestScribbledSealBuffers: with every recycled buffer overwritten as it is
// released, 50 batches — each a chunk adopted from its payload (sealed in
// sealRooms) and a cell put into the buffer, every tenth followed by a flush
// (encoded in rawRooms, then sealed) — go into a Dir store and an in-memory
// store. Each reads back every cell written, and the Dir store again once
// reopened: a bucket that kept a view of the buffer it was encoded or sealed
// in reads fill bytes, and fails its checksum or its cells.
func TestScribbledSealBuffers(t *testing.T) {
	defer ScribbleRooms(0xA5)()
	s := schema2D(80)
	for _, dir := range []string{t.TempDir(), ""} {
		name := "memory"
		if dir != "" {
			name = "dir"
		}
		t.Run(name, func(t *testing.T) {
			st, err := NewStore(s, Options{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			want := map[string]string{}
			for b := range 50 {
				origin := array.Coord{1 + 8*int64(b/10), 1 + 8*int64(b%10)}
				raw, ch := encodedChunk(t, s, origin, float64(100*b))
				for i := int64(0); i < 8; i++ {
					for j := int64(0); j < 8; j++ {
						c := array.Coord{origin[0] + i, origin[1] + j}
						want[fmt.Sprint(c)] = fmt.Sprint(array.Cell{array.Float64(float64(100*b) + float64(i+j)), array.String64("t")})
					}
				}
				if err := applyRaw(st, raw, ch); err != nil {
					t.Fatal(err)
				}
				c := array.Coord{41 + int64(b%40), 1 + int64(b)}
				cell := array.Cell{array.Float64(-float64(b)), array.String64(fmt.Sprintf("put %d", b))}
				if err := st.Put(c, cell); err != nil {
					t.Fatal(err)
				}
				want[fmt.Sprint(c)] = fmt.Sprint(cell)
				if b%10 == 9 {
					if err := st.Flush(); err != nil {
						t.Fatal(err)
					}
				}
			}
			requireStoreCells(t, "after 50 batches", st, want)
			if dir == "" {
				return
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			if st, err = NewStore(s, Options{Dir: dir}); err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			requireStoreCells(t, "reopened", st, want)
		})
	}
}

// requireStoreCells holds every cell of st to want, cell for cell.
func requireStoreCells(t *testing.T, label string, st *Store, want map[string]string) {
	t.Helper()
	got := map[string]string{}
	if err := st.Scan(array.WholeBox(st.Schema()), func(c array.Coord, cell array.Cell) bool {
		got[fmt.Sprint(c)] = fmt.Sprint(cell)
		return true
	}); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d cells, want %d", label, len(got), len(want))
	}
	for c, v := range want {
		if got[c] != v {
			t.Fatalf("%s: cell %s is %s, want %s", label, c, got[c], v)
		}
	}
}
