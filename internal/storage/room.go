package storage

import (
	"sync"
	"sync/atomic"
)

// Rooms recycles the byte buffers of one kind of transient copy — a
// request frame, a batch of chunk payloads, a bucket being sealed — so the
// copy costs an allocation only while its pool warms up. Get hands out an
// empty buffer with the capacity it last grew to; Put takes it back, grown
// by whatever was appended to it, once nothing reads it any more. Whoever
// lends views of a buffer out says how long they live: a payload handed to
// Ship, or a request body handed to a worker, is valid only until that call
// returns. The zero value is ready to use.
type Rooms struct{ pool sync.Pool }

// Get returns a buffer of length zero.
func (r *Rooms) Get() *[]byte {
	if p, _ := r.pool.Get().(*[]byte); p != nil {
		*p = (*p)[:0]
		return p
	}
	return new([]byte)
}

// Put returns p's buffer to the pool; p must not be used after. A buffer
// grown past maxPooledRoom is dropped rather than held.
func (r *Rooms) Put(p *[]byte) {
	if f := scribble.Load(); f != 0 {
		b := (*p)[:cap(*p)]
		for i := range b {
			b[i] = byte(f)
		}
	}
	if cap(*p) <= maxPooledRoom {
		r.pool.Put(p)
	}
}

// scribble, when nonzero, holds 0x100 | the byte Put fills a buffer with.
var scribble atomic.Uint32

// ScribbleRooms is a test hook: until restore runs, every buffer going back
// to its Rooms is first overwritten, to its whole capacity, with fill. A
// reader still holding a view of one then reads fill bytes where its data
// was, so a test that reads back what it wrote fails if anything kept a
// recycled buffer past its release.
func ScribbleRooms(fill byte) (restore func()) {
	scribble.Store(0x100 | uint32(fill))
	return func() { scribble.Store(0) }
}
