// Package wire is the connection layer both scidb protocols ride: the
// coordinator↔worker protocol (internal/cluster) and the client session
// protocol (internal/session) share its frames, its hello, its pipelined
// client connection and its server response writer. They differ only in the
// magic that opens a connection, in what a hello carries and in what a frame
// body holds; one listener serves both (cluster.Server sniffs the magic).
//
// A connection opens with a hello:
//
//	client: u32 magic | u8 version | u32 len | payload
//	server: u32 magic | u8 version | u8 status | u32 len | payload (status 0) or error text
//
// Each length is checked against MaxHello before anything is read for it, so
// a peer that has not finished its hello cannot make the other side allocate
// more than that. A version other than this package's is rejected on both
// sides: the server answers it with the error text, the client refuses a
// reply in another version. After the hello both directions carry frames:
//
//	u32 body length | u64 request id | body
//
// Request ids are chosen by the client and echoed by the response, so many
// calls pipeline over one connection and their responses return in
// completion order. Bodies travel verbatim: compression belongs to the
// storage manager's buckets. A body is never built: Writer.Write, the one way
// to send a frame, sizes it and then streams it into the connection.
package wire

import (
	"bufio"
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"scidb/internal/storage"
)

const (
	// ClusterMagic opens the coordinator↔worker protocol ("SCWP").
	ClusterMagic = 0x53435750
	// SessionMagic opens the client session protocol ("SCSE").
	SessionMagic = 0x53435345

	// version pins the hello, frame and body layouts; bump on incompatible
	// change. 2: the hello of this package, and Message.Payload folded into
	// Chunks. 3: the cluster message header without the join fields. 4:
	// frames without a flags byte, and an empty cluster hello. 5: the
	// cluster route block without the route version, node set and release
	// flag. 6: the worker ops without "replace", and "heat" become "chunks",
	// whose response block is the chunks a node holds.
	version = 6

	// MaxHello bounds a hello payload, and a rejection's text, in either
	// direction.
	MaxHello = 4 << 10

	// FrameHeaderLen is u32 length + u64 request id.
	FrameHeaderLen = 4 + 8

	// MaxFrameBody caps a frame body for a reader that trusts its peer's
	// sizes (a cluster node, a client reading its server's results); a server
	// reading untrusted requests passes its own, smaller, limit to ReadFrame.
	MaxFrameBody = 1 << 30
)

// hello sends the client half of the hello and reads the server's reply:
// its payload, or its rejection as an error.
func hello(w io.Writer, r io.Reader, magic uint32, payload []byte) ([]byte, error) {
	if len(payload) > MaxHello {
		return nil, fmt.Errorf("wire: hello payload of %d bytes exceeds %d", len(payload), MaxHello)
	}
	var b bytes.Buffer
	fw := storage.NewFieldWriter(&b)
	fw.U32(magic)
	fw.U8(version)
	fw.Bytes(payload)
	if _, err := w.Write(b.Bytes()); err != nil {
		return nil, err
	}
	fr := storage.NewFieldReader(r)
	m, v := fr.U32(), fr.U8()
	switch {
	case fr.Err() != nil:
		return nil, fr.Err()
	case m != magic:
		return nil, fmt.Errorf("wire: bad hello magic %#x, want %#x (not a scidb server?)", m, magic)
	case v != version:
		return nil, fmt.Errorf("wire: server speaks version %d, want %d", v, version)
	}
	status := fr.U8()
	reply, err := readPayload(fr)
	if err != nil {
		return nil, err
	}
	if status != 0 {
		return nil, fmt.Errorf("wire: server rejected hello: %s", reply)
	}
	return reply, nil
}

// Accept runs the server half of the hello on a connection whose magic r
// has not consumed yet: it reads the client's hello, hands its payload to
// answer, and writes answer's reply payload — or its error, or the hello's
// own (another version, an oversized payload), as a rejection. It returns
// the error the connection was refused with, if any.
func Accept(w io.Writer, r io.Reader, magic uint32, answer func(payload []byte) ([]byte, error)) error {
	fr := storage.NewFieldReader(r)
	if m := fr.U32(); fr.Err() == nil && m != magic {
		return fmt.Errorf("wire: bad hello magic %#x, want %#x", m, magic)
	}
	v := fr.U8()
	if fr.Err() != nil {
		return fr.Err()
	}
	var reply []byte
	err := fmt.Errorf("wire: hello version %d, want %d", v, version)
	if v == version {
		if reply, err = readPayload(fr); err == nil {
			reply, err = answer(reply)
		}
	}
	var b bytes.Buffer
	fw := storage.NewFieldWriter(&b)
	fw.U32(magic)
	fw.U8(version)
	if err != nil {
		reply = []byte(err.Error())
		reply = reply[:min(len(reply), MaxHello)]
		fw.U8(1)
	} else {
		fw.U8(0)
	}
	fw.Bytes(reply)
	if _, werr := w.Write(b.Bytes()); err == nil {
		err = werr
	}
	return err
}

// readPayload reads a hello's length-prefixed payload, refusing a length
// above MaxHello before allocating for it.
func readPayload(fr *storage.FieldReader) ([]byte, error) {
	n := fr.U32()
	if fr.Err() != nil {
		return nil, fr.Err()
	}
	if n > MaxHello {
		return nil, fmt.Errorf("wire: hello payload of %d bytes exceeds %d", n, MaxHello)
	}
	p := make([]byte, n)
	fr.Raw(p)
	return p, fr.Err()
}

// ReadFrame reads one frame, refusing a body longer than limit before
// allocating it, and counts it into st when st is not nil. The body is read
// into room when its capacity holds it — a server recycles its request
// bodies so — and into a fresh buffer otherwise, or when room is nil.
func ReadFrame(r io.Reader, limit uint32, st *Counters, room []byte) (uint64, []byte, error) {
	var hdr [FrameHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[0:4])
	if n > limit {
		return 0, nil, fmt.Errorf("wire: frame body of %d bytes exceeds %d", n, limit)
	}
	body := room
	if body == nil || uint32(cap(body)) < n {
		body = make([]byte, n)
	}
	body = body[:n]
	if _, err := io.ReadFull(r, body); err != nil {
		return 0, nil, err
	}
	st.frame(false, len(body))
	return binary.LittleEndian.Uint64(hdr[4:12]), body, nil
}

// Writer frames bodies onto one connection for any number of goroutines. It
// coalesces flushes: a writer counts itself in before taking the lock, and
// only the last one out flushes, so a burst of concurrent frames costs one
// syscall. A frame that fails half-written would desynchronize the stream,
// so any write error closes the connection.
type Writer struct {
	conn    net.Conn
	bw      *bufio.Writer
	timeout time.Duration
	stats   *Counters

	writers atomic.Int32
	mu      sync.Mutex
}

// NewWriter buffers writes to conn. A positive timeout is the write deadline
// of each frame, and st, when not nil, counts the frames.
func NewWriter(conn net.Conn, timeout time.Duration, st *Counters) *Writer {
	return &Writer{conn: conn, bw: bufio.NewWriterSize(conn, 64<<10), timeout: timeout, stats: st}
}

// Write frames under id the body that write writes, and has it flushed
// before it returns unless another writer is queued behind it to flush both.
// write runs twice: once to size the body, then under the lock straight into
// the connection's buffer, so no body is built. An error of the first run is
// returned as is, nothing written. Any later failure, a second run of another
// length included, closes the connection, so the stream never loses its
// framing, and returns an error wrapping ErrClosed.
func (w *Writer) Write(id uint64, write func(*storage.FieldWriter) error) error {
	fw := storage.NewFieldWriter(io.Discard)
	if err := write(fw); err != nil {
		return err
	}
	size := fw.Written()
	if size > MaxFrameBody {
		return fmt.Errorf("wire: frame body of %d bytes exceeds %d", size, MaxFrameBody)
	}
	w.writers.Add(1)
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.timeout > 0 {
		_ = w.conn.SetWriteDeadline(time.Now().Add(w.timeout))
	}
	var hdr [FrameHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(size))
	binary.LittleEndian.PutUint64(hdr[4:12], id)
	_, err := w.bw.Write(hdr[:])
	if err == nil {
		body := frameBody{bw: w.bw, left: int(size)}
		fw.Reset(&body)
		if err = cmp.Or(write(fw), fw.Err()); err == nil && body.left > 0 {
			err = errBodyLength
		}
	}
	if w.writers.Add(-1) == 0 && err == nil {
		err = w.bw.Flush()
	}
	if err != nil {
		_ = w.conn.Close()
		return fmt.Errorf("%w: %v", ErrClosed, err)
	}
	w.stats.frame(true, int(size))
	return nil
}

// frameBody passes a frame's body on to the connection's buffer, refusing
// any byte past the length its header announced.
type frameBody struct {
	bw   *bufio.Writer
	left int // bytes the header still announces
}

var errBodyLength = errors.New("wire: a frame body wrote another length than it was sized at")

func (b *frameBody) Write(p []byte) (int, error) {
	if len(p) > b.left {
		return 0, errBodyLength
	}
	b.left -= len(p)
	return b.bw.Write(p)
}

// WriteString spares FieldWriter.String a copy of each string.
func (b *frameBody) WriteString(s string) (int, error) {
	if len(s) > b.left {
		return 0, errBodyLength
	}
	b.left -= len(s)
	return b.bw.WriteString(s)
}

// Stats are the wire counters of one side of a set of connections. All
// fields are cumulative except InFlight (current gauge) and InFlightHWM
// (high-water mark of concurrent calls — the direct measure of how much
// pipelining actually happened). A server counts frames and bytes only.
type Stats struct {
	Calls          int64
	FramesOut      int64
	FramesIn       int64
	BytesOut       int64
	BytesIn        int64
	InFlight       int64
	InFlightHWM    int64
	RoundTripNanos int64 // summed per-call round-trip time
	Timeouts       int64
}

// RoundTrip returns the cumulative round-trip time as a duration.
func (s Stats) RoundTrip() time.Duration { return time.Duration(s.RoundTripNanos) }

// Counters is the live, atomic form of Stats. Its methods accept a nil
// receiver and then count nothing.
type Counters struct {
	calls, framesOut, framesIn, bytesOut, bytesIn   atomic.Int64
	inFlight, inFlightHWM, roundTripNanos, timeouts atomic.Int64
}

// frame counts one frame of n body bytes, going out or coming in.
func (c *Counters) frame(out bool, n int) {
	if c == nil {
		return
	}
	frames, bytes := &c.framesIn, &c.bytesIn
	if out {
		frames, bytes = &c.framesOut, &c.bytesOut
	}
	frames.Add(1)
	bytes.Add(int64(FrameHeaderLen + n))
}

func (c *Counters) enter() {
	if c == nil {
		return
	}
	c.calls.Add(1)
	cur := c.inFlight.Add(1)
	for {
		hwm := c.inFlightHWM.Load()
		if cur <= hwm || c.inFlightHWM.CompareAndSwap(hwm, cur) {
			return
		}
	}
}

func (c *Counters) exit(start time.Time) {
	if c == nil {
		return
	}
	c.inFlight.Add(-1)
	c.roundTripNanos.Add(int64(time.Since(start)))
}

func (c *Counters) timedOut() {
	if c != nil {
		c.timeouts.Add(1)
	}
}

// Snapshot reads the counters.
func (c *Counters) Snapshot() Stats {
	return Stats{
		Calls:          c.calls.Load(),
		FramesOut:      c.framesOut.Load(),
		FramesIn:       c.framesIn.Load(),
		BytesOut:       c.bytesOut.Load(),
		BytesIn:        c.bytesIn.Load(),
		InFlight:       c.inFlight.Load(),
		InFlightHWM:    c.inFlightHWM.Load(),
		RoundTripNanos: c.roundTripNanos.Load(),
		Timeouts:       c.timeouts.Load(),
	}
}
