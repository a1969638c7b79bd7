package wire

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"scidb/internal/storage"
)

var (
	// ErrClosed reports that a connection broke — the peer went away, a read
	// or write failed, or Close was called. Every call pending on it, and
	// every later one, fails with an error wrapping it.
	ErrClosed = errors.New("wire: connection closed")
	// ErrTimeout reports a call that outlived Options.CallTimeout.
	ErrTimeout = errors.New("wire: call timed out")
)

// Options configure Dial.
type Options struct {
	// DialTimeout bounds connecting plus the hello. Zero means no deadline.
	DialTimeout time.Duration
	// CallTimeout bounds one call's wait. A call that times out forgets its
	// id: its late response is dropped, and the connection and its other
	// calls carry on. Zero means no deadline.
	CallTimeout time.Duration
	// Stats, when not nil, counts the connection's calls and frames.
	Stats *Counters
}

// Conn is the client end of a pipelined connection: any number of
// goroutines send requests over it at once through one Writer, and one
// reader goroutine hands each response to the call waiting on its id. No
// lock is held across a round trip, so N concurrent calls cost about one
// round trip, not N.
type Conn struct {
	conn    net.Conn
	w       *Writer
	timeout time.Duration
	stats   *Counters

	mu      sync.Mutex
	nextID  uint64
	pending map[uint64]chan result
	broken  error
}

type result struct {
	body []byte
	err  error
}

// Dial connects to addr, sends the hello — magic and payload — and hands the
// server's reply payload to accept, which may reject it with an error. Then
// it starts the connection's reader.
func Dial(addr string, magic uint32, payload []byte, opts Options, accept func(reply []byte) error) (*Conn, error) {
	conn, err := net.DialTimeout("tcp", addr, opts.DialTimeout)
	if err != nil {
		return nil, err
	}
	if opts.DialTimeout > 0 {
		_ = conn.SetDeadline(time.Now().Add(opts.DialTimeout))
	}
	br := bufio.NewReaderSize(conn, 64<<10)
	reply, err := hello(conn, br, magic, payload)
	if err == nil {
		err = accept(reply)
	}
	if err != nil {
		_ = conn.Close()
		return nil, err
	}
	_ = conn.SetDeadline(time.Time{})
	c := &Conn{
		conn:    conn,
		w:       NewWriter(conn, 0, opts.Stats),
		timeout: opts.CallTimeout,
		stats:   opts.Stats,
		pending: map[uint64]chan result{},
	}
	go c.readLoop(br)
	return c, nil
}

// readLoop hands each response to the call waiting on its id; a response
// whose call timed out has none and is dropped. The first read error fails
// the connection.
func (c *Conn) readLoop(br *bufio.Reader) {
	for {
		id, body, err := ReadFrame(br, MaxFrameBody, c.stats, nil)
		if err != nil {
			c.fail(err)
			return
		}
		c.mu.Lock()
		ch, ok := c.pending[id]
		delete(c.pending, id)
		c.mu.Unlock()
		if ok {
			ch <- result{body: body}
		}
	}
}

// fail marks the connection broken, closes it, and fails every pending call.
func (c *Conn) fail(cause error) {
	c.mu.Lock()
	if c.broken == nil {
		c.broken = fmt.Errorf("%w: %v", ErrClosed, cause)
	}
	err, pend := c.broken, c.pending
	c.pending = map[uint64]chan result{}
	c.mu.Unlock()
	_ = c.conn.Close()
	for _, ch := range pend {
		ch <- result{err: err}
	}
}

// Close closes the connection; pending calls fail with ErrClosed.
func (c *Conn) Close() {
	c.fail(errors.New("closed by the client"))
}

// Call is one request in flight; ID is the request id it was sent under.
type Call struct {
	ID    uint64
	c     *Conn
	done  chan result
	start time.Time
}

// Send frames the body write writes (Writer.Write) as a new request and
// returns its call without waiting. An error of write fails this call only:
// nothing was sent, and the connection is up.
func (c *Conn) Send(write func(*storage.FieldWriter) error) (*Call, error) {
	call := &Call{c: c, done: make(chan result, 1), start: time.Now()}
	c.mu.Lock()
	if err := c.broken; err != nil {
		c.mu.Unlock()
		return nil, err
	}
	c.nextID++
	call.ID = c.nextID
	c.pending[call.ID] = call.done
	c.mu.Unlock()
	c.stats.enter()
	if err := c.w.Write(call.ID, write); err != nil {
		if errors.Is(err, ErrClosed) {
			c.fail(err)
			_, err = call.Wait() // what fail just handed every pending call
			return nil, err
		}
		c.mu.Lock()
		delete(c.pending, call.ID)
		c.mu.Unlock()
		c.stats.exit(call.start)
		return nil, err
	}
	return call, nil
}

// Wait blocks for the call's response body.
func (call *Call) Wait() ([]byte, error) {
	c := call.c
	defer c.stats.exit(call.start)
	var timeout <-chan time.Time
	if c.timeout > 0 {
		t := time.NewTimer(c.timeout)
		defer t.Stop()
		timeout = t.C
	}
	select {
	case r := <-call.done:
		return r.body, r.err
	case <-timeout:
		c.mu.Lock()
		delete(c.pending, call.ID)
		c.mu.Unlock()
		c.stats.timedOut()
		return nil, fmt.Errorf("%w after %v", ErrTimeout, c.timeout)
	}
}

// RoundTrip sends the body write writes and waits for the response.
func (c *Conn) RoundTrip(write func(*storage.FieldWriter) error) ([]byte, error) {
	call, err := c.Send(write)
	if err != nil {
		return nil, err
	}
	return call.Wait()
}
