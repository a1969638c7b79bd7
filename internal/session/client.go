package session

import (
	"context"
	"errors"
	"time"

	"scidb/internal/array"
	"scidb/internal/parser"
	"scidb/internal/storage"
	"scidb/internal/wire"
)

// ErrConnClosed reports that the session connection dropped (server gone,
// drain, network). Callers like the REPL redial on it.
var ErrConnClosed = wire.ErrClosed

// Result is one statement's outcome on the client side.
type Result struct {
	Msg   string
	Array *array.Array
}

// ClientOptions configures Dial.
type ClientOptions struct {
	// Name identifies the client in server logs/metrics (default "scidb").
	Name string
	// Namespace selects the tenant database (default "default").
	Namespace string
	// Priority is the default statement class (Interactive unless set).
	Priority Priority
	// DialTimeout bounds the TCP connect + handshake (default 5s).
	DialTimeout time.Duration
}

// Client is a pipelined session connection (a wire.Conn): many statements
// may be in flight at once over one TCP connection, matched to their
// responses by request id. All methods are safe for concurrent use.
type Client struct {
	conn *wire.Conn
	opts ClientOptions
	sid  uint64
}

// Dial connects and runs the session handshake.
func Dial(addr string, opts ClientOptions) (*Client, error) {
	if opts.Name == "" {
		opts.Name = "scidb"
	}
	if opts.DialTimeout <= 0 {
		opts.DialTimeout = 5 * time.Second
	}
	c := &Client{opts: opts}
	conn, err := wire.Dial(addr, wire.SessionMagic, encodeHello(opts.Name, opts.Namespace, opts.Priority),
		wire.Options{DialTimeout: opts.DialTimeout}, func(reply []byte) error {
			r := storage.NewFieldReaderBytes(reply)
			c.sid = r.U64()
			return r.Err()
		})
	if err != nil {
		return nil, err
	}
	c.conn = conn
	return c, nil
}

// SessionID returns the server-assigned session id.
func (c *Client) SessionID() uint64 { return c.sid }

// Close drops the connection; in-flight calls fail with ErrConnClosed.
func (c *Client) Close() error {
	c.conn.Close()
	return nil
}

// call frames one request without waiting for its response.
func (c *Client) call(q *request) (*wire.Call, error) {
	return c.conn.Send(func(w *storage.FieldWriter) error { return writeRequest(w, q) })
}

// wait blocks for a call's response.
func wait(call *wire.Call) (*response, error) {
	body, err := call.Wait()
	if err != nil {
		return nil, err
	}
	return decodeResponse(body)
}

// roundTrip sends one request and waits for its response.
func (c *Client) roundTrip(q *request) (*response, error) {
	call, err := c.call(q)
	if err != nil {
		return nil, err
	}
	return wait(call)
}

// finish converts a response to a client Result.
func (c *Client) finish(p *response) (*Result, error) {
	if err := respErr(p); err != nil {
		return nil, err
	}
	res := &Result{Msg: p.Msg}
	if p.Schema != nil {
		a, err := array.New(p.Schema)
		if err != nil {
			return nil, err
		}
		chunks, err := decodePage(context.TODO(), p.Schema, p.Chunks)
		if err != nil {
			return nil, err
		}
		for _, ch := range chunks {
			if err := a.MergeChunk(ch); err != nil {
				return nil, err
			}
		}
		res.Array = a
	}
	return res, nil
}

// respErr maps a non-OK response to its typed error.
func respErr(p *response) error {
	switch p.Status {
	case statusOK:
		return nil
	case statusBusy:
		return ErrServerBusy
	default:
		return errors.New(p.Err)
	}
}

// Exec runs one statement at the session's default priority and
// materializes the whole result client-side.
func (c *Client) Exec(sql string) (*Result, error) {
	return c.ExecPriority(sql, c.opts.Priority)
}

// ExecPriority runs one statement at an explicit priority class.
func (c *Client) ExecPriority(sql string, pr Priority) (*Result, error) {
	p, err := c.roundTrip(&request{Op: opExec, Priority: uint8(pr), SQL: sql})
	if err != nil {
		return nil, err
	}
	return c.finish(p)
}

// Pending is an in-flight statement started with Start: it can be waited
// on or canceled.
type Pending struct {
	c    *Client
	call *wire.Call
}

// Start sends a statement without waiting — the handle supports Cancel
// while the server queues or executes it.
func (c *Client) Start(sql string, pr Priority) (*Pending, error) {
	call, err := c.call(&request{Op: opExec, Priority: uint8(pr), SQL: sql})
	if err != nil {
		return nil, err
	}
	return &Pending{c: c, call: call}, nil
}

// Cancel asks the server to abort the statement (queued: admission wait
// aborts; running: the executor's context fires between operators/chunks).
// Wait still returns the statement's final outcome.
func (p *Pending) Cancel() error {
	_, err := p.c.call(&request{Op: opCancel, Target: p.call.ID})
	return err
}

// Wait blocks for the statement's result.
func (p *Pending) Wait() (*Result, error) {
	r, err := wait(p.call)
	if err != nil {
		return nil, err
	}
	return p.c.finish(r)
}

// Prepare parses sql server-side under name, returning the template's
// parameter count.
func (c *Client) Prepare(name, sql string) (int, error) {
	p, err := c.roundTrip(&request{Op: opPrepare, SQL: sql, Name: name})
	if err != nil {
		return 0, err
	}
	if err := respErr(p); err != nil {
		return 0, err
	}
	return int(p.NumParams), nil
}

// ClosePrepared drops a prepared template.
func (c *Client) ClosePrepared(name string) error {
	p, err := c.roundTrip(&request{Op: opClosePrep, Name: name})
	if err != nil {
		return err
	}
	return respErr(p)
}

// ExecPrepared binds params ($1 is params[0]) into a prepared template and
// runs it at the session's default priority.
func (c *Client) ExecPrepared(name string, params ...parser.Scalar) (*Result, error) {
	p, err := c.roundTrip(&request{
		Op: opExecPrepared, Priority: uint8(c.opts.Priority),
		Name: name, Params: params,
	})
	if err != nil {
		return nil, err
	}
	return c.finish(p)
}

// Query runs a statement with incremental streaming: the server answers
// with a cursor and the returned Rows pulls encoded chunks page by page,
// so neither side ever holds the whole encoded result.
func (c *Client) Query(sql string) (*Rows, error) {
	return c.QueryPriority(sql, c.opts.Priority)
}

// QueryPriority is Query at an explicit priority class.
func (c *Client) QueryPriority(sql string, pr Priority) (*Rows, error) {
	p, err := c.roundTrip(&request{Op: opExec, Priority: uint8(pr), Stream: true, SQL: sql})
	if err != nil {
		return nil, err
	}
	if err := respErr(p); err != nil {
		return nil, err
	}
	if !p.Streamed {
		// Statement had no array result (DDL/DML): a drained Rows.
		return &Rows{c: c, msg: p.Msg, done: true}, nil
	}
	return &Rows{c: c, msg: p.Msg, schema: p.Schema, cursor: p.Cursor, done: p.Done}, nil
}

// Rows is a client-driven cursor over a streamed result.
type Rows struct {
	c      *Client
	msg    string
	schema *array.Schema
	cursor uint64
	done   bool
	buf    []*array.Chunk
}

// Msg returns the statement's message.
func (r *Rows) Msg() string { return r.msg }

// Schema returns the result schema (nil for non-array statements).
func (r *Rows) Schema() *array.Schema { return r.schema }

// NextChunk returns the next result chunk, fetching a page from the
// server when the buffer drains. It returns (nil, nil) at end of result.
func (r *Rows) NextChunk() (*array.Chunk, error) {
	for len(r.buf) == 0 {
		if r.done {
			return nil, nil
		}
		p, err := r.c.roundTrip(&request{Op: opFetch, Cursor: r.cursor})
		if err != nil {
			return nil, err
		}
		if err := respErr(p); err != nil {
			return nil, err
		}
		r.done = p.Done
		if r.buf, err = decodePage(context.TODO(), r.schema, p.Chunks); err != nil {
			return nil, err
		}
	}
	ch := r.buf[0]
	r.buf = r.buf[1:]
	return ch, nil
}

// All drains the cursor into a materialized array.
func (r *Rows) All() (*array.Array, error) {
	if r.schema == nil {
		return nil, nil
	}
	a, err := array.New(r.schema)
	if err != nil {
		return nil, err
	}
	for {
		ch, err := r.NextChunk()
		if err != nil {
			return nil, err
		}
		if ch == nil {
			return a, nil
		}
		if err := a.MergeChunk(ch); err != nil {
			return nil, err
		}
	}
}

// Close releases the server-side cursor early.
func (r *Rows) Close() error {
	if r.done || r.schema == nil {
		r.done = true
		return nil
	}
	r.done = true
	p, err := r.c.roundTrip(&request{Op: opCloseCursor, Cursor: r.cursor})
	if err != nil {
		return err
	}
	return respErr(p)
}

// Ping round-trips a liveness probe.
func (c *Client) Ping() error {
	p, err := c.roundTrip(&request{Op: opPing})
	if err != nil {
		return err
	}
	return respErr(p)
}

// Bind-value constructors for ExecPrepared.

// Int builds an integer bind value.
func Int(v int64) parser.Scalar { return parser.Scalar{IsInt: true, Int: v, Num: float64(v)} }

// Float builds a float bind value.
func Float(v float64) parser.Scalar { return parser.Scalar{Num: v} }

// Str builds a string bind value.
func Str(s string) parser.Scalar { return parser.Scalar{IsString: true, Str: s} }

// Null builds a NULL bind value.
func Null() parser.Scalar { return parser.Scalar{IsNull: true} }
