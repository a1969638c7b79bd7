package wire_test

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"scidb/internal/cluster"
	"scidb/internal/session"
	"scidb/internal/storage"
	"scidb/internal/wire"
)

// protocols are the two magics every conformance row runs under.
var protocols = map[string]uint32{"cluster": wire.ClusterMagic, "session": wire.SessionMagic}

// listen returns a loopback listener closed when the test ends.
func listen(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	return ln
}

// startStub serves magic the way both servers do — the hello through
// Accept (its payload echoed as the reply), then frames read with ReadFrame,
// each handed to handle on its own goroutine and its answer written through
// one Writer — and returns its address. handle may block; a nil answer is
// never sent.
func startStub(t *testing.T, magic uint32, handle func(conn net.Conn, body []byte) []byte) string {
	t.Helper()
	ln := listen(t)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				br := bufio.NewReader(conn)
				if wire.Accept(conn, br, magic, func(p []byte) ([]byte, error) { return p, nil }) != nil {
					return
				}
				w := wire.NewWriter(conn, 0, nil)
				for {
					id, body, err := wire.ReadFrame(br, wire.MaxFrameBody, nil, nil)
					if err != nil {
						return
					}
					go func() {
						if answer := handle(conn, body); answer != nil {
							_ = w.Write(id, raw(answer))
						}
					}()
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// raw is a frame body of the bytes b.
func raw(b []byte) func(*storage.FieldWriter) error {
	return func(w *storage.FieldWriter) error {
		w.Raw(b)
		return w.Err()
	}
}

// dial opens a Conn to addr under magic.
func dial(t *testing.T, addr string, magic uint32, opts wire.Options) *wire.Conn {
	t.Helper()
	c, err := wire.Dial(addr, magic, []byte("hello"), opts, func([]byte) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// rawHello sends a client hello by hand, version and all, and returns the
// server's reply: its version, status and payload.
func rawHello(t *testing.T, addr string, magic uint32, version uint8) (uint8, uint8, string) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
	hello := append(binary.LittleEndian.AppendUint32(nil, magic), version, 0, 0, 0, 0)
	if _, err := conn.Write(hello); err != nil {
		t.Fatal(err)
	}
	reply, err := io.ReadAll(conn)
	if err != nil || len(reply) < 10 || binary.LittleEndian.Uint32(reply) != magic {
		t.Fatalf("hello reply %x, %v", reply, err)
	}
	return reply[4], reply[5], string(reply[10:])
}

// conformance is the table every protocol must pass: what the shared
// connection does for a pipelined client, a dying peer, a late answer, a
// hello in another version and a connection in another protocol.
var conformance = map[string]func(t *testing.T, magic uint32){
	// N calls in flight on one connection at once: the stub answers none
	// until all N have arrived, so a lockstep connection would never finish.
	"pipelined": func(t *testing.T, magic uint32) {
		const n = 16
		arrived, release := make(chan struct{}, n), make(chan struct{})
		addr := startStub(t, magic, func(_ net.Conn, body []byte) []byte {
			arrived <- struct{}{}
			<-release
			return body
		})
		var st wire.Counters
		c := dial(t, addr, magic, wire.Options{CallTimeout: 10 * time.Second, Stats: &st})
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				want := fmt.Sprintf("call %d", i)
				if got, err := c.RoundTrip(raw([]byte(want))); err != nil || string(got) != want {
					t.Errorf("call %d answered %q, %v", i, got, err)
				}
			}()
		}
		for i := 0; i < n; i++ {
			<-arrived
		}
		close(release)
		wg.Wait()
		if s := st.Snapshot(); s.Calls != n || s.FramesOut != n || s.FramesIn != n || s.InFlight != 0 || s.InFlightHWM != n {
			t.Errorf("counters after %d pipelined calls: %+v", n, s)
		}
	},
	// The peer closing fails every pending call, and every later one.
	"fail-all": func(t *testing.T, magic uint32) {
		const n = 8
		var mu sync.Mutex
		seen := 0
		addr := startStub(t, magic, func(conn net.Conn, _ []byte) []byte {
			mu.Lock()
			defer mu.Unlock()
			if seen++; seen == n {
				_ = conn.Close()
			}
			return nil
		})
		c := dial(t, addr, magic, wire.Options{})
		errs := make(chan error, n)
		for i := 0; i < n; i++ {
			go func() {
				_, err := c.RoundTrip(raw([]byte("x")))
				errs <- err
			}()
		}
		for i := 0; i < n; i++ {
			if err := <-errs; !errors.Is(err, wire.ErrClosed) {
				t.Errorf("pending call ended with %v, want ErrClosed", err)
			}
		}
		if _, err := c.RoundTrip(raw([]byte("x"))); !errors.Is(err, wire.ErrClosed) {
			t.Errorf("call after the peer closed = %v, want ErrClosed", err)
		}
	},
	// A call past its timeout returns; its late response is dropped on
	// arrival, and the connection carries the next call.
	"timeout": func(t *testing.T, magic uint32) {
		addr := startStub(t, magic, func(_ net.Conn, body []byte) []byte {
			if string(body) == "late" {
				time.Sleep(300 * time.Millisecond)
			}
			return body
		})
		var st wire.Counters
		c := dial(t, addr, magic, wire.Options{CallTimeout: 100 * time.Millisecond, Stats: &st})
		if _, err := c.RoundTrip(raw([]byte("late"))); !errors.Is(err, wire.ErrTimeout) {
			t.Fatalf("slow call = %v, want ErrTimeout", err)
		}
		for deadline := time.Now().Add(5 * time.Second); st.Snapshot().FramesIn == 0; time.Sleep(5 * time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatal("the late response never arrived")
			}
		}
		if got, err := c.RoundTrip(raw([]byte("next"))); err != nil || string(got) != "next" {
			t.Errorf("call after a timeout = %q, %v; want its own answer", got, err)
		}
		if s := st.Snapshot(); s.Timeouts != 1 {
			t.Errorf("timeouts = %d, want 1", s.Timeouts)
		}
	},
	// A hello in another version is refused by the server with the reason,
	// and a reply in another version by the client.
	"version mismatch": func(t *testing.T, magic uint32) {
		addr := startStub(t, magic, func(net.Conn, []byte) []byte { return nil })
		if v, status, text := rawHello(t, addr, magic, 0xff); v == 0xff || status == 0 || !strings.Contains(text, "version 255") {
			t.Errorf("a version 255 hello got reply version %d, status %d, %q; want a rejection naming version 255", v, status, text)
		}
		ln := listen(t)
		go func() {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
			reply := append(binary.LittleEndian.AppendUint32(nil, magic), 0xff, 0, 0, 0, 0, 0)
			_, _ = io.ReadFull(conn, make([]byte, 4+1+4+5))
			_, _ = conn.Write(reply)
		}()
		_, err := wire.Dial(ln.Addr().String(), magic, []byte("hello"), wire.Options{DialTimeout: 5 * time.Second},
			func([]byte) error { return nil })
		if err == nil || !strings.Contains(err.Error(), "version 255") {
			t.Errorf("a version 255 reply = %v, want a refusal naming version 255", err)
		}
	},
	// A connection opening with another magic is closed, nothing written.
	"unknown magic": func(t *testing.T, magic uint32) {
		addr := startStub(t, magic, func(net.Conn, []byte) []byte { return nil })
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
		if _, err := conn.Write(binary.LittleEndian.AppendUint32(nil, magic^0xffff)); err != nil {
			t.Fatal(err)
		}
		if got, err := io.ReadAll(conn); err != nil || len(got) != 0 {
			t.Errorf("another protocol's connection read %x, %v; want it closed with nothing written", got, err)
		}
	},
}

// TestConformance runs the table over both protocols.
func TestConformance(t *testing.T) {
	for proto, magic := range protocols {
		for row, check := range conformance {
			t.Run(proto+"/"+row, func(t *testing.T) { check(t, magic) })
		}
	}
}

// TestFrameLayoutGolden pins the frame bytes: u32 body length | u64 request
// id | body, little-endian behind a 12-byte header. Writer writes it and
// counts it, ReadFrame reads it back and counts it, header included.
func TestFrameLayoutGolden(t *testing.T) {
	client, server := net.Pipe()
	defer server.Close()
	var out wire.Counters
	go func() {
		_ = wire.NewWriter(client, 0, &out).Write(0x0102030405060708, raw([]byte("abc")))
		_ = client.Close()
	}()
	got, err := io.ReadAll(server)
	want := []byte{3, 0, 0, 0, 8, 7, 6, 5, 4, 3, 2, 1, 'a', 'b', 'c'}
	if err != nil || wire.FrameHeaderLen != 12 || !bytes.Equal(got, want) {
		t.Fatalf("frame %x behind a %d-byte header (%v), want %x behind 12", got, wire.FrameHeaderLen, err, want)
	}
	var st wire.Counters
	id, body, err := wire.ReadFrame(bytes.NewReader(got), wire.MaxFrameBody, &st, nil)
	if err != nil || id != 0x0102030405060708 || string(body) != "abc" {
		t.Errorf("ReadFrame = %#x, %q, %v", id, body, err)
	}
	for side, c := range map[string]wire.Stats{"Writer": out.Snapshot(), "ReadFrame": st.Snapshot()} {
		if frames, bytes := c.FramesOut+c.FramesIn, c.BytesOut+c.BytesIn; frames != 1 || bytes != int64(len(want)) {
			t.Errorf("%s counted %d frames, %d bytes; want 1, %d", side, frames, bytes, len(want))
		}
	}
}

// TestReadFrameIntoRoom: a body is read into the room passed when its
// capacity holds it, and into a fresh buffer when it does not, the room
// then left as it was.
func TestReadFrameIntoRoom(t *testing.T) {
	frame := []byte{3, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 'a', 'b', 'c'}
	room := make([]byte, 0, 8)
	_, body, err := wire.ReadFrame(bytes.NewReader(frame), wire.MaxFrameBody, nil, room)
	if err != nil || string(body) != "abc" || &body[0] != &room[:1][0] {
		t.Fatalf("ReadFrame into an 8-byte room = %q, %v; want \"abc\" read into the room", body, err)
	}
	small := make([]byte, 0, 2)
	_, body, err = wire.ReadFrame(bytes.NewReader(frame), wire.MaxFrameBody, nil, small)
	if err != nil || string(body) != "abc" || &body[0] == &small[:1][0] {
		t.Fatalf("ReadFrame past a 2-byte room = %q, %v; want \"abc\" in a fresh buffer", body, err)
	}
}

// tcpWriter is a Writer over one end of a loopback connection; the other
// end is returned for the test to read.
func tcpWriter(t *testing.T) (*wire.Writer, net.Conn) {
	t.Helper()
	ln := listen(t)
	accepted := make(chan net.Conn, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			close(accepted)
			return
		}
		accepted <- conn
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	peer, ok := <-accepted
	if !ok {
		t.Fatal("accept failed")
	}
	t.Cleanup(func() { _ = conn.Close(); _ = peer.Close() })
	return wire.NewWriter(conn, 0, nil), peer
}

// TestWriterStreamsPayload: a frame carrying a 1 MiB payload is written
// without building its body — the payload goes from the caller's slice to
// the connection — so writing it allocates under 64 KiB, and the peer reads
// the payload back whole.
func TestWriterStreamsPayload(t *testing.T) {
	w, peer := tcpWriter(t)
	payload := bytes.Repeat([]byte("scidb"), (1<<20)/5)
	body := func(fw *storage.FieldWriter) error {
		fw.String("read")
		fw.Bytes(payload)
		return nil
	}
	first := make(chan error, 1)
	go func() {
		_, got, err := wire.ReadFrame(peer, wire.MaxFrameBody, nil, nil)
		if err == nil && (len(got) != 4+4+4+len(payload) || !bytes.Equal(got[12:], payload)) {
			err = fmt.Errorf("read a %d-byte body, want the %d-byte payload behind two fields", len(got), len(payload))
		}
		first <- err
		_, _ = io.Copy(io.Discard, peer) // the rest, without allocating
	}()
	if err := w.Write(1, body); err != nil {
		t.Fatal(err)
	}
	if err := <-first; err != nil {
		t.Fatal(err)
	}
	const runs = 8
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if err := w.Write(uint64(2+i), body); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per >= 64<<10 {
		t.Errorf("writing a frame with a %d-byte payload allocates %d bytes, want under 64 KiB", len(payload), per)
	}
}

// TestWriterClosesOnBodyLengthChange: a body whose second run writes more
// or fewer bytes than its first closes the connection, and so does every
// frame after it. The peer reads whole frames — at most the announced bytes
// of the body that ran long — and then the end of the stream, never a frame
// cut from the wrong bytes, whether the body is small enough to sit in the
// buffer or large enough to pass straight through.
func TestWriterClosesOnBodyLengthChange(t *testing.T) {
	for _, size := range []int{10, 1 << 20} {
		for _, delta := range []int{+1, -1} {
			t.Run(fmt.Sprintf("%d%+d", size, delta), func(t *testing.T) {
				w, peer := tcpWriter(t)
				if err := w.Write(1, raw([]byte("first"))); err != nil {
					t.Fatal(err)
				}
				runs := 0
				err := w.Write(2, func(fw *storage.FieldWriter) error {
					switch runs++; {
					case runs == 1:
						fw.Raw(make([]byte, size))
					case delta > 0: // a whole body's bytes, then more
						fw.Raw(make([]byte, size))
						fw.Raw(make([]byte, delta))
					default:
						fw.Raw(make([]byte, size+delta))
					}
					return nil
				})
				if !errors.Is(err, wire.ErrClosed) {
					t.Errorf("a body that changed length = %v, want ErrClosed", err)
				}
				if err := w.Write(3, raw([]byte("after"))); !errors.Is(err, wire.ErrClosed) {
					t.Errorf("a frame after the close = %v, want ErrClosed", err)
				}
				_ = peer.SetReadDeadline(time.Now().Add(5 * time.Second))
				br := bufio.NewReader(peer)
				for {
					id, body, err := wire.ReadFrame(br, wire.MaxFrameBody, nil, nil)
					if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
						break
					}
					if err != nil {
						t.Fatalf("the peer read %v, want the end of the stream", err)
					}
					whole := id == 2 && delta > 0 && bytes.Equal(body, make([]byte, size))
					if !whole && (id != 1 || string(body) != "first") {
						t.Fatalf("the peer read frame %d of %d bytes, want frame 1, or 2 as sized, before the end", id, len(body))
					}
				}
			})
		}
	}
}

// TestWriterSizingErrorWritesNothing: a body that fails its sizing run
// returns its own error, writes no byte, and leaves the connection up: the
// next call on the same Conn succeeds, and so does the next frame.
func TestWriterSizingErrorWritesNothing(t *testing.T) {
	for proto, magic := range protocols {
		t.Run(proto, func(t *testing.T) {
			var frames atomic.Int64
			addr := startStub(t, magic, func(_ net.Conn, body []byte) []byte {
				frames.Add(1)
				return body
			})
			c := dial(t, addr, magic, wire.Options{CallTimeout: 10 * time.Second})
			bad := errors.New("unencodable")
			if _, err := c.RoundTrip(func(*storage.FieldWriter) error { return bad }); !errors.Is(err, bad) || errors.Is(err, wire.ErrClosed) {
				t.Fatalf("a body failing its sizing run = %v, want its own error", err)
			}
			if got, err := c.RoundTrip(raw([]byte("next"))); err != nil || string(got) != "next" {
				t.Fatalf("the call after = %q, %v; want its own answer", got, err)
			}
			if n := frames.Load(); n != 1 {
				t.Errorf("the server read %d frames, want 1", n)
			}
		})
	}
}

// startCluster runs a one-node cluster server, with the session front end
// on the same listener.
func startCluster(t *testing.T, opts cluster.ServeOptions) string {
	t.Helper()
	opts.Session = session.NewServer(session.ServerOptions{}).ServeConn
	srv, err := cluster.NewServer(cluster.NewWorker(0), opts)
	if err != nil {
		t.Fatal(err)
	}
	ln := listen(t)
	go func() { _ = srv.Serve(ln) }()
	t.Cleanup(srv.Shutdown)
	return ln.Addr().String()
}

// TestHelloVersionMismatch: both servers, on their shared listener, refuse a
// hello in another version with the reason.
func TestHelloVersionMismatch(t *testing.T) {
	addr := startCluster(t, cluster.ServeOptions{})
	for proto, magic := range protocols {
		if _, status, text := rawHello(t, addr, magic, 0xff); status == 0 || !strings.Contains(text, "version 255") {
			t.Errorf("%s server answered a version 255 hello with status %d, %q", proto, status, text)
		}
	}
}
