package session

import (
	"encoding/binary"
	"errors"
	"io"
	"net"
	"os"
	"runtime"
	"testing"
	"time"

	"scidb/internal/cluster"
	"scidb/internal/core"
	"scidb/internal/storage"
	"scidb/internal/wire"
)

// helloBytes is a client hello of the given magic whose payload length
// prefix claims n bytes; payload is what follows it.
func helloBytes(magic uint32, n uint32, payload []byte) []byte {
	b := binary.LittleEndian.AppendUint32(nil, magic)
	b = append(b, 6) // the version wire speaks
	b = binary.LittleEndian.AppendUint32(b, n)
	return append(b, payload...)
}

// TestPreAuthReadsBounded: nothing a peer sends before it is a session —
// a hello of either protocol claiming a huge payload, or a session's first
// frame claiming a huge body — makes the server allocate what it claims. The
// server closes each connection, and its allocation stays under 1 MB.
func TestPreAuthReadsBounded(t *testing.T) {
	db := core.Open()
	sess := NewServer(ServerOptions{Tenant: func(string) (*core.Database, error) { return db, nil }})
	srv, err := cluster.NewServer(cluster.NewWorker(0), cluster.ServeOptions{Session: sess.ServeConn})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(ln) }()
	defer srv.Shutdown()

	const claim = 1 << 30
	hello := encodeHello("bounds", "", Interactive)
	frame := binary.LittleEndian.AppendUint32(nil, claim)
	frame = append(frame, make([]byte, 8)...) // request id
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for name, sent := range map[string][]byte{
		"session hello": helloBytes(wire.SessionMagic, claim, nil),
		"cluster hello": helloBytes(wire.ClusterMagic, claim, nil),
		"session frame": append(helloBytes(wire.SessionMagic, uint32(len(hello)), hello), frame...),
	} {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(sent); err != nil {
			t.Fatal(err)
		}
		_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := io.ReadAll(conn); err != nil {
			t.Errorf("%s claiming %d bytes: the server left the connection open (%v)", name, claim, err)
		}
		_ = conn.Close()
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Errorf("the server allocated %d bytes for three refused claims, want < 1 MB", grew)
	}
}

// TestShutdownClosesStalledReader: a client that sends a statement with a
// large result and never reads it leaves the statement blocked writing the
// response; a drain must still end, reporting itself unclean.
func TestShutdownClosesStalledReader(t *testing.T) {
	srv, addr := startServer(t, ServerOptions{Tenant: chunkedTenant(t, 1024, 64)})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	hello := encodeHello("stalled", "", Interactive)
	if _, err := conn.Write(helloBytes(wire.SessionMagic, uint32(len(hello)), hello)); err != nil {
		t.Fatal(err)
	}
	q := &request{Op: opExec, SQL: "filter(M, v >= 0)"}
	if err := wire.NewWriter(conn, 0, nil).Write(1, func(w *storage.FieldWriter) error { return writeRequest(w, q) }); err != nil {
		t.Fatal(err)
	}
	// The statement is blocked writing once its response frame is sized.
	deadline := time.Now().Add(10 * time.Second)
	for srv.MaxResponseBytes() < 1<<20 {
		if time.Now().After(deadline) {
			t.Fatal("the statement never reached its response")
		}
		time.Sleep(5 * time.Millisecond)
	}
	done := make(chan bool, 1)
	go func() { done <- srv.Shutdown(200 * time.Millisecond) }()
	select {
	case clean := <-done:
		if clean {
			t.Error("a drain that had to close a blocked statement's connection reported itself clean")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Shutdown hangs on a statement blocked writing to a client that does not read")
	}
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.Copy(io.Discard, conn); errors.Is(err, os.ErrDeadlineExceeded) {
		t.Error("the drain left the stalled client's connection open")
	}
}
