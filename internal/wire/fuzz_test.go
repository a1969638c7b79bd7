package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"testing"
)

// FuzzHello feeds arbitrary bytes to both hello readers — the server's
// Accept and the client's reply read — under both magics: neither panics,
// and neither allocates much beyond MaxHello whatever length the bytes
// claim.
func FuzzHello(f *testing.F) {
	for _, magic := range []uint32{ClusterMagic, SessionMagic} {
		after := func(b ...byte) []byte { return append(binary.LittleEndian.AppendUint32(nil, magic), b...) }
		f.Add(after(version, 4, 0, 0, 0, 'g', 'z', 'i', 'p'))    // a client hello
		f.Add(after(version, 0, 4, 0, 0, 0, 'n', 'o', 'n', 'e')) // an accepting reply
		f.Add(after(version, 1, 3, 0, 0, 0, 'b', 'a', 'd'))      // a rejection
		f.Add(after(version, 0, 0, 0, 0x40))                     // a payload claiming 1 GiB
		f.Add(after(version, 0, 0xff, 0xff, 0xff, 0xff))         // and 4 GiB
		f.Add(after(version+1, 0, 0, 0, 0, 0))                   // another version
		f.Add(after()[:3])                                       // a truncated magic
	}
	answer := func(p []byte) ([]byte, error) {
		if len(p)%2 == 1 {
			return nil, errors.New("odd payload")
		}
		return p, nil
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, magic := range []uint32{ClusterMagic, SessionMagic} {
			_ = Accept(io.Discard, bytes.NewReader(data), magic, answer)
			_, _ = hello(io.Discard, bytes.NewReader(data), magic, []byte("codec"))
		}
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<10 {
			t.Fatalf("%d bytes of hello made the readers allocate %d", len(data), grew)
		}
	})
}
