package experiments

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"scidb/internal/session"
)

// ServeSmoke is the CI smoke behind `scidb-bench -serve-smoke`: clients
// concurrent scripted sessions (handshake, DDL/DML, prepared statements,
// streamed fetch, ping) against a live server, each in its own namespace
// so tenants stay isolated.
func ServeSmoke(w io.Writer, addr string, clients int) error {
	var wg sync.WaitGroup
	var firstErr atomic.Value
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := smokeScript(addr, fmt.Sprintf("smoke-%d", i)); err != nil {
				firstErr.CompareAndSwap(nil, fmt.Errorf("client %d: %w", i, err))
			}
		}(i)
	}
	wg.Wait()
	if err, _ := firstErr.Load().(error); err != nil {
		return err
	}
	fmt.Fprintf(w, "serve-smoke: %d concurrent scripted clients passed against %s\n", clients, addr)
	return nil
}

// smokeScript is one client's full protocol walk.
func smokeScript(addr, ns string) error {
	c, err := session.Dial(addr, session.ClientOptions{Name: "smoke", Namespace: ns})
	if err != nil {
		return err
	}
	defer c.Close()
	if err := c.Ping(); err != nil {
		return err
	}
	if _, err := c.Exec("define array T (v = float) (x, y)"); err != nil {
		return err
	}
	if _, err := c.Exec("create array M as T [8, 8]"); err != nil {
		return err
	}
	for x := 1; x <= 4; x++ {
		for y := 1; y <= 4; y++ {
			if _, err := c.Exec(fmt.Sprintf("insert into M [%d, %d] values (%g)", x, y, float64(x+y-2))); err != nil {
				return err
			}
		}
	}
	n, err := c.Prepare("pick", "filter(M, v > $1)")
	if err != nil {
		return err
	}
	if n != 1 {
		return fmt.Errorf("prepared filter reports %d params, want 1", n)
	}
	res, err := c.ExecPrepared("pick", session.Float(2.5))
	if err != nil {
		return err
	}
	if res.Array == nil || res.Array.Count() == 0 {
		return fmt.Errorf("prepared filter returned no cells")
	}
	rows, err := c.Query("filter(M, v >= 0)")
	if err != nil {
		return err
	}
	a, err := rows.All()
	if err != nil {
		return err
	}
	if a.Count() != 16 {
		return fmt.Errorf("streamed filter returned %d cells, want 16", a.Count())
	}
	return nil
}
