package ops

import (
	"context"

	"scidb/internal/array"
	"scidb/internal/obs"
)

// spanChunks records an operator's input footprint — chunk count and
// present cells — on the query's current span; how the pool ran the tasks
// is recorded by exec.Pool.Map (pool_serial_runs / pool_parallel_runs).
// Untraced queries pay one context lookup. Callers must invoke it from the
// driver goroutine, before the fan-out (CellsPresent trims bitmaps in
// place).
func spanChunks(ctx context.Context, work []*array.Chunk) {
	span := obs.SpanFromContext(ctx)
	if span == nil {
		return
	}
	var cells int64
	for _, ch := range work {
		cells += ch.CellsPresent()
	}
	span.Add("chunks", int64(len(work)))
	span.Add("cells_in", cells)
}
