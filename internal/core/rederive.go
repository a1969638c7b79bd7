package core

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"scidb/internal/array"
	"scidb/internal/ops"
	"scidb/internal/provenance"
)

// rerunFn recomputes the given output coordinates of one logged command
// from its input array's current contents — the paper's "rerun (a portion
// of) the derivation to generate a replacement value or values" (§2.12).
type rerunFn func(outCoords []array.Coord) error

// reruns holds the re-executable closures for logged commands, keyed by
// command id. (Closures cannot persist across processes; a reloaded log
// supports tracing but not re-derivation, which matches the paper's
// split between the durable log and the live executor.)
type reruns struct {
	mu sync.Mutex
	m  map[int64]rerunFn
}

func newReruns() *reruns { return &reruns{m: map[int64]rerunFn{}} }

func (r *reruns) set(id int64, fn rerunFn) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.m[id] = fn
}

func (r *reruns) get(id int64) rerunFn {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.m[id]
}

// ReDerive propagates a correction: after the cell at ref has been given a
// new value, every downstream data element whose value depends on it is
// recomputed, command by command in log order, touching only the affected
// coordinates (the qualified re-run of §2.12). It returns the downstream
// elements that were recomputed.
func (db *Database) ReDerive(ref provenance.CellRef) ([]provenance.CellRef, error) {
	affected, err := db.log.TraceForward(ref)
	if err != nil {
		return nil, err
	}
	// Group affected coords by output array.
	byArray := map[string][]array.Coord{}
	for _, a := range affected {
		byArray[a.Array] = append(byArray[a.Array], a.Coord)
	}
	// Re-run commands in log order so upstream corrections land before
	// downstream ones consume them.
	for _, cmd := range db.log.Commands() {
		coords, ok := byArray[cmd.Output]
		if !ok {
			continue
		}
		fn := db.reruns.get(cmd.ID)
		if fn == nil {
			return nil, fmt.Errorf("core: command %d (%s) is not re-runnable in this session", cmd.ID, cmd.Text)
		}
		if err := fn(coords); err != nil {
			return nil, err
		}
	}
	// Deterministic output order.
	sort.Slice(affected, func(i, j int) bool { return affected[i].String() < affected[j].String() })
	return affected, nil
}

// registerRerun builds and stores the recompute closure for a just-logged
// derivation command.
func (db *Database) registerRerun(cmd *provenance.Command, node interface{}) {
	inName, outName := cmd.Input, cmd.Output
	resolve := func() (*array.Array, *array.Array, error) {
		in, err := db.scanAll(context.Background(), inName)
		if err != nil {
			return nil, nil, err
		}
		out, err := db.Array(outName)
		if err != nil {
			return nil, nil, err
		}
		return in, out, nil
	}
	switch n := node.(type) {
	case cellRerun:
		db.reruns.set(cmd.ID, func(coords []array.Coord) error {
			in, out, err := resolve()
			if err != nil {
				return err
			}
			// The affected input cells at their own coordinates, through the
			// logged operator.
			sub, err := array.New(in.Schema)
			if err != nil {
				return err
			}
			for _, c := range coords {
				if cell, ok := in.At(c); ok {
					if err := sub.Set(c, cell); err != nil {
						return err
					}
				}
			}
			res, err := n(context.Background(), sub)
			if err != nil {
				return err
			}
			return install(out, res, coords)
		})
	case ops.FoldSpec:
		db.reruns.set(cmd.ID, func(coords []array.Coord) error {
			in, out, err := resolve()
			if err != nil {
				return err
			}
			// Fold again only the box around the source cells of the groups
			// to recompute: their blocks along the group dimensions,
			// everything along the rest. Groups cut by the box are not read.
			box := array.WholeBox(in.Schema)
			for i := 0; i < max(len(n.Dims), len(n.Strides)); i++ {
				d, stride := i, int64(1)
				if n.Strides != nil {
					stride = n.Strides[i]
				} else if d = in.Schema.DimIndex(n.Dims[i]); d < 0 {
					return fmt.Errorf("core: %s has no dimension %q to re-derive over", in.Schema.Name, n.Dims[i])
				}
				lo, hi := array.MaxCoord, int64(1)
				for _, c := range coords {
					lo, hi = min(lo, c[i]), max(hi, c[i])
				}
				box.Lo[d], box.Hi[d] = (lo-1)*stride+1, hi*stride
			}
			res, err := ops.FoldArray(context.Background(), in, box, n, db.reg)
			if err != nil {
				return err
			}
			return install(out, res, coords)
		})
	case subsampleRerun:
		db.reruns.set(cmd.ID, func(coords []array.Coord) error {
			in, out, err := resolve()
			if err != nil {
				return err
			}
			for _, c := range coords {
				src := make(array.Coord, len(c))
				okAll := true
				for d := range c {
					idx := c[d] - 1
					if idx < 0 || idx >= int64(len(n.sel[d])) {
						okAll = false
						break
					}
					src[d] = n.sel[d][idx]
				}
				if !okAll {
					continue
				}
				cell, ok := in.At(src)
				if !ok {
					out.Erase(c)
					continue
				}
				if err := out.Set(c.Clone(), cell); err != nil {
					return err
				}
			}
			return nil
		})
	}
}

// install copies res's cell at each of coords into out, erasing out's cell
// where res has none.
func install(out, res *array.Array, coords []array.Coord) error {
	for _, c := range coords {
		cell, ok := res.At(c)
		if !ok {
			out.Erase(c)
		} else if err := out.Set(c.Clone(), cell); err != nil {
			return err
		}
	}
	return nil
}

// Parameter carriers for registerRerun.
type (
	// cellRerun runs an element-wise command's operator (filter, apply,
	// project): its output cell at c depends on the input cell at c alone.
	cellRerun      func(ctx context.Context, in *array.Array) (*array.Array, error)
	subsampleRerun struct{ sel [][]int64 }
)
