package core

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"scidb/internal/array"
	"scidb/internal/ops"
	"scidb/internal/parser"
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
	// downstream ones consume them — but only once every one of them can
	// be, so a correction is re-derived whole or not at all. Reruns evaluate
	// plan nodes, which note their output's shape, so one ReDerive runs at a
	// time.
	db.reruns.mu.Lock()
	defer db.reruns.mu.Unlock()
	var fns []rerunFn
	var at [][]array.Coord
	for _, cmd := range db.log.Commands() {
		coords, ok := byArray[cmd.Output]
		if !ok {
			continue
		}
		fn := db.reruns.m[cmd.ID]
		if fn == nil {
			return nil, fmt.Errorf("core: command %d (%s) is not re-runnable in this session", cmd.ID, cmd.Text)
		}
		fns, at = append(fns, fn), append(at, coords)
	}
	for i, fn := range fns {
		if err := fn(at[i]); err != nil {
			return nil, err
		}
	}
	// Deterministic output order.
	sort.Slice(affected, func(i, j int) bool { return affected[i].String() < affected[j].String() })
	return affected, nil
}

// logged is one provenance command of a STORE and how ReDerive reruns it
// (nil for a lineage barrier).
type logged struct {
	cmd   *provenance.Command
	rerun rerunFn
}

// derivation returns the provenance commands of a STORE, upstream first,
// taken from the plan that ran it, and the name p's output has in the
// provenance graph. Each operator level gets one command under the name out;
// an intermediate level gets a synthetic name (T#1, T#1#1, …), so backward
// and forward traces walk the whole chain. Operators whose item-level
// lineage pattern is not modeled (joins, reshape, cross) are logged as
// lineage barriers with a descriptive text.
func (db *Database) derivation(ctx context.Context, p *plan, out string, stored bool) ([]logged, string, error) {
	if p.ref != "" {
		return nil, p.ref, nil
	}
	cmd := &provenance.Command{
		Kind: p.kind, Output: out, Time: db.now(),
		Text: parser.Format(&parser.Store{Expr: p.expr, Target: out}),
	}
	if p.kind == provenance.KindLoad {
		cmd.Text = fmt.Sprintf("store %T into %s (lineage barrier)", p.expr, out)
		return []logged{{cmd: cmd}}, out, nil
	}
	in := p.in[0] // the operand as the statement names it
	if p.folded != nil {
		in = p.folded
	}
	cmds, name, err := db.derivation(ctx, in, out+"#1", false)
	if err != nil {
		return nil, "", err
	}
	cmd.Input = name
	if p.kind != provenance.KindElementwise {
		shape, err := db.shape(ctx, in)
		if err != nil {
			return nil, "", err
		}
		if p.kind == provenance.KindSubsample {
			cmd.Sel, err = ops.Selection(shape, p.conds)
			if err != nil {
				return nil, "", err
			}
		} else {
			cmd.InBounds, cmd.InDims, cmd.Strides = shape.Bounds(), len(shape.Schema.Dims), p.fold.Strides
			for _, g := range p.fold.Dims {
				if d := shape.Schema.DimIndex(g); d >= 0 {
					cmd.GroupDims = append(cmd.GroupDims, d)
				}
			}
		}
	}
	return append(cmds, logged{cmd, db.rerun(p, in, out, stored)}), out, nil
}

// shape returns an empty array with p's output schema and bounds as
// execution materialised them. Below a pushed fold nothing ran: a read's
// bounded dimensions are their declared High, which is what Bounds gives
// them; a filter keeps its input's bounds, and a subsample's are its
// selection's. Only an unbounded dimension there costs a read, through p's
// own leaf under the statement's context.
func (db *Database) shape(ctx context.Context, p *plan) (*array.Array, error) {
	switch {
	case p.bounds != nil:
		return shaped(p.sch, p.bounds)
	case p.ref != "":
		for _, d := range p.src.schema().Dims {
			if d.High == array.Unbounded {
				a, err := p.read(ctx)
				if err != nil {
					return nil, err
				}
				return shaped(a.Schema, a.Bounds())
			}
		}
		return array.New(p.src.schema())
	case p.kind == provenance.KindSubsample:
		in, err := db.shape(ctx, p.in[0])
		if err != nil {
			return nil, err
		}
		sel, err := ops.Selection(in, p.conds)
		if err != nil {
			return nil, err
		}
		b := make([]int64, len(sel))
		for d := range sel {
			b[d] = max(int64(len(sel[d])), 1)
		}
		return shaped(in.Schema, b)
	}
	return db.shape(ctx, p.in[0])
}

// shaped is an empty array of schema s whose dimensions end at b: bounded
// there, and still unbounded where b is 0 (an unbounded dimension holding
// nothing).
func shaped(s *array.Schema, b []int64) (*array.Array, error) {
	s = s.Clone()
	for d := range s.Dims {
		if b[d] > 0 {
			s.Dims[d].High = b[d]
		}
	}
	return array.New(s)
}

// rerun is how ReDerive recomputes p's command at the given output
// coordinates: it takes p's input by evaluating the input's plan subtree
// again, and installs the result in the stored target. A command whose output was
// never stored installs nothing: the command consuming it recomputes it.
func (db *Database) rerun(p, in *plan, target string, stored bool) rerunFn {
	if !stored {
		return func([]array.Coord) error { return nil }
	}
	return func(coords []array.Coord) error {
		ctx := context.Background()
		src, err := db.eval(ctx, in)
		if err != nil {
			return err
		}
		out, err := db.Array(target)
		if err != nil {
			return err
		}
		var res *array.Array
		switch p.kind {
		case provenance.KindElementwise:
			// The affected input cells at their own coordinates, through the
			// operator: its output cell at c depends on the input cell at c
			// alone.
			sub := array.MustNew(src.Schema)
			for _, c := range coords {
				if cell, ok := src.At(c); ok {
					if err := sub.Set(c, cell); err != nil {
						return err
					}
				}
			}
			res, err = p.run(ctx, []*array.Array{sub})
		case provenance.KindSubsample:
			res, err = p.run(ctx, []*array.Array{src})
		default:
			// Fold again only the box around the source cells of the groups
			// to recompute: their blocks along the group dimensions,
			// everything along the rest. Groups cut by the box are not read.
			fold := *p.fold
			box := array.WholeBox(src.Schema)
			for i := 0; i < max(len(fold.Dims), len(fold.Strides)); i++ {
				d, stride := i, int64(1)
				if fold.Strides != nil {
					stride = fold.Strides[i]
				} else if d = src.Schema.DimIndex(fold.Dims[i]); d < 0 {
					return fmt.Errorf("core: %s has no dimension %q to re-derive over", src.Schema.Name, fold.Dims[i])
				}
				lo, hi := array.MaxCoord, int64(1)
				for _, c := range coords {
					lo, hi = min(lo, c[i]), max(hi, c[i])
				}
				box.Lo[d], box.Hi[d] = (lo-1)*stride+1, hi*stride
			}
			res, err = ops.FoldArray(ctx, src, box, fold, db.reg)
		}
		if err != nil {
			return err
		}
		return install(out, res, coords)
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
