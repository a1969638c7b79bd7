package udf

import (
	"cmp"
	"fmt"
	"math"

	"scidb/internal/array"
	"scidb/internal/uncertain"
)

// Built-in aggregates. Each is uncertainty-aware: when inputs carry error
// bars the executor propagates them per §2.13 (sum/avg via root-sum-square;
// min/max pick the winning cell's sigma).

type sumAgg struct {
	sum    uncertain.Value
	seen   bool
	isInt  bool
	intSum int64
}

func (a *sumAgg) Step(v array.Value) {
	if v.Null {
		return
	}
	if !a.seen {
		a.isInt = v.Type == array.TInt64 && v.Sigma == 0
	}
	if v.Type != array.TInt64 || v.Sigma != 0 {
		a.isInt = false
	}
	a.seen = true
	a.intSum += v.AsInt()
	a.sum = a.sum.Add(uncertain.New(v.AsFloat(), v.Sigma))
}

func (*sumAgg) IgnoresNulls() {}

func (a *sumAgg) Merge(o Aggregate) error {
	b, ok := o.(*sumAgg)
	if !ok {
		return fmt.Errorf("udf: cannot merge %T into sum", o)
	}
	if !b.seen {
		return nil
	}
	if !a.seen {
		*a = *b
		return nil
	}
	a.isInt = a.isInt && b.isInt
	a.intSum += b.intSum
	a.sum = a.sum.Add(b.sum)
	return nil
}

func (a *sumAgg) Result() array.Value {
	if !a.seen {
		return array.NullValue(array.TFloat64)
	}
	if a.isInt {
		return array.Int64(a.intSum)
	}
	return array.UncertainFloat(a.sum.Mean, a.sum.Sigma)
}

type countAgg struct{ n int64 }

func (a *countAgg) Step(v array.Value) {
	if !v.Null {
		a.n++
	}
}
func (a *countAgg) Result() array.Value { return array.Int64(a.n) }

func (*countAgg) IgnoresNulls() {}

func (a *countAgg) Merge(o Aggregate) error {
	b, ok := o.(*countAgg)
	if !ok {
		return fmt.Errorf("udf: cannot merge %T into count", o)
	}
	a.n += b.n
	return nil
}

type avgAgg struct {
	sum sumAgg
	n   int64
}

func (a *avgAgg) Step(v array.Value) {
	if v.Null {
		return
	}
	a.sum.Step(v)
	a.n++
}

func (*avgAgg) IgnoresNulls() {}

func (a *avgAgg) Merge(o Aggregate) error {
	b, ok := o.(*avgAgg)
	if !ok {
		return fmt.Errorf("udf: cannot merge %T into avg", o)
	}
	if err := a.sum.Merge(&b.sum); err != nil {
		return err
	}
	a.n += b.n
	return nil
}

func (a *avgAgg) Result() array.Value {
	if a.n == 0 {
		return array.NullValue(array.TFloat64)
	}
	return array.UncertainFloat(a.sum.sum.Mean/float64(a.n), a.sum.sum.Sigma/float64(a.n))
}

// extremeAgg is min and max. NaNs are skipped like NULLs (which is how
// zone-map ranges treat them), so the answer does not depend on where a NaN
// sits; a group whose non-NULL values are all NaN yields NaN.
type extremeAgg struct {
	max  bool
	best array.Value
	seen bool
}

// beats reports whether v replaces the best so far: it is strictly better —
// the first of equals stays, so its sigma wins, and a NaN (which Compare
// ties with everything) never displaces a number — or the best so far is
// itself a NaN. int64 pairs compare exactly, not through float64.
func (a *extremeAgg) beats(v array.Value) bool {
	if !a.seen || (a.best.Type == array.TFloat64 && math.IsNaN(a.best.Float)) {
		return true
	}
	c := v.Compare(a.best)
	if v.Type == array.TInt64 && a.best.Type == array.TInt64 {
		c = cmp.Compare(v.Int, a.best.Int)
	}
	if a.max {
		return c > 0
	}
	return c < 0
}

func (a *extremeAgg) Step(v array.Value) {
	if v.Null {
		return
	}
	if a.beats(v) {
		a.best = v
	}
	a.seen = true
}

func (*extremeAgg) IgnoresNulls() {}

// Merge keeps the receiver's winner on ties, matching Step's first-seen-wins
// when partials are merged in chunk order.
func (a *extremeAgg) Merge(o Aggregate) error {
	b, ok := o.(*extremeAgg)
	if !ok || b.max != a.max {
		return fmt.Errorf("udf: cannot merge %T into min/max", o)
	}
	if b.seen {
		a.Step(b.best)
	}
	return nil
}

func (a *extremeAgg) Result() array.Value {
	if !a.seen {
		return array.NullValue(array.TFloat64)
	}
	return a.best
}

// stdevAgg computes the sample standard deviation with Welford's algorithm.
type stdevAgg struct {
	n    int64
	mean float64
	m2   float64
}

func (a *stdevAgg) Step(v array.Value) {
	if v.Null {
		return
	}
	a.n++
	x := v.AsFloat()
	d := x - a.mean
	a.mean += d / float64(a.n)
	a.m2 += d * (x - a.mean)
}

func (*stdevAgg) IgnoresNulls() {}

// Merge combines two Welford states with the Chan et al. pairwise update.
// The result is algebraically the same variance but not bit-identical to a
// single Welford pass over the same values.
func (a *stdevAgg) Merge(o Aggregate) error {
	b, ok := o.(*stdevAgg)
	if !ok {
		return fmt.Errorf("udf: cannot merge %T into stdev", o)
	}
	if b.n == 0 {
		return nil
	}
	if a.n == 0 {
		*a = *b
		return nil
	}
	nA, nB := float64(a.n), float64(b.n)
	d := b.mean - a.mean
	a.n += b.n
	a.mean += d * nB / (nA + nB)
	a.m2 += b.m2 + d*d*nA*nB/(nA+nB)
	return nil
}

func (a *stdevAgg) Result() array.Value {
	if a.n < 2 {
		return array.NullValue(array.TFloat64)
	}
	return array.Float64(math.Sqrt(a.m2 / float64(a.n-1)))
}

func registerBuiltinAggregates(r *Registry) {
	r.RegisterAggregate("sum", func() Aggregate { return &sumAgg{} })
	r.RegisterAggregate("count", func() Aggregate { return &countAgg{} })
	r.RegisterAggregate("avg", func() Aggregate { return &avgAgg{} })
	r.RegisterAggregate("min", func() Aggregate { return &extremeAgg{} })
	r.RegisterAggregate("max", func() Aggregate { return &extremeAgg{max: true} })
	r.RegisterAggregate("stdev", func() Aggregate { return &stdevAgg{} })
}
