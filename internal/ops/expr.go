// Package ops implements the SciDB operator suite of §2.2: structural
// operators (Subsample, Reshape, Sjoin, add/remove dimension, Concat,
// CrossProduct) that create arrays purely from the structure of their
// inputs, and content-dependent operators (Filter, Aggregate, Cjoin, Apply,
// Project) plus the science regridding operator of §2.3. All operators are
// user-extendable through the udf registry.
package ops

import (
	"fmt"
	"strings"

	"scidb/internal/array"
	"scidb/internal/udf"
	"scidb/internal/uncertain"
)

// Expr is an expression over one cell, used by Filter predicates, Apply
// computations, and Cjoin predicates (where the cell is the concatenated
// one). Its node types are this package's own, a closed set: an operator
// resolves the Refs in an expression against its input's schema on entry
// (resolve) and compiles the result per chunk (compile).
type Expr interface {
	String() string
	node() // unexported: no type outside this package is an Expr
}

// Const is a literal value.
type Const struct{ V array.Value }

// String implements Expr.
func (e Const) String() string { return e.V.String() }

// Ref is an identifier as a query writes it, "name" or "Q.name", before an
// operator resolves it to an attribute or a dimension of its input.
type Ref struct{ Name string }

// String implements Expr.
func (e Ref) String() string { return e.Name }

// AttrRef references an attribute of the current cell by name.
type AttrRef struct{ Name string }

// String implements Expr.
func (e AttrRef) String() string { return e.Name }

// DimRef references a dimension value of the current cell's coordinate.
type DimRef struct{ Name string }

// String implements Expr.
func (e DimRef) String() string { return e.Name }

// BinOp identifies a binary operator.
type BinOp string

// Binary operators. Arithmetic on uncertain values performs the §2.13
// error-bar propagation.
const (
	OpAdd BinOp = "+"
	OpSub BinOp = "-"
	OpMul BinOp = "*"
	OpDiv BinOp = "/"
	OpMod BinOp = "%"
	OpEq  BinOp = "="
	OpNe  BinOp = "!="
	OpLt  BinOp = "<"
	OpLe  BinOp = "<="
	OpGt  BinOp = ">"
	OpGe  BinOp = ">="
	OpAnd BinOp = "and"
	OpOr  BinOp = "or"
)

// Binary applies a binary operator to two subexpressions.
type Binary struct {
	Op   BinOp
	L, R Expr
}

// String implements Expr.
func (e Binary) String() string {
	return fmt.Sprintf("(%s %s %s)", e.L.String(), e.Op, e.R.String())
}

func evalArith(op BinOp, l, r array.Value) (array.Value, error) {
	if l.Null || r.Null {
		return array.NullValue(array.TFloat64), nil
	}
	// Integer arithmetic stays exact integer when both sides are exact ints.
	if l.Type == array.TInt64 && r.Type == array.TInt64 && l.Sigma == 0 && r.Sigma == 0 {
		a, b := l.Int, r.Int
		switch op {
		case OpAdd:
			return array.Int64(a + b), nil
		case OpSub:
			return array.Int64(a - b), nil
		case OpMul:
			return array.Int64(a * b), nil
		case OpDiv:
			if b == 0 {
				return array.NullValue(array.TInt64), nil
			}
			return array.Int64(a / b), nil
		case OpMod:
			if b == 0 {
				return array.NullValue(array.TInt64), nil
			}
			return array.Int64(a % b), nil
		}
	}
	if op == OpMod {
		return array.Value{}, fmt.Errorf("ops: %% requires integer operands")
	}
	ul := uncertain.New(l.AsFloat(), l.Sigma)
	ur := uncertain.New(r.AsFloat(), r.Sigma)
	var out uncertain.Value
	switch op {
	case OpAdd:
		out = ul.Add(ur)
	case OpSub:
		out = ul.Sub(ur)
	case OpMul:
		out = ul.Mul(ur)
	case OpDiv:
		out = ul.Div(ur)
	}
	return array.UncertainFloat(out.Mean, out.Sigma), nil
}

func evalCmp(op BinOp, l, r array.Value) array.Value {
	if l.Null || r.Null {
		return array.NullValue(array.TBool)
	}
	c := l.Compare(r)
	var b bool
	switch op {
	case OpEq:
		b = l.Equal(r)
	case OpNe:
		b = !l.Equal(r)
	case OpLt:
		b = c < 0
	case OpLe:
		b = c <= 0
	case OpGt:
		b = c > 0
	case OpGe:
		b = c >= 0
	}
	return array.Bool64(b)
}

func evalLogic(op BinOp, l, r array.Value) array.Value {
	// Three-valued logic: NULL and false = false, NULL or true = true.
	lt, ln := l.Bool && !l.Null, l.Null
	rt, rn := r.Bool && !r.Null, r.Null
	switch op {
	case OpAnd:
		if !lt && !ln || !rt && !rn {
			return array.Bool64(false)
		}
		if ln || rn {
			return array.NullValue(array.TBool)
		}
		return array.Bool64(true)
	case OpOr:
		if lt || rt {
			return array.Bool64(true)
		}
		if ln || rn {
			return array.NullValue(array.TBool)
		}
		return array.Bool64(false)
	}
	return array.NullValue(array.TBool)
}

// Not negates a boolean expression.
type Not struct{ E Expr }

// String implements Expr.
func (e Not) String() string { return "not " + e.E.String() }

// Call invokes a registered UDF with the evaluated arguments, taking the
// UDF's first output value.
type Call struct {
	Name string
	Args []Expr
}

// String implements Expr.
func (e Call) String() string {
	s := e.Name + "("
	for i, a := range e.Args {
		if i > 0 {
			s += ", "
		}
		s += a.String()
	}
	return s + ")"
}

func (Const) node()   {}
func (Ref) node()     {}
func (AttrRef) node() {}
func (DimRef) node()  {}
func (Binary) node()  {}
func (Not) node()     {}
func (Call) node()    {}

// resolve rewrites the Refs in e into AttrRef and DimRef nodes against s. It
// is the one name rule, which every operator applies on entry: "Q.name" is
// the attribute Q_name (a join's name for a colliding right-side attribute),
// then the attribute name, then the dimension name; a plain name is an
// attribute, then a dimension. A Ref that names nothing stays, and compiles
// to an evaluator that reports it.
func resolve(e Expr, s *array.Schema) Expr {
	switch n := e.(type) {
	case Ref:
		name := n.Name
		if q, rest, ok := strings.Cut(name, "."); ok {
			if s.AttrIndex(q+"_"+rest) >= 0 {
				return AttrRef{Name: q + "_" + rest}
			}
			name = rest
		}
		if s.AttrIndex(name) >= 0 {
			return AttrRef{Name: name}
		}
		if s.DimIndex(name) >= 0 {
			return DimRef{Name: name}
		}
	case Binary:
		n.L, n.R = resolve(n.L, s), resolve(n.R, s)
		return n
	case Not:
		n.E = resolve(n.E, s)
		return n
	case Call:
		args := make([]Expr, len(n.Args))
		for i, a := range n.Args {
			args[i] = resolve(a, s)
		}
		return Call{Name: n.Name, Args: args}
	}
	return e
}

// colEval is a compiled expression over one chunk: it reads attribute
// vectors and null bitmaps in place, by slot index and coordinate.
type colEval func(idx int64, c array.Coord) (array.Value, error)

// errEval evaluates every cell to err. An expression that cannot run
// compiles to it, so the error surfaces at the first cell evaluated and an
// empty input does not fail.
func errEval(err error) colEval {
	return func(int64, array.Coord) (array.Value, error) { return array.Value{}, err }
}

// colSigma is the error bar of col's value at index k.
func colSigma(col *array.Column, k int64) float64 {
	switch {
	case col.HasShared:
		return col.SharedSigma
	case col.Sigma != nil:
		return col.Sigma[k]
	}
	return 0
}

// compile compiles e, resolved against s, over the columns of ch, a chunk
// of s; reg supplies the UDFs of Call nodes, each looked up once here. The
// leaves yield what Column.Get does — int, float and bool columns through
// typed readers — and the operators are evalArith, evalCmp and evalLogic.
func compile(e Expr, s *array.Schema, ch *array.Chunk, reg *udf.Registry) colEval {
	switch n := e.(type) {
	case Const:
		v := n.V
		return func(int64, array.Coord) (array.Value, error) { return v, nil }
	case Ref:
		if strings.Contains(n.Name, ".") {
			return errEval(fmt.Errorf("ops: cannot resolve %s", n.Name))
		}
		return errEval(fmt.Errorf("ops: unknown attribute or dimension %q", n.Name))
	case AttrRef:
		ai := s.AttrIndex(n.Name)
		if ai < 0 {
			return errEval(fmt.Errorf("ops: unknown attribute %q", n.Name))
		}
		col := ch.Cols[ai]
		switch col.Type {
		case array.TInt64:
			return func(idx int64, _ array.Coord) (array.Value, error) {
				if col.Nulls.Get(idx) {
					return array.Value{Type: array.TInt64, Null: true}, nil
				}
				k := col.Index(idx)
				return array.Value{Type: array.TInt64, Int: col.Ints[k], Sigma: colSigma(col, k)}, nil
			}
		case array.TFloat64:
			return func(idx int64, _ array.Coord) (array.Value, error) {
				if col.Nulls.Get(idx) {
					return array.Value{Type: array.TFloat64, Null: true}, nil
				}
				k := col.Index(idx)
				return array.Value{Type: array.TFloat64, Float: col.Floats[k], Sigma: colSigma(col, k)}, nil
			}
		case array.TBool:
			return func(idx int64, _ array.Coord) (array.Value, error) {
				if col.Nulls.Get(idx) {
					return array.Value{Type: array.TBool, Null: true}, nil
				}
				k := col.Index(idx)
				return array.Value{Type: array.TBool, Bool: col.Bools[k], Sigma: colSigma(col, k)}, nil
			}
		}
		return func(idx int64, _ array.Coord) (array.Value, error) { return col.Get(idx), nil }
	case DimRef:
		d := s.DimIndex(n.Name)
		if d < 0 {
			return errEval(fmt.Errorf("ops: unknown dimension %q", n.Name))
		}
		return func(_ int64, c array.Coord) (array.Value, error) { return array.Int64(c[d]), nil }
	case Binary:
		l, r := compile(n.L, s, ch, reg), compile(n.R, s, ch, reg)
		op := n.Op
		switch op {
		case OpAdd, OpSub, OpMul, OpDiv, OpMod:
			return func(idx int64, c array.Coord) (array.Value, error) {
				lv, err := l(idx, c)
				if err != nil {
					return array.Value{}, err
				}
				rv, err := r(idx, c)
				if err != nil {
					return array.Value{}, err
				}
				return evalArith(op, lv, rv)
			}
		case OpEq, OpNe, OpLt, OpLe, OpGt, OpGe:
			return func(idx int64, c array.Coord) (array.Value, error) {
				lv, err := l(idx, c)
				if err != nil {
					return array.Value{}, err
				}
				rv, err := r(idx, c)
				if err != nil {
					return array.Value{}, err
				}
				return evalCmp(op, lv, rv), nil
			}
		case OpAnd, OpOr:
			return func(idx int64, c array.Coord) (array.Value, error) {
				lv, err := l(idx, c)
				if err != nil {
					return array.Value{}, err
				}
				rv, err := r(idx, c)
				if err != nil {
					return array.Value{}, err
				}
				return evalLogic(op, lv, rv), nil
			}
		}
		return errEval(fmt.Errorf("ops: unknown operator %q", op))
	case Not:
		inner := compile(n.E, s, ch, reg)
		return func(idx int64, c array.Coord) (array.Value, error) {
			v, err := inner(idx, c)
			if err != nil || v.Null {
				return v, err
			}
			return array.Bool64(!v.Bool), nil
		}
	case Call:
		return compileCall(n, s, ch, reg)
	}
	return errEval(fmt.Errorf("ops: unsupported expression %T", e))
}

// compileCall invokes the UDF with the evaluated arguments, taking its
// first output value. A missing registry or UDF fails at the first cell.
func compileCall(n Call, s *array.Schema, ch *array.Chunk, reg *udf.Registry) colEval {
	if reg == nil {
		return errEval(fmt.Errorf("ops: no UDF registry for call to %s", n.Name))
	}
	f, err := reg.Func(n.Name)
	if err != nil {
		return errEval(err)
	}
	args := make([]colEval, len(n.Args))
	for i, a := range n.Args {
		args[i] = compile(a, s, ch, reg)
	}
	return func(idx int64, c array.Coord) (array.Value, error) {
		// A fresh slice per call: the UDF body may keep its arguments.
		vals := make([]array.Value, len(args))
		for i, a := range args {
			var err error
			if vals[i], err = a(idx, c); err != nil {
				return array.Value{}, err
			}
		}
		out, err := f.Call(vals)
		if err != nil {
			return array.Value{}, err
		}
		if len(out) == 0 {
			return array.NullValue(array.TFloat64), nil
		}
		return out[0], nil
	}
}
