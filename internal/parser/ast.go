// Package parser implements SciDB's command representation (§2.4): a
// parse-tree format for commands, produced by the AQL text front end and by
// the fluent Go language binding alike. "There will be multiple language
// bindings. These will map from the language-specific representation to
// this parse tree format." The executor (internal/plan) consumes only the
// tree, never the text.
package parser

import "fmt"

// Stmt is any parsed statement.
type Stmt interface{ stmtNode() }

// AttrDef is one attribute in a DEFINE ARRAY statement.
type AttrDef struct {
	Name      string
	Type      string
	Uncertain bool
}

// DefineArray is
//
//	DEFINE [UPDATABLE] ARRAY Remote (s1 = float, ...) [I, J]
type DefineArray struct {
	Name      string
	Updatable bool
	Attrs     []AttrDef
	DimNames  []string
}

func (*DefineArray) stmtNode() {}

// DefineFunction is the paper's UDF declaration:
//
//	DEFINE FUNCTION Scale10 (integer I, integer J)
//	    RETURNS (integer K, integer L) 'go:Scale10'
//
// The handle replaces the paper's object-code file_handle: "go:<name>"
// binds the declared signature to a Go body registered under <name>
// (see DESIGN.md's substitution table).
type DefineFunction struct {
	Name   string
	In     []ParamDef
	Out    []ParamDef
	Handle string
}

func (*DefineFunction) stmtNode() {}

// ParamDef is one typed parameter of a function signature.
type ParamDef struct {
	Type string
	Name string
}

// CreateArray is
//
//	CREATE ARRAY My_remote AS Remote [1024, 1024]
//
// Bounds entries of -1 mean "*" (unbounded).
type CreateArray struct {
	Name     string
	TypeName string
	Bounds   []int64
}

func (*CreateArray) stmtNode() {}

// CreateFromFile is
//
//	CREATE ARRAY Sky FROM FILE '/data/sky.csv' USING csv
//
// It registers an external file as a first-class array without a load step
// (§2.9): the schema comes from the file itself, and on a cluster every
// worker reads its slab of the file through the adaptor at the first query.
type CreateFromFile struct {
	Name    string
	Path    string
	Adaptor string
}

func (*CreateFromFile) stmtNode() {}

// Enhance is "ENHANCE My_remote WITH Scale10".
type Enhance struct {
	Array string
	Func  string
}

func (*Enhance) stmtNode() {}

// Shape is "SHAPE My_remote WITH circle(5, 5, 3)".
type Shape struct {
	Array string
	Func  string
	Args  []int64
}

func (*Shape) stmtNode() {}

// Insert is "INSERT INTO A [1, 2] VALUES (3.5, 'x')".
type Insert struct {
	Array  string
	Coord  []int64
	Values []Scalar
}

func (*Insert) stmtNode() {}

// Delete is "DELETE FROM A [1, 2]".
type Delete struct {
	Array string
	Coord []int64
}

func (*Delete) stmtNode() {}

// Attach is "ATTACH A FROM 'path' USING ncl": registers an external file
// for in-situ querying (§2.9) — no load step; the first query reads the file
// into a store, which every query then reads.
type Attach struct {
	Array   string
	Path    string
	Adaptor string
}

func (*Attach) stmtNode() {}

// Load is "LOAD A FROM 'path' USING csv".
type Load struct {
	Array   string
	Path    string
	Adaptor string
}

func (*Load) stmtNode() {}

// Store is "STORE <array expr> INTO name".
type Store struct {
	Expr   ArrayExpr
	Target string
}

func (*Store) stmtNode() {}

// Query evaluates and returns an array expression.
type Query struct {
	Expr ArrayExpr
}

func (*Query) stmtNode() {}

// Explain is "EXPLAIN [ANALYZE] <stmt>". Plain EXPLAIN prints the plan
// tree without running the statement; EXPLAIN ANALYZE runs it under a
// trace and prints the per-operator profile (with per-node breakdown on a
// cluster).
type Explain struct {
	Analyze bool
	Stmt    Stmt
}

func (*Explain) stmtNode() {}

// CreateVersion is "CREATE VERSION v FROM a [PARENT p]".
type CreateVersion struct {
	Name   string
	Array  string
	Parent string
}

func (*CreateVersion) stmtNode() {}

// ShowQueries is "SHOW QUERIES": the live query registry rendered as the
// sys.queries system array.
type ShowQueries struct{}

func (*ShowQueries) stmtNode() {}

// CancelQuery is "CANCEL QUERY <id>": fire the registered cancel func of
// the statement with that registry id (any session, any transport).
type CancelQuery struct {
	ID int64
}

func (*CancelQuery) stmtNode() {}

// Scalar is a literal, or a statement parameter placeholder ($1, $2, ...)
// awaiting a value at bind time (prepared statements parse once and bind
// per execution — see Bind).
type Scalar struct {
	IsString bool
	IsNull   bool
	Str      string
	Num      float64
	IsInt    bool
	Int      int64
	Sigma    float64 // error bar: 3.5 +- 0.2

	// IsParam marks a $N placeholder; ParamIdx is its 1-based index.
	IsParam  bool
	ParamIdx int
}

// --- array expressions ----------------------------------------------------

// ArrayExpr is a node producing an array.
type ArrayExpr interface{ arrayNode() }

// Ref names a stored array.
type Ref struct{ Name string }

func (*Ref) arrayNode() {}

// SubsampleExpr is SUBSAMPLE(in, <dim conjunction>).
type SubsampleExpr struct {
	In   ArrayExpr
	Pred []DimCond
}

func (*SubsampleExpr) arrayNode() {}

// DimCond is one conjunct: Dim Op Value, or a named predicate (even/odd).
type DimCond struct {
	Dim   string
	Op    string // "<", "<=", ">", ">=", "=", "!=", "even", "odd"
	Value int64
}

// FilterExpr is FILTER(in, pred).
type FilterExpr struct {
	In   ArrayExpr
	Pred ValExpr
}

func (*FilterExpr) arrayNode() {}

// AggSpec is one aggregate call, e.g. SUM(*) or AVG(v) AS mean.
type AggSpec struct {
	Func string
	Attr string // "*" for the first attribute
	As   string
}

// AggregateExpr is AGGREGATE(in, {dims}, aggs...).
type AggregateExpr struct {
	In        ArrayExpr
	GroupDims []string
	Aggs      []AggSpec
}

func (*AggregateExpr) arrayNode() {}

// JoinPair is one "A.I = B.J" conjunct of a join predicate.
type JoinPair struct{ Left, Right string }

// SjoinExpr is SJOIN(a, b, a.I = b.I, ...), dimensions only.
type SjoinExpr struct {
	L, R ArrayExpr
	On   []JoinPair
}

func (*SjoinExpr) arrayNode() {}

// CjoinExpr is CJOIN(a, b, pred-over-values).
type CjoinExpr struct {
	L, R ArrayExpr
	Pred ValExpr
}

func (*CjoinExpr) arrayNode() {}

// ApplyExpr is APPLY(in, name = expr, ...).
type ApplyExpr struct {
	In    ArrayExpr
	Names []string
	Exprs []ValExpr
}

func (*ApplyExpr) arrayNode() {}

// ProjectExpr is PROJECT(in, a, b, ...).
type ProjectExpr struct {
	In    ArrayExpr
	Attrs []string
}

func (*ProjectExpr) arrayNode() {}

// ReshapeExpr is RESHAPE(in, [X, Z, Y], [U = 1:8, V = 1:3]).
type ReshapeExpr struct {
	In      ArrayExpr
	Order   []string
	NewDims []NewDim
}

// NewDim is one target dimension "U = 1:8".
type NewDim struct {
	Name string
	High int64
}

func (*ReshapeExpr) arrayNode() {}

// RegridExpr is REGRID(in, [2, 2], AVG(v)).
type RegridExpr struct {
	In      ArrayExpr
	Strides []int64
	Agg     AggSpec
}

func (*RegridExpr) arrayNode() {}

// WindowExpr is WINDOW(in, [r1, r2], AVG(v)): a moving-window aggregate.
type WindowExpr struct {
	In     ArrayExpr
	Radius []int64
	Agg    AggSpec
}

func (*WindowExpr) arrayNode() {}

// CrossExpr is CROSS(a, b).
type CrossExpr struct{ L, R ArrayExpr }

func (*CrossExpr) arrayNode() {}

// ConcatExpr is CONCAT(a, b, dim).
type ConcatExpr struct {
	L, R ArrayExpr
	Dim  string
}

func (*ConcatExpr) arrayNode() {}

// AddDimExpr is ADDDIM(in, name).
type AddDimExpr struct {
	In   ArrayExpr
	Name string
}

func (*AddDimExpr) arrayNode() {}

// RemDimExpr is REMDIM(in, name).
type RemDimExpr struct {
	In   ArrayExpr
	Name string
}

func (*RemDimExpr) arrayNode() {}

// ExistsExpr is EXISTS(A, 7, 7): the paper's "Exists? [A, 7, 7]" cell-
// presence test, returned as a single-cell boolean array.
type ExistsExpr struct {
	Array string
	Coord []int64
}

func (*ExistsExpr) arrayNode() {}

// VersionExpr is VERSION(array, name): reads a named version.
type VersionExpr struct {
	Array string
	Name  string
}

func (*VersionExpr) arrayNode() {}

// --- value expressions -----------------------------------------------------

// ValExpr is a scalar expression over one cell.
type ValExpr interface{ valNode() }

// Ident references an attribute or dimension by name (resolution happens in
// the planner). Qualified identifiers ("B.val") keep their qualifier.
type Ident struct{ Name string }

func (*Ident) valNode() {}

// Lit is a literal.
type Lit struct{ V Scalar }

func (*Lit) valNode() {}

// BinExpr applies a binary operator.
type BinExpr struct {
	Op   string
	L, R ValExpr
}

func (*BinExpr) valNode() {}

// NotExpr negates.
type NotExpr struct{ E ValExpr }

func (*NotExpr) valNode() {}

// CallExpr invokes a UDF.
type CallExpr struct {
	Name string
	Args []ValExpr
}

func (*CallExpr) valNode() {}

// Error is a parse error with position info.
type Error struct {
	Pos int
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("parse error at offset %d: %s", e.Pos, e.Msg) }
