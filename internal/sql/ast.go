// Package sql implements the DBMS's SQL front end: a lexer and a
// recursive-descent parser covering the statement shapes the evaluated
// workloads use (point and range SELECTs with joins, grouping, ordering
// and limits; INSERT/UPDATE/DELETE; $n parameters for prepared
// statements).
package sql

import "tscout/internal/storage"

// Statement is any parsed SQL statement.
//
// A parsed statement is immutable: nothing may write to its fields, slices
// or expressions after Parse returns. The DBMS caches one parsed statement
// per SQL text and hands the same value to every execution, concurrent
// ones included, so a write would leak into every later execution of that
// text. Code that needs a variant builds a new statement (as
// EXPLAIN-based collection wraps one in an ExplainStmt).
type Statement interface{ stmt() }

// ColRef names a column, optionally qualified by table or alias.
type ColRef struct {
	Table string
	Name  string
}

// String renders the reference.
func (c ColRef) String() string {
	if c.Table == "" {
		return c.Name
	}
	return c.Table + "." + c.Name
}

// AggKind is an aggregate function.
type AggKind int

// Aggregate kinds.
const (
	AggNone AggKind = iota
	AggCount
	AggSum
	AggAvg
	AggMin
	AggMax
)

// SelectExpr is one output column of a SELECT.
type SelectExpr struct {
	Star bool
	Agg  AggKind
	Col  ColRef // empty for COUNT(*)
}

// TableRef names a table with an optional alias.
type TableRef struct {
	Name  string
	Alias string
}

// Binding returns the name predicates use to qualify columns.
func (t TableRef) Binding() string {
	if t.Alias != "" {
		return t.Alias
	}
	return t.Name
}

// JoinClause is an equality inner join.
type JoinClause struct {
	Table    TableRef
	LeftCol  ColRef
	RightCol ColRef
}

// CmpOp is a comparison operator.
type CmpOp int

// Comparison operators.
const (
	OpEq CmpOp = iota
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
)

// String renders the operator.
func (o CmpOp) String() string {
	return [...]string{"=", "<>", "<", "<=", ">", ">="}[o]
}

// Predicate is one conjunct of a WHERE clause: column op expression.
type Predicate struct {
	Col ColRef
	Op  CmpOp
	Val Expr
}

// OrderKey is one ORDER BY key.
type OrderKey struct {
	Col  ColRef
	Desc bool
}

// SelectStmt is a SELECT.
type SelectStmt struct {
	Exprs   []SelectExpr
	From    TableRef
	Joins   []JoinClause
	Where   []Predicate
	GroupBy []ColRef
	OrderBy []OrderKey
	Limit   int // -1 when absent
}

func (*SelectStmt) stmt() {}

// InsertStmt is an INSERT ... VALUES.
type InsertStmt struct {
	Table   string
	Columns []string // empty means schema order
	Rows    [][]Expr
}

func (*InsertStmt) stmt() {}

// SetClause is one UPDATE assignment.
type SetClause struct {
	Col string
	Val Expr
}

// UpdateStmt is an UPDATE.
type UpdateStmt struct {
	Table string
	Sets  []SetClause
	Where []Predicate
}

func (*UpdateStmt) stmt() {}

// DeleteStmt is a DELETE.
type DeleteStmt struct {
	Table string
	Where []Predicate
}

func (*DeleteStmt) stmt() {}

// ColumnDef is one column in a CREATE TABLE.
type ColumnDef struct {
	Name       string
	Kind       storage.Kind
	FixedBytes int64 // VARCHAR(n) width hint
	PrimaryKey bool
}

// CreateTableStmt is a CREATE TABLE.
type CreateTableStmt struct {
	Name    string
	Columns []ColumnDef
	// PrimaryKey lists key columns from a table-level PRIMARY KEY(...)
	// clause (column-level markers are folded in by the parser).
	PrimaryKey []string
}

func (*CreateTableStmt) stmt() {}

// CreateIndexStmt is a CREATE [UNIQUE] INDEX ... ON table (cols) [USING HASH].
type CreateIndexStmt struct {
	Name    string
	Table   string
	Columns []string
	Unique  bool
	Hash    bool
}

func (*CreateIndexStmt) stmt() {}

// ExplainStmt is EXPLAIN [ANALYZE] <statement>: the external
// feature-collection interface the paper's §2.2 compares TScout against.
// Plain EXPLAIN re-plans the statement and reports the physical plan;
// EXPLAIN ANALYZE also executes it and reports actual row counts and the
// elapsed time (without returning results to the client, §2.3).
type ExplainStmt struct {
	Analyze bool
	Stmt    Statement
}

func (*ExplainStmt) stmt() {}

// Expr is a scalar expression.
type Expr interface{ expr() }

// Literal is a constant value.
type Literal struct{ Val storage.Value }

func (Literal) expr() {}

// Param is a $n prepared-statement placeholder (1-based).
type Param struct{ N int }

func (Param) expr() {}

// ColExpr references a column's current value (UPDATE ... SET x = x + 1).
type ColExpr struct{ Ref ColRef }

func (ColExpr) expr() {}

// Binary is an arithmetic expression.
type Binary struct {
	Left  Expr
	Op    byte // + - * /
	Right Expr
}

func (Binary) expr() {}
