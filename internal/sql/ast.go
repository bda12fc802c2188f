package sql

import "polaris/internal/colfile"

// Statement is any parsed SQL statement.
type Statement interface{ stmt() }

// Expression AST (unbound: column references are by name).

// Expr is any scalar expression node.
type Expr interface{ expr() }

// ColName references a column, optionally qualified ("t.c").
type ColName struct{ Table, Name string }

// Lit is a literal value: int64, float64, string, bool, or nil.
type Lit struct{ Val any }

// BinExpr is a binary operation; Op is the SQL token ("+", "=", "AND", ...).
type BinExpr struct {
	Op   string
	L, R Expr
}

// NotExpr negates a boolean.
type NotExpr struct{ E Expr }

// IsNullExpr tests NULL-ness.
type IsNullExpr struct {
	E      Expr
	Negate bool
}

// LikeExpr is E LIKE 'pattern'.
type LikeExpr struct {
	E       Expr
	Pattern string
	Negate  bool
}

// InExpr is E IN (literals...).
type InExpr struct {
	E      Expr
	Vals   []any
	Negate bool
}

// BetweenExpr is E BETWEEN lo AND hi.
type BetweenExpr struct {
	E      Expr
	Lo, Hi Expr
}

// FuncExpr is an aggregate call: COUNT/SUM/AVG/MIN/MAX. Star marks COUNT(*).
type FuncExpr struct {
	Name string
	Arg  Expr
	Star bool
}

func (ColName) expr()     {}
func (Lit) expr()         {}
func (BinExpr) expr()     {}
func (NotExpr) expr()     {}
func (IsNullExpr) expr()  {}
func (LikeExpr) expr()    {}
func (InExpr) expr()      {}
func (BetweenExpr) expr() {}
func (FuncExpr) expr()    {}

// SelectItem is one projection: expression plus optional alias; Star selects
// all columns.
type SelectItem struct {
	Expr  Expr
	Alias string
	Star  bool
}

// TableRef is a FROM-clause table with optional alias and AS OF sequence.
type TableRef struct {
	Name    string
	Alias   string
	AsOfSeq int64 // -1 = current
}

// JoinClause is one JOIN ... ON ... .
type JoinClause struct {
	Table TableRef
	Left  bool // LEFT OUTER
	On    Expr
}

// OrderItem is one ORDER BY key.
type OrderItem struct {
	Expr Expr
	Desc bool
}

// SelectStmt is a query.
type SelectStmt struct {
	Items   []SelectItem
	From    TableRef
	Joins   []JoinClause
	Where   Expr
	GroupBy []Expr
	Having  Expr
	OrderBy []OrderItem
	Limit   int64 // -1 = none
	Offset  int64
}

// InsertStmt inserts VALUES rows or a query's result.
type InsertStmt struct {
	Table   string
	Columns []string // optional
	Values  *Values  // VALUES form
	Query   *SelectStmt
}

// Values is a VALUES list as one flat, row-major list of cells: row r is
// Cells[Ends[r-1]:Ends[r]], with Ends[-1] read as 0. Rows keep the width
// they were written with; binding checks it against the column list.
type Values struct {
	Cells []Cell
	Ends  []int
	Exprs []Expr // the CellExpr cells' expressions
}

// CellKind says what a VALUES cell holds.
type CellKind uint8

// VALUES cell kinds. A bare literal (a number, possibly negated, a string,
// TRUE, FALSE or NULL) followed by ',' or ')' is typed; any other cell is an
// expression.
const (
	CellNull CellKind = iota
	CellInt
	CellFloat
	CellString
	CellBool
	CellExpr
)

// Cell is one VALUES cell.
type Cell struct {
	Kind  CellKind
	Int   int64 // CellInt; CellBool: 0 or 1; CellExpr: index into Values.Exprs
	Float float64
	Str   string
}

// UpdateStmt updates matching rows.
type UpdateStmt struct {
	Table string
	Set   map[string]Expr
	Where Expr
}

// DeleteStmt deletes matching rows.
type DeleteStmt struct {
	Table string
	Where Expr
}

// CreateTableStmt creates a table.
type CreateTableStmt struct {
	Name        string
	Schema      colfile.Schema
	DistCol     string
	SortCol     string
	IfNotExists bool
}

// DropTableStmt drops a table.
type DropTableStmt struct{ Name string }

// BeginStmt / CommitStmt / RollbackStmt control explicit transactions.
type BeginStmt struct{}

// CommitStmt commits the explicit transaction.
type CommitStmt struct{}

// RollbackStmt aborts the explicit transaction.
type RollbackStmt struct{}

// CloneStmt is CLONE TABLE src TO dst [AS OF seq] (Section 6.2).
type CloneStmt struct {
	Source, Dest string
	AsOfSeq      int64
}

// RestoreStmt is RESTORE TABLE t AS OF seq (Section 6.3).
type RestoreStmt struct {
	Table   string
	AsOfSeq int64
}

// ExplainStmt is EXPLAIN SELECT ...: render the cost-based physical plan as
// text without executing the query.
type ExplainStmt struct {
	Query *SelectStmt
}

// ShowStmt is SHOW TABLES | SHOW STATS tbl.
type ShowStmt struct {
	What  string // "tables" or "stats"
	Table string
}

// MaintenanceStmt is COMPACT TABLE t | CHECKPOINT TABLE t | VACUUM.
type MaintenanceStmt struct {
	What  string // "compact", "checkpoint", "vacuum"
	Table string
}

func (SelectStmt) stmt()      {}
func (InsertStmt) stmt()      {}
func (UpdateStmt) stmt()      {}
func (DeleteStmt) stmt()      {}
func (CreateTableStmt) stmt() {}
func (DropTableStmt) stmt()   {}
func (BeginStmt) stmt()       {}
func (CommitStmt) stmt()      {}
func (RollbackStmt) stmt()    {}
func (CloneStmt) stmt()       {}
func (RestoreStmt) stmt()     {}
func (*ExplainStmt) stmt()    {}
func (ShowStmt) stmt()        {}
func (MaintenanceStmt) stmt() {}
