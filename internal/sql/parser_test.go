package sql

import (
	"reflect"
	"testing"

	"polaris/internal/colfile"
)

// Parser-level tests: statement shapes, precedence, and error positions,
// independent of execution.

func parseOK(t *testing.T, q string) Statement {
	t.Helper()
	st, err := Parse(q)
	if err != nil {
		t.Fatalf("parse %q: %v", q, err)
	}
	return st
}

func TestParseSelectShape(t *testing.T) {
	st := parseOK(t, `SELECT a, b AS bb, COUNT(*) n FROM t x
		LEFT JOIN u ON x.k = u.k
		WHERE a > 1 AND b LIKE 'x%'
		GROUP BY a, b HAVING COUNT(*) > 2
		ORDER BY n DESC, a LIMIT 5 OFFSET 2`).(*SelectStmt)
	if len(st.Items) != 3 || st.Items[1].Alias != "bb" || st.Items[2].Alias != "n" {
		t.Fatalf("items = %+v", st.Items)
	}
	if st.From.Name != "t" || st.From.Alias != "x" {
		t.Fatalf("from = %+v", st.From)
	}
	if len(st.Joins) != 1 || !st.Joins[0].Left || st.Joins[0].Table.Name != "u" {
		t.Fatalf("joins = %+v", st.Joins)
	}
	if st.Where == nil || len(st.GroupBy) != 2 || st.Having == nil {
		t.Fatalf("clauses missing: %+v", st)
	}
	if len(st.OrderBy) != 2 || !st.OrderBy[0].Desc || st.OrderBy[1].Desc {
		t.Fatalf("order = %+v", st.OrderBy)
	}
	if st.Limit != 5 || st.Offset != 2 {
		t.Fatalf("limit = %d offset = %d", st.Limit, st.Offset)
	}
}

func TestParseAsOfVsAlias(t *testing.T) {
	st := parseOK(t, `SELECT * FROM t AS OF 42`).(*SelectStmt)
	if st.From.AsOfSeq != 42 || st.From.Alias != "" {
		t.Fatalf("as-of = %+v", st.From)
	}
	st = parseOK(t, `SELECT * FROM t AS x`).(*SelectStmt)
	if st.From.Alias != "x" || st.From.AsOfSeq != -1 {
		t.Fatalf("alias = %+v", st.From)
	}
}

func TestParsePrecedence(t *testing.T) {
	st := parseOK(t, `SELECT * FROM t WHERE a = 1 OR b = 2 AND c = 3`).(*SelectStmt)
	// must parse as a=1 OR (b=2 AND c=3)
	or, ok := st.Where.(BinExpr)
	if !ok || or.Op != "OR" {
		t.Fatalf("where = %+v", st.Where)
	}
	and, ok := or.R.(BinExpr)
	if !ok || and.Op != "AND" {
		t.Fatalf("right = %+v", or.R)
	}
	// arithmetic: 1 + 2 * 3 = 1 + (2*3)
	st = parseOK(t, `SELECT 1 + 2 * 3 AS x FROM t`).(*SelectStmt)
	add := st.Items[0].Expr.(BinExpr)
	if add.Op != "+" {
		t.Fatalf("expr = %+v", add)
	}
	if mul, ok := add.R.(BinExpr); !ok || mul.Op != "*" {
		t.Fatalf("right = %+v", add.R)
	}
}

func TestParseNegativeNumbers(t *testing.T) {
	st := parseOK(t, `SELECT * FROM t WHERE a > -5 AND b < -1.5`).(*SelectStmt)
	and := st.Where.(BinExpr)
	gt := and.L.(BinExpr)
	if gt.R.(Lit).Val != int64(-5) {
		t.Fatalf("int lit = %+v", gt.R)
	}
	lt := and.R.(BinExpr)
	if lt.R.(Lit).Val != -1.5 {
		t.Fatalf("float lit = %+v", lt.R)
	}
}

func TestParseNotVariants(t *testing.T) {
	st := parseOK(t, `SELECT * FROM t WHERE a NOT LIKE 'x%' AND b NOT IN (1, 2) AND c IS NOT NULL AND NOT d = 1`).(*SelectStmt)
	var count int
	var walk func(e Expr)
	walk = func(e Expr) {
		switch x := e.(type) {
		case BinExpr:
			walk(x.L)
			walk(x.R)
		case LikeExpr:
			if x.Negate {
				count++
			}
		case InExpr:
			if x.Negate {
				count++
			}
		case IsNullExpr:
			if x.Negate {
				count++
			}
		case NotExpr:
			count++
		}
	}
	walk(st.Where)
	if count != 4 {
		t.Fatalf("negations found = %d", count)
	}
}

func TestParseCreateTableTypes(t *testing.T) {
	st := parseOK(t, `CREATE TABLE t (a INT, b BIGINT, c FLOAT, d DOUBLE, e VARCHAR(50), f TEXT, g BOOL, h BOOLEAN)`).(*CreateTableStmt)
	want := []colfile.DataType{
		colfile.Int64, colfile.Int64, colfile.Float64, colfile.Float64,
		colfile.String, colfile.String, colfile.Bool, colfile.Bool,
	}
	if len(st.Schema) != len(want) {
		t.Fatalf("schema = %+v", st.Schema)
	}
	for i, w := range want {
		if st.Schema[i].Type != w {
			t.Fatalf("col %d type = %v, want %v", i, st.Schema[i].Type, w)
		}
	}
}

func TestParseCreateTableOptions(t *testing.T) {
	st := parseOK(t, `CREATE TABLE t (a INT, b INT) WITH (DISTRIBUTION = a, SORTCOL = b)`).(*CreateTableStmt)
	if st.DistCol != "a" || st.SortCol != "b" {
		t.Fatalf("options = %+v", st)
	}
	if _, err := Parse(`CREATE TABLE t (a INT) WITH (FROBNICATE = a)`); err == nil {
		t.Fatal("unknown option accepted")
	}
}

func TestParseCloneRestore(t *testing.T) {
	c := parseOK(t, `CLONE TABLE a TO b`).(CloneStmt)
	if c.Source != "a" || c.Dest != "b" || c.AsOfSeq != -1 {
		t.Fatalf("clone = %+v", c)
	}
	c = parseOK(t, `CLONE TABLE a TO b AS OF 7`).(CloneStmt)
	if c.AsOfSeq != 7 {
		t.Fatalf("clone = %+v", c)
	}
	r := parseOK(t, `RESTORE TABLE a AS OF 9`).(RestoreStmt)
	if r.Table != "a" || r.AsOfSeq != 9 {
		t.Fatalf("restore = %+v", r)
	}
	if _, err := Parse(`RESTORE TABLE a`); err == nil {
		t.Fatal("restore without AS OF accepted")
	}
}

func TestParseInsertVariants(t *testing.T) {
	st := parseOK(t, `INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')`).(*InsertStmt)
	if len(st.Columns) != 2 || st.Values == nil || len(st.Values.Ends) != 2 || len(st.Values.Cells) != 4 {
		t.Fatalf("insert = %+v", st)
	}
	st = parseOK(t, `INSERT INTO t SELECT * FROM u WHERE a > 0`).(*InsertStmt)
	if st.Query == nil || st.Values != nil {
		t.Fatalf("insert-select = %+v", st)
	}
	// constant arithmetic in VALUES
	st = parseOK(t, `INSERT INTO t VALUES (1 + 2 * 3)`).(*InsertStmt)
	c := st.Values.Cells[0]
	if c.Kind != CellExpr {
		t.Fatalf("cell = %+v, want an expression", c)
	}
	v, err := valuesCell(st.Values.Exprs[c.Int])
	if err != nil || v != int64(7) {
		t.Fatalf("const fold = %v, %v", v, err)
	}
}

func TestParseTransactionControl(t *testing.T) {
	if _, ok := parseOK(t, `BEGIN TRANSACTION`).(BeginStmt); !ok {
		t.Fatal("BEGIN TRANSACTION")
	}
	if _, ok := parseOK(t, `COMMIT`).(CommitStmt); !ok {
		t.Fatal("COMMIT")
	}
	if _, ok := parseOK(t, `ROLLBACK TRANSACTION`).(RollbackStmt); !ok {
		t.Fatal("ROLLBACK")
	}
}

func TestParseMaintenance(t *testing.T) {
	m := parseOK(t, `COMPACT TABLE t`).(MaintenanceStmt)
	if m.What != "compact" || m.Table != "t" {
		t.Fatalf("compact = %+v", m)
	}
	m = parseOK(t, `CHECKPOINT TABLE t`).(MaintenanceStmt)
	if m.What != "checkpoint" {
		t.Fatalf("checkpoint = %+v", m)
	}
	m = parseOK(t, `VACUUM`).(MaintenanceStmt)
	if m.What != "vacuum" {
		t.Fatalf("vacuum = %+v", m)
	}
}

func TestParseScriptSplitsStatements(t *testing.T) {
	stmts, err := ParseScript(`CREATE TABLE t (a INT); INSERT INTO t VALUES (1); SELECT * FROM t;`)
	if err != nil {
		t.Fatal(err)
	}
	if len(stmts) != 3 {
		t.Fatalf("stmts = %d", len(stmts))
	}
	types := []string{
		reflect.TypeOf(stmts[0]).String(),
		reflect.TypeOf(stmts[1]).String(),
		reflect.TypeOf(stmts[2]).String(),
	}
	if types[0] != "*sql.CreateTableStmt" || types[2] != "*sql.SelectStmt" {
		t.Fatalf("types = %v", types)
	}
	if _, err := ParseScript(`SELECT * FROM t garbage garbage`); err == nil {
		t.Fatal("trailing garbage accepted")
	}
}

func TestParseBetweenDesugars(t *testing.T) {
	st := parseOK(t, `SELECT * FROM t WHERE a BETWEEN 1 AND 10`).(*SelectStmt)
	b, ok := st.Where.(BetweenExpr)
	if !ok {
		t.Fatalf("where = %+v", st.Where)
	}
	if b.Lo.(Lit).Val != int64(1) || b.Hi.(Lit).Val != int64(10) {
		t.Fatalf("between = %+v", b)
	}
}

func TestParseQualifiedColumns(t *testing.T) {
	st := parseOK(t, `SELECT t.a, u.b FROM t JOIN u ON t.k = u.k`).(*SelectStmt)
	c := st.Items[0].Expr.(ColName)
	if c.Table != "t" || c.Name != "a" {
		t.Fatalf("col = %+v", c)
	}
}

func TestParseErrorsCarryPosition(t *testing.T) {
	_, err := Parse(`SELECT * FROM`)
	if err == nil {
		t.Fatal("accepted")
	}
	_, err = Parse(`SELECT * FRM t`)
	if err == nil {
		t.Fatal("typo accepted")
	}
}
