package polaris

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"polaris/internal/colfile"
	"polaris/internal/core"
	"polaris/internal/sql"
	"polaris/internal/workload"
)

// Layout invariance: one dataset and one DML script give one answer however
// the rows are laid out on storage. Each layout below is built from existing
// options only — the cell count, row-group and file sizes, the small-file
// threshold, the delete mode, how the rows were loaded, and whether COMPACT
// and CHECKPOINT ran in between — and every statement's result is compared
// with the reference layout's (the first):
//
//   - results compare as multisets;
//   - under ORDER BY, rows compare in order on their sort keys, and the rows
//     of a run of equal keys as a multiset; under LIMIT, the runs the LIMIT
//     or OFFSET may cut compare on their keys only;
//   - LIMIT without ORDER BY compares only its row count;
//   - FLOAT values compare within layoutFloatTolerance (relative), because a
//     float SUM's summation order legitimately follows the layout; INT,
//     VARCHAR and BOOL values compare exactly;
//   - a statement that fails must fail with the same error everywhere, and a
//     DML statement must affect the same number of rows.

// layoutFloatTolerance is the relative difference two FLOAT results may
// show and still be equal (an absolute one below magnitude 1).
const layoutFloatTolerance = 1e-9

// layoutTPCHScale is the TPC-H scale factor of the dataset: 1,600 lineitem
// rows, so that one INSERT of lineitem is above the default small-file
// threshold and one of orders (400 rows) is below it.
const layoutTPCHScale = 0.2

// layoutSeeds fix the DML scripts, and with them where COMPACT and
// CHECKPOINT run.
var layoutSeeds = []int64{1, 2}

// storageLayout is one physical design of the same logical database.
type storageLayout struct {
	name         string
	dist         int   // Distributions: cells of d(r)
	rowsPerGroup int   // 0: the default
	rowsPerFile  int   // 0: the default
	compactSmall int64 // CompactSmallRows; -1: the default
	deletes      core.DeleteMode
	load         string // "bulk", "one" or "many" (see loadLayoutData)
	maintain     bool   // run the script's COMPACT and CHECKPOINT steps
}

// storageLayouts lists the layouts; the first is the reference. Between them
// every value of every axis occurs, with and without maintenance.
var storageLayouts = []storageLayout{
	{name: "reference", dist: 8, compactSmall: -1, load: "bulk"},
	{name: "one-cell,tiny-groups,small-files,many-inserts,maintained", dist: 1, rowsPerGroup: 7, rowsPerFile: 50, compactSmall: -1, load: "many", maintain: true},
	{name: "13-cells,no-small-threshold,copy-on-write,one-insert,maintained", dist: 13, compactSmall: 0, deletes: core.CopyOnWrite, load: "one", maintain: true},
	{name: "tiny-groups,no-small-threshold,many-inserts", dist: 8, rowsPerGroup: 7, compactSmall: 0, load: "many"},
	{name: "13-cells,tiny-groups,small-files,copy-on-write,many-inserts,maintained", dist: 13, rowsPerGroup: 7, rowsPerFile: 50, compactSmall: -1, deletes: core.CopyOnWrite, load: "many", maintain: true},
	{name: "one-cell,no-small-threshold,one-insert", dist: 1, compactSmall: 0, load: "one"},
	{name: "small-files,copy-on-write,one-insert,maintained", dist: 8, rowsPerFile: 50, compactSmall: -1, deletes: core.CopyOnWrite, load: "one", maintain: true},
	{name: "tiny-groups,small-files,bulk,maintained", dist: 8, rowsPerGroup: 7, rowsPerFile: 50, compactSmall: -1, load: "bulk", maintain: true},
}

func (l storageLayout) options() core.Options {
	o := core.DefaultOptions()
	o.Distributions = l.dist
	o.Parallelism = 4
	if l.rowsPerGroup > 0 {
		o.RowsPerGroup = l.rowsPerGroup
	}
	if l.rowsPerFile > 0 {
		o.RowsPerFile = l.rowsPerFile
	}
	if l.compactSmall >= 0 {
		o.CompactSmallRows = l.compactSmall
	}
	o.Deletes = l.deletes
	return o
}

// layoutSmallInsert is the row count of one INSERT under the "many" load:
// below the default small-file threshold.
const layoutSmallInsert = 90

// loadLayoutData loads the dataset: the TPC-H tables at layoutTPCHScale,
// the executor matrix's tables a, b, c and e, and the three-valued tables u
// and w. How rows reach storage is the layout's: "bulk" bulk-loads lineitem
// from four source files and inserts every other table whole; "one" inserts
// every table whole; "many" inserts every table in INSERTs of
// layoutSmallInsert rows, one transaction each.
func loadLayoutData(t *testing.T, eng *core.Engine, sess *sql.Session, l storageLayout) {
	t.Helper()
	insert := func(table string, b *colfile.Batch) {
		t.Helper()
		chunk := b.NumRows()
		if l.load == "many" {
			chunk = layoutSmallInsert
		}
		for lo := 0; lo < b.NumRows(); lo += chunk {
			idx := make([]int, 0, chunk)
			for i := lo; i < min(lo+chunk, b.NumRows()); i++ {
				idx = append(idx, i)
			}
			if err := eng.AutoCommit(func(tx *core.Txn) error {
				_, err := tx.Insert(table, b.Take(idx))
				return err
			}); err != nil {
				t.Fatalf("%s: insert into %s: %v", l.name, table, err)
			}
		}
	}
	if err := eng.AutoCommit(func(tx *core.Txn) error {
		for _, td := range workload.THTables() {
			if _, err := tx.CreateTable(td.Name, td.Schema, td.DistCol, td.SortCol); err != nil {
				return err
			}
		}
		if l.load == "bulk" {
			_, err := tx.BulkLoad("lineitem", workload.LineitemSources(layoutTPCHScale, 4))
			return err
		}
		return nil
	}); err != nil {
		t.Fatalf("%s: create tables: %v", l.name, err)
	}
	if l.load != "bulk" {
		insert("lineitem", workload.LineitemBatch(0, int64(layoutTPCHScale*workload.RowsPerSF)))
	}
	insert("orders", workload.OrdersBatch(layoutTPCHScale))
	insert("customer", workload.CustomerBatch(layoutTPCHScale))
	insert("supplier", workload.SupplierBatch(layoutTPCHScale))
	insert("part", workload.PartBatch(layoutTPCHScale))
	insert("nation", workload.NationBatch())

	// The executor matrix's tables (loadMatrixTables's rows).
	ddl := []string{
		`CREATE TABLE a (id INT, s VARCHAR, k INT, v INT, f FLOAT) WITH (DISTRIBUTION = k, SORTCOL = id)`,
		`CREATE TABLE b (bk INT, tag VARCHAR) WITH (DISTRIBUTION = bk)`,
		`CREATE TABLE c (id INT, v INT) WITH (DISTRIBUTION = id)`,
		`CREATE TABLE e (ek INT, ev VARCHAR) WITH (DISTRIBUTION = ek)`,
	}
	for _, st := range append(ddl, threeValuedSetup...) {
		if _, err := sess.Exec(st); err != nil {
			t.Fatalf("%s: %s: %v", l.name, st, err)
		}
	}
	schema := func(table string) colfile.Schema {
		t.Helper()
		tx := eng.Begin()
		defer tx.Rollback()
		meta, err := tx.Table(table)
		if err != nil {
			t.Fatal(err)
		}
		return meta.Schema
	}
	a := colfile.NewBatch(schema("a"))
	for id := 0; id < 600; id++ {
		var v any = int64(id % 7)
		if id%11 == 0 {
			v = nil
		}
		f := float64(id%23) + float64(id%97)/100
		if err := a.AppendRow(int64(id), fmt.Sprintf("s%d", id%5), int64(id%17), v, f); err != nil {
			t.Fatal(err)
		}
	}
	insert("a", a)
	b := colfile.NewBatch(schema("b"))
	_ = b.AppendRow(int64(3), nil)
	for i := 0; i < 40; i++ {
		bk := int64(i % 12)
		if i >= 30 {
			bk = int64(100 + i)
		}
		_ = b.AppendRow(bk, fmt.Sprintf("tag-%02d", i%9))
	}
	insert("b", b)
	c := colfile.NewBatch(schema("c"))
	for i := int64(1); i <= 3; i++ {
		_ = c.AppendRow(i, 400-100*i)
	}
	insert("c", c)
}

// layoutScript is the DML script of one seed: INSERTs, UPDATEs and DELETEs
// over lineitem, orders and a, the three-valued DML over u, and COMPACT and
// CHECKPOINT steps at seeded points (run only on layouts that maintain).
func layoutScript(seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	nextOrder := int64(layoutTPCHScale*workload.RowsPerSF/4) + 1
	nextID := 600
	tables := []string{"lineitem", "orders", "a"}
	var out []string
	values := func(n int, row func(i int) string) string {
		parts := make([]string, n)
		for i := range parts {
			parts[i] = row(i)
		}
		return strings.Join(parts, ", ")
	}
	for step := 0; step < 24; step++ {
		switch rng.Intn(9) {
		case 0:
			n := 5 + rng.Intn(60)
			out = append(out, "INSERT INTO orders VALUES "+values(n, func(i int) string {
				return fmt.Sprintf("(%d, %d, 'O', %d.%02d, %d, '3-MEDIUM')",
					nextOrder+int64(i), 1+rng.Intn(40), 1000+rng.Intn(4000), rng.Intn(100), 8000+rng.Intn(2500))
			}))
			nextOrder += int64(n)
		case 1:
			n := 5 + rng.Intn(60)
			out = append(out, "INSERT INTO lineitem VALUES "+values(n, func(i int) string {
				return fmt.Sprintf("(%d, %d, %d, %d, %d, %d.%02d, 0.0%d, 0.0%d, '%s', 'O', %d)",
					1+rng.Intn(450), 1+rng.Intn(2000), 1+rng.Intn(100), 1+i%4, 1+rng.Intn(50),
					1000+rng.Intn(90000), rng.Intn(100), rng.Intn(10), rng.Intn(9), []string{"A", "N", "R"}[rng.Intn(3)], 8000+rng.Intn(2500))
			}))
		case 2:
			out = append(out, fmt.Sprintf("UPDATE lineitem SET l_quantity = l_quantity + 1 WHERE l_orderkey %% %d = %d", 5+rng.Intn(20), rng.Intn(5)))
		case 3:
			out = append(out, fmt.Sprintf("DELETE FROM lineitem WHERE l_orderkey %% %d = %d AND l_linenumber = %d", 7+rng.Intn(20), rng.Intn(7), 1+rng.Intn(4)))
		case 4:
			lo := 1 + rng.Intn(380)
			out = append(out, fmt.Sprintf("UPDATE orders SET o_totalprice = o_totalprice + 1.5 WHERE o_orderkey BETWEEN %d AND %d", lo, lo+rng.Intn(40)))
		case 5:
			out = append(out, fmt.Sprintf("DELETE FROM orders WHERE o_custkey = %d", 1+rng.Intn(40)))
		case 6:
			n := 5 + rng.Intn(40)
			out = append(out, "INSERT INTO a VALUES "+values(n, func(i int) string {
				id := nextID + i
				return fmt.Sprintf("(%d, 's%d', %d, %d, %d.%02d)", id, id%5, id%17, id%7, id%23, id%97)
			}))
			nextID += n
		case 7:
			if rng.Intn(2) == 0 {
				out = append(out, fmt.Sprintf("UPDATE a SET v = NULL, f = f * 2 WHERE id %% %d = %d", 9+rng.Intn(10), rng.Intn(9)))
			} else {
				out = append(out, fmt.Sprintf("DELETE FROM a WHERE id %% %d = %d", 13+rng.Intn(10), rng.Intn(13)))
			}
		case 8:
			what := "COMPACT TABLE "
			if rng.Intn(2) == 0 {
				what = "CHECKPOINT TABLE "
			}
			out = append(out, what+tables[rng.Intn(len(tables))])
		}
	}
	for _, st := range threeValuedStmts {
		if !strings.HasPrefix(st.sql, "SELECT") {
			out = append(out, st.sql)
		}
	}
	return out
}

// maintenanceStmt reports a script step that only layouts that maintain run.
func maintenanceStmt(st string) bool {
	return strings.HasPrefix(st, "COMPACT ") || strings.HasPrefix(st, "CHECKPOINT ")
}

// layoutQueries are the statements every layout answers: the executor
// matrix's, the 22 TPC-H queries and the three-valued ones.
func layoutQueries() []string {
	var out []string
	for _, st := range matrixStmts {
		out = append(out, st.sql)
	}
	out = append(out, workload.THQueries()...)
	for _, st := range threeValuedStmts {
		if strings.HasPrefix(st.sql, "SELECT") {
			out = append(out, st.sql)
		}
	}
	return out
}

// layoutOutcome is what one statement did on one layout.
type layoutOutcome struct {
	err      string
	cols     []string
	rows     [][]any
	affected int64
}

func runLayoutStmt(sess *sql.Session, st string) layoutOutcome {
	res, err := sess.Exec(st)
	if err != nil {
		return layoutOutcome{err: err.Error()}
	}
	out := layoutOutcome{affected: res.RowsAffected, cols: res.Columns()}
	if res.Batch != nil {
		for i := 0; i < res.Batch.NumRows(); i++ {
			out.rows = append(out.rows, res.Batch.Row(i))
		}
	}
	return out
}

// runLayout loads the dataset on a fresh engine in layout l, runs the
// queries, then the script, then the queries again, and returns every
// statement's outcome in that order.
func runLayout(t *testing.T, l storageLayout, script []string) []layoutOutcome {
	t.Helper()
	eng := core.NewDefaultEngine(l.options())
	sess := sql.NewSession(eng)
	defer sess.Close()
	loadLayoutData(t, eng, sess, l)
	var out []layoutOutcome
	for _, q := range layoutQueries() {
		out = append(out, runLayoutStmt(sess, q))
	}
	for _, st := range script {
		if maintenanceStmt(st) {
			if l.maintain {
				if _, err := sess.Exec(st); err != nil {
					t.Fatalf("%s: %s: %v", l.name, st, err)
				}
			}
			continue
		}
		out = append(out, runLayoutStmt(sess, st))
	}
	for _, q := range layoutQueries() {
		out = append(out, runLayoutStmt(sess, q))
	}
	return out
}

func TestLayoutInvariance(t *testing.T) {
	for _, seed := range layoutSeeds {
		script := layoutScript(seed)
		var stmts []string
		stmts = append(stmts, layoutQueries()...)
		for _, st := range script {
			if !maintenanceStmt(st) {
				stmts = append(stmts, st)
			}
		}
		stmts = append(stmts, layoutQueries()...)
		want := runLayout(t, storageLayouts[0], script)
		for _, l := range storageLayouts[1:] {
			got := runLayout(t, l, script)
			for i, st := range stmts {
				if msg := compareLayoutOutcomes(st, want[i], got[i]); msg != "" {
					t.Errorf("seed %d, layout %s, statement %d: %s\nsql: %s", seed, l.name, i, msg, st)
				}
			}
		}
	}
}

// compareLayoutOutcomes returns "" when got matches want under the rules at
// the top of this file, or what differs.
func compareLayoutOutcomes(stmt string, want, got layoutOutcome) string {
	switch {
	case want.err != got.err:
		return fmt.Sprintf("error %q, want %q", got.err, want.err)
	case want.affected != got.affected:
		return fmt.Sprintf("%d rows affected, want %d", got.affected, want.affected)
	case !slices.Equal(want.cols, got.cols):
		return fmt.Sprintf("columns %v, want %v", got.cols, want.cols)
	case len(want.rows) != len(got.rows):
		return fmt.Sprintf("%d rows, want %d", len(got.rows), len(want.rows))
	case want.err != "" || len(want.rows) == 0:
		return ""
	}
	parsed, err := sql.Parse(stmt)
	if err != nil {
		return err.Error()
	}
	sel, ok := parsed.(*sql.SelectStmt)
	if !ok {
		return ""
	}
	diff := func() string {
		return fmt.Sprintf("rows differ\ngot:\n%s\nwant:\n%s", renderLayoutRows(got.rows), renderLayoutRows(want.rows))
	}
	if len(sel.OrderBy) == 0 {
		if sel.Limit >= 0 {
			return "" // which rows a bare LIMIT returns follows the layout
		}
		if !sameMultiset(want.rows, got.rows) {
			return diff()
		}
		return ""
	}
	keys := orderKeyColumns(sel, want.cols)
	for i := range want.rows {
		if compareOn(want.rows[i], got.rows[i], keys, true) != 0 {
			return diff()
		}
	}
	// Runs of equal sort keys: a multiset each, unless a LIMIT or OFFSET may
	// cut them.
	for lo := 0; lo < len(want.rows); {
		hi := lo + 1
		for hi < len(want.rows) && compareOn(want.rows[lo], want.rows[hi], keys, true) == 0 {
			hi++
		}
		cut := sel.Limit >= 0 && (hi == len(want.rows) || lo == 0 && sel.Offset > 0)
		if !cut && !sameMultiset(want.rows[lo:hi], got.rows[lo:hi]) {
			return diff()
		}
		lo = hi
	}
	return ""
}

// orderKeyColumns maps a SELECT's ORDER BY items to its output columns by
// name. A key it cannot place on exactly one column makes every column a key.
func orderKeyColumns(sel *sql.SelectStmt, cols []string) []int {
	var keys []int
	for _, item := range sel.OrderBy {
		name, ok := item.Expr.(sql.ColName)
		at := -1
		for i, c := range cols {
			if ok && c == name.Name {
				if at >= 0 {
					at = -2
					break
				}
				at = i
			}
		}
		if at < 0 {
			keys = keys[:0]
			for i := range cols {
				keys = append(keys, i)
			}
			return keys
		}
		keys = append(keys, at)
	}
	return keys
}

// sameMultiset compares two row sets in a canonical order.
func sameMultiset(want, got [][]any) bool {
	all := make([]int, len(want[0]))
	for i := range all {
		all[i] = i
	}
	sortRows := func(rows [][]any) [][]any {
		out := slices.Clone(rows)
		slices.SortStableFunc(out, func(x, y []any) int { return compareOn(x, y, all, false) })
		return out
	}
	w, g := sortRows(want), sortRows(got)
	for i := range w {
		if compareOn(w[i], g[i], all, true) != 0 {
			return false
		}
	}
	return true
}

// compareOn orders two rows on the columns cols: NULL first, then values of
// one type. With tolerant, FLOATs within layoutFloatTolerance are equal.
func compareOn(x, y []any, cols []int, tolerant bool) int {
	for _, c := range cols {
		a, b := x[c], y[c]
		if a == nil || b == nil {
			if a == nil && b == nil {
				continue
			}
			if a == nil {
				return -1
			}
			return 1
		}
		var r int
		switch av := a.(type) {
		case int64:
			r = cmp.Compare(av, b.(int64))
		case string:
			r = cmp.Compare(av, b.(string))
		case bool:
			r = cmp.Compare(boolRank(av), boolRank(b.(bool)))
		case float64:
			bv := b.(float64)
			if tolerant && math.Abs(av-bv) <= layoutFloatTolerance*max(1, math.Abs(av), math.Abs(bv)) {
				continue
			}
			r = cmp.Compare(av, bv)
		}
		if r != 0 {
			return r
		}
	}
	return 0
}

func boolRank(b bool) int {
	if b {
		return 1
	}
	return 0
}

func renderLayoutRows(rows [][]any) string {
	var sb strings.Builder
	for i, r := range rows {
		if i == 40 {
			fmt.Fprintf(&sb, "... %d more\n", len(rows)-i)
			break
		}
		fmt.Fprintf(&sb, "%v\n", r)
	}
	return sb.String()
}
