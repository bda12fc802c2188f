package polaris

import (
	"fmt"
	"strings"
	"testing"
)

// The determinism contract's hard cases for ORDER BY — per-morsel sorted
// runs under a k-way merge, top-N pushdown under LIMIT: NULL ordering, DESC
// keys, tie stability and LIMIT/OFFSET boundaries, a probe → project → sort
// → merge fan-out whose outer rows are NULL-padded, and GROUP BY on, with and
// without a table's distribution column. Every statement is fully
// deterministic: either its key set is unique, or ties are pinned by the
// stable-by-scan-order rule the merge must reproduce. Each test is one
// dataset of the executor matrix (runMatrix).

// sortTableData lays s out in files of 128 rows and row groups of 32, so
// every Parallelism splits it into many morsels.
func sortTableData(stmts []matrixStmt) matrixDataset {
	return matrixDataset{
		name: "orderby", rowsPerFile: 128, rowsPerGroup: 32, budget: 256,
		setup: loadSortTable, stmts: stmts,
	}
}

func TestParallelOrderByMatchesSerial(t *testing.T) {
	runMatrix(t, sortTableData([]matrixStmt{
		{sql: `SELECT id, v FROM s ORDER BY v, id`},
		{sql: `SELECT id, v FROM s ORDER BY v DESC, id DESC`},
		{sql: `SELECT id, g, v FROM s ORDER BY g, v DESC, id`},
		{sql: `SELECT id, name FROM s ORDER BY name, id`},
		{sql: `SELECT id, name, v FROM s ORDER BY name DESC, v, id`},
		// Ties resolved by scan order: g has 5 distinct values, no id key.
		{sql: `SELECT g, id FROM s ORDER BY g`},
		// Expressions in the projection, ordered by alias and by position.
		{sql: `SELECT id, v * 2 AS vv FROM s WHERE v IS NOT NULL ORDER BY vv DESC, id`},
		{sql: `SELECT id, g FROM s ORDER BY 2, 1`},
		// Top-N pushdown: LIMIT/OFFSET at and around morsel boundaries
		// (files hold 128 rows, row groups 32), at and past the row count.
		{sql: `SELECT id, v FROM s ORDER BY v, id LIMIT 10`, topN: true},
		{sql: `SELECT id, v FROM s ORDER BY v DESC, id LIMIT 32`, topN: true},
		{sql: `SELECT id, v FROM s ORDER BY v, id LIMIT 128`, topN: true},
		{sql: `SELECT id, v FROM s ORDER BY v, id LIMIT 31 OFFSET 97`, topN: true},
		{sql: `SELECT id, name FROM s ORDER BY name, id LIMIT 7 OFFSET 3`, topN: true},
		{sql: `SELECT g, id FROM s ORDER BY g LIMIT 40`, topN: true}, // ties across the cutoff
		{sql: `SELECT id FROM s ORDER BY id LIMIT 0`, topN: true, want: "[id]\n"},
		{sql: `SELECT id FROM s ORDER BY id LIMIT 5 OFFSET 10000`, topN: true, want: "[id]\n"},
		{sql: `SELECT id FROM s ORDER BY id DESC LIMIT 600`, topN: true, rows: 600},
		{sql: `SELECT id FROM s ORDER BY id LIMIT 10000`, topN: true, rows: 600},
	}))
}

// TestOrderByLimitRowCounts pins the LIMIT/OFFSET arithmetic at the edges.
func TestOrderByLimitRowCounts(t *testing.T) {
	runMatrix(t, sortTableData([]matrixStmt{
		{sql: `SELECT id FROM s ORDER BY id LIMIT 0`, topN: true, want: "[id]\n"},
		{sql: `SELECT id FROM s ORDER BY id LIMIT 600`, topN: true, rows: 600},
		{sql: `SELECT id FROM s ORDER BY id LIMIT 601`, topN: true, rows: 600},
		{sql: `SELECT id FROM s ORDER BY id LIMIT 10 OFFSET 595`, topN: true, rows: 5},
		{sql: `SELECT id FROM s ORDER BY id LIMIT 10 OFFSET 600`, topN: true, want: "[id]\n"},
		{sql: `SELECT id FROM s ORDER BY id LIMIT 10 OFFSET 10000`, topN: true, want: "[id]\n"},
	}))
}

// TestParallelOrderByOverJoin runs the full fan-out shape: probe → project
// → sorted runs → merge, with the join's NULL-padded outer rows flowing
// through the sort (NULLs first ascending).
func TestParallelOrderByOverJoin(t *testing.T) {
	runMatrix(t, matrixDataset{
		name: "orderby_join", rowsPerFile: 64, budget: 256, setup: loadSortJoinTables,
		stmts: []matrixStmt{
			{sql: `SELECT f.k, d.label FROM f LEFT JOIN d ON f.x = d.k ORDER BY d.label, f.k LIMIT 25`, topN: true, nonEmpty: true},
			{sql: `SELECT f.k, f.x, d.label FROM f JOIN d ON f.x = d.k ORDER BY f.x DESC, f.k`, nonEmpty: true},
		},
	})
}

// loadSortTable loads s, whose shape stresses the sort path: 600 rows,
// NULLs in both sort columns, heavy ties (g has 5 distinct values) and
// strings with shared prefixes.
func loadSortTable(_ *testing.T, db *DB) {
	db.MustExec(`CREATE TABLE s (id INT, g INT, v INT, name VARCHAR) WITH (DISTRIBUTION = id)`)
	for chunk := 0; chunk < 6; chunk++ {
		rows := make([]string, 100)
		for i := range rows {
			r := chunk*100 + i
			v := fmt.Sprint(r % 37)
			if r%11 == 0 {
				v = "NULL"
			}
			name := fmt.Sprintf("'n-%d'", r%23)
			if r%13 == 0 {
				name = "NULL"
			}
			rows[i] = fmt.Sprintf("(%d, %d, %s, %s)", r, r%5, v, name)
		}
		db.MustExec("INSERT INTO s VALUES " + strings.Join(rows, ", "))
	}
}

// loadSortJoinTables loads f, a fact table whose x joins d's even keys
// 0..8; its odd x find no match.
func loadSortJoinTables(_ *testing.T, db *DB) {
	db.MustExec(`CREATE TABLE f (k INT, x INT) WITH (DISTRIBUTION = k)`)
	for chunk := 0; chunk < 2; chunk++ {
		rows := make([]string, 100)
		for i := range rows {
			r := chunk*100 + i
			rows[i] = fmt.Sprintf("(%d, %d)", r, r%9)
		}
		db.MustExec("INSERT INTO f VALUES " + strings.Join(rows, ", "))
	}
	db.MustExec(`CREATE TABLE d (k INT, label VARCHAR) WITH (DISTRIBUTION = k)`)
	db.MustExec(`INSERT INTO d VALUES (0, 'lab-0'), (2, 'lab-1'), (4, 'lab-2'), (6, 'lab-3'), (8, 'lab-4')`)
}
