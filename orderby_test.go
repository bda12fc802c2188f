package polaris

// SQL-surface correctness of parallel ORDER BY: per-morsel sorted runs with
// a k-way merge (and per-worker top-N pushdown under LIMIT) must return
// byte-identical results to the serial executor at every DOP — NULL
// ordering, DESC keys, tie stability and LIMIT/OFFSET boundaries included.
// Run under -race in CI.

import (
	"fmt"
	"testing"
)

// openOrderByTable loads a table whose shape stresses the sort path: small
// files and row groups (many morsels), NULLs in both sort columns, heavy
// ties (g has 5 distinct values), and strings with shared prefixes.
func openOrderByTable(t *testing.T, parallelism int) *DB {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Parallelism = parallelism
	cfg.RowsPerFile = 128
	cfg.RowsPerGroup = 32
	db := Open(cfg)
	db.MustExec(`CREATE TABLE s (id INT, g INT, v INT, name VARCHAR) WITH (DISTRIBUTION = id)`)
	for chunk := 0; chunk < 6; chunk++ {
		stmt := "INSERT INTO s VALUES "
		for i := 0; i < 100; i++ {
			if i > 0 {
				stmt += ", "
			}
			r := chunk*100 + i
			v := fmt.Sprintf("%d", r%37)
			if r%11 == 0 {
				v = "NULL"
			}
			name := fmt.Sprintf("'n-%d'", r%23)
			if r%13 == 0 {
				name = "NULL"
			}
			stmt += fmt.Sprintf("(%d, %d, %s, %s)", r, r%5, v, name)
		}
		db.MustExec(stmt)
	}
	return db
}

// orderByQueries covers the determinism contract's hard cases. Every query
// is fully deterministic: either the key set is unique, or ties are pinned
// by the stable-by-scan-order rule the parallel merge must reproduce.
var orderByQueries = []struct {
	sql  string
	topN bool // expects the top-N pushdown at Parallelism > 1
}{
	{`SELECT id, v FROM s ORDER BY v, id`, false},
	{`SELECT id, v FROM s ORDER BY v DESC, id DESC`, false},
	{`SELECT id, g, v FROM s ORDER BY g, v DESC, id`, false},
	{`SELECT id, name FROM s ORDER BY name, id`, false},
	{`SELECT id, name, v FROM s ORDER BY name DESC, v, id`, false},
	// Ties resolved by scan order: g has 5 distinct values, no id key.
	{`SELECT g, id FROM s ORDER BY g`, false},
	// Expressions in the projection, ordered by alias and by position.
	{`SELECT id, v * 2 AS vv FROM s WHERE v IS NOT NULL ORDER BY vv DESC, id`, false},
	{`SELECT id, g FROM s ORDER BY 2, 1`, false},
	// Top-N pushdown: LIMIT/OFFSET at and around morsel boundaries
	// (files hold 128 rows, row groups 32).
	{`SELECT id, v FROM s ORDER BY v, id LIMIT 10`, true},
	{`SELECT id, v FROM s ORDER BY v DESC, id LIMIT 32`, true},
	{`SELECT id, v FROM s ORDER BY v, id LIMIT 128`, true},
	{`SELECT id, v FROM s ORDER BY v, id LIMIT 31 OFFSET 97`, true},
	{`SELECT id, name FROM s ORDER BY name, id LIMIT 7 OFFSET 3`, true},
	{`SELECT g, id FROM s ORDER BY g LIMIT 40`, true}, // ties across the cutoff
	{`SELECT id FROM s ORDER BY id LIMIT 0`, true},
	{`SELECT id FROM s ORDER BY id LIMIT 5 OFFSET 10000`, true}, // offset past end
	{`SELECT id FROM s ORDER BY id DESC LIMIT 600`, true},       // limit = row count
	{`SELECT id FROM s ORDER BY id LIMIT 10000`, true},          // limit past end
}

func TestParallelOrderByMatchesSerial(t *testing.T) {
	serial := openOrderByTable(t, 1)
	defer serial.Close()

	want := make([]string, len(orderByQueries))
	for i, q := range orderByQueries {
		r, err := serial.Query(q.sql)
		if err != nil {
			t.Fatalf("serial query %d: %v", i, err)
		}
		want[i] = renderRows(r)
	}
	var wantPushed int64
	for _, q := range orderByQueries {
		if q.topN {
			wantPushed++
		}
	}
	if got := serial.Engine().Work.TopNPushdowns.Load(); got != wantPushed {
		t.Fatalf("Parallelism 1 pushed top-N %d times, want %d: it is the same plan with one worker", got, wantPushed)
	}

	for _, dop := range []int{4, 8} {
		db := openOrderByTable(t, dop)
		for i, q := range orderByQueries {
			before := db.Engine().Work.TopNPushdowns.Load()
			r, err := db.Query(q.sql)
			if err != nil {
				t.Fatalf("dop=%d query %d: %v", dop, i, err)
			}
			if got := renderRows(r); got != want[i] {
				t.Fatalf("dop=%d query %d differs from serial:\ngot:\n%s\nwant:\n%s\nsql: %s",
					dop, i, got, want[i], q.sql)
			}
			pushed := db.Engine().Work.TopNPushdowns.Load() > before
			if pushed != q.topN {
				t.Fatalf("dop=%d query %d: top-N pushdown = %v, want %v (%s)", dop, i, pushed, q.topN, q.sql)
			}
		}
		db.Close()
	}
}

// TestOrderByLimitRowCounts pins the LIMIT/OFFSET arithmetic at the edges
// (independent of the serial comparison above).
func TestOrderByLimitRowCounts(t *testing.T) {
	db := openOrderByTable(t, 4)
	defer db.Close()
	cases := []struct {
		sql  string
		rows int
	}{
		{`SELECT id FROM s ORDER BY id LIMIT 0`, 0},
		{`SELECT id FROM s ORDER BY id LIMIT 600`, 600},
		{`SELECT id FROM s ORDER BY id LIMIT 601`, 600},
		{`SELECT id FROM s ORDER BY id LIMIT 10 OFFSET 595`, 5},
		{`SELECT id FROM s ORDER BY id LIMIT 10 OFFSET 600`, 0},
		{`SELECT id FROM s ORDER BY id LIMIT 10 OFFSET 10000`, 0},
	}
	for i, c := range cases {
		r := db.MustExec(c.sql)
		if r.Len() != c.rows {
			t.Fatalf("case %d (%s): rows = %d, want %d", i, c.sql, r.Len(), c.rows)
		}
	}
}

// TestParallelOrderByOverJoin exercises the full fan-out shape: probe →
// project → sorted runs → merge, with the join's NULL-padded outer rows
// flowing through the sort (NULLs first ascending).
func TestParallelOrderByOverJoin(t *testing.T) {
	load := func(parallelism int) *DB {
		cfg := DefaultConfig()
		cfg.Parallelism = parallelism
		cfg.RowsPerFile = 64
		db := Open(cfg)
		db.MustExec(`CREATE TABLE f (k INT, x INT) WITH (DISTRIBUTION = k)`)
		db.MustExec(`CREATE TABLE d (k INT, label VARCHAR) WITH (DISTRIBUTION = k)`)
		for chunk := 0; chunk < 2; chunk++ {
			stmt := "INSERT INTO f VALUES "
			for i := 0; i < 100; i++ {
				if i > 0 {
					stmt += ", "
				}
				r := chunk*100 + i
				stmt += fmt.Sprintf("(%d, %d)", r, r%9)
			}
			db.MustExec(stmt)
		}
		stmt := "INSERT INTO d VALUES "
		for i := 0; i < 5; i++ {
			if i > 0 {
				stmt += ", "
			}
			stmt += fmt.Sprintf("(%d, 'lab-%d')", i*2, i)
		}
		db.MustExec(stmt)
		return db
	}
	queries := []string{
		`SELECT f.k, d.label FROM f LEFT JOIN d ON f.x = d.k ORDER BY d.label, f.k LIMIT 25`,
		`SELECT f.k, f.x, d.label FROM f JOIN d ON f.x = d.k ORDER BY f.x DESC, f.k`,
	}
	serial := load(1)
	defer serial.Close()
	want := make([]string, len(queries))
	for i, q := range queries {
		r, err := serial.Query(q)
		if err != nil {
			t.Fatalf("serial join query %d: %v", i, err)
		}
		if r.Len() == 0 {
			t.Fatalf("serial join query %d returned no rows", i)
		}
		want[i] = renderRows(r)
	}
	for _, dop := range []int{4, 8} {
		db := load(dop)
		for i, q := range queries {
			r, err := db.Query(q)
			if err != nil {
				t.Fatalf("dop=%d join query %d: %v", dop, i, err)
			}
			if got := renderRows(r); got != want[i] {
				t.Fatalf("dop=%d join query %d differs from serial:\ngot:\n%s\nwant:\n%s", dop, i, got, want[i])
			}
		}
		db.Close()
	}
}
