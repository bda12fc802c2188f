package sql

import (
	"fmt"
	"strings"
	"testing"
)

// seedStability builds a fresh engine with the shared items seed plus an
// orders table, so every session in the stability tests plans over identical
// catalog and statistics state.
func seedStability(t *testing.T) *Session {
	t.Helper()
	s := testSession(t)
	seed(t, s)
	mustExec(t, s, `CREATE TABLE orders (oid INT, item_id INT, qty INT) WITH (DISTRIBUTION = oid)`)
	mustExec(t, s, `INSERT INTO orders VALUES (100, 1, 3), (101, 2, 1), (102, 1, 2), (103, 99, 5)`)
	return s
}

// TestExplainStableAcrossRuns pins EXPLAIN as a regression surface: the
// rendered plan must be byte-identical on every re-plan of the same
// statement — within one session (same catalog maps, new planning pass) and
// across freshly built engines (different map allocation, different
// iteration seed). Any map-order leak in planning shows up here as a
// flickering plan line. This is a determinism regression test, not a fuzz
// target: the queries are fixed and the assertion is byte equality.
func TestExplainStableAcrossRuns(t *testing.T) {
	queries := []string{
		// Join + pushdown + bloom + sort + limit: exercises most plan
		// renderers at once.
		`SELECT o.oid, i.name FROM orders o JOIN items i ON o.item_id = i.id WHERE o.qty > 1 AND i.price < 5.0 ORDER BY o.oid LIMIT 2`,
		// Bounds on several INT columns of one table: the rendered pushed
		// conjuncts must not reorder run to run; that every bound prunes is
		// TestAnyConjunctBoundPrunes.
		`SELECT oid FROM orders WHERE oid >= 100 AND item_id >= 1 AND qty >= 2`,
		`SELECT name, SUM(price) FROM items WHERE active = TRUE GROUP BY name ORDER BY name`,
	}
	base := seedStability(t)
	for _, q := range queries {
		want := strings.Join(explainLines(t, base, q), "\n")
		for run := 0; run < 10; run++ {
			if got := strings.Join(explainLines(t, base, q), "\n"); got != want {
				t.Fatalf("EXPLAIN drifted within one session on run %d\nquery: %s\nfirst:\n%s\nnow:\n%s", run, q, want, got)
			}
		}
		for run := 0; run < 3; run++ {
			s := seedStability(t)
			if got := strings.Join(explainLines(t, s, q), "\n"); got != want {
				t.Fatalf("EXPLAIN drifted across engines on rebuild %d\nquery: %s\nfirst:\n%s\nnow:\n%s", run, q, want, got)
			}
		}
	}
}

// TestAnyConjunctBoundPrunes: the scan prunes on the range of every bounded
// conjunct's column, not on one column chosen among them. Each statement
// bounds a, b and c but only one column's bound is selective; run cold, it
// decodes the predicate's two or three chunks of the row groups that
// selective bound admits, and no others.
func TestAnyConjunctBoundPrunes(t *testing.T) {
	for _, c := range []struct {
		where  string
		groups int64 // row groups of ten rows the selective bound admits
		cols   int64 // columns the WHERE reads
		rows   int64
	}{
		{`a >= 0 AND b >= 0 AND c <= 2014`, 2, 3, 15},
		{`a >= 0 AND b BETWEEN 1030 AND 1039 AND c >= 0`, 1, 3, 10},
		{`c >= 0 AND a > 85`, 2, 2, 14},
		{`b < 1005 AND a <= 99`, 1, 2, 5},
	} {
		s := prunedSession(t, 1, false)
		mustExec(t, s, `CREATE TABLE t (a INT, b INT, c INT) WITH (DISTRIBUTION = a, SORTCOL = a)`)
		var vals []string
		for i := 0; i < 100; i++ {
			vals = append(vals, fmt.Sprintf("(%d, %d, %d)", i, 1000+i, 2000+i))
		}
		mustExec(t, s, "INSERT INTO t VALUES "+strings.Join(vals, ", "))
		before := chunkDecodes(s)
		if got := mustExec(t, s, "SELECT COUNT(*) FROM t WHERE "+c.where).Batch.Cols[0].Ints[0]; got != c.rows {
			t.Fatalf("WHERE %s counted %d rows, want %d", c.where, got, c.rows)
		}
		if got, want := chunkDecodes(s)-before, c.groups*c.cols; got != want {
			t.Errorf("WHERE %s decoded %d chunks, want %d (%d row groups × %d columns)", c.where, got, want, c.groups, c.cols)
		}
	}
}
