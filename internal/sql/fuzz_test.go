package sql

import "testing"

// FuzzParse feeds arbitrary text to the parser, which takes it straight from
// clients (the HTTP front end parses before admission): Parse and ParseScript
// must return statements or an error, never panic. The seeds are one
// statement of every kind plus inputs that once crashed the parser.
func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		`SELECT a, COUNT(*) AS n FROM t AS x JOIN u ON x.a = u.b WHERE a BETWEEN 1 AND 9 GROUP BY a HAVING COUNT(*) > 1 ORDER BY n DESC LIMIT 5 OFFSET 1`,
		`SELECT * FROM t AS OF 3 LEFT JOIN u ON t.k = u.k WHERE s LIKE '%x' AND v IS NOT NULL`,
		`INSERT INTO t (a, b) VALUES (1, 'x'), (-2, NULL)`,
		`INSERT INTO t SELECT * FROM u`,
		`UPDATE t SET a = a + 1 WHERE b IN (1, 2)`,
		`DELETE FROM t WHERE NOT a = 1`,
		`CREATE TABLE IF NOT EXISTS t (a INT, b VARCHAR(10), c FLOAT, d BOOL) WITH (DISTRIBUTION = a, SORTCOL = b)`,
		`DROP TABLE IF EXISTS t`,
		`BEGIN TRANSACTION; COMMIT; ROLLBACK`,
		`CLONE TABLE a TO b AS OF 7`,
		`RESTORE TABLE a AS OF 9`,
		`SHOW TABLES`,
		`EXPLAIN SELECT a FROM t`,
		`COMPACT TABLE t; CHECKPOINT TABLE t; VACUUM`,
		`CREATE TABLE A(A INT,A VARCHAR)WITH(`,
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if st, err := Parse(src); err == nil && st == nil {
			t.Fatalf("Parse(%q) returned neither a statement nor an error", src)
		}
		stmts, err := ParseScript(src)
		if err != nil {
			return
		}
		for i, st := range stmts {
			if st == nil {
				t.Fatalf("ParseScript(%q) returned a nil statement %d without an error", src, i)
			}
		}
	})
}
