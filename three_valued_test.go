package polaris

import (
	"fmt"
	"testing"

	"polaris/internal/objectstore"
)

// TestThreeValuedLogicAcrossExecutors runs OR, NOT-over-AND and IN-or
// predicates over NULLs on every Parallelism × DistributedQueries ×
// JoinMemoryBudget cell. The answers are computed by hand under SQL's
// three-valued logic — TRUE OR NULL is TRUE, FALSE AND NULL is FALSE — not
// taken from another path of this engine: u holds (1,'x'), (2,NULL),
// (NULL,'y'), (4,'z'), and w joins u's keys 1, 2 and 4.
func TestThreeValuedLogicAcrossExecutors(t *testing.T) {
	queries := []struct{ sql, want string }{
		// (2,NULL): TRUE OR NULL; (NULL,'y'): NULL OR TRUE.
		{`SELECT a, b FROM u WHERE a > 1 OR b LIKE 'y%' ORDER BY b`,
			"[a b]\n[2 <nil>]\n[<nil> y]\n[4 z]\n"},
		{`SELECT COUNT(*) AS n FROM u WHERE a > 1 OR a <= 1 OR a IS NULL`, "[n]\n[4]\n"},
		// (NULL,'y'): NOT (NULL AND FALSE) = NOT FALSE; (2,NULL) stays NULL.
		{`SELECT COUNT(*) AS n FROM u WHERE NOT (a > 1 AND b = 'q')`, "[n]\n[3]\n"},
		{`SELECT COUNT(*) AS n FROM u WHERE a IN (1, 4) OR b = 'y'`, "[n]\n[3]\n"},
		// (NULL,'y'): NOT (NULL AND FALSE) AND NOT (FALSE AND NULL), TRUE;
		// (2,NULL): its second conjunct is NOT (NULL AND TRUE), NULL.
		{`SELECT COUNT(*) AS n FROM u WHERE NOT (a = 1 AND b IS NULL) AND NOT (b = 'x' AND a > 1)`, "[n]\n[3]\n"},
		// The residual WHERE after a join: (2,NULL,2,'q') is NULL OR TRUE.
		{`SELECT u.a, w.t FROM u JOIN w ON u.a = w.k WHERE u.b = 'x' OR w.t = 'q' ORDER BY u.a`,
			"[a t]\n[1 p]\n[2 q]\n"},
	}
	for _, p := range []int{1, 4, 8} {
		for _, dag := range []bool{false, true} {
			for _, budget := range []int64{0, 256} {
				name := fmt.Sprintf("parallelism=%d,dag=%v,budget=%d", p, dag, budget)
				cfg := DefaultConfig()
				cfg.Parallelism = p
				cfg.DistributedQueries = dag
				cfg.JoinMemoryBudget = budget
				cfg.Distributions = 4
				db := Open(cfg)
				db.MustExec(`CREATE TABLE u (a INT, b VARCHAR) WITH (DISTRIBUTION = a)`)
				db.MustExec(`INSERT INTO u VALUES (1, 'x'), (2, NULL), (NULL, 'y'), (4, 'z')`)
				db.MustExec(`CREATE TABLE w (k INT, t VARCHAR) WITH (DISTRIBUTION = k)`)
				db.MustExec(`INSERT INTO w VALUES (1, 'p'), (2, 'q'), (4, NULL)`)
				for _, q := range queries {
					r, err := db.Query(q.sql)
					if err != nil {
						t.Fatalf("%s: %s: %v", name, q.sql, err)
					}
					if got := renderRows(r); got != q.want {
						t.Errorf("%s: wrong result\nsql: %s\ngot:\n%s\nwant:\n%s", name, q.sql, got, q.want)
					}
				}
				// DML finds its rows through the same predicate: (2,NULL),
				// (NULL,'y') and (4,'z') all match.
				for _, dml := range []string{
					`UPDATE u SET b = b WHERE a > 1 OR b = 'y'`,
					`DELETE FROM u WHERE a > 1 OR b = 'y'`,
				} {
					r, err := db.Query(dml)
					if err != nil {
						t.Fatalf("%s: %s: %v", name, dml, err)
					}
					if got := r.RowsAffected(); got != 3 {
						t.Errorf("%s: %s affected %d rows, want 3", name, dml, got)
					}
				}
				r, err := db.Query(`SELECT a, b FROM u`)
				if err != nil {
					t.Fatal(err)
				}
				if got, want := renderRows(r), "[a b]\n[1 x]\n"; got != want {
					t.Errorf("%s: rows left after the DELETE:\n%s\nwant:\n%s", name, got, want)
				}
				if leaked := db.Engine().Store.List(objectstore.SpillPrefix); len(leaked) != 0 {
					t.Fatalf("%s: %d spill/exchange blobs leaked", name, len(leaked))
				}
				db.Close()
			}
		}
	}
}
