package polaris

import (
	"fmt"
	"strings"
	"testing"

	"polaris/internal/objectstore"
)

// groupedOrderSetup creates g, whose s groups tie on their counts and whose f
// holds +0 in row 1 and -0 in rows 2 and 4 (a literal and a product), and h,
// whose x holds both zeros beside forty other values, enough that a 256-byte
// join budget spills a build of h.
func groupedOrderSetup() []string {
	var h strings.Builder
	h.WriteString(`INSERT INTO h VALUES (0.0), (-0.0)`)
	for x := 10; x < 50; x++ {
		fmt.Fprintf(&h, ", (%d.0)", x)
	}
	return []string{
		`CREATE TABLE g (k INT, s VARCHAR, f FLOAT) WITH (DISTRIBUTION = k)`,
		`INSERT INTO g VALUES (1, 'b', 0.0), (2, 'ab', -0.0), (3, '', 1.5), (4, NULL, 0.0 * -1), (5, 'b', 1.5), (6, 'ab', 2.0)`,
		`CREATE TABLE h (x FLOAT) WITH (DISTRIBUTION = x)`,
		h.String(),
	}
}

// groupedOrderQueries are answered by hand over groupedOrderSetup's tables. A
// grouped result is ordered by its ORDER BY keys, then by its group keys
// ascending — NULL first, strings lexicographically, so 'ab' before 'b' — and
// -0 = +0 makes the two zeros one group and one join key.
var groupedOrderQueries = []struct{ sql, want string }{
	// No ORDER BY: the group keys alone.
	{`SELECT s, COUNT(*) AS n FROM g GROUP BY s`,
		"[s n]\n[<nil> 1]\n[ 1]\n[ab 2]\n[b 2]\n"},
	// Ties on n break by s.
	{`SELECT s, COUNT(*) AS n FROM g GROUP BY s ORDER BY n DESC`,
		"[s n]\n[ab 2]\n[b 2]\n[<nil> 1]\n[ 1]\n"},
	{`SELECT s, COUNT(*) AS n FROM g GROUP BY s ORDER BY n DESC LIMIT 1 OFFSET 1`,
		"[s n]\n[b 2]\n"},
	// The projection drops the group key; its ties still break by it.
	{`SELECT COUNT(*) AS n FROM g GROUP BY s ORDER BY n`,
		"[n]\n[1]\n[1]\n[2]\n[2]\n"},
	// f's groups: the zeros {1, 2, 4}, 1.5 {3, 5}, 2.0 {6}.
	{`SELECT MIN(k) AS lo, COUNT(*) AS n FROM g GROUP BY f ORDER BY lo`,
		"[lo n]\n[1 3]\n[3 2]\n[6 1]\n"},
	// Three zeros in g, two in h: six pairs. The inner join builds g and
	// probes h through g's bloom filter; the LEFT JOIN builds h, which the
	// 256-byte budget spills, and adds g's three unmatched rows.
	{`SELECT COUNT(*) AS n FROM g JOIN h ON g.f = h.x`, "[n]\n[6]\n"},
	{`SELECT COUNT(*) AS n, COUNT(h.x) AS m FROM g LEFT JOIN h ON g.f = h.x`, "[n m]\n[9 6]\n"},
	{`SELECT COUNT(*) AS n FROM g WHERE f = 0.0`, "[n]\n[3]\n"},
	// HAVING keeps 'ab' (2 + 6) and 'b' (1 + 5).
	{`SELECT s, SUM(k) AS t FROM g GROUP BY s HAVING COUNT(*) > 1`,
		"[s t]\n[ab 8]\n[b 6]\n"},
	// k / 2 groups {1}, {2, 3}, {4, 5}, {6}: the two counts of 2 tie and
	// break by the key, which the projection drops.
	{`SELECT COUNT(*) AS n, MAX(k) AS hi FROM g GROUP BY k / 2 ORDER BY n DESC`,
		"[n hi]\n[2 3]\n[2 5]\n[1 1]\n[1 6]\n"},
	// A global aggregate is one row; MIN(s) skips the NULL and finds ''.
	{`SELECT COUNT(*) AS n, SUM(k) AS t, MIN(s) AS lo, MAX(f) AS hi FROM g`,
		"[n t lo hi]\n[6 21  2]\n"},
}

// TestGroupedOrderAcrossExecutors runs grouped statements whose order is
// decided by group-key tie-breaks, and the ±0 group and join keys, on every
// Parallelism × DistributedQueries × JoinMemoryBudget cell. The answers are
// stated by hand, not taken from another path of this engine; under the
// 256-byte budget the LEFT JOIN must spill its build.
func TestGroupedOrderAcrossExecutors(t *testing.T) {
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
				for _, st := range groupedOrderSetup() {
					db.MustExec(st)
				}
				for _, q := range groupedOrderQueries {
					spills := db.Engine().Work.JoinSpills.Load()
					r, err := db.Query(q.sql)
					if err != nil {
						t.Fatalf("%s: %s: %v", name, q.sql, err)
					}
					if got := renderRows(r); got != q.want {
						t.Errorf("%s: wrong result\nsql: %s\ngot:\n%s\nwant:\n%s", name, q.sql, got, q.want)
					}
					if budget > 0 && strings.Contains(q.sql, "LEFT JOIN") && db.Engine().Work.JoinSpills.Load() == spills {
						t.Errorf("%s: %s did not spill its build", name, q.sql)
					}
				}
				if leaked := db.Engine().Store.List(objectstore.SpillPrefix); len(leaked) != 0 {
					t.Fatalf("%s: %d spill/exchange blobs leaked", name, len(leaked))
				}
				db.Close()
			}
		}
	}
}
