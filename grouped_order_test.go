package polaris

import (
	"fmt"
	"strings"
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

// groupedOrderData holds grouped statements whose order is decided by
// group-key tie-breaks, and the ±0 group and join keys, to answers stated by
// hand over groupedOrderSetup's tables, not taken from another path of this
// engine. A grouped result is ordered by its ORDER BY keys, then by its group
// keys ascending — NULL first, strings lexicographically, so 'ab' before 'b' —
// and -0 = +0 makes the two zeros one group and one join key.
var groupedOrderData = matrixDataset{
	name: "grouped_order", distributions: 4, budget: 256,
	setup: execAll(groupedOrderSetup()...), stmts: []matrixStmt{
		// No ORDER BY: the group keys alone.
		{sql: `SELECT s, COUNT(*) AS n FROM g GROUP BY s`,
			want: "[s n]\n[<nil> 1]\n[ 1]\n[ab 2]\n[b 2]\n"},
		// Ties on n break by s.
		{sql: `SELECT s, COUNT(*) AS n FROM g GROUP BY s ORDER BY n DESC`,
			want: "[s n]\n[ab 2]\n[b 2]\n[<nil> 1]\n[ 1]\n"},
		{sql: `SELECT s, COUNT(*) AS n FROM g GROUP BY s ORDER BY n DESC LIMIT 1 OFFSET 1`,
			want: "[s n]\n[b 2]\n"},
		// The projection drops the group key; its ties still break by it.
		{sql: `SELECT COUNT(*) AS n FROM g GROUP BY s ORDER BY n`,
			want: "[n]\n[1]\n[1]\n[2]\n[2]\n"},
		// f's groups: the zeros {1, 2, 4}, 1.5 {3, 5}, 2.0 {6}.
		{sql: `SELECT MIN(k) AS lo, COUNT(*) AS n FROM g GROUP BY f ORDER BY lo`,
			want: "[lo n]\n[1 3]\n[3 2]\n[6 1]\n"},
		// Three zeros in g, two in h: six pairs. The inner join builds g and
		// probes h through g's bloom filter; the LEFT JOIN builds h, which the
		// 256-byte budget spills, and adds g's three unmatched rows.
		{sql: `SELECT COUNT(*) AS n FROM g JOIN h ON g.f = h.x`, want: "[n]\n[6]\n"},
		{sql: `SELECT COUNT(*) AS n, COUNT(h.x) AS m FROM g LEFT JOIN h ON g.f = h.x`, want: "[n m]\n[9 6]\n", spills: 1},
		{sql: `SELECT COUNT(*) AS n FROM g WHERE f = 0.0`, want: "[n]\n[3]\n"},
		// HAVING keeps 'ab' (2 + 6) and 'b' (1 + 5).
		{sql: `SELECT s, SUM(k) AS t FROM g GROUP BY s HAVING COUNT(*) > 1`,
			want: "[s t]\n[ab 8]\n[b 6]\n"},
		// k / 2 groups {1}, {2, 3}, {4, 5}, {6}: the two counts of 2 tie and
		// break by the key, which the projection drops.
		{sql: `SELECT COUNT(*) AS n, MAX(k) AS hi FROM g GROUP BY k / 2 ORDER BY n DESC`,
			want: "[n hi]\n[2 3]\n[2 5]\n[1 1]\n[1 6]\n"},
		// A global aggregate is one row; MIN(s) skips the NULL and finds ''.
		{sql: `SELECT COUNT(*) AS n, SUM(k) AS t, MIN(s) AS lo, MAX(f) AS hi FROM g`,
			want: "[n t lo hi]\n[6 21  2]\n"},
	},
}
