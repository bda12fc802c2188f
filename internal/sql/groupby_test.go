package sql

import (
	"fmt"
	"strings"
	"testing"
)

// BenchmarkGroupBy times grouped statements over 100,000 distinct INT keys,
// one group per row: GROUP BY alone, ordered by its group key, and under
// ORDER BY <aggregate> LIMIT, a bounded TopN whose ties break by the key.
// Three more group 100,000 rows of u by other keys: a 25-value VARCHAR
// scanned from u, the same strings from the build side of a join with the
// 25-row dim, and an (INT, INT) pair of 100,000 distinct values.
func BenchmarkGroupBy(b *testing.B) {
	const rows, perInsert = 100_000, 10_000
	s := testSession(b)
	mustExec(b, s, `CREATE TABLE t (k INT, v INT) WITH (DISTRIBUTION = k)`)
	mustExec(b, s, `CREATE TABLE u (k INT, d INT, s VARCHAR) WITH (DISTRIBUTION = k)`)
	mustExec(b, s, `CREATE TABLE dim (d INT, s VARCHAR) WITH (DISTRIBUTION = d)`)
	for lo := 0; lo < rows; lo += perInsert {
		var sb, su strings.Builder
		sb.WriteString("INSERT INTO t VALUES ")
		su.WriteString("INSERT INTO u VALUES ")
		for k := lo; k < lo+perInsert; k++ {
			if k > lo {
				sb.WriteString(", ")
				su.WriteString(", ")
			}
			fmt.Fprintf(&sb, "(%d, %d)", k, k%7)
			fmt.Fprintf(&su, "(%d, %d, 'value-%02d')", k, k%25, k%25)
		}
		mustExec(b, s, sb.String())
		mustExec(b, s, su.String())
	}
	var sd strings.Builder
	sd.WriteString("INSERT INTO dim VALUES ")
	for d := 0; d < 25; d++ {
		if d > 0 {
			sd.WriteString(", ")
		}
		fmt.Fprintf(&sd, "(%d, 'value-%02d')", d, d)
	}
	mustExec(b, s, sd.String())
	for _, q := range []struct{ name, sql string }{
		{"unordered", `SELECT k, COUNT(*) AS n FROM t GROUP BY k`},
		{"topn", `SELECT k, COUNT(*) AS n FROM t GROUP BY k ORDER BY n DESC LIMIT 10`},
		{"varchar_scanned", `SELECT s, COUNT(*) AS n FROM u GROUP BY s`},
		{"varchar_build", `SELECT dim.s, COUNT(*) AS n FROM u JOIN dim ON u.d = dim.d GROUP BY dim.s`},
		{"int_int", `SELECT k, d, COUNT(*) AS n FROM u GROUP BY k, d`},
	} {
		b.Run(q.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				mustExec(b, s, q.sql)
			}
		})
	}
}
