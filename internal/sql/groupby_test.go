package sql

import (
	"fmt"
	"strings"
	"testing"
)

// BenchmarkGroupBy times grouped statements over 100,000 distinct INT keys,
// one group per row: GROUP BY alone, ordered by its group key, and under
// ORDER BY <aggregate> LIMIT, a bounded TopN whose ties break by the key.
func BenchmarkGroupBy(b *testing.B) {
	const rows, perInsert = 100_000, 10_000
	s := testSession(b)
	mustExec(b, s, `CREATE TABLE t (k INT, v INT) WITH (DISTRIBUTION = k)`)
	for lo := 0; lo < rows; lo += perInsert {
		var sb strings.Builder
		sb.WriteString("INSERT INTO t VALUES ")
		for k := lo; k < lo+perInsert; k++ {
			if k > lo {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "(%d, %d)", k, k%7)
		}
		mustExec(b, s, sb.String())
	}
	for _, q := range []struct{ name, sql string }{
		{"unordered", `SELECT k, COUNT(*) AS n FROM t GROUP BY k`},
		{"topn", `SELECT k, COUNT(*) AS n FROM t GROUP BY k ORDER BY n DESC LIMIT 10`},
	} {
		b.Run(q.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				mustExec(b, s, q.sql)
			}
		})
	}
}
