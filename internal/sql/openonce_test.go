package sql

import (
	"fmt"
	"strings"
	"testing"
)

// footerParses sums the footers the engine's nodes have parsed so far.
func footerParses(s *Session) int64 {
	var n int64
	for _, node := range s.eng.Fabric.Nodes() {
		n += node.Stats().FooterParses
	}
	return n
}

// chunkDecodes sums the column chunks the engine's nodes have decoded so far.
func chunkDecodes(s *Session) int64 {
	var n int64
	for _, node := range s.eng.Fabric.Nodes() {
		n += node.Stats().ChunkDecodes
	}
	return n
}

// dvDecodes sums the deletion vectors the engine's nodes have decoded so far.
func dvDecodes(s *Session) int64 {
	var n int64
	for _, node := range s.eng.Fabric.Nodes() {
		n += node.Stats().DVDecodes
	}
	return n
}

// TestWarmStatementsDecodeNoDeletionVectors: a deletion vector is decoded
// once per cached copy of its bytes, like a data file's footer. Once a
// statement has read a table whose files carry deletion vectors, SELECTs —
// pushed predicate or not — decode none. A DELETE then decodes at most the
// vector it replaces (on the node that writes, which may not have read it
// yet), and the next read only the one it wrote.
func TestWarmStatementsDecodeNoDeletionVectors(t *testing.T) {
	s := testSession(t)
	mustExec(t, s, `CREATE TABLE t (k INT, v INT) WITH (DISTRIBUTION = k, SORTCOL = k)`)
	for i := 0; i < 4; i++ {
		var vals []string
		for r := 0; r < 50; r++ {
			vals = append(vals, fmt.Sprintf("(%d, %d)", i*50+r, r))
		}
		mustExec(t, s, "INSERT INTO t VALUES "+strings.Join(vals, ", "))
	}
	mustExec(t, s, `DELETE FROM t WHERE k % 7 = 0`)
	cold := dvDecodes(s)
	mustExec(t, s, `SELECT COUNT(*) FROM t`) // the warming statement
	if got := dvDecodes(s) - cold; got < 4 {
		t.Fatalf("warming a table of 4 files with deletion vectors decoded %d vectors", got)
	}
	warm := dvDecodes(s)
	for i := 0; i < 3; i++ {
		if res := mustExec(t, s, `SELECT COUNT(*) FROM t WHERE v > 10`); res.Batch.Row(0)[0].(int64) == 0 {
			t.Fatal("no rows")
		}
		mustExec(t, s, `SELECT k, v FROM t ORDER BY k LIMIT 5`)
		mustExec(t, s, `SELECT SUM(v) FROM t`)
	}
	if got := dvDecodes(s) - warm; got != 0 {
		t.Fatalf("nine warm statements decoded %d deletion vectors, want 0", got)
	}
	mustExec(t, s, `DELETE FROM t WHERE k = 1`)
	mustExec(t, s, `SELECT COUNT(*) FROM t`)
	if got := dvDecodes(s) - warm; got > 2 {
		t.Fatalf("a one-row DELETE and a read decoded %d deletion vectors, want at most the one replaced and the one written", got)
	}
	again := dvDecodes(s)
	mustExec(t, s, `SELECT COUNT(*) FROM t`)
	if got := dvDecodes(s) - again; got != 0 {
		t.Fatalf("a second pass decoded %d deletion vectors", got)
	}
}

// TestWarmStatementsParseNoFooters: a sealed file is opened once per cached
// copy of its bytes. After one warming statement, SELECT, DELETE and UPDATE
// over a table of many cached files parse no footer at all; the files an
// UPDATE writes are parsed once, by the first statement that reads them.
func TestWarmStatementsParseNoFooters(t *testing.T) {
	s := testSession(t)
	mustExec(t, s, `CREATE TABLE t (k INT, v INT) WITH (DISTRIBUTION = k, SORTCOL = k)`)
	const inserts, perInsert = 6, 40
	for i := 0; i < inserts; i++ {
		var vals []string
		for r := 0; r < perInsert; r++ {
			vals = append(vals, fmt.Sprintf("(%d, %d)", i*perInsert+r, r))
		}
		mustExec(t, s, "INSERT INTO t VALUES "+strings.Join(vals, ", "))
	}
	cold := footerParses(s)
	mustExec(t, s, `SELECT COUNT(*) FROM t`) // the warming statement
	files := footerParses(s) - cold
	if files < inserts {
		t.Fatalf("warming a table of %d inserts parsed %d footers", inserts, files)
	}

	warm := footerParses(s)
	for i := 0; i < 3; i++ {
		mustExec(t, s, `SELECT SUM(v) FROM t WHERE k >= 10`)
		mustExec(t, s, fmt.Sprintf(`DELETE FROM t WHERE k = %d`, 7+i))
		mustExec(t, s, `SELECT k, v FROM t ORDER BY k LIMIT 5`)
	}
	if res := mustExec(t, s, `UPDATE t SET v = v + 1 WHERE k BETWEEN 100 AND 109`); res.RowsAffected != 10 {
		t.Fatalf("updated %d rows", res.RowsAffected)
	}
	if got := footerParses(s) - warm; got != 0 {
		t.Fatalf("ten statements over %d cached files parsed %d footers, want 0", files, got)
	}
	// The UPDATE's new files are new bytes: parsed once each, then cached.
	mustExec(t, s, `SELECT COUNT(*) FROM t`)
	if got := footerParses(s) - warm; got < 1 || got > 4 {
		t.Fatalf("reading the UPDATE's output parsed %d footers, want one per file it wrote (1..4)", got)
	}
	again := footerParses(s)
	mustExec(t, s, `DELETE FROM t WHERE k < 3`)
	mustExec(t, s, `SELECT COUNT(*) FROM t`)
	if got := footerParses(s) - again; got != 0 {
		t.Fatalf("a second pass parsed %d footers", got)
	}
}

// TestWarmStatementsDecodeNoChunks: a column chunk is decoded once per cached
// copy of its file. After one warming pass over both columns, SELECT, DELETE
// and UPDATE over the cached files decode nothing; the files an UPDATE writes
// are decoded once, by the first statement that reads them.
func TestWarmStatementsDecodeNoChunks(t *testing.T) {
	s := testSession(t)
	mustExec(t, s, `CREATE TABLE t (k INT, v INT) WITH (DISTRIBUTION = k, SORTCOL = k)`)
	const inserts, perInsert = 6, 40
	for i := 0; i < inserts; i++ {
		var vals []string
		for r := 0; r < perInsert; r++ {
			vals = append(vals, fmt.Sprintf("(%d, %d)", i*perInsert+r, r))
		}
		mustExec(t, s, "INSERT INTO t VALUES "+strings.Join(vals, ", "))
	}
	cold := chunkDecodes(s)
	mustExec(t, s, `SELECT SUM(k), SUM(v) FROM t`) // the warming pass
	chunks := chunkDecodes(s) - cold
	if chunks < 2*inserts {
		t.Fatalf("warming two columns of %d inserts decoded %d chunks", inserts, chunks)
	}

	warm := chunkDecodes(s)
	for i := 0; i < 3; i++ {
		mustExec(t, s, `SELECT SUM(v) FROM t WHERE k >= 10`)
		mustExec(t, s, fmt.Sprintf(`DELETE FROM t WHERE k = %d`, 7+i))
		mustExec(t, s, `SELECT k, v FROM t ORDER BY k LIMIT 5`)
	}
	if res := mustExec(t, s, `UPDATE t SET v = v + 1 WHERE k BETWEEN 100 AND 109`); res.RowsAffected != 10 {
		t.Fatalf("updated %d rows", res.RowsAffected)
	}
	if got := chunkDecodes(s) - warm; got != 0 {
		t.Fatalf("ten statements over %d decoded chunks decoded %d more, want 0", chunks, got)
	}
	// The UPDATE's new files are new bytes: decoded once, then shared.
	if res := mustExec(t, s, `SELECT SUM(k), SUM(v) FROM t`); res.Batch.NumRows() != 1 {
		t.Fatalf("%d rows", res.Batch.NumRows())
	}
	if got := chunkDecodes(s) - warm; got < 2 || got > 8 {
		t.Fatalf("reading the UPDATE's output decoded %d chunks, want two per file it wrote (2..8)", got)
	}
	again := chunkDecodes(s)
	mustExec(t, s, `DELETE FROM t WHERE k < 3`)
	mustExec(t, s, `SELECT SUM(k), SUM(v) FROM t`)
	if got := chunkDecodes(s) - again; got != 0 {
		t.Fatalf("a second pass decoded %d chunks", got)
	}
}

// TestDMLWhereReachesThePruneHint: UPDATE and DELETE compile their WHERE
// into the program a SELECT's scan runs, and the row finder's scan reads
// its zone-map ranges (Prog.Ranges), so like a SELECT they never evaluate
// the rest of the predicate in row groups the range excludes: v = 0 lives
// 300 keys away from the range, in another row group.
func TestDMLWhereReachesThePruneHint(t *testing.T) {
	s := testSession(t) // 100 rows per group
	mustExec(t, s, `CREATE TABLE t (k INT, v INT) WITH (DISTRIBUTION = v, SORTCOL = k)`)
	var vals []string
	for k := 0; k < 400; k++ {
		v := 5
		if k == 350 {
			v = 0
		}
		vals = append(vals, fmt.Sprintf("(%d, %d)", k, v))
	}
	mustExec(t, s, "INSERT INTO t VALUES "+strings.Join(vals, ", "))
	const where = ` WHERE t.k >= 10 AND k <= 19 AND 10 / v = 2`
	if res := mustExec(t, s, `SELECT k FROM t`+where); res.Batch.NumRows() != 10 {
		t.Fatalf("SELECT matched %d rows", res.Batch.NumRows())
	}
	if res := mustExec(t, s, `UPDATE t SET v = 5`+where); res.RowsAffected != 10 {
		t.Fatalf("UPDATE matched %d rows", res.RowsAffected)
	}
	if res := mustExec(t, s, `DELETE FROM t`+where); res.RowsAffected != 10 {
		t.Fatalf("DELETE matched %d rows", res.RowsAffected)
	}
	// Without a range the zero is reached, and is the statement's error.
	if _, err := s.Exec(`DELETE FROM t WHERE 10 / v = 2`); err == nil || !strings.Contains(err.Error(), "division by zero") {
		t.Fatalf("unpruned DELETE over v = 0: %v", err)
	}
}
