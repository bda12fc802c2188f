package polaris

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"polaris/internal/manifest"
)

// Table snapshots are shared: the snapshot cache hands every reader of a
// table's newest sequence the same *manifest.TableState, the cache's Advance
// builds the next commit's state from it, and a transaction's Overlay builds
// its own view from it. That is only sound if nothing writes a state once it
// is published. This test records the states Txn.Snapshot returns at every
// step of a workload — the executor matrix's statements, a multi-statement
// transaction, COMPACT, CHECKPOINT, an AS OF read, CLONE and RESTORE — and
// then checks that each still marshals to the bytes it had when recorded.
func TestSnapshotStatesAreNeverWritten(t *testing.T) {
	type recorded struct {
		step, table string
		state       *manifest.TableState
		json        []byte
	}
	selects := func(db *DB) {
		for _, st := range matrixStmts {
			if _, err := db.Query(st.sql); (err != nil) != (st.wantErr != "") {
				t.Fatalf("%s: %v", st.sql, err)
			}
		}
	}
	for _, p := range []int{1, 4} {
		for _, dag := range []bool{false, true} {
			for _, budget := range []int64{0, 256} {
				name := fmt.Sprintf("parallelism=%d,dag=%v,budget=%d", p, dag, budget)
				db := matrixData.open(t, p, dag, budget)
				defer db.Close()
				tables := []string{"a", "b", "c", "e"}
				var seen []recorded
				record := func(step string, asOf int64) {
					tx := db.Engine().Begin()
					defer tx.Rollback()
					for _, table := range tables {
						st, _, err := tx.Snapshot(table, asOf)
						if err != nil {
							t.Fatalf("%s: %s: snapshot of %s: %v", name, step, table, err)
						}
						data, err := json.Marshal(st)
						if err != nil {
							t.Fatal(err)
						}
						seen = append(seen, recorded{step, table, st, data})
					}
				}

				record("load", -1)
				selects(db)
				record("selects", -1)
				seq := db.Engine().Catalog.CurrentSeq()

				s := db.Session()
				s.MustExec(`BEGIN`)
				s.MustExec(`INSERT INTO a VALUES (1001, 'new', 3, 1, 0.5), (1003, 'new', 4, NULL, 1.5)`)
				s.MustExec(`UPDATE a SET v = v + 1 WHERE id BETWEEN 100 AND 140`)
				s.MustExec(`DELETE FROM a WHERE id % 50 = 0`)
				s.MustExec(`DELETE FROM b WHERE bk = 3`)
				if got := s.MustExec(`SELECT COUNT(*) FROM a WHERE s = 'new'`).Value(0, 0); got != int64(2) {
					t.Fatalf("%s: the transaction's SELECT sees %v of its 2 rows", name, got)
				}
				s.MustExec(`COMMIT`)
				s.Close()
				record("transaction", -1)

				db.MustExec(`COMPACT TABLE a`)
				db.MustExec(`COMPACT TABLE b`)
				record("compact", -1)
				db.MustExec(`CHECKPOINT TABLE a`)
				record("checkpoint", -1)
				db.MustExec(fmt.Sprintf(`SELECT COUNT(*), SUM(v) FROM a AS OF %d`, seq))
				record("as of", seq)
				db.MustExec(fmt.Sprintf(`CLONE TABLE a TO a2 AS OF %d`, seq))
				db.MustExec(`SELECT COUNT(*), SUM(v) FROM a2`)
				db.MustExec(fmt.Sprintf(`RESTORE TABLE a AS OF %d`, seq))
				record("restore", -1)
				selects(db)
				tables = append(tables, "a2")
				record("after", -1)

				for _, r := range seen {
					now, err := json.Marshal(r.state)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(now, r.json) {
						t.Errorf("%s: the state of %s recorded at %q was written after it was published:\nthen: %s\nnow:  %s",
							name, r.table, r.step, r.json, now)
					}
				}
			}
		}
	}
}
