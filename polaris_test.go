package polaris

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
)

func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.InitNodes = 2
	cfg.SlotsPerNode = 2
	cfg.Distributions = 4
	cfg.RowsPerFile = 1000
	cfg.RowsPerGroup = 200
	return cfg
}

func TestOpenQuickstartFlow(t *testing.T) {
	db := Open(smallConfig())
	defer db.Close()
	db.MustExec(`CREATE TABLE t (k INT, v VARCHAR) WITH (DISTRIBUTION = k, SORTCOL = k)`)
	r := db.MustExec(`INSERT INTO t VALUES (1, 'a'), (2, 'b'), (3, 'c')`)
	if r.RowsAffected() != 3 {
		t.Fatalf("inserted = %d", r.RowsAffected())
	}
	rows, err := db.Query(`SELECT k, v FROM t WHERE k >= 2 ORDER BY k`)
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() != 2 || rows.Value(0, 1) != "b" {
		t.Fatalf("rows = %d, first = %v", rows.Len(), rows.Row(0))
	}
	if rows.SimTime() <= 0 {
		t.Fatal("no simulated time reported")
	}
	if db.SimTime() <= 0 {
		t.Fatal("no engine sim time")
	}
	if len(rows.Columns()) != 2 || rows.Schema()[0].Name != "k" {
		t.Fatalf("columns = %v", rows.Columns())
	}
}

func TestIndependentSessionsSeeSnapshots(t *testing.T) {
	db := Open(smallConfig())
	defer db.Close()
	db.MustExec(`CREATE TABLE t (k INT, v INT) WITH (DISTRIBUTION = k)`)
	db.MustExec(`INSERT INTO t VALUES (1, 10)`)

	writer := db.Session()
	reader := db.Session()
	defer writer.Close()
	defer reader.Close()
	writer.MustExec(`BEGIN`)
	reader.MustExec(`BEGIN`)
	writer.MustExec(`INSERT INTO t VALUES (2, 20)`)
	r := reader.MustExec(`SELECT COUNT(*) AS n FROM t`)
	if r.Value(0, 0) != int64(1) {
		t.Fatalf("reader sees uncommitted: %v", r.Row(0))
	}
	writer.MustExec(`COMMIT`)
	// reader's snapshot is stable
	r = reader.MustExec(`SELECT COUNT(*) AS n FROM t`)
	if r.Value(0, 0) != int64(1) {
		t.Fatalf("reader snapshot moved: %v", r.Row(0))
	}
	reader.MustExec(`COMMIT`)
	r = db.MustExec(`SELECT COUNT(*) AS n FROM t`)
	if r.Value(0, 0) != int64(2) {
		t.Fatalf("final count: %v", r.Row(0))
	}
}

func TestConflictErrorSurfaceAndMessage(t *testing.T) {
	db := Open(smallConfig())
	defer db.Close()
	db.MustExec(`CREATE TABLE t (k INT, v INT) WITH (DISTRIBUTION = k)`)
	db.MustExec(`INSERT INTO t VALUES (1, 10), (2, 20)`)
	a := db.Session()
	b := db.Session()
	defer a.Close()
	defer b.Close()
	a.MustExec(`BEGIN`)
	b.MustExec(`BEGIN`)
	a.MustExec(`DELETE FROM t WHERE k = 1`)
	b.MustExec(`DELETE FROM t WHERE k = 2`)
	a.MustExec(`COMMIT`)
	_, err := b.Exec(`COMMIT`)
	if err == nil || !strings.Contains(err.Error(), "conflict") {
		t.Fatalf("err = %v", err)
	}
}

func TestMaintenanceAndGC(t *testing.T) {
	db := Open(smallConfig())
	defer db.Close()
	db.MustExec(`CREATE TABLE t (k INT, v INT) WITH (DISTRIBUTION = k)`)
	db.MustExec(`INSERT INTO t VALUES (1, 1), (2, 2), (3, 3), (4, 4)`)
	db.MustExec(`DELETE FROM t WHERE k <= 3`)
	db.MustExec(`COMPACT TABLE t`)
	db.MustExec(`CHECKPOINT TABLE t`)
	res, err := db.GarbageCollect()
	if err != nil {
		t.Fatal(err)
	}
	if res.Scanned == 0 {
		t.Fatalf("gc = %+v", res)
	}
	r := db.MustExec(`SELECT COUNT(*) AS n FROM t`)
	if r.Value(0, 0) != int64(1) {
		t.Fatalf("count = %v", r.Row(0))
	}
}

func TestDeltaPublishingVisibleThroughFacade(t *testing.T) {
	db := Open(smallConfig())
	defer db.Close()
	db.MustExec(`CREATE TABLE t (k INT) WITH (DISTRIBUTION = k)`)
	db.MustExec(`INSERT INTO t VALUES (1)`)
	if len(db.Orchestrator().Published()) == 0 {
		t.Fatal("no delta logs published")
	}
}

func TestIsolationConfig(t *testing.T) {
	for _, iso := range []string{"snapshot", "serializable", "rcsi"} {
		cfg := smallConfig()
		cfg.Isolation = iso
		db := Open(cfg)
		db.MustExec(`CREATE TABLE t (k INT)`)
		db.MustExec(`INSERT INTO t VALUES (1)`)
		r := db.MustExec(`SELECT COUNT(*) AS n FROM t`)
		if r.Value(0, 0) != int64(1) {
			t.Fatalf("%s: count = %v", iso, r.Row(0))
		}
		db.Close()
	}
}

func TestTimeTravelThroughFacade(t *testing.T) {
	db := Open(smallConfig())
	defer db.Close()
	db.MustExec(`CREATE TABLE t (k INT) WITH (DISTRIBUTION = k)`)
	db.MustExec(`INSERT INTO t VALUES (1)`)
	st := db.MustExec(`SHOW STATS t`)
	seq := st.Value(0, 6).(int64)
	db.MustExec(`INSERT INTO t VALUES (2)`)
	r := db.MustExec(`SELECT COUNT(*) AS n FROM t AS OF ` + itoa(seq))
	if r.Value(0, 0) != int64(1) {
		t.Fatalf("as-of = %v", r.Row(0))
	}
}

func itoa(n int64) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}

// A row group larger than the file format allows is a configuration error,
// found at Open rather than by the first write.
func TestOpenRejectsOversizeRowGroups(t *testing.T) {
	cfg := smallConfig()
	cfg.RowsPerGroup = 1<<16 + 1
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "RowsPerGroup") {
			t.Fatalf("Open with RowsPerGroup %d: recovered %v", cfg.RowsPerGroup, r)
		}
	}()
	db := Open(cfg)
	db.Close()
}

// TestExecContextCancelled: a SELECT run under an already-cancelled context
// returns context.Canceled and holds no worker slot, on the DB's main
// session and on an opened one; under a live context it answers.
func TestExecContextCancelled(t *testing.T) {
	db := Open(smallConfig())
	defer db.Close()
	db.MustExec(`CREATE TABLE t (k INT, v INT) WITH (DISTRIBUTION = k)`)
	db.MustExec(`INSERT INTO t VALUES (1, 10), (2, 20), (1, 30)`)
	s := db.Session()
	defer s.Close()
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	const q = `SELECT k, SUM(v) AS total FROM t GROUP BY k ORDER BY k`
	for _, c := range []struct {
		name string
		exec func(context.Context, string) (*Rows, error)
	}{{"db", db.ExecContext}, {"session", s.ExecContext}} {
		if _, err := c.exec(cancelled, q); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: err = %v, want context.Canceled", c.name, err)
		}
		if n := db.Engine().Fabric.LeasedSlots(); n != 0 {
			t.Fatalf("%s: %d fabric slots still leased", c.name, n)
		}
		r, err := c.exec(context.Background(), q)
		if err != nil || r.Len() != 2 || r.Value(0, 1) != int64(40) {
			t.Fatalf("%s: live context: %v, err %v", c.name, r, err)
		}
	}
}
