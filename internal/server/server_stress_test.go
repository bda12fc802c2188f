package server

// Sustained concurrent-traffic stress: N client goroutines drive mixed
// read/write/spilling statements over live HTTP sessions against one engine
// while STO maintenance (auto-compaction triggered by commits, plus explicit
// COMPACT/CHECKPOINT/VACUUM statements) runs concurrently — the LST-Bench
// "sessions + data maintenance" scenario the one-shot CLI cannot express.
//
// Asserted: read results stay byte-identical to a pre-stress serial
// reference, every insert lands exactly once, admission saw real queueing
// (queued > 0 under contention), and after graceful drain nothing leaks —
// zero leased slots, zero queued admission seats, zero surviving sessions.
// `go test -short` runs a bounded variant; `make race` runs it under -race
// with ≥ 8 concurrent sessions.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// renderResp renders a query response's rows into a comparable string.
func renderResp(r *QueryResponse) string {
	var b strings.Builder
	for _, row := range r.Rows {
		for i, v := range row {
			if i > 0 {
				b.WriteByte('\t')
			}
			fmt.Fprintf(&b, "%v", v)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func TestServerConcurrentTrafficStress(t *testing.T) {
	const workers = 8
	iters := 24
	if testing.Short() {
		iters = 8
	}

	pcfg := tinyFabric(4) // 4 fabric slots under 8 sessions: admission must queue
	pcfg.AutoCompact = true
	e := newEnv(t, pcfg, Config{
		QueueDepth:    1024,
		AdmitTimeout:  time.Minute,
		SessionBudget: 2 << 10, // tiny per-session budget: the join mix spills
	})

	// --- seed static read/join tables and the shared write sink ---
	e.query("", "CREATE TABLE base (k INT, v INT) WITH (DISTRIBUTION = k)")
	e.query("", "CREATE TABLE build (k INT, b INT) WITH (DISTRIBUTION = k)")
	e.query("", "CREATE TABLE probe (k INT, p INT) WITH (DISTRIBUTION = k)")
	e.query("", "CREATE TABLE sink (k INT, w INT) WITH (DISTRIBUTION = k)")
	for lo := 0; lo < 600; lo += 200 {
		var ins strings.Builder
		ins.WriteString("INSERT INTO base VALUES ")
		for i := lo; i < lo+200; i++ {
			if i > lo {
				ins.WriteString(", ")
			}
			fmt.Fprintf(&ins, "(%d, %d)", i, i%97)
		}
		e.query("", ins.String())
	}
	var ins strings.Builder
	ins.WriteString("INSERT INTO build VALUES ")
	for i := 0; i < 512; i++ {
		if i > 0 {
			ins.WriteString(", ")
		}
		fmt.Fprintf(&ins, "(%d, %d)", i, i*3)
	}
	e.query("", ins.String())
	e.query("", "INSERT INTO probe SELECT k, b FROM build")

	// --- serial reference results on the quiescent database ---
	readQueries := []string{
		"SELECT COUNT(*), SUM(v) FROM base",
		"SELECT COUNT(*) FROM probe JOIN build ON probe.k = build.k",
		"SELECT k, v FROM base WHERE k < 50 ORDER BY k LIMIT 10",
		"SELECT v, COUNT(*) FROM base WHERE k < 300 GROUP BY v ORDER BY v LIMIT 5",
	}
	want := make([]string, len(readQueries))
	for i, q := range readQueries {
		want[i] = renderResp(e.query("", q))
	}
	spillsBefore := e.db.Engine().Work.JoinSpills.Load()

	// --- concurrent mixed traffic over per-worker server sessions ---
	var (
		wg           sync.WaitGroup // query/DML workers
		mwg          sync.WaitGroup // maintenance loop: stopped after workers drain
		insertedMu   sync.Mutex
		inserted     int
		maintenance  = make(chan struct{})
		maintenanceN int
	)
	countInsert := func(n int) {
		insertedMu.Lock()
		inserted += n
		insertedMu.Unlock()
	}
	// Maintenance session: STO auto-compaction already fires on commit
	// events; this loop adds the explicit maintenance statements on top,
	// racing the query/DML traffic. Conflict-induced statement errors are
	// legal (compaction retries are bounded); HTTP-level failures are not.
	mwg.Add(1)
	go func() {
		defer mwg.Done()
		stmts := []string{"COMPACT TABLE sink", "CHECKPOINT TABLE sink", "VACUUM", "COMPACT TABLE base"}
		for i := 0; ; i++ {
			select {
			case <-maintenance:
				return
			default:
			}
			code, body := e.tryQuery("", stmts[i%len(stmts)])
			if code != http.StatusOK && code != http.StatusBadRequest {
				t.Errorf("maintenance %q: HTTP %d: %s", stmts[i%len(stmts)], code, body)
				return
			}
			maintenanceN++
			time.Sleep(2 * time.Millisecond)
		}
	}()

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			sid := e.createSession()
			if worker%2 == 1 {
				// odd workers close their session themselves; even workers
				// leave it for drain to close
				defer func() {
					req, _ := http.NewRequest(http.MethodDelete, e.ts.URL+"/v1/session/"+sid, nil)
					resp, err := http.DefaultClient.Do(req)
					if err == nil {
						resp.Body.Close()
					}
				}()
			}
			for i := 0; i < iters; i++ {
				switch i % 5 {
				case 0: // explicit transaction on the session
					for _, q := range []string{
						"BEGIN",
						fmt.Sprintf("INSERT INTO sink VALUES (%d, %d)", worker*1_000_000+i, worker),
						"COMMIT",
					} {
						if code, body := e.tryQuery(sid, q); code != http.StatusOK {
							t.Errorf("worker %d txn %q: HTTP %d: %s", worker, q, code, body)
							return
						}
					}
					countInsert(1)
				case 1: // spilling join under the per-session budget
					code, body := e.tryQuery(sid, readQueries[1])
					if code != http.StatusOK {
						t.Errorf("worker %d join: HTTP %d: %s", worker, code, body)
						return
					}
					var qr QueryResponse
					_ = json.Unmarshal(body, &qr)
					if got := renderResp(&qr); got != want[1] {
						t.Errorf("worker %d join diverged:\ngot:  %swant: %s", worker, got, want[1])
						return
					}
				case 2: // aggregation + top-N reads on the static table
					for _, qi := range []int{0, 2, 3} {
						code, body := e.tryQuery(sid, readQueries[qi])
						if code != http.StatusOK {
							t.Errorf("worker %d read %d: HTTP %d: %s", worker, qi, code, body)
							return
						}
						var qr QueryResponse
						_ = json.Unmarshal(body, &qr)
						if got := renderResp(&qr); got != want[qi] {
							t.Errorf("worker %d read %d diverged under concurrency:\ngot:  %swant: %s",
								worker, qi, got, want[qi])
							return
						}
					}
				case 3: // autocommit write through a one-shot session
					code, body := e.tryQuery("", fmt.Sprintf(
						"INSERT INTO sink VALUES (%d, %d)", worker*1_000_000+500_000+i, worker))
					if code != http.StatusOK {
						t.Errorf("worker %d autocommit insert: HTTP %d: %s", worker, code, body)
						return
					}
					countInsert(1)
				case 4: // point read mixed with everything else
					code, body := e.tryQuery(sid, "SELECT v FROM base WHERE k = 41")
					if code != http.StatusOK {
						t.Errorf("worker %d point read: HTTP %d: %s", worker, code, body)
						return
					}
				}
			}
		}(w)
	}

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(3 * time.Minute):
		t.Fatal("stress traffic did not finish within 3 minutes")
	}
	close(maintenance)
	mwg.Wait()
	if t.Failed() {
		return
	}
	if maintenanceN == 0 {
		t.Fatal("maintenance loop never ran a statement")
	}

	// --- post-stress correctness vs the serial reference ---
	for i, q := range readQueries {
		if got := renderResp(e.query("", q)); got != want[i] {
			t.Fatalf("read %d diverged after stress:\ngot:  %swant: %s", i, got, want[i])
		}
	}
	insertedMu.Lock()
	total := inserted
	insertedMu.Unlock()
	r := e.query("", "SELECT COUNT(*) FROM sink")
	if got := r.Rows[0][0]; got != float64(total) {
		t.Fatalf("sink has %v rows, want %d (every insert exactly once)", got, total)
	}
	if got := e.db.Engine().Work.JoinSpills.Load(); got <= spillsBefore {
		t.Fatalf("JoinSpills = %d (before %d): stress mix never exercised the spill path", got, spillsBefore)
	}
	if len(e.db.Orchestrator().Checkpoints()) == 0 {
		t.Fatalf("the STO checkpointed no table under concurrent commits (errs %v)", e.db.Orchestrator().Errors())
	}

	// --- admission counters: real queueing under contention ---
	adm := &e.db.Engine().Work.Admission
	if adm.Admitted.Load() == 0 {
		t.Fatal("Admitted = 0")
	}
	if adm.Queued.Load() == 0 {
		t.Fatal("Queued = 0: 8 sessions over 4 slots must have contended")
	}
	if adm.Queued.Load() > 0 && adm.QueueWaitNanos.Load() == 0 {
		t.Fatal("QueueWaitNanos = 0 with queued statements")
	}
	if adm.Rejected.Load() != 0 || adm.TimedOut.Load() != 0 || adm.Canceled.Load() != 0 {
		t.Fatalf("unexpected rejections under a deep queue: rejected=%d timedOut=%d canceled=%d",
			adm.Rejected.Load(), adm.TimedOut.Load(), adm.Canceled.Load())
	}

	// --- graceful drain: nothing leaks ---
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := e.srv.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if n := e.db.Engine().Fabric.LeasedSlots(); n != 0 {
		t.Fatalf("leaked %d slot leases after drain", n)
	}
	if n := e.db.Engine().Fabric.QueuedLeases(); n != 0 {
		t.Fatalf("leaked %d queued admission seats after drain", n)
	}
	if n := e.srv.SessionCount(); n != 0 {
		t.Fatalf("%d sessions survived drain", n)
	}
	// the drained engine still answers direct (library) queries correctly
	s := e.db.Session()
	defer s.Close()
	rr, err := s.Exec("SELECT COUNT(*) FROM sink")
	if err != nil {
		t.Fatalf("post-drain library query: %v", err)
	}
	if got := rr.Value(0, 0); got != int64(total) && got != float64(total) {
		t.Fatalf("post-drain library count = %v, want %d", got, total)
	}
}
