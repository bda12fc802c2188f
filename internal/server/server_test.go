package server

// Lifecycle, admission and drain behavior of the multi-session HTTP front
// end: sessions with explicit transactions, queue-full/timeout admission
// paths with counter assertions, per-session memory budgets feeding the
// grace-join spill path, and graceful drain with in-flight statements.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"polaris"
	"polaris/internal/catalog"
	"polaris/internal/compute"
	"polaris/internal/core"
	"polaris/internal/objectstore"
)

type env struct {
	t   *testing.T
	db  *polaris.DB
	srv *Server
	ts  *httptest.Server
}

// tinyFabric is a polaris config whose fabric has exactly `slots` total
// compute slots (bounded, non-elastic), making admission contention
// deterministic, with small files so parallel plans still split morsels.
func tinyFabric(slots int) polaris.Config {
	cfg := polaris.DefaultConfig()
	cfg.Elastic = false
	cfg.MaxNodes = 1
	cfg.InitNodes = 1
	cfg.SlotsPerNode = slots
	cfg.Parallelism = slots
	cfg.RowsPerFile = 256
	cfg.RowsPerGroup = 64
	return cfg
}

func newEnv(t *testing.T, pcfg polaris.Config, scfg Config) *env {
	t.Helper()
	db := polaris.Open(pcfg)
	srv := New(db.Engine(), scfg)
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		db.Close()
	})
	return &env{t: t, db: db, srv: srv, ts: ts}
}

type errBody struct {
	Error string `json:"error"`
	Code  string `json:"code"`
}

func (e *env) post(path string, body []byte) (int, []byte) {
	e.t.Helper()
	resp, err := http.Post(e.ts.URL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		e.t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, data
}

func (e *env) get(path string) (int, []byte) {
	e.t.Helper()
	resp, err := http.Get(e.ts.URL + path)
	if err != nil {
		e.t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, data
}

// query posts one statement (optionally on a named session) and requires
// HTTP 200, returning the decoded response.
func (e *env) query(session, sqlText string) *QueryResponse {
	e.t.Helper()
	code, body := e.tryQuery(session, sqlText)
	if code != http.StatusOK {
		e.t.Fatalf("query %q on %q: HTTP %d: %s", sqlText, session, code, body)
	}
	var qr QueryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		e.t.Fatalf("query %q: decoding %s: %v", sqlText, body, err)
	}
	return &qr
}

func (e *env) tryQuery(session, sqlText string) (int, []byte) {
	e.t.Helper()
	req, _ := json.Marshal(map[string]string{"sql": sqlText, "session": session})
	return e.post("/v1/query", req)
}

func (e *env) createSession() string {
	e.t.Helper()
	code, body := e.post("/v1/session", nil)
	if code != http.StatusOK {
		e.t.Fatalf("create session: HTTP %d: %s", code, body)
	}
	var out struct {
		Session string `json:"session"`
	}
	if err := json.Unmarshal(body, &out); err != nil || out.Session == "" {
		e.t.Fatalf("create session: bad body %s (%v)", body, err)
	}
	return out.Session
}

func (e *env) metrics() *Metrics {
	e.t.Helper()
	code, body := e.get("/metrics")
	if code != http.StatusOK {
		e.t.Fatalf("metrics: HTTP %d: %s", code, body)
	}
	var m Metrics
	if err := json.Unmarshal(body, &m); err != nil {
		e.t.Fatalf("metrics: decoding: %v", err)
	}
	return &m
}

func decodeErr(t *testing.T, body []byte) errBody {
	t.Helper()
	var eb errBody
	if err := json.Unmarshal(body, &eb); err != nil {
		t.Fatalf("error body %q is not the JSON error shape: %v", body, err)
	}
	if eb.Error == "" || eb.Code == "" {
		t.Fatalf("error body %q missing error/code fields", body)
	}
	return eb
}

func TestServerSessionLifecycle(t *testing.T) {
	e := newEnv(t, tinyFabric(4), Config{})
	e.query("", "CREATE TABLE kv (k INT, v VARCHAR) WITH (DISTRIBUTION = k)")

	// explicit transaction on a named session, interleaved with reads from
	// a one-shot session that must not see uncommitted rows
	sid := e.createSession()
	e.query(sid, "BEGIN")
	e.query(sid, "INSERT INTO kv VALUES (1, 'a'), (2, 'b')")
	if got := e.query("", "SELECT COUNT(*) FROM kv").Rows[0][0]; got != float64(0) {
		t.Fatalf("uncommitted rows visible to other session: count=%v", got)
	}
	e.query(sid, "COMMIT")
	if got := e.query("", "SELECT COUNT(*) FROM kv").Rows[0][0]; got != float64(2) {
		t.Fatalf("count after commit = %v, want 2", got)
	}

	// a session holding an open txn is rolled back by DELETE
	e.query(sid, "BEGIN")
	e.query(sid, "INSERT INTO kv VALUES (3, 'c')")
	code, body := e.post("/v1/session", nil)
	if code != http.StatusOK {
		t.Fatalf("second session: %d %s", code, body)
	}
	req, _ := http.NewRequest(http.MethodDelete, e.ts.URL+"/v1/session/"+sid, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE session: %v code=%d", err, resp.StatusCode)
	}
	resp.Body.Close()
	if got := e.query("", "SELECT COUNT(*) FROM kv").Rows[0][0]; got != float64(2) {
		t.Fatalf("count after rollback-by-delete = %v, want 2 (open txn must roll back)", got)
	}
	if code, body := e.tryQuery(sid, "SELECT 1 FROM kv"); code != http.StatusNotFound {
		t.Fatalf("query on deleted session: HTTP %d %s, want 404", code, body)
	}
	if n := e.db.Engine().Fabric.LeasedSlots(); n != 0 {
		t.Fatalf("leaked %d slots", n)
	}
}

func TestServerAdmissionQueueFullRejected(t *testing.T) {
	// One fabric slot, one admission queue seat: with the slot held and a
	// statement parked in the queue, the next arrival must be rejected.
	e := newEnv(t, tinyFabric(1), Config{QueueDepth: 1, AdmitTimeout: 10 * time.Second})
	e.query("", "CREATE TABLE t (k INT, v INT) WITH (DISTRIBUTION = k)")
	e.query("", "INSERT INTO t VALUES (1, 1)")

	hold := e.db.Engine().Fabric.LeaseSlots(1)
	parked := make(chan *QueryResponse, 1)
	go func() { parked <- e.query("", "SELECT COUNT(*) FROM t") }()
	deadline := time.Now().Add(5 * time.Second)
	for e.db.Engine().Fabric.QueuedLeases() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("first statement never queued")
		}
		time.Sleep(time.Millisecond)
	}

	code, body := e.tryQuery("", "SELECT COUNT(*) FROM t")
	if code != http.StatusTooManyRequests {
		t.Fatalf("queue-full statement: HTTP %d %s, want 429", code, body)
	}
	if eb := decodeErr(t, body); eb.Code != "queue_full" {
		t.Fatalf("code = %q, want queue_full", eb.Code)
	}
	w := &e.db.Engine().Work.Admission
	if w.Rejected.Load() != 1 {
		t.Fatalf("Rejected = %d, want 1", w.Rejected.Load())
	}
	hold.Release()
	if r := <-parked; r.Rows[0][0] != float64(1) {
		t.Fatalf("parked query wrong: %v", r.Rows)
	}
	if w.Queued.Load() == 0 {
		t.Fatalf("Queued = 0, want > 0 (a statement waited)")
	}
	if n := e.db.Engine().Fabric.LeasedSlots(); n != 0 {
		t.Fatalf("leaked %d slots", n)
	}
}

func TestServerAdmissionTimeout(t *testing.T) {
	e := newEnv(t, tinyFabric(1), Config{QueueDepth: 8, AdmitTimeout: 30 * time.Millisecond})
	e.query("", "CREATE TABLE t (k INT) WITH (DISTRIBUTION = k)")

	hold := e.db.Engine().Fabric.LeaseSlots(1)
	code, body := e.tryQuery("", "SELECT COUNT(*) FROM t")
	hold.Release()
	if code != http.StatusGatewayTimeout {
		t.Fatalf("timed-out statement: HTTP %d %s, want 504", code, body)
	}
	if eb := decodeErr(t, body); eb.Code != "admission_timeout" {
		t.Fatalf("code = %q, want admission_timeout", eb.Code)
	}
	w := &e.db.Engine().Work.Admission
	if w.TimedOut.Load() != 1 || w.Queued.Load() == 0 {
		t.Fatalf("timedOut=%d queued=%d, want 1 and >0", w.TimedOut.Load(), w.Queued.Load())
	}
	if n := e.db.Engine().Fabric.LeasedSlots(); n != 0 {
		t.Fatalf("leaked %d slots", n)
	}
}

func TestServerPerSessionBudgetFeedsSpill(t *testing.T) {
	// Engine-wide budget unlimited; the server session carries its own tiny
	// budget, so a join running through it must take the grace spill path.
	e := newEnv(t, tinyFabric(4), Config{SessionBudget: 1 << 10})
	var ins strings.Builder
	ins.WriteString("INSERT INTO build VALUES ")
	for i := 0; i < 512; i++ {
		if i > 0 {
			ins.WriteString(", ")
		}
		fmt.Fprintf(&ins, "(%d, %d)", i, i*3)
	}
	e.query("", "CREATE TABLE probe (k INT, p INT) WITH (DISTRIBUTION = k)")
	e.query("", "CREATE TABLE build (k INT, b INT) WITH (DISTRIBUTION = k)")
	e.query("", ins.String())
	e.query("", "INSERT INTO probe SELECT k, b FROM build")

	sid := e.createSession()
	before := e.db.Engine().Work.JoinSpills.Load()
	r := e.query(sid, "SELECT COUNT(*) FROM probe JOIN build ON probe.k = build.k")
	if r.Rows[0][0] != float64(512) {
		t.Fatalf("join count = %v, want 512", r.Rows[0][0])
	}
	if got := e.db.Engine().Work.JoinSpills.Load(); got <= before {
		t.Fatalf("JoinSpills = %d (before %d): per-session budget did not reach the join", got, before)
	}
	// The same join on a session with an explicitly unlimited budget must
	// not spill: the override is per-session, not engine-global.
	code, body := e.post("/v1/session", []byte(`{"budget": -1}`))
	if code != http.StatusOK {
		t.Fatalf("budgeted session: %d %s", code, body)
	}
	var out struct {
		Session string `json:"session"`
	}
	_ = json.Unmarshal(body, &out)
	mid := e.db.Engine().Work.JoinSpills.Load()
	e.query(out.Session, "SELECT COUNT(*) FROM probe JOIN build ON probe.k = build.k")
	if got := e.db.Engine().Work.JoinSpills.Load(); got != mid {
		t.Fatalf("unlimited-budget session spilled (JoinSpills %d -> %d)", mid, got)
	}
}

// TestServerStatementObservesRequestContext: the request context reaches the
// executor, not just admission. The store stamps every write with its clock,
// so once armed the statement's first spill write cancels the request — after
// admission, mid-join; the statement must stop (503 canceled, not a result
// and not the client's 400), release its slots and clean its spill files.
func TestServerStatementObservesRequestContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var armed atomic.Bool
	store := objectstore.New(objectstore.WithClock(func() time.Time {
		if armed.Load() {
			cancel()
		}
		return time.Now()
	}))
	opts := core.DefaultOptions()
	opts.Parallelism = 2
	opts.JoinMemoryBudget = 1 << 10
	eng := core.NewEngine(catalog.NewDB(), store,
		compute.NewFabric(compute.Config{Elastic: true, InitNodes: 2, SlotsPer: 2}), opts)
	srv := New(eng, Config{})
	do := func(ctx context.Context, sqlText string) *httptest.ResponseRecorder {
		body, _ := json.Marshal(queryRequest{SQL: sqlText})
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(body)).WithContext(ctx))
		return rec
	}
	var ins strings.Builder
	ins.WriteString("INSERT INTO build VALUES ")
	for i := 0; i < 512; i++ {
		if i > 0 {
			ins.WriteString(", ")
		}
		fmt.Fprintf(&ins, "(%d, %d)", i, i*3)
	}
	for _, q := range []string{
		"CREATE TABLE probe (k INT, p INT) WITH (DISTRIBUTION = k)",
		"CREATE TABLE build (k INT, b INT) WITH (DISTRIBUTION = k)",
		ins.String(),
		"INSERT INTO probe SELECT k, b FROM build",
	} {
		if rec := do(context.Background(), q); rec.Code != http.StatusOK {
			t.Fatalf("seed %q: %d %s", q, rec.Code, rec.Body)
		}
	}

	armed.Store(true)
	rec := do(ctx, "SELECT COUNT(*) FROM probe JOIN build ON probe.k = build.k")
	if eb := decodeErr(t, rec.Body.Bytes()); rec.Code != http.StatusServiceUnavailable || eb.Code != "canceled" {
		t.Fatalf("canceled mid-statement: %d %s, want 503 canceled", rec.Code, rec.Body)
	}
	if eng.Work.JoinSpills.Load() == 0 {
		t.Fatal("the cancel was meant to land on a spill write, but no build spilled")
	}
	if n := eng.Fabric.LeasedSlots(); n != 0 {
		t.Fatalf("%d slots still leased after the canceled statement", n)
	}
	if leaked := store.List(objectstore.SpillPrefix); len(leaked) != 0 {
		t.Fatalf("%d spill blobs leaked, e.g. %s", len(leaked), leaked[0])
	}
}

func TestServerDrainWaitsForInflight(t *testing.T) {
	e := newEnv(t, tinyFabric(1), Config{QueueDepth: 8, AdmitTimeout: 10 * time.Second})
	e.query("", "CREATE TABLE t (k INT) WITH (DISTRIBUTION = k)")
	e.query("", "INSERT INTO t VALUES (7)")

	// Park a statement in the admission queue (slots held), then drain:
	// the drain must wait for it, and must reject everything that arrives
	// after the flag flips.
	hold := e.db.Engine().Fabric.LeaseSlots(1)
	parked := make(chan *QueryResponse, 1)
	go func() { parked <- e.query("", "SELECT COUNT(*) FROM t") }()
	deadline := time.Now().Add(5 * time.Second)
	for e.db.Engine().Fabric.QueuedLeases() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("statement never queued")
		}
		time.Sleep(time.Millisecond)
	}

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		drained <- e.srv.Drain(ctx)
	}()
	for !e.srv.Draining() {
		time.Sleep(time.Millisecond)
	}
	if code, body := e.tryQuery("", "SELECT COUNT(*) FROM t"); code != http.StatusServiceUnavailable {
		t.Fatalf("query during drain: HTTP %d %s, want 503", code, body)
	} else if eb := decodeErr(t, body); eb.Code != "draining" {
		t.Fatalf("code = %q, want draining", eb.Code)
	}
	if code, _ := e.get("/healthz"); code != http.StatusServiceUnavailable {
		t.Fatalf("healthz during drain: HTTP %d, want 503", code)
	}
	select {
	case err := <-drained:
		t.Fatalf("drain returned %v with a statement still in flight", err)
	case <-time.After(50 * time.Millisecond):
	}

	hold.Release() // lets the parked statement run and finish
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	r := <-parked
	if r.Rows[0][0] != float64(1) {
		t.Fatalf("in-flight statement result %v, want [[1]]", r.Rows)
	}
	if n := e.db.Engine().Fabric.LeasedSlots(); n != 0 {
		t.Fatalf("leaked %d slots after drain", n)
	}
	if n := e.srv.SessionCount(); n != 0 {
		t.Fatalf("%d sessions survived drain", n)
	}
}

func TestServerMetricsDocument(t *testing.T) {
	e := newEnv(t, tinyFabric(4), Config{})
	e.query("", "CREATE TABLE m (k INT, v INT) WITH (DISTRIBUTION = k)")
	e.query("", "INSERT INTO m VALUES (1, 10), (2, 20)")
	e.query("", "SELECT SUM(v) FROM m WHERE k > 0")

	m := e.metrics()
	if m.Admission.Admitted < 3 {
		t.Fatalf("admitted = %d, want >= 3", m.Admission.Admitted)
	}
	if m.Cumulative.RowsScanned == 0 {
		t.Fatalf("cumulative rowsScanned = 0 after a scan")
	}
	if m.Fabric.TotalSlots != 4 || m.Fabric.LeasedSlots != 0 {
		t.Fatalf("fabric gauges total=%d leased=%d, want 4/0", m.Fabric.TotalSlots, m.Fabric.LeasedSlots)
	}
	// Single-node fabric: read and write pools share the one node, 4 slots each.
	if m.DCP.ReadPoolNodes != 1 || m.DCP.ReadPoolSlots != 4 ||
		m.DCP.WritePoolNodes != 1 || m.DCP.WritePoolSlots != 4 {
		t.Fatalf("dcp pool gauges %+v, want 1 node / 4 slots per pool", m.DCP)
	}
	// DistributedQueries defaults off, so the DAG counters must be present
	// and zero.
	if m.Cumulative.DagTasks != 0 || m.Cumulative.DagRetries != 0 || m.Cumulative.DagStages != 0 {
		t.Fatalf("dag counters tasks=%d retries=%d stages=%d with flag off, want 0",
			m.Cumulative.DagTasks, m.Cumulative.DagRetries, m.Cumulative.DagStages)
	}
	if len(m.RecentQueries) < 3 {
		t.Fatalf("recentQueries has %d entries, want >= 3", len(m.RecentQueries))
	}
	last := m.RecentQueries[len(m.RecentQueries)-1]
	if last.Status != http.StatusOK || last.DOP < 1 || !strings.Contains(last.SQL, "SUM(v)") {
		t.Fatalf("last query record %+v not the SELECT", last)
	}
	if m.Server.Queries < 3 || m.Server.Draining {
		t.Fatalf("server gauges %+v", m.Server)
	}
}

// TestServerDagCountersSurface enables DistributedQueries and checks that a
// parallel SELECT served over HTTP moves the dagTasks/dagStages counters in
// GET /metrics.
func TestServerDagCountersSurface(t *testing.T) {
	cfg := tinyFabric(4)
	cfg.DistributedQueries = true
	cfg.RowsPerFile = 32
	cfg.RowsPerGroup = 8
	e := newEnv(t, cfg, Config{})
	e.query("", "CREATE TABLE d (k INT, v INT) WITH (DISTRIBUTION = k)")
	var sb strings.Builder
	sb.WriteString("INSERT INTO d VALUES (0, 0)")
	for i := 1; i < 200; i++ {
		fmt.Fprintf(&sb, ", (%d, %d)", i, i*3)
	}
	e.query("", sb.String())
	e.query("", "SELECT k, SUM(v) FROM d GROUP BY k ORDER BY k")

	m := e.metrics()
	if m.Cumulative.DagTasks == 0 || m.Cumulative.DagStages == 0 {
		t.Fatalf("dag counters tasks=%d stages=%d after a distributed SELECT, want > 0",
			m.Cumulative.DagTasks, m.Cumulative.DagStages)
	}
	if m.Cumulative.DagRetries != 0 {
		t.Fatalf("dagRetries = %d with no failure injection, want 0", m.Cumulative.DagRetries)
	}
}
