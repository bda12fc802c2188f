// Package server implements the long-running multi-session HTTP front end
// for a Polaris engine (cmd/polaris-server): the piece that turns the
// library + one-shot CLI into the cloud service the paper describes — many
// concurrent sessions multiplexed over one engine and one compute fabric
// (paper Sections 1, 3.3).
//
// Every statement passes through front-door admission control before it
// executes: it must be granted a slot lease from the same fabric pool that
// sizes intra-query worker pools (compute.Admission over
// Fabric.LeaseSlotsCtx). When leases run dry, statements queue FIFO in a
// bounded queue with a wait timeout; the granted lease is adopted by the
// statement's transaction as its worker-pool size, so one statement holds
// exactly one lease. Each session carries its own JoinMemoryBudget, and the
// server exposes health, a JSON metrics endpoint (cumulative WorkStats,
// admission counters, fabric gauges, recent per-query records) and graceful
// drain: in-flight statements finish, new ones get 503.
//
// The HTTP surface, admission model, budget accounting and error matrix are
// documented in docs/SERVER.md.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"polaris/internal/compute"
	"polaris/internal/core"
	"polaris/internal/sql"
)

// Config tunes the server front end.
type Config struct {
	// MaxBodyBytes caps a request body; larger requests get 413.
	// Default 1 MiB.
	MaxBodyBytes int64
	// QueueDepth bounds the admission queue: statements arriving when the
	// fabric's leases are dry and QueueDepth statements are already waiting
	// get 429. < 0 means unbounded. Default 64.
	QueueDepth int
	// AdmitTimeout bounds how long a statement may wait in the admission
	// queue before getting 504. 0 means wait as long as the client does.
	// Default 10s.
	AdmitTimeout time.Duration
	// SlotsPerQuery is the worker-slot count requested per admitted
	// statement — the per-statement DOP ceiling. Default: the engine's
	// configured Parallelism.
	SlotsPerQuery int
	// SessionBudget, when non-zero, is the per-session JoinMemoryBudget in
	// bytes applied to every server session (negative = explicitly
	// unlimited). Zero inherits the engine-wide configuration.
	SessionBudget int64
	// RecentQueries is the size of the per-query record ring surfaced by
	// /metrics. Default 32.
	RecentQueries int
}

func (c Config) withDefaults(eng *core.Engine) Config {
	if c.MaxBodyBytes == 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 64
	}
	if c.AdmitTimeout == 0 {
		c.AdmitTimeout = 10 * time.Second
	}
	if c.SlotsPerQuery == 0 {
		c.SlotsPerQuery = eng.Options().Parallelism
	}
	if c.RecentQueries == 0 {
		c.RecentQueries = 32
	}
	return c
}

// session is one server-side SQL session: a serial statement stream guarded
// by its own mutex (sql.Session is not safe for concurrent use; concurrent
// requests naming the same session serialize here).
type session struct {
	id string
	mu sync.Mutex
	s  *sql.Session
	// closed flips under mu when the session is deleted or drained; a
	// request that was waiting on mu must re-check it.
	closed bool
}

// QueryRecord is one statement's entry in the /metrics recent-query ring.
type QueryRecord struct {
	Seq          int64  `json:"seq"`
	Session      string `json:"session,omitempty"`
	SQL          string `json:"sql"`
	Status       int    `json:"status"`
	Code         string `json:"code,omitempty"`
	DOP          int    `json:"dop,omitempty"`
	QueueWaitNs  int64  `json:"queueWaitNs"`
	SimTimeNs    int64  `json:"simTimeNs"`
	Rows         int    `json:"rows"`
	RowsAffected int64  `json:"rowsAffected"`
}

// Server is the multi-session HTTP front end over one engine. It implements
// http.Handler; wire it to an http.Server (or httptest) to serve.
type Server struct {
	eng *core.Engine
	adm *compute.Admission
	cfg Config

	mu       sync.Mutex
	sessions map[string]*session
	nextID   int64
	draining bool
	recent   []QueryRecord

	inflight sync.WaitGroup
	queries  atomic.Int64
}

// New creates a server front end over the engine. Admission outcomes are
// recorded into the engine's WorkStats.Admission counters.
func New(eng *core.Engine, cfg Config) *Server {
	cfg = cfg.withDefaults(eng)
	return &Server{
		eng: eng,
		cfg: cfg,
		adm: compute.NewAdmission(eng.Fabric, compute.AdmissionConfig{
			SlotsPerQuery: cfg.SlotsPerQuery,
			MaxQueue:      cfg.QueueDepth,
			WaitTimeout:   cfg.AdmitTimeout,
		}, &eng.Work.Admission),
		sessions: make(map[string]*session),
	}
}

// SessionCount reports the live server-side sessions.
func (s *Server) SessionCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.sessions)
}

// Draining reports whether the server has begun graceful drain.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Drain gracefully shuts the statement surface down: new queries get 503
// immediately, in-flight statements run to completion (bounded by ctx), and
// every server session is then closed (rolling back open transactions) so
// no slot leases or transactions survive the server. Health and metrics
// stay up so the drained state is observable. Idempotent.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		return fmt.Errorf("server: drain interrupted with statements in flight: %w", ctx.Err())
	}

	s.mu.Lock()
	ids := make([]string, 0, len(s.sessions))
	for id := range s.sessions {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	open := make([]*session, 0, len(ids))
	for _, id := range ids {
		open = append(open, s.sessions[id])
	}
	s.sessions = make(map[string]*session)
	s.mu.Unlock()
	for _, ss := range open {
		ss.mu.Lock()
		ss.closed = true
		ss.s.Close()
		ss.mu.Unlock()
	}
	return nil
}

// enter registers one in-flight statement request; it fails once draining
// has begun. The draining flag and the WaitGroup increment are linked under
// one lock so Drain never misses a request it should wait for.
func (s *Server) enter() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return false
	}
	s.inflight.Add(1)
	return true
}

// ServeHTTP routes the server's fixed endpoint set. Routing is manual so
// every error path — unknown endpoint included — yields the same JSON error
// shape the error-matrix tests pin.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch {
	case r.URL.Path == "/healthz":
		s.handleHealthz(w, r)
	case r.URL.Path == "/metrics":
		s.handleMetrics(w, r)
	case r.URL.Path == "/v1/query":
		s.handleQuery(w, r)
	case r.URL.Path == "/v1/session":
		s.handleSessionCreate(w, r)
	case strings.HasPrefix(r.URL.Path, "/v1/session/"):
		s.handleSessionDelete(w, r)
	default:
		writeErr(w, http.StatusNotFound, "not_found",
			fmt.Sprintf("unknown endpoint %s", r.URL.Path))
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, "method_not_allowed", "healthz is GET-only")
		return
	}
	if s.Draining() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok"})
}

// workCounters is the JSON rendering of core.WorkStats' cumulative counters.
type workCounters struct {
	RowsScanned         int64 `json:"rowsScanned"`
	FilesRead           int64 `json:"filesRead"`
	BytesRead           int64 `json:"bytesRead"`
	MergeFreeAggs       int64 `json:"mergeFreeAggs"`
	TopNPushdowns       int64 `json:"topNPushdowns"`
	JoinSpills          int64 `json:"joinSpills"`
	JoinSpillBytes      int64 `json:"joinSpillBytes"`
	JoinSpillPartitions int64 `json:"joinSpillPartitions"`
	BuildSideSwaps      int64 `json:"buildSideSwaps"`
	PushedFilters       int64 `json:"pushedFilters"`
	RuntimeFilterRows   int64 `json:"runtimeFilterRows"`
	DagTasks            int64 `json:"dagTasks"`
	DagRetries          int64 `json:"dagRetries"`
	DagStages           int64 `json:"dagStages"`
}

// admissionCounters is the JSON rendering of the admission counter set.
type admissionCounters struct {
	Queued      int64 `json:"queued"`
	Admitted    int64 `json:"admitted"`
	Rejected    int64 `json:"rejected"`
	TimedOut    int64 `json:"timedOut"`
	Canceled    int64 `json:"canceled"`
	QueueWaitNs int64 `json:"queueWaitNs"`
	Waiting     int   `json:"waiting"`
}

// Metrics is the /metrics response document.
type Metrics struct {
	Cumulative workCounters      `json:"cumulative"`
	Admission  admissionCounters `json:"admission"`
	Fabric     struct {
		TotalSlots   int `json:"totalSlots"`
		LeasedSlots  int `json:"leasedSlots"`
		FreeSlots    int `json:"freeSlots"`
		QueuedLeases int `json:"queuedLeases"`
	} `json:"fabric"`
	// DCP reports the WLM pool split of the live topology: the nodes and
	// task slots query/maintenance DAGs place read and write tasks on.
	DCP struct {
		ReadPoolNodes  int `json:"readPoolNodes"`
		ReadPoolSlots  int `json:"readPoolSlots"`
		WritePoolNodes int `json:"writePoolNodes"`
		WritePoolSlots int `json:"writePoolSlots"`
	} `json:"dcp"`
	Server struct {
		Sessions int   `json:"sessions"`
		Queries  int64 `json:"queries"`
		Draining bool  `json:"draining"`
	} `json:"server"`
	RecentQueries []QueryRecord `json:"recentQueries"`
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, "method_not_allowed", "metrics is GET-only")
		return
	}
	var m Metrics
	work := &s.eng.Work
	m.Cumulative = workCounters{
		RowsScanned:         work.RowsScanned.Load(),
		FilesRead:           work.FilesRead.Load(),
		BytesRead:           work.BytesRead.Load(),
		MergeFreeAggs:       work.MergeFreeAggs.Load(),
		TopNPushdowns:       work.TopNPushdowns.Load(),
		JoinSpills:          work.JoinSpills.Load(),
		JoinSpillBytes:      work.JoinSpillBytes.Load(),
		JoinSpillPartitions: work.JoinSpillPartitions.Load(),
		BuildSideSwaps:      work.BuildSideSwaps.Load(),
		PushedFilters:       work.PushedFilters.Load(),
		RuntimeFilterRows:   work.RuntimeFilterRows.Load(),
		DagTasks:            work.DagTasks.Load(),
		DagRetries:          work.DagRetries.Load(),
		DagStages:           work.DagStages.Load(),
	}
	adm := &work.Admission
	m.Admission = admissionCounters{
		Queued:      adm.Queued.Load(),
		Admitted:    adm.Admitted.Load(),
		Rejected:    adm.Rejected.Load(),
		TimedOut:    adm.TimedOut.Load(),
		Canceled:    adm.Canceled.Load(),
		QueueWaitNs: adm.QueueWaitNanos.Load(),
		Waiting:     s.adm.Waiting(),
	}
	m.Fabric.TotalSlots = s.eng.Fabric.TotalSlots()
	m.Fabric.LeasedSlots = s.eng.Fabric.LeasedSlots()
	m.Fabric.FreeSlots = s.eng.Fabric.FreeSlots()
	m.Fabric.QueuedLeases = s.eng.Fabric.QueuedLeases()
	pg := s.eng.PoolGauges()
	m.DCP.ReadPoolNodes = pg.ReadNodes
	m.DCP.ReadPoolSlots = pg.ReadSlots
	m.DCP.WritePoolNodes = pg.WriteNodes
	m.DCP.WritePoolSlots = pg.WriteSlots

	s.mu.Lock()
	m.Server.Sessions = len(s.sessions)
	m.Server.Draining = s.draining
	m.RecentQueries = append([]QueryRecord(nil), s.recent...)
	s.mu.Unlock()
	m.Server.Queries = s.queries.Load()
	writeJSON(w, http.StatusOK, &m)
}

type sessionCreateRequest struct {
	// Budget overrides the server-wide SessionBudget for this session
	// (bytes; negative = unlimited). Zero inherits the server default.
	Budget int64 `json:"budget"`
}

func (s *Server) handleSessionCreate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, "method_not_allowed", "session create is POST-only")
		return
	}
	if s.Draining() {
		writeErr(w, http.StatusServiceUnavailable, "draining", "server is draining; no new sessions")
		return
	}
	var req sessionCreateRequest
	body, code, errc, msg := s.readBody(w, r)
	if errc != "" {
		writeErr(w, code, errc, msg)
		return
	}
	if len(body) > 0 {
		if err := json.Unmarshal(body, &req); err != nil {
			writeErr(w, http.StatusBadRequest, "bad_request", "invalid JSON body: "+err.Error())
			return
		}
	}
	budget := req.Budget
	if budget == 0 {
		budget = s.cfg.SessionBudget
	}
	ss := &session{s: sql.NewSession(s.eng)}
	if budget != 0 {
		ss.s.SetJoinMemoryBudget(budget)
	}
	s.mu.Lock()
	if s.draining { // re-check under the registry lock
		s.mu.Unlock()
		ss.s.Close()
		writeErr(w, http.StatusServiceUnavailable, "draining", "server is draining; no new sessions")
		return
	}
	s.nextID++
	ss.id = fmt.Sprintf("s-%d", s.nextID)
	s.sessions[ss.id] = ss
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{"session": ss.id})
}

func (s *Server) handleSessionDelete(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodDelete {
		writeErr(w, http.StatusMethodNotAllowed, "method_not_allowed", "session close is DELETE-only")
		return
	}
	id := strings.TrimPrefix(r.URL.Path, "/v1/session/")
	s.mu.Lock()
	ss, ok := s.sessions[id]
	if ok {
		delete(s.sessions, id)
	}
	s.mu.Unlock()
	if !ok {
		writeErr(w, http.StatusNotFound, "unknown_session", fmt.Sprintf("no session %q", id))
		return
	}
	// wait for any in-flight statement on the session, then close it
	ss.mu.Lock()
	ss.closed = true
	ss.s.Close()
	ss.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{"closed": id})
}

type queryRequest struct {
	SQL string `json:"sql"`
	// Session names a server session created via POST /v1/session; empty
	// runs the statement on a one-shot autocommit session.
	Session string `json:"session"`
}

// QueryResponse is the /v1/query success document.
type QueryResponse struct {
	Columns      []string `json:"columns,omitempty"`
	Rows         [][]any  `json:"rows,omitempty"`
	RowsAffected int64    `json:"rowsAffected"`
	Message      string   `json:"message,omitempty"`
	Statements   int      `json:"statements"`
	// DOP is the worker-slot count admission granted the (last) statement.
	DOP int `json:"dop"`
	// QueueWaitNs totals the request's time in the admission queue.
	QueueWaitNs int64 `json:"queueWaitNs"`
	SimTimeNs   int64 `json:"simTimeNs"`
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, "method_not_allowed", "query is POST-only")
		return
	}
	if !s.enter() {
		writeErr(w, http.StatusServiceUnavailable, "draining", "server is draining; statement rejected")
		return
	}
	defer s.inflight.Done()

	body, code, errc, msg := s.readBody(w, r)
	if errc != "" {
		writeErr(w, code, errc, msg)
		return
	}
	var req queryRequest
	if err := json.Unmarshal(body, &req); err != nil {
		writeErr(w, http.StatusBadRequest, "bad_request", "invalid JSON body: "+err.Error())
		return
	}
	if strings.TrimSpace(req.SQL) == "" {
		writeErr(w, http.StatusBadRequest, "bad_request", `missing "sql"`)
		return
	}
	// Parse before admission: malformed SQL must never consume a queue seat
	// or a slot lease.
	stmts, err := sql.ParseScript(req.SQL)
	if err != nil {
		s.record(req, http.StatusBadRequest, "parse_error", 0, 0, nil)
		writeErr(w, http.StatusBadRequest, "parse_error", err.Error())
		return
	}
	if len(stmts) == 0 {
		writeErr(w, http.StatusBadRequest, "bad_request", "empty statement")
		return
	}

	// Resolve the session: named sessions serialize on their own mutex;
	// an empty name gets a one-shot autocommit session.
	var ss *session
	if req.Session != "" {
		s.mu.Lock()
		ss = s.sessions[req.Session]
		s.mu.Unlock()
		if ss == nil {
			writeErr(w, http.StatusNotFound, "unknown_session", fmt.Sprintf("no session %q", req.Session))
			return
		}
		ss.mu.Lock()
		defer ss.mu.Unlock()
		if ss.closed {
			writeErr(w, http.StatusNotFound, "unknown_session", fmt.Sprintf("session %q closed", req.Session))
			return
		}
	} else {
		one := sql.NewSession(s.eng)
		if s.cfg.SessionBudget != 0 {
			one.SetJoinMemoryBudget(s.cfg.SessionBudget)
		}
		defer one.Close()
		ss = &session{s: one}
	}

	var (
		res       *sql.Result
		totalWait time.Duration
		lastDOP   int
	)
	for _, st := range stmts {
		lease, wait, aerr := s.adm.Acquire(r.Context())
		totalWait += wait
		if aerr != nil {
			status, codeStr := admissionError(aerr)
			s.record(req, status, codeStr, lastDOP, totalWait, nil)
			writeErr(w, status, codeStr, aerr.Error())
			return
		}
		lastDOP = lease.Granted()
		res, err = ss.s.ExecParsedWith(st, sql.ExecOpts{DOP: lease.Granted(), Ctx: r.Context()})
		lease.Release()
		if err != nil {
			status, codeStr := http.StatusBadRequest, "exec_error"
			if r.Context().Err() != nil {
				// The client went away mid-statement and the executor stopped
				// on its context: same rendering as a wait it abandoned.
				status, codeStr = http.StatusServiceUnavailable, "canceled"
			}
			s.record(req, status, codeStr, lastDOP, totalWait, nil)
			writeErr(w, status, codeStr, err.Error())
			return
		}
	}

	resp := &QueryResponse{
		RowsAffected: res.RowsAffected,
		Message:      res.Message,
		Statements:   len(stmts),
		DOP:          lastDOP,
		QueueWaitNs:  totalWait.Nanoseconds(),
		SimTimeNs:    res.SimTime.Nanoseconds(),
	}
	if res.Batch != nil {
		resp.Columns = res.Columns()
		n := res.Batch.NumRows()
		resp.Rows = make([][]any, n)
		for i := 0; i < n; i++ {
			resp.Rows[i] = res.Batch.Row(i)
		}
	}
	s.record(req, http.StatusOK, "", lastDOP, totalWait, resp)
	writeJSON(w, http.StatusOK, resp)
}

// readBody drains the request body under the configured cap. On failure the
// returned code/errc/msg describe the HTTP error to write.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request) (body []byte, status int, errc, msg string) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return nil, http.StatusRequestEntityTooLarge, "body_too_large",
				fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit)
		}
		return nil, http.StatusBadRequest, "bad_request", "reading body: " + err.Error()
	}
	return body, 0, "", ""
}

// admissionError maps an Acquire failure to its HTTP rendering.
func admissionError(err error) (status int, code string) {
	switch {
	case errors.Is(err, compute.ErrQueueFull):
		return http.StatusTooManyRequests, "queue_full"
	case errors.Is(err, compute.ErrAdmissionTimeout):
		return http.StatusGatewayTimeout, "admission_timeout"
	default: // client context canceled/expired
		return http.StatusServiceUnavailable, "canceled"
	}
}

// record appends one statement request to the recent-query ring.
func (s *Server) record(req queryRequest, status int, code string, dop int, wait time.Duration, resp *QueryResponse) {
	seq := s.queries.Add(1)
	rec := QueryRecord{
		Seq:         seq,
		Session:     req.Session,
		SQL:         truncate(req.SQL, 120),
		Status:      status,
		Code:        code,
		DOP:         dop,
		QueueWaitNs: wait.Nanoseconds(),
	}
	if resp != nil {
		rec.SimTimeNs = resp.SimTimeNs
		rec.Rows = len(resp.Rows)
		rec.RowsAffected = resp.RowsAffected
	}
	s.mu.Lock()
	s.recent = append(s.recent, rec)
	if over := len(s.recent) - s.cfg.RecentQueries; over > 0 {
		s.recent = append(s.recent[:0], s.recent[over:]...)
	}
	s.mu.Unlock()
}

func truncate(q string, n int) string {
	q = strings.Join(strings.Fields(q), " ")
	if len(q) > n {
		return q[:n] + "…"
	}
	return q
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

// writeErr renders the uniform error body {"error": ..., "code": ...} the
// error-matrix tests pin.
func writeErr(w http.ResponseWriter, status int, code, msg string) {
	writeJSON(w, status, map[string]string{"error": msg, "code": code})
}
