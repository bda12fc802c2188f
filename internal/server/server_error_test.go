package server

// HTTP error matrix in the import_into.test style: every bad input pins its
// status code, its machine-readable error code, and — the part that keeps a
// long-running server trustworthy — that the failure leaked no session, no
// slot lease and no queued admission seat.

import (
	"context"
	"net/http"
	"strings"
	"testing"
)

func TestServerErrorMatrix(t *testing.T) {
	e := newEnv(t, tinyFabric(4), Config{MaxBodyBytes: 512})
	e.query("", "CREATE TABLE ok (k INT, v INT) WITH (DISTRIBUTION = k)")
	e.query("", "INSERT INTO ok VALUES (1, 1)")
	sid := e.createSession()

	cases := []struct {
		name       string
		method     string
		path       string
		body       string
		wantStatus int
		wantCode   string
		wantErrSub string // substring the human-readable error must carry
	}{
		{
			name:   "malformed sql",
			method: "POST", path: "/v1/query",
			body:       `{"sql": "SELEC 1 FROMM ok"}`,
			wantStatus: http.StatusBadRequest,
			wantCode:   "parse_error",
		},
		{
			name:   "exec error unknown table",
			method: "POST", path: "/v1/query",
			body:       `{"sql": "SELECT * FROM no_such_table"}`,
			wantStatus: http.StatusBadRequest,
			wantCode:   "exec_error",
			wantErrSub: "no_such_table",
		},
		{
			// A type error is the statement's error, reported at plan time;
			// it used to panic in a pool worker and take the process down.
			name:   "exec error ill-typed predicate",
			method: "POST", path: "/v1/query",
			body:       `{"sql": "SELECT k FROM ok WHERE NOT k"}`,
			wantStatus: http.StatusBadRequest,
			wantCode:   "exec_error",
			wantErrSub: "exec: NOT of int64",
		},
		{
			// EXPLAIN plans or fails: it returns the error executing the
			// statement would, not a plan for a statement that cannot run.
			name:   "exec error explain of ill-typed predicate",
			method: "POST", path: "/v1/query",
			body:       `{"sql": "EXPLAIN SELECT k FROM ok WHERE NOT k"}`,
			wantStatus: http.StatusBadRequest,
			wantCode:   "exec_error",
			wantErrSub: "exec: NOT of int64",
		},
		{
			name:   "invalid json body",
			method: "POST", path: "/v1/query",
			body:       `{"sql": `,
			wantStatus: http.StatusBadRequest,
			wantCode:   "bad_request",
		},
		{
			name:   "missing sql field",
			method: "POST", path: "/v1/query",
			body:       `{"session": "s-1"}`,
			wantStatus: http.StatusBadRequest,
			wantCode:   "bad_request",
			wantErrSub: `"sql"`,
		},
		{
			name:   "oversized body",
			method: "POST", path: "/v1/query",
			body:       `{"sql": "SELECT '` + strings.Repeat("x", 1024) + `' FROM ok"}`,
			wantStatus: http.StatusRequestEntityTooLarge,
			wantCode:   "body_too_large",
		},
		{
			name:   "unknown endpoint",
			method: "GET", path: "/v1/nope",
			wantStatus: http.StatusNotFound,
			wantCode:   "not_found",
		},
		{
			name:   "unknown session",
			method: "POST", path: "/v1/query",
			body:       `{"sql": "SELECT 1 FROM ok", "session": "s-999"}`,
			wantStatus: http.StatusNotFound,
			wantCode:   "unknown_session",
			wantErrSub: "s-999",
		},
		{
			name:   "delete unknown session",
			method: "DELETE", path: "/v1/session/s-999",
			wantStatus: http.StatusNotFound,
			wantCode:   "unknown_session",
		},
		{
			name:   "wrong method on query",
			method: "GET", path: "/v1/query",
			wantStatus: http.StatusMethodNotAllowed,
			wantCode:   "method_not_allowed",
		},
		{
			name:   "wrong method on session create",
			method: "GET", path: "/v1/session",
			wantStatus: http.StatusMethodNotAllowed,
			wantCode:   "method_not_allowed",
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sessionsBefore := e.srv.SessionCount()
			req, err := http.NewRequest(tc.method, e.ts.URL+tc.path, strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			body := make([]byte, 4096)
			n, _ := resp.Body.Read(body)
			resp.Body.Close()
			body = body[:n]

			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("status = %d (%s), want %d", resp.StatusCode, body, tc.wantStatus)
			}
			eb := decodeErr(t, body)
			if eb.Code != tc.wantCode {
				t.Fatalf("code = %q (%s), want %q", eb.Code, body, tc.wantCode)
			}
			if tc.wantErrSub != "" && !strings.Contains(eb.Error, tc.wantErrSub) {
				t.Fatalf("error %q does not mention %q", eb.Error, tc.wantErrSub)
			}
			// no failure path may leak execution state
			if got := e.db.Engine().Fabric.LeasedSlots(); got != 0 {
				t.Fatalf("leaked %d slot leases", got)
			}
			if got := e.db.Engine().Fabric.QueuedLeases(); got != 0 {
				t.Fatalf("leaked %d queued admission seats", got)
			}
			if got := e.srv.SessionCount(); got != sessionsBefore {
				t.Fatalf("session count %d -> %d across an error", sessionsBefore, got)
			}
		})
	}

	// the server still works after the whole matrix
	if code, body := e.get("/healthz"); code != http.StatusOK {
		t.Fatalf("healthz after matrix: HTTP %d %s", code, body)
	}
	if r := e.query(sid, "SELECT COUNT(*) FROM ok"); r.Rows[0][0] != float64(1) {
		t.Fatalf("post-matrix query: %v", r.Rows)
	}

	// drain flips the remaining statement surface to 503 without touching
	// the error shape
	if err := e.srv.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	code, body := e.tryQuery("", "SELECT COUNT(*) FROM ok")
	if code != http.StatusServiceUnavailable || decodeErr(t, body).Code != "draining" {
		t.Fatalf("query during drain: %d %s, want 503 draining", code, body)
	}
	code, body = e.post("/v1/session", nil)
	if code != http.StatusServiceUnavailable || decodeErr(t, body).Code != "draining" {
		t.Fatalf("session create during drain: %d %s, want 503 draining", code, body)
	}
	if n := e.db.Engine().Fabric.LeasedSlots(); n != 0 {
		t.Fatalf("leaked %d slots after matrix + drain", n)
	}
	if n := e.srv.SessionCount(); n != 0 {
		t.Fatalf("%d sessions survived drain", n)
	}
}
