// Command polaris-server is the long-running multi-session HTTP front end
// over a Polaris engine: many concurrent sessions multiplexed over one
// compute fabric with front-door admission control, per-session memory
// budgets, health/metrics endpoints and graceful drain on SIGTERM.
//
// Usage:
//
//	polaris-server                      # serve on 127.0.0.1:7432
//	polaris-server -addr :8080 -demo    # preload TPC-H SF 0.1
//	polaris-server -session-budget 4096 # per-session join memory budget
//	polaris-server -smoke               # self-test: start, health-check,
//	                                    # run a query, COMPACT twice, drain, exit
//
// The HTTP API (POST /v1/query, POST/DELETE /v1/session, GET /healthz,
// GET /metrics), the admission model and the drain semantics are documented
// in docs/SERVER.md.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"polaris"
	"polaris/internal/server"
	"polaris/internal/workload"
)

func main() {
	var (
		addr          = flag.String("addr", "127.0.0.1:7432", "listen address")
		demo          = flag.Bool("demo", false, "preload TPC-H tables at scale factor 0.1")
		parallelism   = flag.Int("parallelism", 0, "intra-query parallelism target (0 = GOMAXPROCS)")
		joinBudget    = flag.Int64("join-budget", 0, "engine-wide hash-join build memory budget in bytes (0 = unlimited)")
		sessionBudget = flag.Int64("session-budget", 0, "per-session join memory budget in bytes (0 = inherit engine, <0 = unlimited)")
		queueDepth    = flag.Int("queue-depth", 64, "admission queue depth; arrivals beyond it get 429 (<0 = unbounded)")
		admitTimeout  = flag.Duration("admit-timeout", 10*time.Second, "max time a statement may wait in the admission queue before 504")
		slotsPerQry   = flag.Int("slots-per-query", 0, "fabric slots requested per admitted statement (0 = engine parallelism)")
		drainTimeout  = flag.Duration("drain-timeout", 30*time.Second, "max time to wait for in-flight statements on shutdown")
		smoke         = flag.Bool("smoke", false, "start on an ephemeral port, health-check, run one query and two COMPACTs, drain, exit")
		distributed   = flag.Bool("distributed", false, "execute parallel SELECTs as DCP task DAGs with object-store exchange (see docs/DCP-QUERIES.md)")
	)
	flag.Parse()

	cfg := polaris.DefaultConfig()
	if *parallelism > 0 {
		cfg.Parallelism = *parallelism
	}
	cfg.JoinMemoryBudget = *joinBudget
	cfg.DistributedQueries = *distributed
	db := polaris.Open(cfg)
	defer db.Close()

	if *demo {
		fmt.Fprint(os.Stderr, "loading TPC-H SF 0.1 ... ")
		n, err := workload.LoadTPCH(db.Engine(), 0.1, 4)
		if err != nil {
			log.Fatalf("load failed: %v", err)
		}
		fmt.Fprintf(os.Stderr, "done (%d lineitem rows)\n", n)
	}

	srv := server.New(db.Engine(), server.Config{
		QueueDepth:    *queueDepth,
		AdmitTimeout:  *admitTimeout,
		SlotsPerQuery: *slotsPerQry,
		SessionBudget: *sessionBudget,
	})

	listenAddr := *addr
	if *smoke {
		listenAddr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", listenAddr)
	if err != nil {
		log.Fatalf("listen %s: %v", listenAddr, err)
	}
	hs := &http.Server{Handler: srv}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()
	log.Printf("polaris-server listening on http://%s", ln.Addr())

	if *smoke {
		if err := runSmoke(ln.Addr().String(), srv, db); err != nil {
			log.Fatalf("server smoke FAILED: %v", err)
		}
		_ = hs.Shutdown(context.Background())
		fmt.Println("server smoke OK")
		return
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, syscall.SIGTERM, syscall.SIGINT)
	select {
	case sig := <-stop:
		log.Printf("received %s: draining (in-flight statements finish, new requests get 503)", sig)
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := srv.Drain(ctx); err != nil {
			log.Printf("drain: %v", err)
		}
		if err := hs.Shutdown(ctx); err != nil {
			log.Printf("shutdown: %v", err)
		}
		log.Printf("drained: %d leased slots, %d sessions", db.Engine().Fabric.LeasedSlots(), srv.SessionCount())
	case err := <-serveErr:
		log.Fatalf("serve: %v", err)
	}
}

// runSmoke exercises the serve → query → compact → drain lifecycle end to
// end against the live listener: the `make server-smoke` CI gate.
func runSmoke(addr string, srv *server.Server, db *polaris.DB) error {
	base := "http://" + addr
	get := func(path string) (int, []byte, error) {
		resp, err := http.Get(base + path)
		if err != nil {
			return 0, nil, err
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, b, nil
	}
	post := func(path string, body any) (int, []byte, error) {
		data, _ := json.Marshal(body)
		resp, err := http.Post(base+path, "application/json", bytes.NewReader(data))
		if err != nil {
			return 0, nil, err
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, b, nil
	}

	if code, body, err := get("/healthz"); err != nil || code != http.StatusOK {
		return fmt.Errorf("healthz: code=%d err=%v body=%s", code, err, body)
	}
	query := func(sql string) (server.QueryResponse, error) {
		var qr server.QueryResponse
		code, body, err := post("/v1/query", map[string]string{"sql": sql})
		if err != nil || code != http.StatusOK {
			return qr, fmt.Errorf("query %q: code=%d err=%v body=%s", sql, code, err, body)
		}
		if err := json.Unmarshal(body, &qr); err != nil {
			return qr, fmt.Errorf("query %q: response %v (%s)", sql, err, body)
		}
		return qr, nil
	}
	for _, q := range []string{
		"CREATE TABLE smoke (k INT, v INT) WITH (DISTRIBUTION = k)",
		"INSERT INTO smoke VALUES (1, 10), (2, 20), (3, 30)",
	} {
		if _, err := query(q); err != nil {
			return err
		}
	}
	qr, err := query("SELECT SUM(v) FROM smoke")
	if err != nil {
		return err
	}
	if len(qr.Rows) != 1 || len(qr.Rows[0]) != 1 || qr.Rows[0][0] != float64(60) {
		return fmt.Errorf("SELECT SUM(v) = %v, want [[60]]", qr.Rows)
	}
	// COMPACT converges: it leaves a table SHOW STATS calls healthy, and a
	// second COMPACT has nothing to rewrite.
	if _, err := query("COMPACT TABLE smoke"); err != nil {
		return err
	}
	if qr, err = query("SHOW STATS smoke"); err != nil {
		return err
	}
	if last := len(qr.Columns) - 1; len(qr.Rows) != 1 || last < 0 || qr.Columns[last] != "healthy" || qr.Rows[0][last] != true {
		return fmt.Errorf("SHOW STATS after COMPACT: %v %v, want healthy true", qr.Columns, qr.Rows)
	}
	if qr, err = query("COMPACT TABLE smoke"); err != nil {
		return err
	}
	if qr.Message != "compacted 0 files into 0" {
		return fmt.Errorf("second COMPACT: %q, want %q", qr.Message, "compacted 0 files into 0")
	}
	if code, _, err := get("/metrics"); err != nil || code != http.StatusOK {
		return fmt.Errorf("metrics: code=%d err=%v", code, err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		return fmt.Errorf("drain: %v", err)
	}
	if code, _, _ := get("/healthz"); code != http.StatusServiceUnavailable {
		return fmt.Errorf("healthz after drain: code=%d, want 503", code)
	}
	if code, _, _ := post("/v1/query", map[string]string{"sql": "SELECT 1"}); code != http.StatusServiceUnavailable {
		return fmt.Errorf("query after drain: code=%d, want 503", code)
	}
	if n := db.Engine().Fabric.LeasedSlots(); n != 0 {
		return fmt.Errorf("leaked %d fabric slots after drain", n)
	}
	if n := srv.SessionCount(); n != 0 {
		return fmt.Errorf("%d sessions survived drain", n)
	}
	return nil
}
