package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"time"

	"polaris"
	"polaris/internal/server"
	"polaris/internal/sql"
	"polaris/internal/workload"
)

// http_mixed: one reader and one writer, each a closed loop over HTTP to
// internal/server on a loopback listener, for a fixed duration.
const (
	httpSF = 4
	// httpWideRows is the row count of the reader's wide range result, about
	// 75 KB of JSON.
	httpWideRows = 2500
	// httpHealthEvery is how many writer transactions pass between calls to
	// the STO's health sampler, which compacts what the inserts fragmented.
	// The system has no ticker of its own, so the writer's loop stands in.
	httpHealthEvery = 10
	// httpSpaceTxnsPerSecond sizes the stretch the two space metrics cover:
	// the first this-many transactions per second asked for, half of what the
	// reference box commits. Bytes stored per user byte grow with the number
	// of files a table holds, so over a whole fixed-length phase they would
	// read worse whenever the writer got faster.
	httpSpaceTxnsPerSecond = 6
)

const ordersCount = "SELECT COUNT(*) AS n FROM orders"

// httpEnv is a database behind a running server.
type httpEnv struct {
	*env
	srv    *server.Server
	ts     *httptest.Server
	client *http.Client
}

func httpSetup(d *tpchData) (*httpEnv, error) {
	e, err := openLoaded(polaris.DefaultConfig(), d)
	if err != nil {
		return nil, err
	}
	srv := server.New(e.eng, server.Config{})
	h := &httpEnv{env: e, srv: srv, ts: httptest.NewServer(srv), client: &http.Client{}}
	// Warm-up through the whole stack: one reader cycle and one transaction.
	t0 := time.Now()
	rd := &httpReader{h: h, rng: rand.New(rand.NewSource(0)), ph: newPhase(&result{})}
	rd.cycle(nil)
	e.coldPass = time.Since(t0)
	wr, err := newHTTPWriter(h, rand.New(rand.NewSource(0)), newPhase(&result{}))
	if err == nil {
		wr.txn(nil)
		err = wr.close()
	}
	if err == nil && rd.ph.res.failed+wr.ph.res.failed > 0 {
		err = fmt.Errorf("http warm-up: %v %v", rd.ph.res.failures, wr.ph.res.failures)
	}
	if err != nil {
		h.close()
		return nil, err
	}
	return h, nil
}

func (h *httpEnv) close() {
	h.client.CloseIdleConnections()
	h.ts.Close()
	h.env.close()
}

// post sends one statement and returns the decoded response and the round
// trip's duration; a transport error or a status other than 200 is an error.
func (h *httpEnv) post(text, session string) (*server.QueryResponse, time.Duration, error) {
	body, err := json.Marshal(map[string]string{"sql": text, "session": session})
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	resp, err := h.client.Post(h.ts.URL+"/v1/query", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, time.Since(t0), err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, time.Since(t0), err
	}
	var qr server.QueryResponse
	if resp.StatusCode == http.StatusOK {
		err = json.Unmarshal(data, &qr)
	}
	d := time.Since(t0)
	if resp.StatusCode != http.StatusOK {
		return nil, d, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	return &qr, d, err
}

// countOrders is COUNT(*) of orders, through the server.
func (h *httpEnv) countOrders() (int64, error) {
	qr, _, err := h.post(ordersCount, "")
	if err != nil {
		return 0, err
	}
	if len(qr.Rows) != 1 || len(qr.Rows[0]) != 1 {
		return 0, fmt.Errorf("COUNT(*) returned %v", qr.Rows)
	}
	n, _ := qr.Rows[0][0].(float64)
	return int64(n), nil
}

// request is post plus the bookkeeping every client shares: the attempt is
// counted, a failure recorded, and with a tracer the round trip becomes a
// span with the server-reported admission wait as its child.
func (h *httpEnv) request(ph *phase, text, session string, tr *tracer, req int) (*server.QueryResponse, time.Duration) {
	ph.res.attempted++
	sp := tr.begin("server.roundtrip", -1, req)
	qr, d, err := h.post(text, session)
	tr.end(sp)
	if err != nil {
		ph.res.fail("%s: %v", firstWords(text), err)
		ph.httpErrors++
		return nil, d
	}
	if tr != nil {
		tr.child("compute.admission_wait", sp, req, time.Duration(qr.QueueWaitNs))
	}
	return qr, d
}

// httpReader cycles over six SELECTs on one-shot sessions.
type httpReader struct {
	h      *httpEnv
	rng    *rand.Rand
	ph     *phase
	direct *sql.Session // replays traced SELECTs without the server
	// counts are every COUNT(*) of orders the reader observed.
	counts []int64
	// overhead is round trip - admission wait - direct replay, per traced
	// request; wideOverheadUs the same for the wide result, per 1 000 rows.
	overhead       samples
	wideOverheadUs []float64
}

func (rd *httpReader) cycle(tr *tracer) {
	orders := rd.h.data.orders
	texts := workload.THQueries()
	wideRows := int64(httpWideRows)
	if wideRows > orders/2 {
		wideRows = orders / 2
	}
	lo := 1 + rd.rng.Int63n(orders-wideRows)
	stmts := []string{
		fmt.Sprintf("SELECT * FROM orders WHERE o_orderkey = %d", 1+rd.rng.Int63n(orders)),
		texts[5], texts[2], texts[12],
		fmt.Sprintf("SELECT o_orderkey, o_custkey, o_totalprice, o_orderdate FROM orders WHERE o_orderkey BETWEEN %d AND %d",
			lo, lo+wideRows-1),
		ordersCount,
	}
	const wide, count = 4, 5
	for _, i := range rd.rng.Perm(len(stmts)) {
		req := tr.request()
		qr, d := rd.h.request(rd.ph, stmts[i], "", tr, req)
		rd.ph.stmts++
		if qr == nil {
			continue
		}
		rd.ph.reads.add(d)
		rd.ph.resultRows += int64(len(qr.Rows))
		if i == count && len(qr.Rows) == 1 && len(qr.Rows[0]) == 1 {
			n, _ := qr.Rows[0][0].(float64)
			rd.counts = append(rd.counts, int64(n))
		}
		if tr == nil {
			continue
		}
		// The same statement straight on a session: what is left of the
		// round trip is the server's.
		sp := tr.begin("sql.replay", -1, req)
		t0 := time.Now()
		_, err := rd.direct.Exec(stmts[i])
		direct := time.Since(t0)
		tr.end(sp)
		rd.ph.stmts++
		rd.ph.res.check(err == nil, "replay %s: %v", firstWords(stmts[i]), err)
		rd.ph.kind("select").add(direct)
		over := d - time.Duration(qr.QueueWaitNs) - direct
		rd.overhead.add(over)
		if i == wide && len(qr.Rows) > 0 {
			rd.wideOverheadUs = append(rd.wideOverheadUs,
				float64(d-direct)/float64(time.Microsecond)/float64(len(qr.Rows))*1000)
		}
	}
}

// httpWriter runs BEGIN / INSERT / UPDATE / COMMIT as four requests on one
// named session.
type httpWriter struct {
	h       *httpEnv
	rng     *rand.Rand
	ph      *phase
	session string
	gen     *dmGen
	acked   int64 // transactions whose COMMIT was acknowledged
	begun   int64
	// space is the store's size, its cumulative put bytes and the user bytes
	// sent so far, read after each of the first spaceTxns acknowledged
	// transactions; the run subtracts what the store held before the phase.
	spaceTxns int64
	space     spaceRatios
}

func newHTTPWriter(h *httpEnv, rng *rand.Rand, ph *phase) (*httpWriter, error) {
	resp, err := h.client.Post(h.ts.URL+"/v1/session", "application/json", nil)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var out struct {
		Session string `json:"session"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil || out.Session == "" {
		return nil, fmt.Errorf("create session: status %d, %v", resp.StatusCode, err)
	}
	return &httpWriter{h: h, rng: rng, ph: ph, session: out.Session}, nil
}

func (w *httpWriter) close() error {
	req, err := http.NewRequest(http.MethodDelete, w.h.ts.URL+"/v1/session/"+w.session, nil)
	if err != nil {
		return err
	}
	resp, err := w.h.client.Do(req)
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("close session: status %d", resp.StatusCode)
	}
	return nil
}

func (w *httpWriter) txn(tr *tracer) {
	if w.gen == nil {
		// Keys are dense from 1, so the next free one follows the row count:
		// warm-up transactions and measured ones never collide.
		n, err := w.h.countOrders()
		if err != nil {
			w.ph.res.fail("writer: %v", err)
			return
		}
		w.gen = &dmGen{rng: w.rng, orders: w.h.data.orders, nextKey: n + 1}
	}
	req := tr.request()
	insert, update := w.gen.insertOrders(dmRowsPerInsert), w.gen.updateOrders()
	w.gen.advance(dmRowsPerInsert)
	w.begun++
	t0 := time.Now()
	ok := true
	for _, stmt := range []string{"BEGIN", insert, update, "COMMIT"} {
		qr, _ := w.h.request(w.ph, stmt, w.session, tr, req)
		ok = ok && qr != nil
	}
	w.ph.stmts += 2
	if ok {
		w.ph.txns.add(time.Since(t0))
		w.acked++
		if w.acked <= w.spaceTxns {
			w.space = spaceRatios{
				storeGrowth: w.h.eng.Store.TotalSize(),
				putBytes:    w.h.eng.Store.Metrics().BytesWritten,
				userBytes:   w.gen.userBytes,
			}
		}
	}
	if w.begun%httpHealthEvery == 0 {
		w.h.db.Orchestrator().SampleHealth()
	}
}

func runHTTPMixed(cfg runConfig, traced bool) (*result, error) {
	r := newResult("http_mixed", traced)
	d := generate(httpSF * cfg.scale)

	h, setupTime, err := setUpMedian(cfg.setups, func() (*httpEnv, error) { return httpSetup(d) })
	if err != nil {
		return nil, err
	}
	defer h.close()

	var tr *tracer
	if traced {
		tr = newTracer()
	}
	// Each client reports into its own phase; they are merged afterwards.
	rd := &httpReader{h: h, rng: rand.New(rand.NewSource(cfg.seed)), direct: h.session(),
		ph: newPhase(&result{})}
	wr, err := newHTTPWriter(h, rand.New(rand.NewSource(cfg.seed+1)), newPhase(&result{}))
	if err != nil {
		return nil, err
	}
	wr.spaceTxns = int64(cfg.units(httpSpaceTxnsPerSecond))
	initial, err := h.countOrders()
	if err != nil {
		return nil, err
	}

	runtime.GC()
	before := readCounters(h.eng)
	sizeBefore := h.eng.Store.TotalSize()
	start := time.Now()
	running := func() bool { return time.Since(start).Seconds() < cfg.seconds }
	var (
		wg                      sync.WaitGroup
		readElapsed, txnElapsed time.Duration
	)
	wg.Add(2)
	go func() {
		defer wg.Done()
		// In a traced run cycles alternate untraced and traced, and the last
		// one is a traced one.
		for c := 0; running() || (traced && c%2 == 1); c++ {
			t0 := time.Now()
			if traced && c%2 == 1 {
				rd.cycle(tr)
				rd.ph.traced.add(time.Since(t0))
			} else {
				rd.cycle(nil)
				if traced {
					rd.ph.untraced.add(time.Since(t0))
				}
			}
		}
		readElapsed = time.Since(start)
	}()
	go func() {
		defer wg.Done()
		for running() {
			wr.txn(tr)
		}
		txnElapsed = time.Since(start)
	}()
	wg.Wait()
	elapsed := time.Since(start)
	after := readCounters(h.eng)

	ph := mergePhases(r, rd.ph, wr.ph)
	for i, n := range rd.counts {
		k := (n - initial) / dmRowsPerInsert
		r.check((n-initial)%dmRowsPerInsert == 0 && k >= 0 && k <= wr.begun && (i == 0 || n >= rd.counts[i-1]),
			"http_mixed: reader saw %d orders, not initial %d + 64k for a k the writer had begun", n, initial)
	}
	final, err := h.countOrders()
	r.check(err == nil && final == initial+dmRowsPerInsert*wr.acked,
		"http_mixed: final COUNT(*) %d does not hold the %d acknowledged commits: %v", final, wr.acked, err)

	var m server.Metrics
	if resp, err := h.client.Get(h.ts.URL + "/metrics"); err == nil {
		err = json.NewDecoder(resp.Body).Decode(&m)
		resp.Body.Close()
		r.check(err == nil, "http_mixed: /metrics: %v", err)
	} else {
		r.check(false, "http_mixed: /metrics: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	err = h.srv.Drain(ctx)
	cancel()
	r.check(err == nil && h.eng.Fabric.LeasedSlots() == 0 && h.srv.SessionCount() == 0,
		"http_mixed: after Drain %d leased slots, %d sessions: %v", h.eng.Fabric.LeasedSlots(), h.srv.SessionCount(), err)

	tasks, spills := after.dagTasks-before.dagTasks, after.joinSpills-before.joinSpills
	r.check(tasks == 0 && spills == 0, "http_mixed: %d DAG tasks and %d join spills, want none", tasks, spills)
	ph.report(h.env, before, after, setupTime, elapsed, spaceRatios{
		storeGrowth: wr.space.storeGrowth - sizeBefore,
		putBytes:    wr.space.putBytes - before.bytesPut,
		userBytes:   wr.space.userBytes,
	}, ph.reads.stats(readElapsed), ph.txns.stats(txnElapsed))
	if traced {
		texts := workload.THQueries()
		srv := &serverObserved{
			overhead: rd.overhead, wideUs: rd.wideOverheadUs,
			requests: m.Server.Queries, errors: ph.httpErrors,
		}
		if err := finishTraced(h.env, r, tr, cfg, []string{texts[5], texts[2], texts[12], ordersCount}, srv); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// mergePhases folds the clients' phases into one that reports into r. Each
// client goroutine reports into a phase of its own, so none needs a lock.
func mergePhases(r *result, parts ...*phase) *phase {
	ph := newPhase(r)
	for _, p := range parts {
		r.attempted += p.res.attempted
		r.failed += p.res.failed
		r.failures = append(r.failures, p.res.failures...)
		ph.reads = append(ph.reads, p.reads...)
		ph.txns = append(ph.txns, p.txns...)
		ph.parse = append(ph.parse, p.parse...)
		ph.traced = append(ph.traced, p.traced...)
		ph.untraced = append(ph.untraced, p.untraced...)
		for k, s := range p.kinds {
			*ph.kind(k) = append(*ph.kind(k), *s...)
		}
		ph.stmts += p.stmts
		ph.resultRows += p.resultRows
		ph.httpErrors += p.httpErrors
	}
	return ph
}

// serverObserved is what the HTTP clients measured of the server layer.
type serverObserved struct {
	overhead samples
	wideUs   []float64
	requests int64
	errors   int
}

// setServerMetrics sets the server.* metrics; nil means the workload never
// went through the server, which reads as zero.
func setServerMetrics(r *result, o *serverObserved) {
	if o == nil {
		o = &serverObserved{}
	}
	r.set("server.overhead_us_per_req", usPer(o.overhead.total(), len(o.overhead)), len(o.overhead))
	var wide float64
	for _, us := range o.wideUs {
		wide += us
	}
	r.set("server.encode_us_per_krow", ratio(wide, float64(len(o.wideUs))), len(o.wideUs))
	r.set("server.requests", float64(o.requests), 0)
	r.set("server.errors", float64(o.errors), 0)
}
