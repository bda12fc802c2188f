package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"strings"
	"time"

	"polaris/internal/colfile"
	"polaris/internal/sql"
)

// runConfig is what one run of one workload is given.
type runConfig struct {
	seed int64
	// seconds sizes the measured phase: http_mixed runs for that long, the
	// library workloads run a fixed number of work units per second asked for
	// (the perSecond constants), so that every run of one length does exactly
	// the same work.
	seconds float64
	// scale multiplies every scale factor and the operator rungs' file count.
	// It is 1 except in the smoke test.
	scale float64
	// setups is how many times set-up runs; setup_s is the median.
	setups int
	// spans, when non-empty, is the file a traced run writes its spans to.
	spans string
}

// units is the fixed number of work units (passes, transactions) of a
// library workload's phase: perSecond of them per second asked for, rounded
// up to an even number so that a traced run has as many traced units as
// untraced ones.
func (c runConfig) units(perSecond float64) int {
	// The small margin keeps a product such as 15 x 2.4, which binary floating
	// point may put a hair above 36, from being rounded up to 37.
	n := int(math.Ceil(c.seconds*perSecond - 1e-9))
	return n + n%2
}

// metric is one reported value.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// result is what one run of one workload reports.
type result struct {
	workload  string
	traced    bool
	metrics   map[string]metric
	attempted int
	failed    int
	failures  []string
	self      []selfTime
	// phase is how long the measured phase lasted.
	phase time.Duration
	// dopScaling is exec.scan_agg at DOP 1 over DOP GOMAXPROCS, 0 when it was
	// not measured.
	dopScaling float64
}

func newResult(workload string, traced bool) *result {
	return &result{workload: workload, traced: traced, metrics: make(map[string]metric)}
}

// setUpMedian sets a workload's database up n times, closing all but the
// last, and returns the last one with the median set-up time.
func setUpMedian[E interface{ close() }](n int, setup func() (E, error)) (E, time.Duration, error) {
	var (
		e     E
		times []float64
	)
	for i := 0; i < n; i++ {
		if i > 0 {
			e.close()
		}
		t0 := time.Now()
		var err error
		if e, err = setup(); err != nil {
			return e, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	_, med, _ := quartiles(times)
	return e, time.Duration(med * float64(time.Second)), nil
}

func (r *result) set(name string, v float64, n int) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.fail("metric %s is not finite", name)
		v = 0
	}
	r.metrics[name] = metric{Value: v, Unit: unitOf(name), Samples: n}
}

// fail records one failed operation or failed correctness check.
func (r *result) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 10 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// check counts one correctness check and records it when it does not hold.
func (r *result) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.fail(format, args...)
	}
}

// phase accumulates what the clients of a measured phase observed.
type phase struct {
	res   *result
	reads samples // every SELECT, client-observed
	txns  samples // every BEGIN..COMMIT ack
	// kinds, parse: per statement kind and parse time, from traced
	// statements only.
	kinds map[string]*samples
	parse samples
	// stmts counts statements other than BEGIN and COMMIT.
	stmts      int
	resultRows int64
	// traced and untraced time the same work units with and without
	// tracing in a traced run.
	traced, untraced samples
	// httpErrors counts responses other than 200 the HTTP clients saw.
	httpErrors int
}

// classStats are the end-to-end numbers of one latency class over a whole
// phase. p90 is the highest percentile with ten samples beyond it once the
// class has a hundred.
type classStats struct {
	p50, p90, perSec float64
	n                int
}

// stats summarises a latency class whose client ran for elapsed.
func (s samples) stats(elapsed time.Duration) classStats {
	return classStats{
		p50: s.percentileMs(0.5), p90: s.percentileMs(0.9),
		perSec: ratio(float64(len(s)), elapsed.Seconds()), n: len(s),
	}
}

func newPhase(res *result) *phase {
	return &phase{res: res, kinds: make(map[string]*samples)}
}

func (p *phase) kind(name string) *samples {
	s := p.kinds[name]
	if s == nil {
		s = new(samples)
		p.kinds[name] = s
	}
	return s
}

// kindOf names the statement kind the sql.*_ms_p50 metrics are keyed by.
func kindOf(st sql.Statement) string {
	switch s := st.(type) {
	case *sql.SelectStmt:
		return "select"
	case *sql.InsertStmt:
		return "insert"
	case *sql.UpdateStmt:
		return "update"
	case *sql.DeleteStmt:
		return "delete"
	case sql.CommitStmt:
		return "commit"
	case sql.BeginStmt:
		return "begin"
	case sql.MaintenanceStmt:
		return s.What
	}
	return "other"
}

// client is one closed-loop library client: a session plus the phase it
// reports into. With a tracer it takes the split path (ParseScript, then
// ExecParsedWith) and records a span per step; without, Session.Exec.
type client struct {
	sess *sql.Session
	ph   *phase
}

// exec runs one statement and returns its result and client-observed
// latency. A failure is counted and returns a nil result.
func (c *client) exec(text string, tr *tracer, req int) (*sql.Result, time.Duration) {
	c.ph.res.attempted++
	var (
		res *sql.Result
		err error
		d   time.Duration
	)
	if tr == nil {
		t0 := time.Now()
		res, err = c.sess.Exec(text)
		d = time.Since(t0)
	} else {
		t0 := time.Now()
		root := tr.begin("sql.statement", -1, req)
		sp := tr.begin("sql.parse", root, req)
		stmts, perr := sql.ParseScript(text)
		tr.end(sp)
		parsed := time.Since(t0)
		err = perr
		if err == nil && len(stmts) != 1 {
			err = fmt.Errorf("want one statement, parsed %d", len(stmts))
		}
		if err == nil {
			kind := kindOf(stmts[0])
			sp = tr.begin("sql.exec."+kind, root, req)
			t1 := time.Now()
			res, err = c.sess.ExecParsedWith(stmts[0], sql.ExecOpts{})
			c.ph.kind(kind).add(time.Since(t1))
			tr.end(sp)
			c.ph.parse.add(parsed)
		}
		tr.end(root)
		d = time.Since(t0)
	}
	if err != nil {
		c.ph.res.fail("%s: %v", firstWords(text), err)
		return nil, d
	}
	return res, d
}

// read runs one SELECT and records it in the read latency class.
func (c *client) read(text string, tr *tracer, req int) *sql.Result {
	res, d := c.exec(text, tr, req)
	c.ph.stmts++
	if res != nil {
		c.ph.reads.add(d)
		if res.Batch != nil {
			c.ph.resultRows += int64(res.Batch.NumRows())
		}
	}
	return res
}

// gate runs one SELECT that only the correctness gate needs. It is a
// statement of the phase, but no read a user of the workload would make, so
// it stays out of the read latency class, and it is never traced.
func (c *client) gate(text string) *sql.Result {
	res, _ := c.exec(text, nil, 0)
	c.ph.stmts++
	return res
}

// write runs one DML or maintenance statement.
func (c *client) write(text string, tr *tracer, req int) *sql.Result {
	res, _ := c.exec(text, tr, req)
	c.ph.stmts++
	return res
}

// control runs BEGIN or COMMIT.
func (c *client) control(text string, tr *tracer, req int) bool {
	res, _ := c.exec(text, tr, req)
	return res != nil
}

func firstWords(text string) string {
	f := strings.Fields(text)
	if len(f) > 6 {
		f = f[:6]
	}
	return strings.Join(f, " ")
}

// marshal is the byte form results are compared in.
func marshal(res *sql.Result) []byte {
	if res == nil || res.Batch == nil {
		return nil
	}
	data, err := colfile.MarshalBatch(res.Batch.Materialize())
	if err != nil {
		return nil
	}
	return data
}

// sameBytes reports whether two results are byte-identical.
func sameBytes(a, b *sql.Result) bool {
	x, y := marshal(a), marshal(b)
	return x != nil && bytes.Equal(x, y)
}

// sameValues reports whether two results hold the same rows, with floats
// equal to nine digits: a float SUM may differ in its last bits once
// compaction has changed the files it is summed over (docs/ARCHITECTURE.md),
// so results on either side of a COMPACT are compared this way, not by bytes.
func sameValues(a, b *sql.Result) bool {
	if a == nil || b == nil || a.Batch == nil || b.Batch == nil {
		return false
	}
	x, y := a.Batch.Materialize(), b.Batch.Materialize()
	if !x.Schema.Equal(y.Schema) || x.NumRows() != y.NumRows() {
		return false
	}
	for i := 0; i < x.NumRows(); i++ {
		rx, ry := x.Row(i), y.Row(i)
		for c := range rx {
			fx, okx := rx[c].(float64)
			fy, oky := ry[c].(float64)
			if okx && oky {
				if !closeTo(fx, fy) {
					return false
				}
			} else if rx[c] != ry[c] {
				return false
			}
		}
	}
	return true
}

func closeTo(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// spaceRatios are the two space metrics' inputs: store growth and put bytes
// of the writes a workload made, over the user bytes those writes carried.
type spaceRatios struct {
	storeGrowth, putBytes, userBytes int64
}

// report turns a finished phase into metrics. With traced false it sets the
// end-to-end metrics, with traced true the per-layer metrics that come from
// counters and from the clients' own timings; the rungs add the rest.
func (p *phase) report(e *env, before, after counters, setup, elapsed time.Duration, space spaceRatios, reads, txns classStats) {
	r := p.res
	r.phase = elapsed
	stmts := float64(p.stmts)
	if !r.traced {
		r.set("setup_s", setup.Seconds(), 0)
		r.set("read_p50_ms", reads.p50, reads.n)
		r.set("read_p90_ms", reads.p90, reads.n)
		r.set("reads_per_s", reads.perSec, reads.n)
		r.set("txn_p50_ms", txns.p50, txns.n)
		r.set("txn_p90_ms", txns.p90, txns.n)
		r.set("txns_per_s", txns.perSec, txns.n)
		r.set("alloc_mb_per_stmt", ratio(float64(after.totalAlloc-before.totalAlloc)/(1<<20), stmts), p.stmts)
		r.set("store_bytes_per_user_byte", ratio(float64(space.storeGrowth), float64(space.userBytes)), 0)
		r.set("put_bytes_per_user_byte", ratio(float64(space.putBytes), float64(space.userBytes)), 0)
		return
	}

	d := func(a, b int64) float64 { return float64(a - b) }
	r.set("compute.admission_wait_us_per_stmt", ratio(d(after.admWaitNs, before.admWaitNs)/1e3, stmts), p.stmts)
	r.set("compute.admission_queued", d(after.admQueued, before.admQueued), 0)
	r.set("compute.admission_rejected", d(after.admRejected, before.admRejected), 0)
	hits, misses := d(after.nodeHits, before.nodeHits), d(after.nodeMisses, before.nodeMisses)
	r.set("compute.cache_hit_ratio", ratio(hits, hits+misses), int(hits+misses))
	r.set("compute.bytes_from_remote", d(after.nodeRemoteBytes, before.nodeRemoteBytes), 0)
	r.set("compute.cold_pass_ms", ms(e.coldPass), 1)

	r.set("sql.parse_us_per_stmt", usPer(p.parse.total(), len(p.parse)), len(p.parse))
	for _, k := range []string{"select", "insert", "update", "delete", "commit", "compact"} {
		s := p.kind(k)
		r.set("sql."+k+"_ms_p50", s.percentileMs(0.5), len(*s))
	}

	r.set("exec.rows_scanned_per_stmt", ratio(d(after.rowsScanned, before.rowsScanned), stmts), p.stmts)
	r.set("exec.rows_scanned_per_result_row", ratio(d(after.rowsScanned, before.rowsScanned), float64(p.resultRows)), int(p.resultRows))
	r.set("exec.pushed_filters", d(after.pushedFilters, before.pushedFilters), 0)
	r.set("exec.runtime_filter_rows", d(after.runtimeFilterRows, before.runtimeFilterRows), 0)
	r.set("exec.topn_pushdowns", d(after.topNPushdowns, before.topNPushdowns), 0)
	r.set("exec.merge_free_aggs", d(after.mergeFreeAggs, before.mergeFreeAggs), 0)
	r.set("exec.join_spills", d(after.joinSpills, before.joinSpills), 0)
	r.set("exec.join_spill_bytes", d(after.joinSpillBytes, before.joinSpillBytes), 0)
	r.set("exec.join_spill_partitions", d(after.joinSpillPartitions, before.joinSpillPartitions), 0)

	r.set("core.bulkload_rows_per_s", ratio(float64(e.data.lineitemRows), e.bulkLoad.Seconds()), 1)
	r.set("core.files_read_per_stmt", ratio(d(after.filesRead, before.filesRead), stmts), p.stmts)
	r.set("core.bytes_read_per_stmt", ratio(d(after.bytesRead, before.bytesRead), stmts), p.stmts)
	r.set("core.sim_ms_per_stmt", ratio(d(after.simNs, before.simNs)/1e6, stmts), p.stmts)

	snapHits, snapMisses := d(after.snapHits, before.snapHits), d(after.snapMisses, before.snapMisses)
	r.set("manifest.cache_hit_ratio", ratio(snapHits, snapHits+snapMisses), int(snapHits+snapMisses))
	blobs, size := blobUsage(e.eng, "/manifests/")
	cpBlobs, cpSize := blobUsage(e.eng, "/checkpoints/")
	r.set("manifest.blobs", float64(blobs+cpBlobs), 0)
	r.set("manifest.bytes", float64(size+cpSize), 0)
	r.set("manifest.checkpoints", float64(cpBlobs), 0)

	commits, aborts := d(after.catCommitted, before.catCommitted), d(after.catAborted, before.catAborted)
	r.set("catalog.commits", commits, 0)
	r.set("catalog.aborts", aborts, 0)
	r.set("catalog.write_conflicts", d(after.catConflicts, before.catConflicts), 0)
	r.set("catalog.commit_success_ratio", ratio(commits, commits+aborts), int(commits+aborts))

	blobs, size = blobUsage(e.eng, "/dv/")
	r.set("deletevector.blobs", float64(blobs), 0)
	r.set("deletevector.bytes", float64(size), 0)

	r.set("objectstore.puts_per_stmt", ratio(d(after.puts, before.puts), stmts), p.stmts)
	r.set("objectstore.gets_per_stmt", ratio(d(after.gets, before.gets), stmts), p.stmts)
	r.set("objectstore.lists_per_stmt", ratio(d(after.lists, before.lists), stmts), p.stmts)
	r.set("objectstore.deletes_per_stmt", ratio(d(after.deletes, before.deletes), stmts), p.stmts)
	r.set("objectstore.bytes_written_per_stmt", ratio(d(after.bytesPut, before.bytesPut), stmts), p.stmts)
	r.set("objectstore.bytes_read_per_stmt", ratio(d(after.bytesGot, before.bytesGot), stmts), p.stmts)
	r.set("objectstore.live_blobs", float64(e.eng.Store.Count()), 0)
	r.set("objectstore.live_bytes", float64(e.eng.Store.TotalSize()), 0)

	r.set("dcp.tasks_per_stmt", ratio(d(after.dagTasks, before.dagTasks), stmts), p.stmts)
	r.set("dcp.stages_per_stmt", ratio(d(after.dagStages, before.dagStages), stmts), p.stmts)
	r.set("dcp.retries", d(after.dagRetries, before.dagRetries), 0)
	// Exchange is what a DAG run wrote to the store that was not a join spill.
	var exchange float64
	if after.dagTasks > before.dagTasks {
		exchange = d(after.bytesPut, before.bytesPut) - d(after.joinSpillBytes, before.joinSpillBytes)
	}
	r.set("dcp.exchange_bytes_per_stmt", ratio(exchange, stmts), p.stmts)

	orch := e.db.Orchestrator()
	var dropped int64
	for _, c := range orch.Compactions() {
		dropped += c.RowsDropped
	}
	r.set("sto.compactions", float64(len(orch.Compactions())), 0)
	r.set("sto.compaction_rows_dropped", float64(dropped), 0)
	r.set("sto.checkpoints", float64(len(orch.Checkpoints())), 0)
	r.set("sto.published", float64(len(orch.Published())), 0)
	r.set("sto.errors", float64(len(orch.Errors())), 0)
	r.check(len(orch.Errors()) == 0, "STO recorded %d background errors, first: %v", len(orch.Errors()), firstErr(orch.Errors()))

	r.set("proc.allocs_per_stmt", ratio(float64(after.mallocs-before.mallocs), stmts), p.stmts)
	r.set("proc.gc_pause_ms_total", float64(after.gcPauseNs-before.gcPauseNs)/1e6, 0)
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	r.set("proc.peak_heap_mb", float64(m.HeapSys)/(1<<20), 0)
	r.set("proc.trace_overhead_ratio", ratio(
		ratio(float64(p.traced.total()), float64(len(p.traced))),
		ratio(float64(p.untraced.total()), float64(len(p.untraced)))), len(p.traced))
}

// finishTraced ends a traced run: what the HTTP clients saw of the server
// (nil when the workload never went through it), the rungs against the store
// state the workload left, the per-layer self times, and the span file.
func finishTraced(e *env, r *result, tr *tracer, cfg runConfig, stmts []string, srv *serverObserved) error {
	setServerMetrics(r, srv)
	runRungs(e, r, tr, stmts, cfg.scale)
	r.self = tr.selfTimes()
	if cfg.spans == "" {
		return nil
	}
	return tr.write(cfg.spans)
}

func firstErr(errs []error) error {
	if len(errs) == 0 {
		return nil
	}
	return errs[0]
}
