package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"polaris"
	"polaris/internal/sql"
	"polaris/internal/workload"
)

// dm_txn: data-maintenance transactions on one session with read probes in
// between. State grows with every transaction, so the measured phase is a
// fixed number of transactions: a faster write path then finishes sooner
// instead of leaving the probes more small files to read.
const (
	dmSF = 4
	// dmTxnsPerSecond sizes the phase: -seconds s means this many transactions
	// per second asked for. The reference box commits about that many, and the
	// probes and compactions in between add about a quarter to the phase.
	dmTxnsPerSecond = 8
	dmRowsPerInsert = 64
	dmUpdateKeys    = 10
	dmProbeEvery    = 2  // a probe round after every 2nd transaction
	dmCompactEvery  = 24 // COMPACT both tables after every 24th
)

// dmGen makes the transactions' statements from the seed and tracks what
// the tables must hold after each commit.
type dmGen struct {
	rng       *rand.Rand
	orders    int64 // initial order count; initial keys are 1..orders
	nextKey   int64
	deletions []int // order keys whose lineitems get deleted, one per txn
	userBytes int64

	ordersCount, lineitemCount int64
	ordersSum                  float64
}

func newDMGen(seed int64, d *tpchData, initialSum float64) *dmGen {
	rng := rand.New(rand.NewSource(seed))
	return &dmGen{
		rng: rng, orders: d.orders, nextKey: d.orders + 1,
		deletions:   rng.Perm(int(d.orders)),
		ordersCount: d.orders, lineitemCount: d.lineitemRows, ordersSum: initialSum,
	}
}

// insertOrders is INSERT of n new orders with the next n free keys.
func (g *dmGen) insertOrders(n int) string {
	var sb strings.Builder
	sb.WriteString("INSERT INTO orders VALUES ")
	for i := 0; i < n; i++ {
		price := float64(1000 + g.rng.Intn(4000))
		prio := "3-MEDIUM"
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d, %d, 'O', %.2f, %d, '%s')",
			g.nextKey+int64(i), 1+g.rng.Int63n(g.orders/10+1), price, 8000+g.rng.Intn(2500), prio)
		g.ordersSum += price
		g.userBytes += 4*8 + 1 + int64(len(prio))
	}
	g.ordersCount += int64(n)
	return sb.String()
}

// insertLineitems is INSERT of one lineitem for each of the same n keys.
func (g *dmGen) insertLineitems(n int) string {
	var sb strings.Builder
	sb.WriteString("INSERT INTO lineitem VALUES ")
	for i := 0; i < n; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d, %d, %d, 1, %d, %.2f, 0.0%d, 0.0%d, 'N', 'O', %d)",
			g.nextKey+int64(i), 1+g.rng.Intn(2000), 1+g.rng.Intn(100), 1+g.rng.Intn(50),
			float64(1000+g.rng.Intn(90000)), g.rng.Intn(10), g.rng.Intn(9), 8000+g.rng.Intn(2500))
		g.userBytes += 9*8 + 1 + 1
	}
	g.lineitemCount += int64(n)
	return sb.String()
}

// advance moves on to the next n free keys.
func (g *dmGen) advance(n int) { g.nextKey += int64(n) }

// updateOrders adds 1 to o_totalprice over a range of initial keys.
func (g *dmGen) updateOrders() string {
	lo := 1 + g.rng.Int63n(g.orders-dmUpdateKeys)
	g.ordersSum += dmUpdateKeys
	return fmt.Sprintf("UPDATE orders SET o_totalprice = o_totalprice + 1 WHERE o_orderkey BETWEEN %d AND %d",
		lo, lo+dmUpdateKeys-1)
}

// deleteLineitems deletes the four lineitems of one initial order, a
// different order each time.
func (g *dmGen) deleteLineitems(txn int) string {
	g.lineitemCount -= 4
	return fmt.Sprintf("DELETE FROM lineitem WHERE l_orderkey = %d", g.deletions[txn%len(g.deletions)]+1)
}

func (g *dmGen) pointLookup() string {
	return fmt.Sprintf("SELECT * FROM orders WHERE o_orderkey = %d", 1+g.rng.Int63n(g.orders))
}

const (
	ordersTotals   = "SELECT COUNT(*) AS n, SUM(o_totalprice) AS s FROM orders"
	lineitemTotals = "SELECT COUNT(*) AS n FROM lineitem"
)

// totals is one reading of the tables' COUNT/SUM beside what the generator
// had tracked when it was taken.
type totals struct {
	orders, lineitem           *sql.Result
	ordersCount, lineitemCount int64
	ordersSum                  float64
}

func (g *dmGen) readTotals(cl *client) totals {
	return totals{cl.gate(ordersTotals), cl.gate(lineitemTotals), g.ordersCount, g.lineitemCount, g.ordersSum}
}

func (t totals) check(r *result) {
	if t.orders != nil {
		row := t.orders.Batch.Row(0)
		n, _ := row[0].(int64)
		s, _ := row[1].(float64)
		r.check(n == t.ordersCount && closeTo(s, t.ordersSum),
			"orders holds COUNT %d SUM %.2f, generator tracked %d and %.2f", n, s, t.ordersCount, t.ordersSum)
	}
	if t.lineitem != nil {
		n, _ := t.lineitem.Batch.Row(0)[0].(int64)
		r.check(n == t.lineitemCount, "lineitem holds %d rows, generator tracked %d", n, t.lineitemCount)
	}
}

// probe is one read-probe round over the maintained tables: a point lookup,
// Q6 (lineitem scan) and Q3 (lineitem-orders join), each through run.
func probe(lookup string, run func(text string) *sql.Result) []*sql.Result {
	texts := workload.THQueries()
	return []*sql.Result{run(lookup), run(texts[5]), run(texts[2])}
}

// probePair is two probe rounds that must agree: byte for byte when exact,
// else to sameValues' nine digits.
type probePair struct {
	a, b  []*sql.Result
	exact bool
	what  string
}

func dmSetup(d *tpchData) (*env, float64, error) {
	e, err := openLoaded(polaris.DefaultConfig(), d)
	if err != nil {
		return nil, 0, err
	}
	sess := e.session()
	res, err := sess.Exec(ordersTotals)
	if err != nil {
		e.close()
		return nil, 0, err
	}
	sum, _ := res.Batch.Row(0)[1].(float64)
	// One unmeasured probe round warms the node and snapshot caches.
	t0 := time.Now()
	texts := workload.THQueries()
	for _, q := range []string{"SELECT * FROM orders WHERE o_orderkey = 1", texts[5], texts[2]} {
		if _, err := sess.Exec(q); err != nil {
			e.close()
			return nil, 0, err
		}
	}
	e.coldPass = time.Since(t0)
	return e, sum, nil
}

func runDMTxn(cfg runConfig, traced bool) (*result, error) {
	r := newResult("dm_txn", traced)
	d := generate(dmSF * cfg.scale)

	var sum float64 // SUM(o_totalprice) as loaded, the same after every set-up
	e, setupTime, err := setUpMedian(cfg.setups, func() (e *env, err error) {
		e, sum, err = dmSetup(d)
		return e, err
	})
	if err != nil {
		return nil, err
	}
	defer e.close()

	txns := cfg.units(dmTxnsPerSecond)
	gen := newDMGen(cfg.seed, d, sum)
	var tableIDs []int64
	for _, table := range []string{"orders", "lineitem"} {
		id, err := tableID(e, table)
		if err != nil {
			return nil, err
		}
		tableIDs = append(tableIDs, id)
	}
	ph := newPhase(r)
	cl := &client{sess: e.session(), ph: ph}
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	// What the gate read during the phase; compared after the clock and the
	// allocation counter have been read.
	var (
		pairs    []probePair
		readings []totals
	)

	runtime.GC()
	before := readCounters(e.eng)
	sizeBefore := e.eng.Store.TotalSize()
	start := time.Now()
	for t := 0; t < txns; t++ {
		// Transactions alternate untraced and traced in a traced run.
		txTr := tr
		if t%2 == 0 {
			txTr = nil
		}
		req := txTr.request()
		insOrders, insLines := gen.insertOrders(dmRowsPerInsert), gen.insertLineitems(dmRowsPerInsert)
		gen.advance(dmRowsPerInsert)
		update, del := gen.updateOrders(), gen.deleteLineitems(t)

		t0 := time.Now()
		ok := cl.control("BEGIN", txTr, req)
		for _, stmt := range []string{insOrders, insLines, update, del} {
			ok = cl.write(stmt, txTr, req) != nil && ok
		}
		ok = cl.control("COMMIT", txTr, req) && ok
		took := time.Since(t0)
		if ok {
			ph.txns.add(took)
		}
		if txTr != nil {
			ph.traced.add(took)
		} else if traced {
			ph.untraced.add(took)
		}

		done := t + 1
		if done%dmProbeEvery != 0 && done%dmCompactEvery != 0 && done != txns {
			continue
		}
		read := func(text string) *sql.Result { return cl.read(text, txTr, req) }
		lookup := gen.pointLookup()
		last := probe(lookup, read)
		if done%dmCompactEvery == 0 {
			// The same probes on either side of COMPACT must agree, and the
			// tables must hold what the generator tracked. The probes after it
			// are reads of the workload too: the first over compacted tables.
			cl.write("COMPACT TABLE orders", txTr, req)
			cl.write("COMPACT TABLE lineitem", txTr, req)
			compacted := probe(lookup, read)
			pairs = append(pairs, probePair{last, compacted, false, fmt.Sprintf("across COMPACT after txn %d", done)})
			readings = append(readings, gen.readTotals(cl))
			last = compacted
		}
		if done == txns {
			readings = append(readings, gen.readTotals(cl))
			// Losing every cached snapshot must change no answer: the
			// in-memory store's analogue of a restart.
			for _, id := range tableIDs {
				e.eng.Cache.Invalidate(id)
			}
			pairs = append(pairs, probePair{last, probe(lookup, cl.gate), true, "after Cache.Invalidate"})
		}
	}
	elapsed := time.Since(start)
	after := readCounters(e.eng)

	for _, p := range pairs {
		for i := range p.a {
			same := sameValues(p.a[i], p.b[i])
			if p.exact {
				same = sameBytes(p.a[i], p.b[i])
			}
			r.check(same, "dm_txn: probe %d changed %s", i, p.what)
		}
	}
	for _, t := range readings {
		t.check(r)
	}
	tasks, spills := after.dagTasks-before.dagTasks, after.joinSpills-before.joinSpills
	r.check(tasks == 0 && spills == 0, "dm_txn: %d DAG tasks and %d join spills, want none", tasks, spills)
	ph.report(e, before, after, setupTime, elapsed, spaceRatios{
		storeGrowth: e.eng.Store.TotalSize() - sizeBefore,
		putBytes:    after.bytesPut - before.bytesPut,
		userBytes:   gen.userBytes,
	}, ph.reads.stats(elapsed), ph.txns.stats(elapsed))
	if traced {
		texts := workload.THQueries()
		if err := finishTraced(e, r, tr, cfg, []string{gen.pointLookup(), texts[5], texts[2]}, nil); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// tableID returns a table's catalog ID.
func tableID(e *env, table string) (int64, error) {
	tx := e.eng.Begin()
	defer tx.Rollback()
	meta, err := tx.Table(table)
	if err != nil {
		return 0, err
	}
	return meta.ID, nil
}
