package polaris

// Grace hash-join spilling at the SQL surface: a build side that exceeds
// JoinMemoryBudget must spill (observable via WorkStats.JoinSpills), produce
// byte-identical results to the unlimited-budget plan at every DOP, leave no
// spill files behind, and surface clean errors under storage fault injection.
// Run under -race in CI (these tests are not gated behind -short).

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"polaris/internal/catalog"
	"polaris/internal/colfile"
	"polaris/internal/compute"
	"polaris/internal/core"
	"polaris/internal/objectstore"
	"polaris/internal/sql"
	"polaris/internal/workload"
)

// TestGraceJoinSpillMatchesUnlimited is the acceptance gate of the spill
// work: the join statements spill every large build at tinySpillBudget and
// must render the bytes of the unlimited budget in every cell, writing spill
// bytes and leaving no spill file behind.
func TestGraceJoinSpillMatchesUnlimited(t *testing.T) {
	ds := tpchData
	ds.stmts = tpchJoinStmts
	ds.check = func(db *DB, budget int64) error {
		if budget > 0 && db.Engine().Work.JoinSpillBytes.Load() == 0 {
			return errors.New("JoinSpillBytes = 0 after spilled joins")
		}
		return nil
	}
	runMatrix(t, ds)
}

// randTableDDL generates a pair of joinable tables with integer, string and
// float columns plus NULLs (via partial-column inserts), returning the DDL
// and DML statements. Deterministic for a given seed.
func randTables(rng *rand.Rand) []string {
	stmts := []string{
		`CREATE TABLE ta (k INT, g INT, s VARCHAR, f FLOAT) WITH (DISTRIBUTION = k)`,
		`CREATE TABLE tb (k INT, g INT, tag VARCHAR) WITH (DISTRIBUTION = k)`,
	}
	aRows := 150 + rng.Intn(350)
	bRows := 100 + rng.Intn(300)
	aKeys := 1 + rng.Intn(60)
	bKeys := 1 + rng.Intn(60)
	var sb strings.Builder
	sb.WriteString("INSERT INTO ta VALUES ")
	for i := 0; i < aRows; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d, %d, 'a-%d', %d.%d)", rng.Intn(aKeys), rng.Intn(7), rng.Intn(20), rng.Intn(100), rng.Intn(10))
	}
	stmts = append(stmts, sb.String())
	sb.Reset()
	sb.WriteString("INSERT INTO tb VALUES ")
	for i := 0; i < bRows; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d, %d, 'b-%d')", rng.Intn(bKeys), rng.Intn(7), rng.Intn(15))
	}
	stmts = append(stmts, sb.String())
	// Partial-column inserts leave the unnamed columns NULL, so joins and
	// predicates see NULL keys and NULL values.
	for i := 0; i < 5; i++ {
		stmts = append(stmts,
			fmt.Sprintf("INSERT INTO ta (g, s) VALUES (%d, 'null-k-%d')", rng.Intn(7), i),
			fmt.Sprintf("INSERT INTO tb (k) VALUES (%d)", rng.Intn(bKeys)))
	}
	return stmts
}

// randQuery generates one deterministic query over the random tables: a join
// shape (inner/left, single or composite key), a random predicate, and either
// a projection with ORDER BY, an ORDER BY ... LIMIT, or an integer GROUP BY
// fully pinned by its ORDER BY. Float columns appear only as stored values
// (projection/sort), never re-aggregated, per the determinism contract.
func randQuery(rng *rand.Rand) string {
	join := "JOIN"
	if rng.Intn(2) == 0 {
		join = "LEFT JOIN"
	}
	on := "a.k = b.k"
	if rng.Intn(3) == 0 {
		on += " AND a.g = b.g"
	}
	where := ""
	switch rng.Intn(4) {
	case 0:
		where = fmt.Sprintf(" WHERE a.g < %d", 1+rng.Intn(6))
	case 1:
		where = fmt.Sprintf(" WHERE b.g >= %d", rng.Intn(6))
	case 2:
		where = fmt.Sprintf(" WHERE a.k BETWEEN %d AND %d", rng.Intn(10), 20+rng.Intn(40))
	}
	switch rng.Intn(3) {
	case 0: // projection pinned by a total ORDER BY
		return "SELECT a.k, a.g, a.s, a.f, b.tag FROM ta a " + join + " tb b ON " + on + where +
			" ORDER BY a.k, a.g, a.s, a.f, b.tag"
	case 1: // ORDER BY ... LIMIT (top-N pushdown shape)
		return fmt.Sprintf("SELECT a.k, a.s, b.tag FROM ta a "+join+" tb b ON "+on+where+
			" ORDER BY a.k, a.s, b.tag LIMIT %d", 5+rng.Intn(40))
	default: // integer aggregation pinned by its group keys
		return "SELECT a.k, COUNT(*) AS n, MIN(b.g) AS mn, MAX(b.g) AS mx FROM ta a " + join + " tb b ON " + on + where +
			" GROUP BY a.k ORDER BY a.k"
	}
}

// TestJoinSpillPropertyRandom generalizes the hand-written determinism tests:
// for seeded random tables, predicates and join shapes, results must be
// byte-identical across DOP {1,4,8} × JoinMemoryBudget {unlimited, tiny}.
func TestJoinSpillPropertyRandom(t *testing.T) {
	cases := 4
	if !testing.Short() {
		cases = 8
	}
	for c := 0; c < cases; c++ {
		c := c
		t.Run(fmt.Sprintf("case=%d", c), func(t *testing.T) {
			setup := randTables(rand.New(rand.NewSource(int64(1000 + c))))
			queries := make([]string, 3)
			qrng := rand.New(rand.NewSource(int64(9000 + c)))
			for i := range queries {
				queries[i] = randQuery(qrng)
			}

			var want []string
			for _, dop := range []int{1, 4, 8} {
				for _, budget := range []int64{0, tinySpillBudget} {
					cfg := DefaultConfig()
					cfg.Parallelism = dop
					cfg.JoinMemoryBudget = budget
					db := Open(cfg)
					for _, s := range setup {
						db.MustExec(s)
					}
					spillsBefore := db.Engine().Work.JoinSpills.Load()
					for i, q := range queries {
						r, err := db.Query(q)
						if err != nil {
							t.Fatalf("dop=%d budget=%d query %q: %v", dop, budget, q, err)
						}
						got := renderRows(r)
						if want == nil || i >= len(want) {
							want = append(want, got)
							continue
						}
						if got != want[i] {
							t.Fatalf("dop=%d budget=%d query %q differs:\ngot:\n%s\nwant:\n%s", dop, budget, q, got, want[i])
						}
					}
					if budget > 0 && db.Engine().Work.JoinSpills.Load() == spillsBefore {
						t.Fatalf("dop=%d: tiny budget never spilled", dop)
					}
					if leaked := db.Engine().Store.List(objectstore.SpillPrefix); len(leaked) != 0 {
						t.Fatalf("dop=%d budget=%d: %d spill files leaked", dop, budget, len(leaked))
					}
					db.Close()
				}
			}
		})
	}
}

// TestMultiSpilledJoinStages is a regression test: two joins in one
// statement whose build sides BOTH overflow the budget. Each build must get
// its own spill namespace — with a shared one, the second build's partition
// files overwrite the first's (identical relative paths), and the first
// stage then probes the wrong table's data.
func TestMultiSpilledJoinStages(t *testing.T) {
	mk := func(budget int64) *DB {
		cfg := DefaultConfig()
		cfg.Parallelism = 4
		cfg.JoinMemoryBudget = budget
		db := Open(cfg)
		db.MustExec(`CREATE TABLE l (a INT, b INT) WITH (DISTRIBUTION = a)`)
		db.MustExec(`CREATE TABLE m (a INT, t VARCHAR, c INT) WITH (DISTRIBUTION = a)`)
		db.MustExec(`CREATE TABLE n (c INT, u VARCHAR) WITH (DISTRIBUTION = c)`)
		var sb strings.Builder
		sb.WriteString("INSERT INTO l VALUES ")
		for i := 0; i < 150; i++ {
			if i > 0 {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "(%d,%d)", i%25, i)
		}
		db.MustExec(sb.String())
		sb.Reset()
		sb.WriteString("INSERT INTO m VALUES ")
		for i := 0; i < 200; i++ {
			if i > 0 {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "(%d,'m%d',%d)", i%25, i, i%12)
		}
		db.MustExec(sb.String())
		sb.Reset()
		sb.WriteString("INSERT INTO n VALUES ")
		for i := 0; i < 180; i++ {
			if i > 0 {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "(%d,'n%d')", i%12, i)
		}
		db.MustExec(sb.String())
		return db
	}
	const q = `SELECT l.b, m.t, n.u FROM l JOIN m ON l.a = m.a JOIN n ON m.c = n.c ORDER BY l.b, m.t, n.u`
	ref := mk(0)
	defer ref.Close()
	want := renderRows(ref.MustExec(q))

	sp := mk(512)
	defer sp.Close()
	got := renderRows(sp.MustExec(q))
	if n := sp.Engine().Work.JoinSpills.Load(); n < 2 {
		t.Fatalf("JoinSpills = %d, want 2 (both builds must spill)", n)
	}
	if got != want {
		t.Fatalf("two spilled join stages differ from unlimited:\ngot:\n%s\nwant:\n%s", got, want)
	}
	if leaked := sp.Engine().Store.List(objectstore.SpillPrefix); len(leaked) != 0 {
		t.Fatalf("leaked %d spill files", len(leaked))
	}
}

// TestJoinSpillEdges covers the plan shapes that stop early or carry no probe
// rows: an empty probe side against an over-budget build, a bare-LIMIT join
// (the staged shape with an early-stopping last stage), and INSERT ... SELECT
// over a spilled join — all with the spill namespace empty afterwards.
func TestJoinSpillEdges(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Parallelism = 4
	cfg.JoinMemoryBudget = 512
	db := Open(cfg)
	defer db.Close()
	db.MustExec(`CREATE TABLE el (k INT, v INT) WITH (DISTRIBUTION = k)`)
	db.MustExec(`CREATE TABLE eb (k INT, tag VARCHAR) WITH (DISTRIBUTION = k)`)
	var sb strings.Builder
	sb.WriteString("INSERT INTO eb VALUES ")
	for i := 0; i < 300; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d, 'x-%d')", i%30, i)
	}
	db.MustExec(sb.String())

	// Empty probe side joined against an over-budget build.
	r := db.MustExec(`SELECT a.v, b.tag FROM el a JOIN eb b ON a.k = b.k`)
	if r.Len() != 0 {
		t.Fatalf("empty-probe join rows = %d", r.Len())
	}

	sb.Reset()
	sb.WriteString("INSERT INTO el VALUES ")
	for i := 0; i < 200; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d, %d)", i%40, i)
	}
	db.MustExec(sb.String())

	// Bare LIMIT over a spilled join: the join stages run whole, the suffix
	// stage stops once the morsel prefix holds 7 rows.
	r = db.MustExec(`SELECT a.v, b.tag FROM el a JOIN eb b ON a.k = b.k LIMIT 7`)
	if r.Len() != 7 {
		t.Fatalf("bare-limit spilled join rows = %d", r.Len())
	}

	// DML over a spilled join.
	db.MustExec(`CREATE TABLE sink (v INT, tag VARCHAR)`)
	res := db.MustExec(`INSERT INTO sink SELECT a.v, b.tag FROM el a JOIN eb b ON a.k = b.k`)
	if res.RowsAffected() == 0 {
		t.Fatal("insert-select over spilled join affected 0 rows")
	}
	if got := db.Engine().Work.JoinSpills.Load(); got < 2 {
		t.Fatalf("JoinSpills = %d, want >= 2", got)
	}
	if leaked := db.Engine().Store.List(objectstore.SpillPrefix); len(leaked) != 0 {
		t.Fatalf("leaked %d spill files", len(leaked))
	}
}

// TestConcurrentPartitionJoins is the acceptance test of the partition-wise
// fan-out (run under -race in CI): the TPC-H Q10 shape — two spilling builds
// in one statement, so two grace joins run their partition tasks on the
// worker pool back to back — must stay byte-identical to the unlimited serial
// plan at DOP {1,4,8} × budget {0, tiny}, join the same number of partition
// pairs at every DOP (fanning out moves work between workers, never between
// partitions), and leave the spill namespace empty after success and after an
// injected mid-partition write failure.
func TestConcurrentPartitionJoins(t *testing.T) {
	const q = `SELECT c.c_custkey, l.l_quantity, l.l_shipdate
		FROM lineitem l JOIN orders o ON l.l_orderkey = o.o_orderkey
		JOIN customer c ON o.o_custkey = c.c_custkey
		WHERE l.l_shipdate > 8000
		ORDER BY c.c_custkey, l.l_quantity, l.l_shipdate`
	serial := tpchData.open(t, 1, false, 0)
	want := renderRows(serial.MustExec(q))
	serial.Close()
	if want == "" {
		t.Fatal("reference query returned no rows")
	}

	// Below even the 0.05-scale customer build — now just the pruned
	// c_custkey column (~0.1 KiB) after scan projection pushdown — so BOTH
	// builds of the statement overflow, not just orders.
	const twoBuildBudget = 64

	var wantParts int64 = -1
	for _, dop := range []int{1, 4, 8} {
		for _, budget := range []int64{0, twoBuildBudget} {
			db := tpchData.open(t, dop, false, budget)
			if got := renderRows(db.MustExec(q)); got != want {
				t.Fatalf("dop=%d budget=%d: parallel partition-wise join differs from unlimited serial:\ngot:\n%s\nwant:\n%s",
					dop, budget, got, want)
			}
			spills := db.Engine().Work.JoinSpills.Load()
			parts := db.Engine().Work.JoinSpillPartitions.Load()
			if budget == 0 {
				if spills != 0 || parts != 0 {
					t.Fatalf("dop=%d budget=0: unexpected spill activity: spills=%d partitions=%d", dop, spills, parts)
				}
			} else {
				if spills < 2 {
					t.Fatalf("dop=%d: JoinSpills = %d, want 2 (both builds must spill)", dop, spills)
				}
				if parts == 0 {
					t.Fatal("JoinSpillPartitions = 0 after two spilled joins")
				}
				if wantParts < 0 {
					wantParts = parts
				} else if parts != wantParts {
					t.Fatalf("dop=%d: JoinSpillPartitions = %d, want %d (partition decomposition must be DOP-invariant)",
						dop, parts, wantParts)
				}
			}
			if leaked := db.Engine().Store.List(objectstore.SpillPrefix); len(leaked) != 0 {
				t.Fatalf("dop=%d budget=%d: %d spill files leaked", dop, budget, len(leaked))
			}
			db.Close()
		}
	}

	// Injected mid-partition failure: fail a spill write landing deep in the
	// statement's spill traffic — inside the fanned-out partition-wise join
	// phase, where concurrent partition tasks are repartitioning and reading
	// — and require a clean error, an empty spill namespace, and an exact
	// result once the fault clears.
	faults := objectstore.NewFaultInjector(7)
	store := objectstore.New(objectstore.WithFaults(faults))
	fabric := compute.NewFabric(compute.Config{Elastic: true, InitNodes: 4, SlotsPer: 4})
	opts := core.DefaultOptions()
	opts.Parallelism = 4
	opts.JoinMemoryBudget = twoBuildBudget
	eng := core.NewEngine(catalog.NewDB(), store, fabric, opts)
	if _, err := workload.LoadTPCH(eng, 0.05, 2); err != nil {
		t.Fatalf("load tpch: %v", err)
	}
	sess := sql.NewSession(eng)
	defer sess.Close()
	putsBefore := store.Metrics().Puts
	res, err := sess.Exec(q)
	if err != nil {
		t.Fatalf("clean spilled run: %v", err)
	}
	if got := renderRows(wrap(res)); got != want {
		t.Fatalf("fault-engine clean run differs from reference")
	}
	spillPuts := store.Metrics().Puts - putsBefore
	if spillPuts < 4 {
		t.Fatalf("query performed only %d spill puts; cannot aim mid-partition", spillPuts)
	}
	faults.FailNth(objectstore.OpPut, int(spillPuts*3/5))
	_, err = sess.Exec(q)
	faults.FailNth(objectstore.OpPut, 0)
	if err == nil {
		t.Fatal("mid-partition put failure surfaced no error")
	}
	if !strings.Contains(err.Error(), "spill write") {
		t.Fatalf("mid-partition failure does not name the spill write: %v", err)
	}
	if leaked := store.List(objectstore.SpillPrefix); len(leaked) != 0 {
		t.Fatalf("mid-partition failure leaked %d spill files", len(leaked))
	}
	res, err = sess.Exec(q)
	if err != nil {
		t.Fatalf("query after fault cleared: %v", err)
	}
	if got := renderRows(wrap(res)); got != want {
		t.Fatalf("post-fault result differs from reference")
	}
}

// TestJoinSpillUnderStorageFaults drives the spill path into injected object
// store write failures: the query must fail with a clean error naming the
// spill write (no partial results), the spill namespace must be empty
// afterwards, and WorkStats.JoinSpillBytes must account exactly the spill
// bytes that became durable (the store's own BytesWritten metric) — never the
// attempted writes — then the same query must succeed once the faults clear.
func TestJoinSpillUnderStorageFaults(t *testing.T) {
	faults := objectstore.NewFaultInjector(42)
	store := objectstore.New(objectstore.WithFaults(faults))
	fabric := compute.NewFabric(compute.Config{Elastic: true, InitNodes: 4, SlotsPer: 4})
	opts := core.DefaultOptions()
	opts.Parallelism = 4
	opts.JoinMemoryBudget = tinySpillBudget
	eng := core.NewEngine(catalog.NewDB(), store, fabric, opts)
	sess := sql.NewSession(eng)
	defer sess.Close()

	mustExec := func(q string) {
		t.Helper()
		if _, err := sess.Exec(q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	mustExec(`CREATE TABLE f1 (k INT, v INT) WITH (DISTRIBUTION = k)`)
	mustExec(`CREATE TABLE f2 (k INT, tag VARCHAR) WITH (DISTRIBUTION = k)`)
	for s := 0; s < 4; s++ {
		var sb strings.Builder
		sb.WriteString("INSERT INTO f1 VALUES ")
		for i := 0; i < 200; i++ {
			if i > 0 {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "(%d, %d)", (s*200+i)%40, s*200+i)
		}
		mustExec(sb.String())
		sb.Reset()
		sb.WriteString("INSERT INTO f2 VALUES ")
		for i := 0; i < 200; i++ {
			if i > 0 {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "(%d, 'tag-%d')", (s*200+i)%60, s*200+i)
		}
		mustExec(sb.String())
	}

	const q = `SELECT a.k, a.v, b.tag FROM f1 a JOIN f2 b ON a.k = b.k ORDER BY a.k, a.v, b.tag`
	baseline, err := sess.Exec(q)
	if err != nil {
		t.Fatalf("baseline spilled query: %v", err)
	}
	if eng.Work.JoinSpills.Load() == 0 {
		t.Fatal("baseline query did not spill; fault test would not exercise the spill path")
	}

	// Deterministically fail the nth spill write for a sweep of n: small n
	// land mid build-side partitioning (files already on disk when the
	// error surfaces), larger n land in probe-side partitioning and in the
	// repartition writes of the partition-wise join fan-out. Every failure
	// must be a clean error naming the spill write, the spill namespace must
	// be empty afterwards — build files of a half-finished spill included —
	// and the spill-bytes accounting must move in lockstep with the bytes
	// the store durably accepted: a put that failed (or was cancelled)
	// contributes nothing to JoinSpillBytes.
	sawFailure := false
	for _, n := range []int{1, 3, 8, 20, 60, 150} {
		spillBytesBefore := eng.Work.JoinSpillBytes.Load()
		durableBefore := store.Metrics().BytesWritten
		faults.FailNth(objectstore.OpPut, n)
		res, err := sess.Exec(q)
		faults.FailNth(objectstore.OpPut, 0)
		if err != nil {
			sawFailure = true
			if !strings.Contains(err.Error(), "spill write") {
				t.Fatalf("failing put %d: error does not name the spill write: %v", n, err)
			}
		} else if res.Batch.NumRows() != baseline.Batch.NumRows() {
			// The nth put never happened (query needs fewer); the query
			// must then have succeeded completely, not partially.
			t.Fatalf("failing put %d: partial result: %d rows, baseline %d", n, res.Batch.NumRows(), baseline.Batch.NumRows())
		}
		if leaked := store.List(objectstore.SpillPrefix); len(leaked) != 0 {
			t.Fatalf("failing put %d: %d spill files leaked: %v", n, len(leaked), leaked[:min(3, len(leaked))])
		}
		// A SELECT writes nothing but spill files, so on success the
		// counter's growth must equal the store's durable-write growth
		// exactly. On failure it must never exceed it: a put that failed
		// (or was cancelled) contributes nothing, and a build that errored
		// mid-spill contributes at most what the store accepted before its
		// namespace was torn down.
		accounted := eng.Work.JoinSpillBytes.Load() - spillBytesBefore
		durable := store.Metrics().BytesWritten - durableBefore
		if err == nil && accounted != durable {
			t.Fatalf("failing put %d: JoinSpillBytes grew %d, but the store durably accepted %d spill bytes", n, accounted, durable)
		}
		if accounted > durable {
			t.Fatalf("failing put %d: JoinSpillBytes grew %d, more than the %d bytes the store durably accepted", n, accounted, durable)
		}
	}
	if !sawFailure {
		t.Fatal("no injected failure landed inside the spill pipeline; widen the sweep")
	}

	// Probabilistic faults on top: whatever happens, no partial results and
	// no leaks.
	faults.SetProbability(objectstore.OpPut, 0.5)
	res, err := sess.Exec(q)
	faults.SetProbability(objectstore.OpPut, 0)
	if err == nil && res.Batch.NumRows() != baseline.Batch.NumRows() {
		t.Fatalf("query under random faults returned partial result: %d rows", res.Batch.NumRows())
	}
	if leaked := store.List(objectstore.SpillPrefix); len(leaked) != 0 {
		t.Fatalf("%d spill files leaked after random-fault query", len(leaked))
	}

	// With faults cleared the same query succeeds and matches the baseline.
	again, err := sess.Exec(q)
	if err != nil {
		t.Fatalf("query after faults cleared: %v", err)
	}
	if again.Batch.NumRows() != baseline.Batch.NumRows() {
		t.Fatalf("post-fault rows = %d, baseline = %d", again.Batch.NumRows(), baseline.Batch.NumRows())
	}
	if leaked := store.List(objectstore.SpillPrefix); len(leaked) != 0 {
		t.Fatalf("%d spill files leaked after successful query", len(leaked))
	}
}

// q12Shaped joins orders to lineitem under a predicate on a lineitem column
// that nothing above the join reads (Q12 of the join_spill benchmark).
// q12Widened reads that column above the join too, so its probe side must
// spill it: the unnarrowed count the narrowed statement is held under.
const (
	q12Shaped = `SELECT o.o_orderpriority, COUNT(*) AS n FROM orders o
		JOIN lineitem l ON o.o_orderkey = l.l_orderkey
		WHERE l.l_shipdate > 9200 GROUP BY o.o_orderpriority ORDER BY o.o_orderpriority`
	q12Widened = `SELECT o.o_orderpriority, COUNT(*) AS n, MAX(l.l_shipdate) AS d FROM orders o
		JOIN lineitem l ON o.o_orderkey = l.l_orderkey
		WHERE l.l_shipdate > 9200 GROUP BY o.o_orderpriority ORDER BY o.o_orderpriority`
)

// runKeepingSpills runs q on a fresh TPC-H engine at tinySpillBudget whose
// store fails every delete, so the statement's spill files outlive it. It
// returns the rendered rows, the statement's JoinSpillBytes and the schema
// of one probe-side spill frame (a JoinBatches call's l/ namespace).
func runKeepingSpills(t *testing.T, q string, par int, dag bool) (string, int64, colfile.Schema) {
	t.Helper()
	faults := objectstore.NewFaultInjector(1)
	store := objectstore.New(objectstore.WithFaults(faults))
	fabric := compute.NewFabric(compute.Config{Elastic: true, InitNodes: 4, SlotsPer: 4})
	opts := core.DefaultOptions()
	opts.Parallelism = par
	opts.DistributedQueries = dag
	opts.JoinMemoryBudget = tinySpillBudget
	eng := core.NewEngine(catalog.NewDB(), store, fabric, opts)
	if _, err := workload.LoadTPCH(eng, 0.05, 2); err != nil {
		t.Fatalf("load tpch: %v", err)
	}
	sess := sql.NewSession(eng)
	defer sess.Close()
	faults.SetProbability(objectstore.OpDelete, 1)
	res, err := sess.Exec(q)
	if err != nil {
		t.Fatalf("par=%d dag=%v: %v", par, dag, err)
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%v\n", res.Columns())
	for r := 0; r < res.Batch.NumRows(); r++ {
		fmt.Fprintf(&sb, "%v\n", res.Batch.Row(r))
	}
	for _, name := range store.List(objectstore.SpillPrefix) {
		if !strings.Contains(name, "/l/c") {
			continue
		}
		data, err := store.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		frame, err := colfile.UnmarshalBatch(data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return sb.String(), eng.Work.JoinSpillBytes.Load(), frame.Schema
	}
	t.Fatalf("par=%d dag=%v: no probe-side spill frame among %d spill files", par, dag, len(store.List(objectstore.SpillPrefix)))
	return "", 0, nil
}

// TestSpilledProbeCarriesOnlyWhatTheJoinReads: a spilled join's probe side
// spills the join key, the probe columns kept above the join (none here) and
// the row ordinal — not l_shipdate, which only the pushed predicate reads —
// so it writes fewer bytes than the same join with l_shipdate kept, and its
// result equals the unlimited-budget run at Parallelism {1,4} on the morsel
// pool and the DAG.
func TestSpilledProbeCarriesOnlyWhatTheJoinReads(t *testing.T) {
	ref := tpchData.open(t, 1, false, 0)
	r, err := ref.Query(q12Shaped)
	ref.Close()
	if err != nil || r.Len() == 0 {
		t.Fatalf("unlimited run: %d rows, err %v", r.Len(), err)
	}
	want := renderRows(r)
	for _, par := range []int{1, 4} {
		for _, dag := range []bool{false, true} {
			cell := fmt.Sprintf("par=%d dag=%v", par, dag)
			got, narrowed, schema := runKeepingSpills(t, q12Shaped, par, dag)
			if got != want {
				t.Fatalf("%s: result differs from the unlimited budget:\ngot:\n%s\nwant:\n%s", cell, got, want)
			}
			if names := fmt.Sprint(schemaNames(schema)); names != "[l_orderkey __rownum]" {
				t.Fatalf("%s: probe spill frame carries %s, want the key and the ordinal", cell, names)
			}
			_, unnarrowed, wide := runKeepingSpills(t, q12Widened, par, dag)
			if names := fmt.Sprint(schemaNames(wide)); names != "[l_orderkey l_shipdate __rownum]" {
				t.Fatalf("%s: widened probe spill frame carries %s", cell, names)
			}
			if narrowed >= unnarrowed {
				t.Fatalf("%s: JoinSpillBytes %d, not below the %d of the join that keeps l_shipdate", cell, narrowed, unnarrowed)
			}
		}
	}
}

func schemaNames(s colfile.Schema) []string {
	names := make([]string, len(s))
	for i, f := range s {
		names[i] = f.Name
	}
	return names
}
