package main

import (
	"math/rand"
	"runtime"
	"time"

	"polaris"
	"polaris/internal/sql"
	"polaris/internal/workload"
)

// readSpec describes one of the three read-only workloads: passes over a set
// of TPC-H queries, each query inside its own explicit read-only transaction.
type readSpec struct {
	name string
	sf   float64
	// passesPerSecond sizes the phase (runConfig.units): about what the
	// reference box completes, so a phase lasts about -seconds there.
	passesPerSecond float64
	// queries indexes workload.THQueries().
	queries []int
	// dag executes SELECTs as DCP task DAGs (Config.DistributedQueries).
	dag bool
	// budget is the session's join memory budget in bytes, 0 for unlimited.
	budget int64
}

// joinSubset is Q3, Q5, Q10, Q12 and Q18: the queries whose joins have a
// build side big enough to exchange or spill.
var joinSubset = []int{2, 4, 9, 11, 17}

func allQueries() []int {
	out := make([]int, len(workload.THQueries()))
	for i := range out {
		out[i] = i
	}
	return out
}

var readSpecs = map[string]readSpec{
	"tpch_power": {name: "tpch_power", sf: 10, passesPerSecond: 2.4, queries: allQueries()},
	"join_dag":   {name: "join_dag", sf: 3, passesPerSecond: 3, queries: joinSubset, dag: true},
	"join_spill": {name: "join_spill", sf: 4, passesPerSecond: 2.4, queries: joinSubset, budget: 64 << 10},
}

// readEnv is a database set up for a read-only workload plus the reference
// result of each query.
type readEnv struct {
	*env
	refs map[int]*sql.Result
}

// setup loads the data and computes the reference results at the same
// Parallelism with the DAG off and an unlimited join budget. When the
// measured configuration differs from the reference one, it also runs one
// checked warm-up pass in the measured configuration.
func (s readSpec) setup(d *tpchData, r *result) (*readEnv, error) {
	cfg := polaris.DefaultConfig()
	cfg.DistributedQueries = s.dag
	e, err := openLoaded(cfg, d)
	if err != nil {
		return nil, err
	}
	re := &readEnv{env: e, refs: make(map[int]*sql.Result)}
	texts := workload.THQueries()

	refEnv := e
	if s.dag {
		// DistributedQueries is engine-wide, so the reference needs a second
		// database with it off.
		if refEnv, err = openLoaded(polaris.DefaultConfig(), d); err != nil {
			e.close()
			return nil, err
		}
		defer refEnv.close()
	}
	ref := refEnv.session()
	t0 := time.Now()
	for _, q := range s.queries {
		res, err := ref.Exec(texts[q])
		if err != nil {
			e.close()
			return nil, err
		}
		re.refs[q] = res
	}
	e.coldPass = time.Since(t0)
	if !s.dag && s.budget == 0 {
		return re, nil
	}

	warm := s.session(e)
	t0 = time.Now()
	for _, q := range s.queries {
		res, err := warm.Exec(texts[q])
		if err != nil {
			e.close()
			return nil, err
		}
		r.check(sameBytes(res, re.refs[q]), "%s warm-up: Q%d differs from the reference", s.name, q+1)
	}
	if s.dag {
		e.coldPass = time.Since(t0)
	}
	return re, nil
}

func (s readSpec) session(e *env) *sql.Session {
	sess := e.session()
	if s.budget > 0 {
		sess.SetJoinMemoryBudget(s.budget)
	}
	return sess
}

func (s readSpec) run(cfg runConfig, traced bool) (*result, error) {
	r := newResult(s.name, traced)
	d := generate(s.sf * cfg.scale)

	re, setupTime, err := setUpMedian(cfg.setups, func() (*readEnv, error) { return s.setup(d, r) })
	if err != nil {
		return nil, err
	}
	defer re.close()

	ph := newPhase(r)
	cl := &client{sess: s.session(re.env), ph: ph}
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	texts := workload.THQueries()
	rng := rand.New(rand.NewSource(cfg.seed))
	type observed struct {
		q   int
		res *sql.Result
	}
	var seen []observed

	runtime.GC()
	before := readCounters(re.eng)
	start := time.Now()
	for pass, passes := 0, cfg.units(s.passesPerSecond); pass < passes; pass++ {
		// Passes alternate untraced and traced in a traced run.
		passTr := tr
		if pass%2 == 0 {
			passTr = nil
		}
		t0 := time.Now()
		for _, i := range rng.Perm(len(s.queries)) {
			q := s.queries[i]
			req := passTr.request()
			tb := time.Now()
			ok := cl.control("BEGIN", passTr, req)
			res := cl.read(texts[q], passTr, req)
			ok = cl.control("COMMIT", passTr, req) && ok
			if ok && res != nil {
				ph.txns.add(time.Since(tb))
			}
			seen = append(seen, observed{q, res})
		}
		took := time.Since(t0)
		if passTr != nil {
			ph.traced.add(took)
		} else if traced {
			ph.untraced.add(took)
		}
	}
	elapsed := time.Since(start)
	after := readCounters(re.eng)

	// Results are checked after the clock and the allocation counter have
	// been read, so that checking costs the measured phase nothing.
	for _, o := range seen {
		r.check(sameBytes(o.res, re.refs[o.q]), "%s: Q%d differs from the reference", s.name, o.q+1)
	}
	r.check(re.eng.Store.TotalSize() == re.loadedSize,
		"%s: read-only phase left %d bytes in the store", s.name, re.eng.Store.TotalSize()-re.loadedSize)
	spills, tasks := after.joinSpills-before.joinSpills, after.dagTasks-before.dagTasks
	r.check((spills > 0) == (s.budget > 0), "%s: %d join spills", s.name, spills)
	r.check((tasks > 0) == s.dag, "%s: %d DAG tasks", s.name, tasks)

	ph.report(re.env, before, after, setupTime, elapsed,
		spaceRatios{storeGrowth: re.loadedSize, putBytes: re.loadedPut, userBytes: d.userBytes},
		ph.reads.stats(elapsed), ph.txns.stats(elapsed))
	if traced {
		var stmts []string
		for _, q := range s.queries {
			stmts = append(stmts, texts[q])
		}
		if err := finishTraced(re.env, r, tr, cfg, stmts, nil); err != nil {
			return nil, err
		}
	}
	return r, nil
}
