package workload

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"polaris/internal/colfile"
	"polaris/internal/core"
	"polaris/internal/exec"
	"polaris/internal/sql"
)

// TPC-DS-shaped tables for LST-Bench (paper Section 7.3/7.4). The paper's DM
// phases insert into and delete from "the primary sales and returns tables";
// Fig. 11 names the seven tables below.

// DSTableNames lists the tables LST-Bench data maintenance touches, in the
// order Fig. 11 shows them being modified.
func DSTableNames() []string {
	return []string{
		"catalog_sales", "catalog_returns", "inventory",
		"store_sales", "store_returns", "web_sales", "web_returns",
	}
}

// DSTables returns the table definitions.
func DSTables() []TableDef {
	var out []TableDef
	for _, name := range DSTableNames() {
		out = append(out, TableDef{
			Name: name,
			Schema: colfile.Schema{
				f("sk", colfile.Int64),      // surrogate key
				f("item_sk", colfile.Int64), // item key
				f("qty", colfile.Int64),
				f("price", colfile.Float64),
				f("sold_date", colfile.Int64),
			},
			DistCol: "sk", SortCol: "sold_date",
		})
	}
	return out
}

// DSBatch generates rows [lo, hi) for a DS table; deterministic per table.
func DSBatch(table string, lo, hi int64) *colfile.Batch {
	schema := DSTables()[0].Schema
	b := colfile.NewBatch(schema)
	tseed := int64(len(table)) * 1_000_003
	for i := lo; i < hi; i++ {
		rng := rand.New(rand.NewSource(i*6364136223846793005 + tseed))
		_ = b.AppendRow(
			i,
			rng.Int63n(1000)+1,
			rng.Int63n(100)+1,
			float64(rng.Int63n(50000)+100)/100.0,
			int64(2450000+rng.Int63n(1800)),
		)
	}
	return b
}

// LoadDS creates and loads all DS tables with rowsPerTable rows.
func LoadDS(eng *core.Engine, rowsPerTable int64) error {
	return eng.AutoCommit(func(tx *core.Txn) error {
		for _, td := range DSTables() {
			if _, err := tx.CreateTable(td.Name, td.Schema, td.DistCol, td.SortCol); err != nil {
				return err
			}
			if _, err := tx.Insert(td.Name, DSBatch(td.Name, 0, rowsPerTable)); err != nil {
				return err
			}
		}
		return nil
	})
}

// DSQueries is the Single-User (SU) query set standing in for the 99 TPC-DS
// queries: numQueries aggregation/join queries over the sales and returns
// tables. The point of the SU phase in Figs. 10–12 is sustained scan pressure
// on the maintained tables, which these provide.
func DSQueries(numQueries int) []string {
	tables := DSTableNames()
	var qs []string
	for i := 0; i < numQueries; i++ {
		t := tables[i%len(tables)]
		switch i % 4 {
		case 0:
			qs = append(qs, fmt.Sprintf(
				`SELECT item_sk, SUM(price) AS rev, COUNT(*) AS n FROM %s GROUP BY item_sk ORDER BY rev DESC LIMIT 10`, t))
		case 1:
			qs = append(qs, fmt.Sprintf(
				`SELECT sold_date / 30 AS m, SUM(qty) AS q FROM %s WHERE sold_date > 2450600 GROUP BY sold_date / 30 ORDER BY m LIMIT 24`, t))
		case 2:
			t2 := tables[(i+1)%len(tables)]
			qs = append(qs, fmt.Sprintf(
				`SELECT a.item_sk, SUM(a.price) AS pa, SUM(b.price) AS pb FROM %s a JOIN %s b ON a.item_sk = b.item_sk GROUP BY a.item_sk ORDER BY pa DESC LIMIT 10`, t, t2))
		default:
			qs = append(qs, fmt.Sprintf(
				`SELECT COUNT(*) AS n, AVG(price) AS ap, MAX(qty) AS mq FROM %s WHERE qty BETWEEN 10 AND 60`, t))
		}
	}
	return qs
}

// PhaseResult summarizes one LST-Bench phase execution.
type PhaseResult struct {
	Name     string
	SimTime  time.Duration
	Queries  int
	RowsIn   int64
	RowsDel  int64
	Began    time.Time
	Finished time.Time
}

// RunSU runs one Single User phase: the query set, serially, in one session.
// Returns the total simulated time.
func RunSU(eng *core.Engine, queries []string) (PhaseResult, error) {
	res := PhaseResult{Name: "SU", Began: time.Now()}
	sess := sql.NewSession(eng)
	defer sess.Close()
	for _, q := range queries {
		r, err := sess.Exec(q)
		if err != nil {
			return res, fmt.Errorf("workload: SU query failed: %w\n%s", err, q)
		}
		res.SimTime += r.SimTime
		res.Queries++
	}
	res.Finished = time.Now()
	return res, nil
}

// DMConfig parameterizes a data-maintenance phase. The paper's WP1 DM phase
// runs 2 INSERT and 6 DELETE statements per table group, with data
// compaction run twice — once between each set of 3 DELETE statements
// (Section 7.3, Fig. 11).
type DMConfig struct {
	Tables       []string
	InsertRows   int64
	DeleteEvery  int64 // delete rows with sk % DeleteEvery == phase offset
	Compact      func(table string)
	NextSK       *int64 // monotonically growing surrogate key base
	CompactTimes int
}

// dmSteps flattens a DM phase into statement-level steps — per table, 2
// INSERTs then 6 DELETEs with compaction after each set of 3 — so callers
// can run them back to back (RunDM) or deterministically interleaved with
// query work (RunInterleaved). Each step accumulates its effect into res.
func dmSteps(eng *core.Engine, cfg DMConfig, res *PhaseResult) []func() error {
	var steps []func() error
	for _, table := range cfg.Tables {
		table := table
		for s := 0; s < 2; s++ {
			steps = append(steps, func() error {
				lo := *cfg.NextSK
				hi := lo + cfg.InsertRows
				*cfg.NextSK = hi
				return eng.RunWithRetries(3, func(tx *core.Txn) error {
					n, err := tx.Insert(table, DSBatch(table, lo, hi))
					res.RowsIn += n
					res.SimTime += tx.SimTime()
					return err
				})
			})
		}
		for s := 0; s < 6; s++ {
			s := s
			steps = append(steps, func() error {
				mod := cfg.DeleteEvery + int64(s)
				err := eng.RunWithRetries(3, func(tx *core.Txn) error {
					n, err := tx.Delete(context.Background(), table, exec.Bin{
						Kind: exec.OpEq,
						L:    exec.Bin{Kind: exec.OpMod, L: exec.ColRef{Idx: 0}, R: exec.Const{Val: cfg.DeleteEvery * 7}},
						R:    exec.Const{Val: mod},
					})
					res.RowsDel += n
					res.SimTime += tx.SimTime()
					return err
				})
				if err != nil {
					return err
				}
				if (s+1)%3 == 0 && cfg.Compact != nil {
					cfg.Compact(table)
				}
				return nil
			})
		}
	}
	return steps
}

// RunDM runs one Data Maintenance phase: per table, 2 inserts and 6 deletes,
// with compaction interleaved per the paper's description when Compact is
// provided.
func RunDM(eng *core.Engine, cfg DMConfig) (PhaseResult, error) {
	res := PhaseResult{Name: "DM", Began: time.Now()}
	for _, step := range dmSteps(eng, cfg, &res) {
		if err := step(); err != nil {
			return res, err
		}
	}
	res.Finished = time.Now()
	return res, nil
}

// RunInterleavedSteps runs the query set with write/maintenance steps woven
// through it DETERMINISTICALLY: one step completes before each query until
// the steps drain, any remainder runs after the last query. Unlike a
// goroutine race, every run interleaves identically, so the modeled work
// each query's snapshot sees — and therefore the phase's work counters — is
// reproducible. Benchmark figures that must assert on read/write contention
// use this runner.
func RunInterleavedSteps(eng *core.Engine, queries []string, steps []func() error) (PhaseResult, error) {
	su := PhaseResult{Name: "SU", Began: time.Now()}
	sess := sql.NewSession(eng)
	defer sess.Close()
	si := 0
	for _, q := range queries {
		if si < len(steps) {
			if err := steps[si](); err != nil {
				return su, err
			}
			si++
		}
		r, err := sess.Exec(q)
		if err != nil {
			return su, fmt.Errorf("workload: interleaved query failed: %w\n%s", err, q)
		}
		su.SimTime += r.SimTime
		su.Queries++
	}
	for ; si < len(steps); si++ {
		if err := steps[si](); err != nil {
			return su, err
		}
	}
	su.Finished = time.Now()
	return su, nil
}

// RunInterleaved runs an SU phase with a DM phase woven through it
// deterministically, one DM statement per query (see RunInterleavedSteps).
func RunInterleaved(eng *core.Engine, queries []string, cfg DMConfig) (PhaseResult, PhaseResult, error) {
	dm := PhaseResult{Name: "DM", Began: time.Now()}
	su, err := RunInterleavedSteps(eng, queries, dmSteps(eng, cfg, &dm))
	dm.Finished = time.Now()
	return su, dm, err
}

// RunConcurrent runs an SU phase and a DM phase concurrently (WP3, Fig. 12)
// and returns both results.
func RunConcurrent(eng *core.Engine, queries []string, cfg DMConfig) (PhaseResult, PhaseResult, error) {
	var su, dm PhaseResult
	var suErr, dmErr error
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		su, suErr = RunSU(eng, queries)
	}()
	go func() {
		defer wg.Done()
		dm, dmErr = RunDM(eng, cfg)
	}()
	wg.Wait()
	if suErr != nil {
		return su, dm, suErr
	}
	return su, dm, dmErr
}
