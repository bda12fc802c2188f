package sql

import (
	"context"
	"fmt"
	"testing"

	"polaris/internal/core"
	"polaris/internal/exec"
)

// planProgs lists every compiled program a plan runs.
func planProgs(p *selectPlan) []*exec.Prog {
	progs := []*exec.Prog{p.base.pred, p.tail.where}
	for _, j := range p.joins {
		progs = append(progs, j.build.pred)
	}
	progs = append(progs, p.tail.proj...)
	if ap := p.tail.agg; ap != nil {
		progs = append(append(append(progs, ap.groupBy...), ap.out...), ap.having)
		for _, a := range ap.aggs {
			progs = append(progs, a.Arg)
		}
	}
	return progs
}

// TestSharedConstantsAreNeverWritten: a program broadcasts each literal once
// and every operator instance that runs it — each morsel's scan, filter,
// probe tail, aggregation and projection, on the pool or as DAG tasks,
// spilling or not — reads the same vectors. After each statement ran, every
// program of its plan still holds its literals on every lane.
func TestSharedConstantsAreNeverWritten(t *testing.T) {
	stmts := []string{
		`SELECT id, qty * 2 + 1 AS x, 'tag' AS t, NULL AS z FROM orders WHERE qty > 2 AND amount < 15.5`,
		`SELECT o.id, c.region, 7 AS seven FROM orders o JOIN customers c ON o.cust = c.cid WHERE c.region <> 'region-01' ORDER BY o.id LIMIT 20`,
		`SELECT c.region, COUNT(*) AS n, SUM(o.qty + 1) AS s FROM orders o JOIN customers c ON o.cust = c.cid WHERE o.id % 3 = 0 GROUP BY c.region HAVING COUNT(*) > 1`,
		`SELECT cust, MAX(amount * 1.5) AS m, 'x' AS k FROM orders WHERE qty IN (1, 2, 3) GROUP BY cust ORDER BY m DESC LIMIT 5`,
		`SELECT o.id, c.region FROM orders o LEFT JOIN customers c ON o.cust = c.cid WHERE o.qty + 0 = 4 OR c.region = 'region-02' LIMIT 30`,
	}
	checked := 0
	for _, par := range []int{1, 4} {
		for _, dag := range []bool{false, true} {
			for _, budget := range []int64{0, 256} {
				name := fmt.Sprintf("parallelism=%d,dag=%v,budget=%d", par, dag, budget)
				env := newDagEnv(t, func(o *core.Options) {
					o.Parallelism, o.DistributedQueries, o.JoinMemoryBudget = par, dag, budget
				})
				seedDag(t, env.sess)
				for _, q := range stmts {
					st, err := Parse(q)
					if err != nil {
						t.Fatal(err)
					}
					tx := env.eng.Begin()
					p, err := planSelect(tx, st.(*SelectStmt))
					if err != nil {
						t.Fatalf("%s: %s: %v", name, q, err)
					}
					b, err := p.run(&handle{tx: tx, ctx: context.Background(), budget: budget})
					if err != nil || b.NumRows() == 0 {
						t.Fatalf("%s: %s: %v rows, err %v", name, q, b.NumRows(), err)
					}
					for _, prog := range planProgs(p) {
						if prog == nil {
							continue
						}
						if err := prog.CheckConstants(); err != nil {
							t.Fatalf("%s: %s: %v", name, q, err)
						}
						checked++
					}
					tx.Rollback()
				}
			}
		}
	}
	if checked < 8*len(stmts) {
		t.Fatalf("only %d programs checked", checked)
	}
}
