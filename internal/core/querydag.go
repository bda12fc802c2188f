package core

import (
	"polaris/internal/compute"
	"polaris/internal/dcp"
)

// DistributedQueries reports whether SELECT stages should run as
// DCP task DAGs (Options.DistributedQueries) instead of on the in-process
// morsel pool.
func (t *Txn) DistributedQueries() bool { return t.eng.opts.DistributedQueries }

// CostModel exposes the fabric's cost model so the SQL layer can charge
// simulated IO for exchange reads/writes from inside DAG tasks.
func (t *Txn) CostModel() *compute.CostModel { return t.eng.Fabric.Model() }

// RunQueryDAG executes a query-shaped task DAG on the compute fabric with
// the engine's retry policy and the statement's cancellation context, then
// charges the simulated makespan to the transaction and records the Dag*
// work counters. stages is the pipeline depth the graph encodes (1 for a
// scan-only plan, 1 + joins otherwise); it is recorded, not inferred, so
// the counter stays meaningful if graph shapes evolve. Counters are bumped
// only on success: a failed run's partial work is discarded wholesale, like
// a failed task attempt's output.
func (t *Txn) RunQueryDAG(g *dcp.Graph, stages int) (*dcp.Result, error) {
	if err := t.check(); err != nil {
		return nil, err
	}
	nodes, delay := t.eng.Fabric.AllocateForJob(g.Len())
	res, err := dcp.RunCtx(t.Context(), g, t.eng.pools(nodes), dcp.Options{
		MaxAttempts:     t.eng.opts.MaxTaskAttempts,
		Overhead:        t.eng.Fabric.Model().TaskOverhead,
		StartOffset:     delay,
		FailureInjector: t.eng.opts.QueryFailureInjector,
	})
	if err != nil {
		return nil, err
	}
	t.charge(res.Makespan)
	w := t.Work()
	w.DagTasks.Add(int64(g.Len()))
	w.DagRetries.Add(int64(res.Retries))
	w.DagStages.Add(int64(stages))
	return res, nil
}
