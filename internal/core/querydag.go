package core

import (
	"context"

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

// runJob runs a task DAG on the compute fabric under ctx — nodes allocated
// for its task count, dcp's default of three attempts per task, injector
// consulted after every attempt — and charges its simulated makespan to the
// transaction. The read fetch (fetchScanFiles) and the INSERT and BULK LOAD
// write jobs (commitWriteJob) go through it.
func (t *Txn) runJob(ctx context.Context, g *dcp.Graph, injector func(taskID, attempt int, node *compute.Node) error) (*dcp.Result, error) {
	pools, opts := t.place(g.Len(), injector)
	return t.charged(dcp.RunCtx(ctx, g, pools, opts))
}

// place allocates fabric nodes for a job of want tasks and returns its pools
// and options; a provisioning delay starts the job's virtual clock.
func (t *Txn) place(want int, injector func(taskID, attempt int, node *compute.Node) error) (dcp.Pools, dcp.Options) {
	nodes, delay := t.eng.Fabric.AllocateForJob(want)
	return t.eng.pools(nodes), dcp.Options{
		Overhead:        t.eng.Fabric.Model().TaskOverhead,
		StartOffset:     delay,
		FailureInjector: injector,
	}
}

// charged charges a completed job's simulated makespan to the transaction.
func (t *Txn) charged(res *dcp.Result, err error) (*dcp.Result, error) {
	if err != nil {
		return nil, err
	}
	t.charge(res.Makespan)
	return res, nil
}

// StartQueryJob starts the job a distributed query grows one stage at a time,
// under the statement's context and the engine's retry policy, with nodes
// allocated once for want tasks, the most the job can run.
func (t *Txn) StartQueryJob(want int) (*dcp.Job, error) {
	if err := t.check(); err != nil {
		return nil, err
	}
	pools, opts := t.place(want, t.eng.opts.QueryFailureInjector)
	return dcp.Start(t.Context(), pools, opts), nil
}

// CloseQueryJob closes a query job, charges its makespan and records the Dag*
// work counters, stages being the plan's depth (1 + joins). Counters move only
// on success: a failed job's partial work is discarded wholesale, like a
// failed task attempt's output.
func (t *Txn) CloseQueryJob(job *dcp.Job, stages int) error {
	res, err := t.charged(job.Close())
	if err != nil {
		return err
	}
	w := t.Work()
	w.DagTasks.Add(int64(len(res.PerTask)))
	w.DagRetries.Add(int64(res.Retries))
	w.DagStages.Add(int64(stages))
	return nil
}
