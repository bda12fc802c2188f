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

// runJob runs tasks as one DCP job under ctx — startJob, one Run, closeJob —
// with the engine's TaskFailureInjector, and returns their outputs in
// argument order. The read fetch (fetchScanFiles) and the INSERT and BULK
// LOAD write jobs (commitWriteJob) go through it.
func (t *Txn) runJob(ctx context.Context, tasks []*dcp.Task) ([]any, error) {
	job := t.startJob(ctx, len(tasks), t.eng.opts.TaskFailureInjector)
	outs, _ := job.Run(tasks...) // a failed Run fails the job, and closeJob reports it
	if _, err := t.closeJob(job); err != nil {
		return nil, err
	}
	return outs, nil
}

// startJob starts a DCP job under ctx on fabric nodes allocated for want
// tasks, injector consulted after every attempt; a provisioning delay starts
// the job's virtual clock. Every DCP job the engine runs starts here.
func (t *Txn) startJob(ctx context.Context, want int, injector func(taskID, attempt int, node *compute.Node) error) *dcp.Job {
	nodes, delay := t.eng.Fabric.AllocateForJob(want)
	return dcp.Start(ctx, t.eng.pools(nodes), dcp.Options{
		Overhead:        t.eng.Fabric.Model().TaskOverhead,
		StartOffset:     delay,
		FailureInjector: injector,
	})
}

// closeJob closes a job and charges its simulated makespan to the
// transaction.
func (t *Txn) closeJob(job *dcp.Job) (*dcp.Result, error) {
	res, err := job.Close()
	if err != nil {
		return nil, err
	}
	t.charge(res.Makespan)
	return res, nil
}

// StartQueryJob starts the job a distributed query grows one stage at a time,
// under the statement's context ctx and the engine's retry policy, with nodes
// allocated once for want tasks, the most the job can run.
func (t *Txn) StartQueryJob(ctx context.Context, want int) (*dcp.Job, error) {
	if err := t.check(); err != nil {
		return nil, err
	}
	return t.startJob(ctx, want, t.eng.opts.QueryFailureInjector), nil
}

// CloseQueryJob closes a query job, charges its makespan and records the Dag*
// work counters, stages being the plan's depth (1 + joins). Counters move only
// on success: a failed job's partial work is discarded wholesale, like a
// failed task attempt's output.
func (t *Txn) CloseQueryJob(job *dcp.Job, stages int) error {
	res, err := t.closeJob(job)
	if err != nil {
		return err
	}
	w := t.Work()
	w.DagTasks.Add(int64(len(res.PerTask)))
	w.DagRetries.Add(int64(res.Retries))
	w.DagStages.Add(int64(stages))
	return nil
}
