// Package core implements the Polaris transactional storage engine (paper
// Sections 3, 4 and 6): optimistic MVCC with Snapshot Isolation over
// log-structured tables, executed as distributed task DAGs on the DCP.
//
// The moving parts, mapped to the paper:
//
//   - Engine ties together the catalog DB (SQL FE's SQL Server), the object
//     store (OneLake/ADLS), the compute fabric and the DCP.
//   - Txn is a user transaction. Reads capture a snapshot of the Manifests
//     table under catalog SI (4.1.1); writes produce private data files and a
//     private transaction manifest assembled from per-task blocks (3.2.2);
//     commit runs the validation phase in the catalog (4.1.2).
//   - Conflict detection is at table or data-file granularity (4.4.1).
//   - Lineage features — Query As Of, Clone As Of, Restore — operate purely
//     on logical metadata (Section 6).
package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"polaris/internal/catalog"
	"polaris/internal/compute"
	"polaris/internal/dcp"
	"polaris/internal/exec"
	"polaris/internal/manifest"
	"polaris/internal/objectstore"
)

// ConflictGranularity selects how write-write conflicts are detected.
type ConflictGranularity int

// Conflict granularities (paper 4.4.1).
const (
	TableGranularity ConflictGranularity = iota
	FileGranularity
)

// DeleteMode selects how updates/deletes are physically represented
// (paper 2.1).
type DeleteMode int

// Delete modes.
const (
	// MergeOnRead adds deletion vectors next to immutable data files; readers
	// filter at scan time. Polaris's default.
	MergeOnRead DeleteMode = iota
	// CopyOnWrite rewrites affected data files without the deleted rows.
	CopyOnWrite
)

// Options configures the engine.
type Options struct {
	// Distributions is the number of buckets of the distribution function
	// d(r); each bucket is a cell column in the paper's data model.
	Distributions int
	// RowsPerFile is the target data-file size for bulk writes.
	RowsPerFile int
	// RowsPerGroup is the row-group size within a file.
	RowsPerGroup int
	// Granularity selects table- vs file-level conflict detection.
	Granularity ConflictGranularity
	// Deletes selects merge-on-read (default) vs copy-on-write.
	Deletes DeleteMode
	// Isolation is the default isolation level for new transactions.
	Isolation catalog.IsolationLevel
	// WLMSeparate places read and write tasks on disjoint node pools.
	WLMSeparate bool
	// Parallelism is the target degree of intra-query parallelism for the
	// morsel-driven executor; 0 or 1 disables parallel execution. The
	// effective degree is additionally capped by the fabric's free slots at
	// query start (compute.Fabric.LeaseSlots).
	Parallelism int
	// JoinMemoryBudget caps the bytes a hash-join build side may hold in
	// memory; a build that exceeds it grace-spills both sides to the object
	// store and joins partition-wise (byte-identical results either way).
	// 0 or negative means unlimited — the build is always in-memory.
	JoinMemoryBudget int64
	// CompactSmallRows and CompactDeletedFrac are storage-health thresholds.
	CompactSmallRows   int64
	CompactDeletedFrac float64
	// RetentionSeqs bounds time travel and GC of removed files.
	RetentionSeqs int64
	// TaskFailureInjector, when non-nil, is consulted after every storage
	// DCP task attempt (fetch, INSERT, BULK LOAD; failure testing) as the
	// job's dcp.Options.FailureInjector: a non-nil error fails that attempt
	// after it ran, so its side effects (files written, blocks staged)
	// stand, its output is discarded and the task is retried elsewhere.
	TaskFailureInjector func(taskID, attempt int, node *compute.Node) error
	// DistributedQueries routes SELECTs (bare-LIMIT ones excepted) through
	// the DCP as task DAGs (scan/build/probe/merge stages on the read pool,
	// object-store exchange between stages) instead of the in-process morsel
	// pool. Off by default: output is byte-identical either way (the morsel
	// decomposition is shared), so this only changes where the work runs.
	DistributedQueries bool
	// QueryFailureInjector, when non-nil, is consulted after every
	// query-DAG task attempt (failure testing for DistributedQueries); a
	// non-nil error discards the attempt's output and retries it on another
	// node. Kept separate from TaskFailureInjector so query-task schedules
	// don't collide with the storage fetch/write DAGs' task IDs.
	QueryFailureInjector func(taskID, attempt int, node *compute.Node) error
}

// DefaultOptions returns production-shaped defaults scaled for tests.
func DefaultOptions() Options {
	return Options{
		Distributions:      8,
		RowsPerFile:        1 << 16,
		RowsPerGroup:       1 << 12,
		Granularity:        TableGranularity,
		Isolation:          catalog.Snapshot,
		WLMSeparate:        true,
		Parallelism:        exec.DefaultDOP(),
		CompactSmallRows:   1024,
		CompactDeletedFrac: 0.3,
		RetentionSeqs:      1 << 30,
	}
}

// CommitEvent notifies observers (the STO) of a committed change to a table.
type CommitEvent struct {
	TableID  int64
	TxnID    int64
	Seq      int64
	Manifest string
	Bytes    int64 // size of the committed manifest blob
	Actions  []manifest.Action
	When     time.Time
}

// WorkStats aggregates modeled work across all queries on an engine. The
// counters are deterministic functions of the data each query's snapshot
// covers (physical rows, files and bytes fetched by scan tasks), which makes
// them the stable thing to assert on in concurrency benchmarks where
// wall-clock and even simulated durations vary run to run.
type WorkStats struct {
	RowsScanned atomic.Int64
	FilesRead   atomic.Int64
	BytesRead   atomic.Int64
	// MergeFreeAggs is always 0: the executor no longer has a merge-free
	// aggregation plan (every GROUP BY merges its per-morsel partials). It
	// stays because the benchmark reads it and /metrics' pinned document
	// carries it as mergeFreeAggs; nothing increments it.
	MergeFreeAggs atomic.Int64
	// TopNPushdowns counts ORDER BY ... LIMIT plans that pushed a bounded
	// top-N into the morsel workers (each worker ships at most LIMIT+OFFSET
	// rows; the FE k-way merge cuts off early). The plan choice is
	// deterministic, so tests assert on this counter.
	TopNPushdowns atomic.Int64
	// JoinSpills counts hash-join builds that exceeded JoinMemoryBudget and
	// took the grace-join spill path (both sides partitioned to the object
	// store, joined partition-wise). For a fixed snapshot and budget the
	// build-side size is deterministic, so tests assert on this counter.
	JoinSpills atomic.Int64
	// JoinSpillBytes totals the bytes written to spill namespaces by grace
	// joins (build and probe partitions, recursive repartitioning included)
	// — the budget-accounting counterpart of BytesRead. Counted per durable
	// write: a put that fails mid-spill contributes nothing, so the counter
	// always equals the bytes that actually reached the store, and a retried
	// DAG gather's probe partitions count again, because they are written
	// again.
	JoinSpillBytes atomic.Int64
	// JoinSpillPartitions counts the leaf (build, probe) partition pairs
	// grace joins actually joined — the independent tasks the partition-wise
	// fan-out runs on the worker pool, recursion included; partitions with
	// no probe rows are skipped and not counted. Deterministic for a fixed
	// snapshot, budget and fanout, so tests assert on this counter.
	JoinSpillPartitions atomic.Int64
	// BuildSideSwaps counts joins whose build side differs from syntactic
	// order because the cost-based planner estimated the other side smaller
	// (docs/PLANNER.md). Plan choice depends only on the snapshot's
	// statistics, so tests assert on this counter.
	BuildSideSwaps atomic.Int64
	// PushedFilters counts WHERE conjuncts compiled into the scan itself
	// (evaluated before unreferenced columns are decoded) rather than a
	// downstream Filter operator. Deterministic per statement shape.
	PushedFilters atomic.Int64
	// RuntimeFilterRows counts probe-side rows skipped by join runtime bloom
	// filters before the hash-table walk (in-memory probe and spilled
	// partitioning alike). Row-based, so DOP-invariant: tests assert on it
	// across the DOP × budget sweep.
	RuntimeFilterRows atomic.Int64
	// DagTasks counts DCP tasks executed on behalf of distributed queries
	// (Options.DistributedQueries): a build per join and M scans, plus per
	// spilled join a gather and, unless the next join spills too, M segment
	// tasks. The count is deterministic per statement and invariant under
	// failure injection (retries re-run a task, they do not add one).
	DagTasks atomic.Int64
	// DagRetries counts query-DAG task attempts beyond the first (node lost
	// after Exec, output discarded, task re-placed). Zero without injected
	// or real node failures; the failure-sweep tests assert it goes ≥ 1 when
	// a kill schedule is active.
	DagRetries atomic.Int64
	// DagStages counts the pipeline depth of distributed queries: 1 for a
	// scan-only plan, 1 + number of joins otherwise, whichever builds spill.
	// Deterministic per statement shape, like DagTasks.
	DagStages atomic.Int64
	// Admission tracks front-door admission-control traffic when a serving
	// process (cmd/polaris-server) multiplexes concurrent sessions over the
	// fabric's slot pool: statements queued/admitted/rejected plus total
	// queue-wait time. Zero for embedded (library/CLI) use, where statements
	// lease slots directly without admission.
	Admission compute.AdmissionCounters
}

// Snapshot returns a plain-values copy of the counters.
func (w *WorkStats) Snapshot() (rows, files, bytes int64) {
	return w.RowsScanned.Load(), w.FilesRead.Load(), w.BytesRead.Load()
}

// Engine is the Polaris transactional storage engine.
type Engine struct {
	Catalog *catalog.DB
	Store   *objectstore.Store
	Fabric  *compute.Fabric
	Cache   *manifest.SnapshotCache
	// Work counts modeled scan work engine-wide (thread-safe).
	Work WorkStats
	opts Options

	mu          sync.Mutex
	nextTxnID   int64
	nextSpillID int64
	activeTxns  map[int64]*Txn
	observers   []func(CommitEvent)

	// simTotal accumulates simulated time across all operations (benchmarks).
	simTotal time.Duration
}

// NewEngine assembles an engine over the given substrates.
func NewEngine(cat *catalog.DB, store *objectstore.Store, fabric *compute.Fabric, opts Options) *Engine {
	if opts.Distributions == 0 {
		opts = DefaultOptions()
	}
	return &Engine{
		Catalog:    cat,
		Store:      store,
		Fabric:     fabric,
		Cache:      manifest.NewSnapshotCache(),
		opts:       opts,
		nextTxnID:  1000, // paper-style transaction ids
		activeTxns: make(map[int64]*Txn),
	}
}

// NewDefaultEngine builds an engine with fresh substrates — the common entry
// point for examples and tests.
func NewDefaultEngine(opts Options) *Engine {
	fabric := compute.NewFabric(compute.Config{Elastic: true, InitNodes: 4, SlotsPer: 4})
	return NewEngine(catalog.NewDB(), objectstore.New(), fabric, opts)
}

// Options returns the engine's configuration.
func (e *Engine) Options() Options { return e.opts }

// Subscribe registers a commit observer (the STO). Observers are invoked
// synchronously after a successful commit, once per modified table.
func (e *Engine) Subscribe(fn func(CommitEvent)) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.observers = append(e.observers, fn)
}

func (e *Engine) notify(ev CommitEvent) {
	e.mu.Lock()
	obs := append([]func(CommitEvent){}, e.observers...)
	e.mu.Unlock()
	for _, fn := range obs {
		fn(ev)
	}
}

func (e *Engine) charge(d time.Duration) {
	e.mu.Lock()
	e.simTotal += d
	e.mu.Unlock()
}

// SimTotal returns the accumulated simulated time across all operations.
func (e *Engine) SimTotal() time.Duration {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.simTotal
}

// MinActiveTxnID returns the smallest transaction ID among active
// transactions, or the next ID when none are active. Garbage collection uses
// this fence to distinguish aborted leftovers from in-flight work (5.3).
func (e *Engine) MinActiveTxnID() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	min := e.nextTxnID + 1
	//polaris:nondet min fold: the smallest ID is the same whatever order the IDs are visited in
	for id := range e.activeTxns {
		if id < min {
			min = id
		}
	}
	return min
}

// pools builds the WLM node pools for a job. With separation enabled and at
// least two nodes, reads and writes land on disjoint halves (4.3).
func (e *Engine) pools(nodes []*compute.Node) dcp.Pools {
	if !e.opts.WLMSeparate || len(nodes) < 2 {
		return dcp.Pools{dcp.ReadPool: nodes, dcp.WritePool: nodes}
	}
	half := len(nodes) / 2
	return dcp.Pools{dcp.ReadPool: nodes[:half], dcp.WritePool: nodes[half:]}
}

// PoolGauges is a point-in-time view of the WLM pool split: how many live
// nodes (and task slots) the read and write pools would receive if a job
// were placed over the full topology right now.
type PoolGauges struct {
	ReadNodes, ReadSlots   int
	WriteNodes, WriteSlots int
}

// PoolGauges reports the current DCP pool topology for observability
// (served under GET /metrics). With WLM separation disabled both pools see
// every node, so the gauges intentionally double-count in that mode — they
// describe placement domains, not exclusive capacity.
func (e *Engine) PoolGauges() PoolGauges {
	pools := e.pools(e.Fabric.Nodes())
	var g PoolGauges
	for _, n := range pools[dcp.ReadPool] {
		if n.Alive() {
			g.ReadNodes++
			g.ReadSlots += n.Slots
		}
	}
	for _, n := range pools[dcp.WritePool] {
		if n.Alive() {
			g.WriteNodes++
			g.WriteSlots += n.Slots
		}
	}
	return g
}

// Begin starts a user transaction at the engine's default isolation level.
func (e *Engine) Begin() *Txn { return e.BeginLevel(e.opts.Isolation) }

// BeginLevel starts a user transaction at an explicit isolation level
// (Snapshot, ReadCommittedSnapshot, or Serializable — paper 4.4.2).
func (e *Engine) BeginLevel(level catalog.IsolationLevel) *Txn {
	e.mu.Lock()
	e.nextTxnID++
	id := e.nextTxnID
	e.mu.Unlock()
	t := &Txn{
		eng:    e,
		id:     id,
		catTx:  e.Catalog.Begin(level),
		level:  level,
		tables: make(map[int64]*txnTable),
	}
	e.mu.Lock()
	e.activeTxns[id] = t
	e.mu.Unlock()
	return t
}

func (e *Engine) finishTxn(t *Txn) {
	e.mu.Lock()
	delete(e.activeTxns, t.id)
	e.mu.Unlock()
}

// AutoCommit runs fn inside a transaction, committing on success and rolling
// back on error.
func (e *Engine) AutoCommit(fn func(t *Txn) error) error {
	t := e.Begin()
	if err := fn(t); err != nil {
		t.Rollback()
		return err
	}
	return t.Commit()
}

// RunWithRetries runs fn in a fresh transaction, retrying on write-write
// conflicts up to maxRetries times (the paper's "retried otherwise").
func (e *Engine) RunWithRetries(maxRetries int, fn func(t *Txn) error) error {
	var err error
	for attempt := 0; attempt <= maxRetries; attempt++ {
		err = e.AutoCommit(fn)
		if err == nil || !catalog.IsWriteConflict(err) {
			return err
		}
	}
	return fmt.Errorf("core: giving up after %d conflict retries: %w", maxRetries, err)
}

// TablePaths groups the storage layout for one table.
type TablePaths struct{ ID int64 }

// DataPrefix is the OneLake folder for the table's data files.
func (p TablePaths) DataPrefix() string { return fmt.Sprintf("tables/%d/data/", p.ID) }

// DVPrefix is the folder for deletion-vector files.
func (p TablePaths) DVPrefix() string { return fmt.Sprintf("tables/%d/dv/", p.ID) }

// ManifestPrefix is the folder for transaction manifest files.
func (p TablePaths) ManifestPrefix() string { return fmt.Sprintf("tables/%d/manifests/", p.ID) }

// CheckpointPrefix is the folder for checkpoint files.
func (p TablePaths) CheckpointPrefix() string { return fmt.Sprintf("tables/%d/checkpoints/", p.ID) }

// DeltaLogPrefix is the user-visible published Delta log location (5.4).
func (p TablePaths) DeltaLogPrefix() string { return fmt.Sprintf("published/%d/_delta_log/", p.ID) }

// DataFile names a data file written by txn for a distribution bucket:
// <txn>-p<bucket>-<n>.pcf, or <txn>-m-<n>.pcf for a file of mixed cells.
func (p TablePaths) DataFile(txnID int64, part, n int) string {
	if part == manifest.MixedCells {
		return fmt.Sprintf("%s%d-m-%d.pcf", p.DataPrefix(), txnID, n)
	}
	return fmt.Sprintf("%s%d-p%d-%d.pcf", p.DataPrefix(), txnID, part, n)
}

// DVFile names a deletion-vector file written by txn.
func (p TablePaths) DVFile(txnID int64, n int) string {
	return fmt.Sprintf("%s%d-%d.dv", p.DVPrefix(), txnID, n)
}

// ManifestFile names the transaction manifest blob for txn.
func (p TablePaths) ManifestFile(txnID int64) string {
	return fmt.Sprintf("%s%d.manifest", p.ManifestPrefix(), txnID)
}

// CheckpointFile names a checkpoint file at a sequence.
func (p TablePaths) CheckpointFile(seq int64) string {
	return fmt.Sprintf("%s%d.checkpoint", p.CheckpointPrefix(), seq)
}
