// Package polaris is a from-scratch reproduction of the transactional engine
// described in "Extending Polaris to Support Transactions" (Aguilar-Saborit
// et al., SIGMOD 2024): a cloud-native distributed SQL warehouse that layers
// full Snapshot Isolation transactions — multi-table and multi-statement —
// over immutable log-structured tables in an object store.
//
// The public API is a small facade over the storage engine:
//
//	db := polaris.Open(polaris.DefaultConfig())
//	defer db.Close()
//	db.MustExec(`CREATE TABLE t (k INT, v VARCHAR) WITH (DISTRIBUTION = k)`)
//	db.MustExec(`INSERT INTO t VALUES (1, 'hello')`)
//	rows, _ := db.Query(`SELECT v FROM t WHERE k = 1`)
//
// Explicit transactions, time travel (AS OF), zero-copy clones, restore, and
// the autonomous storage optimizations (compaction, checkpointing, garbage
// collection, Delta-format publishing) are all exposed; see the examples/
// directory for tour programs and cmd/benchrunner for the reproduction of the
// paper's evaluation figures.
//
// Query execution is morsel-driven parallel: table scans are split into
// morsels sized by rows (runs of small files, or row-group windows of a large
// one) fanned out over a worker pool sized by the Parallelism config knob
// (default GOMAXPROCS) and capped by the compute fabric's free slots, with
// filters, projections, join probes, partial aggregations and per-morsel
// ORDER BY runs (top-N-bounded under LIMIT) running per worker ahead of a
// deterministic merge. Every SELECT runs this way — Parallelism 1 is the same
// plan with one worker — so results are byte-identical at every Parallelism
// setting, row order included (the one exception: float SUM/AVG may differ in
// the last ulp between settings, as summation order follows the morsel
// split). The full cross-DOP determinism contract is documented in
// docs/ARCHITECTURE.md.
package polaris

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"polaris/internal/catalog"
	"polaris/internal/colfile"
	"polaris/internal/compute"
	"polaris/internal/core"
	"polaris/internal/objectstore"
	"polaris/internal/sql"
	"polaris/internal/sto"
)

// Config configures a database instance.
type Config struct {
	// Elastic lets the compute topology grow on demand (the Fabric DW
	// serverless model); when false, MaxNodes caps the topology (the
	// resource-capped Synapse model of Fig. 8).
	Elastic  bool
	MaxNodes int
	// InitNodes is the starting topology size.
	InitNodes int
	// SlotsPerNode is per-node task parallelism.
	SlotsPerNode int
	// Parallelism is the intra-query degree of parallelism for the
	// morsel-driven executor: the target worker-pool size for parallel
	// scans, filters, projections and partial aggregation, and the build
	// partition count for parallel hash joins. 0 means GOMAXPROCS; 1 runs
	// the same plan with one worker (it selects no other code path, and —
	// float SUM/AVG ulps aside — no other result). The effective degree is
	// capped by the fabric's free compute slots when the query starts.
	Parallelism int
	// JoinMemoryBudget caps, in bytes, the memory a hash-join build side may
	// occupy. A build that exceeds it takes the grace-join path: both sides
	// are hash-partitioned into spill files in the object store and the
	// partitions are joined as independent tasks fanned out over the same
	// worker pool that runs morsels (nested build parallelism capped so the
	// fan-out stays within Parallelism), with results byte-identical to the
	// in-memory plan at every Parallelism setting (WorkStats.JoinSpills
	// counts the spills, WorkStats.JoinSpillPartitions the partition tasks).
	// 0 (the default) means unlimited: builds never spill.
	JoinMemoryBudget int64
	// Distributions is the number of cell buckets of d(r).
	Distributions int
	// RowsPerFile / RowsPerGroup control data file layout. RowsPerGroup is
	// at most colfile.MaxGroupRows: Open panics on a larger one.
	RowsPerFile  int
	RowsPerGroup int
	// FileGranularityConflicts switches WW conflict detection from table to
	// data-file granularity (paper 4.4.1).
	FileGranularityConflicts bool
	// Isolation is the default isolation level: "snapshot" (default),
	// "serializable", or "rcsi".
	Isolation string
	// WLMSeparate separates read and write node pools (paper 4.3).
	WLMSeparate bool
	// AutoCompact enables STO-triggered data compaction (5.1). Manifest
	// checkpointing (5.2) is always on and has no knob: the STO checkpoints
	// a table once the manifests committed since its newest checkpoint weigh
	// as much as that checkpoint.
	AutoCompact bool
	// PublishDelta publishes every committed manifest as a Delta log entry
	// (5.4). It is not asynchronous: the STO writes the entry inside the
	// committing statement's Txn.Commit, as a commit observer.
	PublishDelta bool
	// PublishIceberg additionally publishes Iceberg-shaped metadata (the
	// planned multi-format converter path, paper footnote 1).
	PublishIceberg bool
	// DistributedQueries executes SELECTs (bare-LIMIT statements excepted,
	// at every Parallelism) as DCP task DAGs over the compute fabric — per-morsel scan, join-build, and probe tasks
	// with object-store exchange between stages and task-level retry with
	// re-placement on node failure (paper Sections 1, 3.3; see
	// docs/DCP-QUERIES.md). Off by default: output is byte-identical to
	// the in-process morsel executor, so this only changes where the work
	// runs, not what it returns.
	DistributedQueries bool
}

// DefaultConfig returns laptop-scale defaults with every feature enabled.
func DefaultConfig() Config {
	return Config{
		Elastic:       true,
		InitNodes:     4,
		SlotsPerNode:  4,
		Parallelism:   runtime.GOMAXPROCS(0),
		Distributions: 8,
		RowsPerFile:   1 << 14,
		RowsPerGroup:  1 << 11,
		Isolation:     "snapshot",
		WLMSeparate:   true,
		AutoCompact:   true,
		PublishDelta:  true,
	}
}

// DB is a Polaris database instance: catalog, object store, compute fabric,
// transaction engine and system task orchestrator.
type DB struct {
	eng  *core.Engine
	sto  *sto.STO
	main *sql.Session
}

// Open creates a database with fresh in-process substrates.
func Open(cfg Config) *DB {
	if cfg.Distributions == 0 {
		cfg = DefaultConfig()
	}
	store := objectstore.New()
	fabric := compute.NewFabric(compute.Config{
		Elastic:   cfg.Elastic,
		MaxNodes:  cfg.MaxNodes,
		InitNodes: cfg.InitNodes,
		SlotsPer:  cfg.SlotsPerNode,
	})
	opts := core.DefaultOptions()
	opts.Distributions = cfg.Distributions
	if cfg.Parallelism > 0 {
		opts.Parallelism = cfg.Parallelism
	}
	opts.JoinMemoryBudget = cfg.JoinMemoryBudget
	if cfg.RowsPerFile > 0 {
		opts.RowsPerFile = cfg.RowsPerFile
	}
	if cfg.RowsPerGroup > colfile.MaxGroupRows {
		panic(fmt.Sprintf("polaris: RowsPerGroup %d exceeds the file format's %d", cfg.RowsPerGroup, colfile.MaxGroupRows))
	}
	if cfg.RowsPerGroup > 0 {
		opts.RowsPerGroup = cfg.RowsPerGroup
	}
	if cfg.FileGranularityConflicts {
		opts.Granularity = core.FileGranularity
	}
	switch cfg.Isolation {
	case "serializable":
		opts.Isolation = catalog.Serializable
	case "rcsi":
		opts.Isolation = catalog.ReadCommittedSnapshot
	default:
		opts.Isolation = catalog.Snapshot
	}
	opts.WLMSeparate = cfg.WLMSeparate
	opts.DistributedQueries = cfg.DistributedQueries
	eng := core.NewEngine(catalog.NewDB(), store, fabric, opts)
	orch := sto.New(eng, sto.Config{
		AutoCompact:    cfg.AutoCompact,
		PublishDelta:   cfg.PublishDelta,
		PublishIceberg: cfg.PublishIceberg,
	})
	return &DB{eng: eng, sto: orch, main: sql.NewSession(eng)}
}

// Close releases the database (rolls back any open transaction).
func (db *DB) Close() { db.main.Close() }

// Engine exposes the storage engine for advanced integration (benchmarks,
// custom workloads).
func (db *DB) Engine() *core.Engine { return db.eng }

// Orchestrator exposes the system task orchestrator.
func (db *DB) Orchestrator() *sto.STO { return db.sto }

// Exec runs one SQL statement on the database's main session (autocommit
// unless a BEGIN is open on it).
func (db *DB) Exec(query string) (*Rows, error) { return db.ExecContext(context.Background(), query) }

// ExecContext is Exec under ctx: a statement whose ctx is cancelled stops at
// its next batch, spill-file or task boundary, cleans up its spill files and
// returns an error wrapping ctx's.
func (db *DB) ExecContext(ctx context.Context, query string) (*Rows, error) {
	return execContext(ctx, db.main, query)
}

func execContext(ctx context.Context, s *sql.Session, query string) (*Rows, error) {
	st, err := sql.Parse(query)
	if err != nil {
		return nil, err
	}
	res, err := s.ExecParsedWith(st, sql.ExecOpts{Ctx: ctx})
	if err != nil {
		return nil, err
	}
	return wrap(res), nil
}

// MustExec is Exec that panics on error — for examples and tests.
func (db *DB) MustExec(query string) *Rows {
	r, err := db.Exec(query)
	if err != nil {
		panic(fmt.Sprintf("polaris: %v\nquery: %s", err, query))
	}
	return r
}

// Query is an alias of Exec for read statements.
func (db *DB) Query(query string) (*Rows, error) { return db.Exec(query) }

// Session opens an independent session with its own transaction scope and
// (optionally) its own memory budget.
//
// Concurrency: a single Session — including the DB's implicit main session
// that Exec/Query/MustExec run on — is a serial statement stream and must
// not be used from multiple goroutines at once (its open-transaction state
// is unsynchronized). Independent Sessions over one DB are fully
// concurrent and safe under the race detector: the engine, catalog MVCC,
// compute fabric and object store are thread-safe, and concurrent sessions
// interact only through the configured transactional isolation level. For
// concurrent work, open one Session per goroutine; see
// TestTwoSessionsInterleavedTransactions for the supported pattern and
// cmd/polaris-server for a front end that multiplexes many such sessions.
func (db *DB) Session() *Session {
	return &Session{s: sql.NewSession(db.eng)}
}

// GarbageCollect runs one storage GC pass (paper 5.3).
func (db *DB) GarbageCollect() (core.GCResult, error) { return db.eng.GarbageCollect() }

// SimTime returns the total simulated time consumed so far — the metric the
// benchmark figures report.
func (db *DB) SimTime() time.Duration { return db.eng.SimTotal() }

// Session is an independent SQL session with its own explicit-transaction
// scope (one BEGIN/COMMIT at a time).
type Session struct{ s *sql.Session }

// Exec runs one SQL statement.
func (s *Session) Exec(query string) (*Rows, error) {
	return s.ExecContext(context.Background(), query)
}

// ExecContext is Exec under ctx (see DB.ExecContext).
func (s *Session) ExecContext(ctx context.Context, query string) (*Rows, error) {
	return execContext(ctx, s.s, query)
}

// MustExec is Exec that panics on error.
func (s *Session) MustExec(query string) *Rows {
	r, err := s.Exec(query)
	if err != nil {
		panic(fmt.Sprintf("polaris: %v\nquery: %s", err, query))
	}
	return r
}

// SetJoinMemoryBudget gives this session its own hash-join build-side
// memory budget in bytes, overriding Config.JoinMemoryBudget for every
// statement the session runs from now on (0 or negative = unlimited).
// This is the per-session budget hook a multi-tenant front end uses to
// isolate sessions' spill behavior from each other.
func (s *Session) SetJoinMemoryBudget(b int64) { s.s.SetJoinMemoryBudget(b) }

// InTransaction reports whether BEGIN is open.
func (s *Session) InTransaction() bool { return s.s.InTransaction() }

// Close rolls back any open transaction.
func (s *Session) Close() { s.s.Close() }

// Rows is a materialized statement result.
type Rows struct {
	res *sql.Result
}

func wrap(res *sql.Result) *Rows { return &Rows{res: res} }

// Columns returns output column names (nil for DML/DDL).
func (r *Rows) Columns() []string { return r.res.Columns() }

// Len returns the number of result rows.
func (r *Rows) Len() int {
	if r.res.Batch == nil {
		return 0
	}
	return r.res.Batch.NumRows()
}

// Row materializes row i as Go values (int64, float64, string, bool or nil).
func (r *Rows) Row(i int) []any { return r.res.Batch.Row(i) }

// Value returns column col of row i.
func (r *Rows) Value(i, col int) any { return r.res.Batch.Cols[col].Value(i) }

// RowsAffected reports DML effect.
func (r *Rows) RowsAffected() int64 { return r.res.RowsAffected }

// Message returns the DDL/utility outcome text.
func (r *Rows) Message() string { return r.res.Message }

// SimTime is the simulated time the statement consumed.
func (r *Rows) SimTime() time.Duration { return r.res.SimTime }

// Schema returns the result schema.
func (r *Rows) Schema() colfile.Schema {
	if r.res.Batch == nil {
		return nil
	}
	return r.res.Batch.Schema
}
