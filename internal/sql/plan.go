package sql

// Statement execution. execute dispatches a parsed statement. A SELECT runs
// one way: planSelect (planner.go) returns the plan, open fetches its morsels,
// runStages runs its stages on a stage runner — the in-process pool here, a
// DCP job in dag.go — and mergeSelect combines their outputs. bind and
// compile are the package's only path from an AST expression to a kernel
// program; the DML statements at the end of the file use them too.

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"polaris/internal/colfile"
	"polaris/internal/core"
	"polaris/internal/exec"
	"polaris/internal/objectstore"
)

// Result is the outcome of executing one statement.
type Result struct {
	// Batch holds query output (nil for DML/DDL).
	Batch *colfile.Batch
	// RowsAffected counts DML effect.
	RowsAffected int64
	// Message is a human-readable DDL/utility outcome.
	Message string
	// SimTime is the simulated time the statement consumed (set by Session).
	SimTime time.Duration
}

// Columns returns the output column names.
func (r *Result) Columns() []string {
	if r.Batch == nil {
		return nil
	}
	out := make([]string, len(r.Batch.Schema))
	for i, f := range r.Batch.Schema {
		out[i] = f.Name
	}
	return out
}

// execute compiles and runs one parsed statement inside the handle's
// transaction. Transaction-control statements are the session's job, not
// execute's.
func execute(h *handle, st Statement) (*Result, error) {
	tx := h.tx
	switch s := st.(type) {
	case *SelectStmt:
		b, err := runSelect(h, s)
		if err != nil {
			return nil, err
		}
		return &Result{Batch: b}, nil
	case *ExplainStmt:
		return runExplain(tx, s.Query)
	case *InsertStmt:
		return runInsert(h, s)
	case *UpdateStmt:
		return runUpdate(h, s)
	case *DeleteStmt:
		return runDelete(h, s)
	case *CreateTableStmt:
		if s.IfNotExists {
			if _, err := tx.Table(s.Name); err == nil {
				return &Result{Message: "table exists"}, nil
			}
		}
		if _, err := tx.CreateTable(s.Name, s.Schema, s.DistCol, s.SortCol); err != nil {
			return nil, err
		}
		return &Result{Message: "table created"}, nil
	case DropTableStmt:
		if err := tx.DropTable(s.Name); err != nil {
			return nil, err
		}
		return &Result{Message: "table dropped"}, nil
	case CloneStmt:
		if _, err := tx.CloneTable(s.Source, s.Dest, s.AsOfSeq); err != nil {
			return nil, err
		}
		return &Result{Message: "table cloned"}, nil
	case RestoreStmt:
		if err := tx.RestoreTableAsOf(s.Table, s.AsOfSeq); err != nil {
			return nil, err
		}
		return &Result{Message: "table restored"}, nil
	case ShowStmt:
		return runShow(tx, s)
	case MaintenanceStmt:
		switch s.What {
		case "compact":
			res, err := tx.CompactTable(s.Table)
			if err != nil {
				return nil, err
			}
			return &Result{Message: fmt.Sprintf("compacted %d files into %d", res.InputFiles, res.OutputFiles)}, nil
		case "checkpoint":
			cp, err := tx.CheckpointTable(s.Table)
			if err != nil {
				return nil, err
			}
			return &Result{Message: "checkpoint " + cp.Path}, nil
		}
		return nil, fmt.Errorf("sql: %s must run through a session", s.What)
	case BeginStmt, CommitStmt, RollbackStmt:
		return nil, errors.New("sql: transaction control must run through a session")
	default:
		return nil, fmt.Errorf("sql: unsupported statement %T", st)
	}
}

// scope maps qualified and bare column names to offsets in the current
// operator's output schema.
type scope struct {
	schema colfile.Schema
	// quals[i] is the table alias each column came from.
	quals []string
}

func (s *scope) resolve(c ColName) (int, error) {
	found := -1
	for i, f := range s.schema {
		if !strings.EqualFold(f.Name, c.Name) {
			continue
		}
		if c.Table != "" && !strings.EqualFold(s.quals[i], c.Table) {
			continue
		}
		if found >= 0 {
			return 0, fmt.Errorf("sql: ambiguous column %q", c.Name)
		}
		found = i
	}
	if found < 0 {
		return 0, fmt.Errorf("sql: unknown column %q", displayName(c))
	}
	return found, nil
}

// live returns the positions of the columns refs can name, matched as
// resolve matches them — every candidate of a name, so a reference over the
// kept columns resolves, or fails as ambiguous or unknown, exactly as it does
// over the whole scope. It keeps at least column 0, so a batch of the kept
// columns still counts its rows, and returns nil when it would keep them all.
func (s *scope) live(refs []ColName) []int {
	var cols []int
	for i, f := range s.schema {
		for _, c := range refs {
			if strings.EqualFold(f.Name, c.Name) && (c.Table == "" || strings.EqualFold(s.quals[i], c.Table)) {
				cols = append(cols, i)
				break
			}
		}
	}
	switch {
	case len(cols) == len(s.schema):
		return nil
	case len(cols) == 0:
		return []int{0}
	}
	return cols
}

// pick returns the scope of the given columns, in that order (nil = all).
func (s *scope) pick(cols []int) *scope {
	if cols == nil {
		return s
	}
	out := &scope{schema: make(colfile.Schema, len(cols)), quals: make([]string, len(cols))}
	for i, c := range cols {
		out.schema[i], out.quals[i] = s.schema[c], s.quals[c]
	}
	return out
}

// qualified renders column i as alias.name.
func (s *scope) qualified(i int) string {
	return displayName(ColName{Table: s.quals[i], Name: s.schema[i].Name})
}

func displayName(c ColName) string {
	if c.Table != "" {
		return c.Table + "." + c.Name
	}
	return c.Name
}

// slotRef is a column the planner already resolved to a position in the
// scope's schema — a * expansion, or a post-aggregation reference to a group
// or aggregate output column — so bind lowers it without a name lookup.
type slotRef struct {
	idx  int
	name string // display only
}

func (slotRef) expr() {}

// compile binds an AST expression over the scope and lowers it to a kernel
// program against the scope's schema. It is the only path from this package
// to exec.Compile, and callers return its error as the statement's: a type
// error is reported at plan time, before the statement's pipeline runs,
// whichever stage runner executes it.
func compile(e Expr, sc *scope) (*exec.Prog, error) {
	bound, err := bind(e, sc)
	if err != nil {
		return nil, err
	}
	return exec.Compile(bound, sc.schema)
}

// bind lowers an AST expression to an exec expression tree over scope.
// Aggregate functions are rejected here; the aggregate path replaces them
// before binding.
func bind(e Expr, sc *scope) (exec.Expr, error) {
	switch x := e.(type) {
	case ColName:
		idx, err := sc.resolve(x)
		if err != nil {
			return nil, err
		}
		return exec.ColRef{Idx: idx, Name: displayName(x)}, nil
	case slotRef:
		return exec.ColRef{Idx: x.idx, Name: x.name}, nil
	case Lit:
		return exec.Const{Val: x.Val}, nil
	case BinExpr:
		l, err := bind(x.L, sc)
		if err != nil {
			return nil, err
		}
		r, err := bind(x.R, sc)
		if err != nil {
			return nil, err
		}
		kind, ok := binOpKind(x.Op)
		if !ok {
			return nil, fmt.Errorf("sql: unsupported operator %q", x.Op)
		}
		return exec.Bin{Kind: kind, L: l, R: r}, nil
	case NotExpr:
		inner, err := bind(x.E, sc)
		if err != nil {
			return nil, err
		}
		return exec.Not{E: inner}, nil
	case IsNullExpr:
		inner, err := bind(x.E, sc)
		if err != nil {
			return nil, err
		}
		return exec.IsNull{E: inner, Negate: x.Negate}, nil
	case LikeExpr:
		inner, err := bind(x.E, sc)
		if err != nil {
			return nil, err
		}
		var out exec.Expr = exec.Like{E: inner, Pattern: x.Pattern}
		if x.Negate {
			out = exec.Not{E: out}
		}
		return out, nil
	case InExpr:
		inner, err := bind(x.E, sc)
		if err != nil {
			return nil, err
		}
		return exec.InList{E: inner, Vals: x.Vals, Negate: x.Negate}, nil
	case BetweenExpr:
		inner, err := bind(x.E, sc)
		if err != nil {
			return nil, err
		}
		lo, err := bind(x.Lo, sc)
		if err != nil {
			return nil, err
		}
		hi, err := bind(x.Hi, sc)
		if err != nil {
			return nil, err
		}
		return exec.Bin{Kind: exec.OpAnd,
			L: exec.Bin{Kind: exec.OpGe, L: inner, R: lo},
			R: exec.Bin{Kind: exec.OpLe, L: inner, R: hi},
		}, nil
	case FuncExpr:
		return nil, fmt.Errorf("sql: aggregate %s not allowed here", x.Name)
	default:
		return nil, fmt.Errorf("sql: unsupported expression %T", e)
	}
}

func binOpKind(op string) (exec.BinKind, bool) {
	switch op {
	case "+":
		return exec.OpAdd, true
	case "-":
		return exec.OpSub, true
	case "*":
		return exec.OpMul, true
	case "/":
		return exec.OpDiv, true
	case "%":
		return exec.OpMod, true
	case "=":
		return exec.OpEq, true
	case "<>", "!=":
		return exec.OpNe, true
	case "<":
		return exec.OpLt, true
	case "<=":
		return exec.OpLe, true
	case ">":
		return exec.OpGt, true
	case ">=":
		return exec.OpGe, true
	case "AND":
		return exec.OpAnd, true
	case "OR":
		return exec.OpOr, true
	}
	return 0, false
}

// runSelect executes a SELECT. There is one executor: the statement is
// planned once (planSelect), the plan is opened — every relation's morsels
// fetched from the snapshot the plan resolved, every build given its spill
// namespace — its per-morsel fragments run on one of two stage runners, the
// in-process morsel pool or, under DistributedQueries, a DCP task DAG, and the
// per-morsel outputs are combined by the deterministic merge tail
// (mergeSelect). Parallelism sizes the decomposition and the worker lease; it
// selects no code path, so Parallelism 1 is the same plan run by one worker.
func runSelect(h *handle, st *SelectStmt) (*colfile.Batch, error) {
	p, err := planSelect(h.tx, st)
	if err != nil {
		return nil, err
	}
	return p.run(h)
}

// run opens and executes a planned SELECT.
func (p *selectPlan) run(h *handle) (*colfile.Batch, error) {
	tx := h.tx
	p.recordWork(tx)

	// Grace-join spill context: the join memory budget plus the statement's
	// spill and exchange namespaces. finish() runs after the result is
	// materialized, so they are deleted on success and error alike.
	spill := &joinSpill{tx: tx, budget: h.budget}
	defer spill.finish()

	// An admitted statement runs on the slots its admission leased (the
	// admission layer releases them); otherwise it leases here, and when
	// concurrent queries hold the fabric's slots the lease degrades the
	// worker count (possibly to 1). The plan shape — and therefore the
	// output — depends on the configured Parallelism only.
	dop, release := min(h.admitted, tx.Parallelism()), func() {}
	if h.admitted <= 0 {
		dop, release = tx.LeaseDOP(tx.Parallelism())
	}
	defer release()
	if err := p.open(h, spill); err != nil {
		return nil, err
	}
	env, M := stageEnv{handle: h, p: p, spill: spill, dop: dop}, len(p.base.ms.Morsels)
	if p.dag {
		return mergeSelect(h, p, &dagRunner{stageEnv: env, names: make([]string, M)})
	}
	return mergeSelect(h, p, &poolRunner{stageEnv: env, cur: make([]*colfile.Batch, M)})
}

// open fetches every relation's morsels from the snapshot the plan already
// holds and gives each build its spill namespace, before anything runs. The
// probe base's split is sized from the CONFIGURED parallelism, not the granted
// one: a lease only caps live workers, so the decomposition — and with it
// float-aggregation order — cannot shift under slot contention. A build side
// is drained whole, in table order, so it is one morsel holding all its files.
func (p *selectPlan) open(h *handle, spill *joinSpill) (err error) {
	if p.base.ms, err = h.tx.Morsels(h.ctx, p.base.state, p.base.meta, h.tx.Parallelism()*morselsPerWorker); err != nil {
		return err
	}
	for _, j := range p.joins {
		if j.build.ms, err = h.tx.Morsels(h.ctx, j.build.state, j.build.meta, 0); err != nil {
			return err
		}
		j.cfg = spill.config()
	}
	return nil
}

// selectTail is the compiled part of a SELECT downstream of its joins: the
// residual WHERE, then either the aggregation or the plain projection. It is
// compiled once per statement against the post-join scope; the Progs are
// immutable, so per-morsel operator instances share them.
type selectTail struct {
	where *exec.Prog // nil = none
	agg   *aggPlan   // nil = plain projection
	proj  []*exec.Prog
	names []string
}

func compileTail(p *selectPlan, sc *scope) (*selectTail, error) {
	t := &selectTail{}
	var err error
	if p.where != nil {
		if t.where, err = compile(p.where, sc); err != nil {
			return nil, err
		}
		if err = exec.CheckPredicate(t.where); err != nil {
			return nil, err
		}
	}
	if hasAgg(p.items, p.groupBy, p.having) {
		t.agg, err = buildAggPlan(p.items, p.groupBy, p.having, sc)
	} else {
		t.proj, t.names, err = buildProjection(p.items, sc)
	}
	if err != nil {
		return nil, err
	}
	return t, nil
}

// project stacks the output projection on a plan fragment.
func (t *selectTail) project(op exec.Operator) exec.Operator {
	return &exec.Project{In: op, Exprs: t.proj, Names: t.names}
}

// outSchema is the statement's output schema; it is a function of the
// compiled programs alone.
func (t *selectTail) outSchema() colfile.Schema {
	if t.agg != nil {
		return t.agg.finish(nil).Schema()[:len(t.agg.outNames)]
	}
	return t.project(nil).Schema()
}

// filter stacks the residual WHERE, if any, on a plan fragment.
func (t *selectTail) filter(op exec.Operator) exec.Operator {
	if t.where == nil {
		return op
	}
	return &exec.Filter{In: op, Pred: t.where}
}

// BareLimit reports a bare LIMIT query (no ORDER BY, no aggregation).
// Its answer is a prefix of the morsel-order concatenation, so the in-process
// pool stops scanning once the completed prefix of morsels holds LIMIT+OFFSET
// rows (exec.RunIndexedPrefix); a task DAG would run — and write to the
// exchange — every morsel first, so these statements stay in-process even
// under DistributedQueries.
func (st *SelectStmt) BareLimit() bool {
	return st.Limit >= 0 && len(st.OrderBy) == 0 && !selectHasAgg(st)
}

// selectHasAgg reports whether the statement needs an aggregation stage.
func selectHasAgg(st *SelectStmt) bool { return hasAgg(st.Items, st.GroupBy, st.Having) }

func hasAgg(items []SelectItem, groupBy []Expr, having Expr) bool {
	if len(groupBy) > 0 || having != nil {
		return true
	}
	for _, it := range items {
		if containsAgg(it.Expr) {
			return true
		}
	}
	return false
}

// morselsPerWorker over-decomposes the scan so the morsel queue
// load-balances across workers with uneven morsel costs.
const morselsPerWorker = 4

// joinSpill carries one statement's grace-join spill state: the join memory
// budget, every spill and exchange namespace the statement allocated, and the
// spilled builds to account for. Each build gets its own namespace — two
// spilling joins in one statement write identical relative partition paths,
// so sharing one would let the second build overwrite the first's files.
// Namespaces are registered when the plan is opened, before any build
// runs (on the DAG inside tasks, possibly more than once under retry), so
// finish deletes them whatever happened in between; creating one is pure
// bookkeeping and cleaning one that was never written is free (SpillDir lists
// only a namespace that was Put to), so a build that stays in memory costs no
// store round trip.
type joinSpill struct {
	tx      *core.Txn
	budget  int64
	dirs    []*objectstore.SpillDir
	spilled []*exec.SpilledJoin
}

// newDir allocates a query-scoped namespace and registers it for cleanup.
func (s *joinSpill) newDir() *objectstore.SpillDir {
	dir := s.tx.NewSpillDir()
	s.dirs = append(s.dirs, dir)
	return dir
}

// config assembles the spill configuration for one join build: the budget
// and a namespace of its own.
func (s *joinSpill) config() exec.SpillConfig {
	cfg := exec.SpillConfig{Budget: s.budget}
	if s.budget > 0 {
		cfg.Store = s.newDir()
	}
	return cfg
}

// count records one completed build, once per statement: a spilled build is
// recorded in the engine-wide work counters (plan choice is deterministic for
// a given snapshot and budget, so tests assert on it) and kept for finish's
// byte accounting. nil is a DAG build task that never completed.
func (s *joinSpill) count(src *exec.JoinSource) {
	if src != nil && src.Spilled != nil {
		s.spilled = append(s.spilled, src.Spilled)
		s.tx.Work().JoinSpills.Add(1)
	}
}

// joined records what the kept call of a spilled join's JoinBatches did.
func (s *joinSpill) joined(c exec.JoinCounts) {
	s.tx.Work().JoinSpillPartitions.Add(c.Partitions)
	s.tx.Work().RuntimeFilterRows.Add(c.BloomPruned)
}

// finish adds the bytes the spilled joins durably wrote (sj.SpillBytes counts
// successful puts only, so a build that errored mid-spill contributes exactly
// what reached the store, and a retried call's writes count again) and
// deletes the statement's namespaces. Cleanup is best effort (errors leave
// orphans confined to the spill/ namespace, outside GC's and the publishers'
// prefixes).
func (s *joinSpill) finish() {
	for _, sj := range s.spilled {
		s.tx.Work().JoinSpillBytes.Add(sj.SpillBytes())
	}
	for _, dir := range s.dirs {
		_ = dir.Cleanup()
	}
}

// fragment opens one morsel's scan with the plan's projection and pushed
// predicate applied. Rows a pushed predicate rejects are dropped inside the
// scan, before unreferenced columns are even decoded, and row groups its
// zone-map ranges exclude are never read.
func (r *relation) fragment(m exec.Morsel) (exec.Operator, error) {
	s, err := exec.NewMorselScan(m, r.cols, r.pred, nil)
	if err != nil {
		return nil, err
	}
	if err := s.SetSchema(r.meta.Schema); err != nil {
		return nil, err
	}
	return s, nil
}

// runBuild drains the build side — one fresh scan over the right table's
// files, in the table's global row order — under the join memory budget: into
// an immutable JoinTable while it fits (the build itself is
// partition-parallel), into spill partitions when it overflows.
func (j *planJoin) runBuild(par int) (*exec.JoinSource, error) {
	right, err := j.build.fragment(j.build.ms.Morsels[0])
	if err != nil {
		return nil, err
	}
	return exec.BuildGraceJoin(right, j.rightKeys, j.typ, par, j.cfg)
}

// barrier returns the first spilled join at or after from, or len(srcs) when
// there is none: the end of the pipeline segment that starts at from.
func barrier(srcs []*exec.JoinSource, from int) int {
	for from < len(srcs) && srcs[from].Spilled == nil {
		from++
	}
	return from
}

// stageRunner is where runStages runs the stages: the in-process morsel pool
// (poolRunner) or a DCP job grown a stage at a time (dagRunner, dag.go). It
// keeps the last stage's per-morsel outputs, batches or exchange frames.
type stageRunner interface {
	// builds drains every join's build side, counts each completed build
	// with the statement's spill state and returns the sources in join
	// order (nil for a build that did not complete).
	builds() ([]*exec.JoinSource, error)
	// segment runs open over every morsel and keeps what it produces. limit
	// >= 0 (a bare LIMIT's last segment) lets it stop once the completed
	// prefix holds limit rows.
	segment(from int, open segmentOpener, limit int64) error
	// join runs spilled join j's partition-wise join over the kept outputs
	// and keeps its per-morsel batches.
	join(j int, sj *exec.SpilledJoin) error
	// done ends the runner and returns the kept outputs in morsel order, or
	// err, the stages' error.
	done(err error) ([]*colfile.Batch, error)
}

// segmentOpener builds morsel i's operator chain over prev, its kept output
// (nil in the first segment); pruned counts the rows the chain's blooms drop.
// A nil operator means the morsel has nothing to run.
type segmentOpener func(i int, prev *colfile.Batch, pruned *atomic.Int64) (exec.Operator, error)

// stageEnv is what both stage runners hold: the statement, its opened plan,
// its spill state and the worker count its lease granted.
type stageEnv struct {
	*handle
	p     *selectPlan
	spill *joinSpill
	dop   int
}

// runStages runs an opened plan's stages on r and returns the per-morsel
// outputs in morsel order: the one place the stage sequence is written, and
// the only per-morsel operator chain either runner builds. The builds decide
// the stages: segment [0, b₁) — a morsel's scan through the in-memory probes
// before the first spilled join b₁ — then b₁'s partition-wise join, segment
// [b₁+1, b₂) over its batches, and so on; the last segment ends in the
// residual filter and suffix. A segment between adjacent barriers would only
// copy its input, so it does not run, and a morsel with no rows runs nothing
// after a barrier. Programs, JoinTables and blooms are shared read-only by
// every worker; each Probe owns its scratch.
func runStages(p *selectPlan, r stageRunner, suffix func(exec.Operator) exec.Operator, limit int64) ([]*colfile.Batch, error) {
	if len(p.base.ms.Morsels) == 0 {
		// Nothing to scan, so nothing to build or probe either: the merge
		// tail turns the empty list into the empty (or, for a global
		// aggregate, the one zero) result.
		return nil, nil
	}
	srcs, err := r.builds()
	if err != nil {
		return r.done(err)
	}
	// Each in-memory, non-LEFT-OUTER join's runtime filter is derived once.
	J := len(p.joins)
	blooms := make([]*exec.Bloom, J)
	for j, src := range srcs {
		if src.Spilled == nil && p.joins[j].typ != exec.LeftOuterJoin {
			blooms[j] = src.Table.BloomFilter()
		}
	}
	open := func(from, to int) segmentOpener {
		return func(i int, prev *colfile.Batch, pruned *atomic.Int64) (in exec.Operator, err error) {
			switch {
			case from == 0:
				if in, err = p.base.fragment(p.base.ms.Morsels[i]); err != nil {
					return nil, err
				}
			case prev == nil:
				return nil, nil
			default:
				in = exec.NewBatchSource(prev)
			}
			for j := from; j < to; j++ {
				in = &exec.Probe{In: in, Table: srcs[j].Table, LeftKeys: p.joins[j].leftKeys,
					Cols: p.joins[j].cols, Bloom: blooms[j], Pruned: pruned}
			}
			if to == J {
				in = suffix(p.tail.filter(in))
			}
			return in, nil
		}
	}
	from, to := 0, barrier(srcs, 0)
	for ; to < J; from, to = to+1, barrier(srcs, to+1) {
		if from == 0 || from < to {
			if err := r.segment(from, open(from, to), -1); err != nil {
				return r.done(err)
			}
		}
		if err := r.join(to, srcs[to].Spilled); err != nil {
			return r.done(err)
		}
	}
	return r.done(r.segment(from, open(from, to), limit))
}

// poolRunner runs the stages on the in-process morsel pool under the
// statement's context: the builds one after another, each segment on
// exec.RunIndexed workers, each join on JoinBatches' fan-out over them.
type poolRunner struct {
	stageEnv
	cur []*colfile.Batch // the last stage's per-morsel outputs
}

func (r *poolRunner) builds() ([]*exec.JoinSource, error) {
	srcs := make([]*exec.JoinSource, len(r.p.joins))
	for j, pj := range r.p.joins {
		if err := r.ctx.Err(); err != nil {
			return srcs, err
		}
		src, err := pj.runBuild(r.tx.Parallelism())
		if err != nil {
			return srcs, err
		}
		r.spill.count(src)
		srcs[j] = src
	}
	return srcs, nil
}

func (r *poolRunner) segment(_ int, open segmentOpener, limit int64) (err error) {
	build := func(i int) (exec.Operator, error) {
		return open(i, r.cur[i], &r.tx.Work().RuntimeFilterRows)
	}
	if limit >= 0 {
		r.cur, err = exec.RunIndexedPrefix(r.ctx, len(r.cur), r.dop, limit, build)
	} else {
		r.cur, err = exec.RunIndexed(r.ctx, len(r.cur), r.dop, build)
	}
	return err
}

func (r *poolRunner) join(j int, sj *exec.SpilledJoin) (err error) {
	pj := r.p.joins[j]
	var c exec.JoinCounts
	if r.cur, c, err = sj.JoinBatches(r.ctx, r.cur, pj.leftKeys, pj.leftSchema, pj.cols, r.dop); err == nil {
		r.spill.joined(c)
	}
	return err
}

func (r *poolRunner) done(err error) ([]*colfile.Batch, error) { return r.cur, err }

// mergeSelect is the merge tail of a SELECT: it runs the stages on r with
// the plan's per-fragment suffix (partial aggregation, projection, or sorted
// runs) and combines the per-morsel batches with the deterministic merge
// operators — ordered concatenation for projections and joins, MergeAgg for
// aggregates, loser-tree MergeRuns for ORDER BY. The stage runners only
// decide where the fragments run, so they cannot drift apart downstream of
// the fragment boundary.
func mergeSelect(h *handle, p *selectPlan, r stageRunner) (*colfile.Batch, error) {
	tail := p.tail
	var outOp exec.Operator
	bound := p.rowBound()
	keys, width := p.sortKeys, len(tail.outSchema())
	if ap := tail.agg; ap != nil {
		// One Sort or TopN on the FE orders the merged groups, one per row:
		// the ORDER BY keys, then the group keys, which the projection
		// carries behind the items as hidden columns, dropped after the
		// limit. The group keys are distinct, so the order is total whatever
		// order MergeAgg emits in.
		proto := &exec.HashAgg{GroupBy: ap.groupBy, Aggs: ap.aggs, Partial: true}
		// the partial layout is a function of the programs alone, built
		// here once, before the workers copy it
		layout := proto.Schema()
		partial := func(op exec.Operator) exec.Operator { return proto.On(op) }
		batches, err := runStages(p, r, partial, -1)
		if err != nil {
			return nil, err
		}
		outOp = ap.finish(&exec.MergeAgg{
			In:     exec.NewBatchList(layout, batches),
			Groups: len(ap.groupBy), Aggs: ap.aggs,
		})
		keys = slices.Clip(keys)
		for i := range ap.groupBy {
			keys = append(keys, exec.SortKey{Col: width + i})
		}
	} else {
		// Rows each fragment must ship: all of them (-1), or LIMIT+OFFSET —
		// under ORDER BY its smallest (TopN), else its first.
		if len(p.sortKeys) > 0 {
			return mergeOrderBy(h, p, r, bound)
		}
		batches, err := runStages(p, r, func(op exec.Operator) exec.Operator {
			if bound >= 0 {
				return &exec.Limit{In: tail.project(op), N: bound}
			}
			return tail.project(op)
		}, bound)
		if err != nil {
			return nil, err
		}
		outOp = exec.NewBatchList(tail.outSchema(), batches)
	}
	// Under a LIMIT the order is a bounded heap of the LIMIT+OFFSET smallest
	// rows (exec.TopN, tie-stable, so the rows a full stable sort would put
	// first).
	switch {
	case len(keys) > 0 && bound >= 0:
		outOp = &exec.TopN{In: outOp, Keys: keys, N: bound}
	case len(keys) > 0:
		outOp = &exec.Sort{In: outOp, Keys: keys}
	}
	if p.limit >= 0 {
		outOp = &exec.Limit{In: outOp, N: p.limit, Offset: p.offset}
	}
	b, err := exec.CollectCtx(h.ctx, outOp)
	if err != nil {
		return nil, err
	}
	// The header is ours to reslice; the vectors under it may be a scan's.
	b.Schema, b.Cols = b.Schema[:width], b.Cols[:width]
	return b, nil
}

// rowBound is how many rows the LIMIT needs from the rows before it:
// LIMIT+OFFSET, or -1 (every row) with no LIMIT or when the sum does not fit
// an int64, as in the "OFFSET only" idiom LIMIT 9223372036854775807 OFFSET n.
func (p *selectPlan) rowBound() int64 {
	if p.limit < 0 || p.limit > math.MaxInt64-p.offset {
		return -1
	}
	return p.limit + p.offset
}

// mergeOrderBy executes a projection's ORDER BY [LIMIT/OFFSET] on the morsel
// decomposition instead of a monolithic FE sort: every fragment sorts its
// morsel's projected rows into a tie-stable run (Sort), and the FE k-way
// merges the runs over a loser tree with the lowest morsel index winning
// ties — byte-identical to one stable sort of the whole input at every DOP,
// NULL ordering and DESC keys included. When a LIMIT bounds the output, each
// fragment instead keeps only its LIMIT+OFFSET smallest rows (TopN pushdown,
// the paper's distributed top-N shape, counted in WorkStats.TopNPushdowns)
// and the merge cuts off after LIMIT+OFFSET rows, so neither the workers nor
// the FE ever materialize the full sorted result.
func mergeOrderBy(h *handle, p *selectPlan, r stageRunner, bound int64) (*colfile.Batch, error) {
	project, keys := p.tail.project, p.sortKeys
	batches, err := runStages(p, r, func(op exec.Operator) exec.Operator {
		if bound >= 0 {
			return &exec.TopN{In: project(op), Keys: keys, N: bound}
		}
		return &exec.Sort{In: project(op), Keys: keys}
	}, -1)
	if err != nil {
		return nil, err
	}
	if bound >= 0 {
		h.tx.Work().TopNPushdowns.Add(1)
	}
	var out exec.Operator = exec.NewMergeRuns(p.tail.outSchema(), batches, keys, bound)
	if p.limit >= 0 {
		out = &exec.Limit{In: out, N: p.limit, Offset: p.offset}
	}
	return exec.CollectCtx(h.ctx, out)
}

func aliasOf(r TableRef) string {
	if r.Alias != "" {
		return r.Alias
	}
	return r.Name
}

func containsAgg(e Expr) bool {
	switch x := e.(type) {
	case FuncExpr:
		return true
	case BinExpr:
		return containsAgg(x.L) || containsAgg(x.R)
	case NotExpr:
		return containsAgg(x.E)
	case IsNullExpr:
		return containsAgg(x.E)
	case BetweenExpr:
		return containsAgg(x.E) || containsAgg(x.Lo) || containsAgg(x.Hi)
	}
	return false
}

// equiKeys extracts hash-join keys from an ON conjunction of equalities, each
// relating one left-scope column to one right-scope column of the same type:
// the join matches keys by their typed encoding, so an INT key never equals a
// FLOAT or a VARCHAR one, and such a join is a plan-time error rather than a
// result that depends on bit patterns.
func equiKeys(on Expr, left, right *scope) (lk, rk []int, err error) {
	for _, c := range splitAnd(on) {
		b, ok := c.(BinExpr)
		if !ok || b.Op != "=" {
			return nil, nil, fmt.Errorf("sql: JOIN ON supports equality conjunctions only")
		}
		lc, ok1 := b.L.(ColName)
		rc, ok2 := b.R.(ColName)
		if !ok1 || !ok2 {
			return nil, nil, fmt.Errorf("sql: JOIN ON must compare columns")
		}
		if li, err := left.resolve(lc); err == nil {
			ri, err := right.resolve(rc)
			if err != nil {
				return nil, nil, err
			}
			lk = append(lk, li)
			rk = append(rk, ri)
			continue
		}
		// swapped sides
		li, err := left.resolve(rc)
		if err != nil {
			return nil, nil, err
		}
		ri, err := right.resolve(lc)
		if err != nil {
			return nil, nil, err
		}
		lk = append(lk, li)
		rk = append(rk, ri)
	}
	if len(lk) == 0 {
		return nil, nil, fmt.Errorf("sql: JOIN requires at least one equality key")
	}
	for i := range lk {
		if lt, rt := left.schema[lk[i]].Type, right.schema[rk[i]].Type; lt != rt {
			return nil, nil, fmt.Errorf("sql: JOIN key %s (%s) and %s (%s) have different types",
				left.qualified(lk[i]), lt, right.qualified(rk[i]), rt)
		}
	}
	return lk, rk, nil
}

// buildProjection compiles the SELECT items to output programs and names.
func buildProjection(items []SelectItem, sc *scope) ([]*exec.Prog, []string, error) {
	var progs []*exec.Prog
	var names []string
	add := func(e Expr, name string) error {
		p, err := compile(e, sc)
		if err != nil {
			return err
		}
		progs = append(progs, p)
		names = append(names, name)
		return nil
	}
	for _, it := range items {
		if it.Star {
			for i, f := range sc.schema {
				if err := add(slotRef{idx: i, name: f.Name}, f.Name); err != nil {
					return nil, nil, err
				}
			}
			continue
		}
		if err := add(it.Expr, itemName(it)); err != nil {
			return nil, nil, err
		}
	}
	return progs, names, nil
}

func itemName(it SelectItem) string {
	if it.Alias != "" {
		return it.Alias
	}
	if c, ok := it.Expr.(ColName); ok {
		return c.Name
	}
	return ""
}

// aggPlan is the compiled form of an aggregate query: group-key and aggregate
// argument programs over the input scope for the partial/merge aggregation
// stages, plus the post-aggregation projection and HAVING
// predicate, compiled over the aggregate's output schema.
type aggPlan struct {
	groupBy  []*exec.Prog
	aggs     []exec.AggSpec
	out      []*exec.Prog // the items, then the group keys as hidden columns
	outNames []string     // the items' names
	having   *exec.Prog   // nil = none
}

// finish stacks HAVING and the output projection on the merged aggregate.
// The projection's trailing len(groupBy) columns are the hidden group keys.
func (ap *aggPlan) finish(agg exec.Operator) exec.Operator {
	if ap.having != nil {
		agg = &exec.Filter{In: agg, Pred: ap.having}
	}
	return &exec.Project{In: agg, Exprs: ap.out, Names: ap.outNames}
}

// buildAggPlan compiles an aggregate query's pieces: group keys and aggregate
// arguments against the input scope, then the item and HAVING expressions —
// rewritten over [groups..., aggs...] — against the aggregate's output.
func buildAggPlan(items []SelectItem, groupBy []Expr, having Expr, sc *scope) (*aggPlan, error) {
	ap := &aggPlan{groupBy: make([]*exec.Prog, len(groupBy))}
	for i, g := range groupBy {
		p, err := compile(g, sc)
		if err != nil {
			return nil, err
		}
		ap.groupBy[i] = p
	}

	// Collect aggregates in item order, then HAVING.
	aggIndex := map[string]int{} // rendered key -> agg slot
	addAgg := func(f FuncExpr) (int, error) {
		kind, err := aggKind(f)
		if err != nil {
			return 0, err
		}
		var arg *exec.Prog
		key := f.Name + "(*)"
		if !f.Star {
			if arg, err = compile(f.Arg, sc); err != nil {
				return 0, err
			}
			key = f.Name + "(" + arg.String() + ")"
		}
		if i, ok := aggIndex[key]; ok {
			return i, nil
		}
		spec := exec.AggSpec{Kind: kind, Arg: arg, Name: key}
		if _, err := spec.OutType(); err != nil {
			return 0, err
		}
		ap.aggs = append(ap.aggs, spec)
		aggIndex[key] = len(ap.aggs) - 1
		return len(ap.aggs) - 1, nil
	}

	// replaceAgg rewrites an item expression into a post-aggregation
	// expression over [groups..., aggs...].
	var replaceAgg func(e Expr) (Expr, error)
	replaceAgg = func(e Expr) (Expr, error) {
		// An item expression structurally equal to a GROUP BY expression maps
		// to that group column (e.g. GROUP BY d/30 ... SELECT d/30).
		for i, g := range groupBy {
			if reflect.DeepEqual(e, g) {
				return slotRef{idx: i, name: fmt.Sprintf("group%d", i)}, nil
			}
		}
		switch x := e.(type) {
		case FuncExpr:
			slot, err := addAgg(x)
			if err != nil {
				return nil, err
			}
			return slotRef{idx: len(groupBy) + slot, name: ap.aggs[slot].Name}, nil
		case ColName:
			// must match a GROUP BY expression
			for i, g := range groupBy {
				if gc, ok := g.(ColName); ok && strings.EqualFold(gc.Name, x.Name) &&
					(x.Table == "" || strings.EqualFold(gc.Table, x.Table) || gc.Table == "") {
					return slotRef{idx: i, name: x.Name}, nil
				}
			}
			return nil, fmt.Errorf("sql: column %q must appear in GROUP BY or an aggregate", displayName(x))
		case Lit:
			return x, nil
		case BinExpr:
			l, err := replaceAgg(x.L)
			if err != nil {
				return nil, err
			}
			r, err := replaceAgg(x.R)
			if err != nil {
				return nil, err
			}
			return BinExpr{Op: x.Op, L: l, R: r}, nil
		case NotExpr:
			inner, err := replaceAgg(x.E)
			if err != nil {
				return nil, err
			}
			return NotExpr{E: inner}, nil
		default:
			return nil, fmt.Errorf("sql: unsupported expression %T in aggregate query", e)
		}
	}

	outs := make([]Expr, len(items))
	for i, it := range items {
		if it.Star {
			return nil, errors.New("sql: SELECT * with GROUP BY is not supported")
		}
		e, err := replaceAgg(it.Expr)
		if err != nil {
			return nil, err
		}
		outs[i] = e
		ap.outNames = append(ap.outNames, itemName(it))
	}
	if having != nil {
		var err error
		if having, err = replaceAgg(having); err != nil {
			return nil, err
		}
	}

	// Every aggregate is registered now, so the aggregate's output schema is
	// known; it is a function of the compiled programs alone.
	asc := &scope{schema: (&exec.HashAgg{GroupBy: ap.groupBy, Aggs: ap.aggs}).Schema()}
	for i := range groupBy {
		outs = append(outs, slotRef{idx: i, name: fmt.Sprintf("group%d", i)})
	}
	for _, e := range outs {
		p, err := compile(e, asc)
		if err != nil {
			return nil, err
		}
		ap.out = append(ap.out, p)
	}
	if having != nil {
		var err error
		if ap.having, err = compile(having, asc); err != nil {
			return nil, err
		}
	}
	return ap, nil
}

func aggKind(f FuncExpr) (exec.AggKind, error) {
	switch f.Name {
	case "COUNT":
		if f.Star {
			return exec.AggCountStar, nil
		}
		return exec.AggCount, nil
	case "SUM":
		return exec.AggSum, nil
	case "AVG":
		return exec.AggAvg, nil
	case "MIN":
		return exec.AggMin, nil
	case "MAX":
		return exec.AggMax, nil
	}
	return 0, fmt.Errorf("sql: unknown aggregate %s", f.Name)
}

func runInsert(h *handle, st *InsertStmt) (*Result, error) {
	tx := h.tx
	meta, err := tx.Table(st.Table)
	if err != nil {
		return nil, err
	}
	var batch *colfile.Batch
	if st.Query != nil {
		qb, err := runSelect(h, st.Query)
		if err != nil {
			return nil, err
		}
		if len(qb.Schema) != len(meta.Schema) {
			return nil, fmt.Errorf("sql: INSERT SELECT arity %d, table has %d columns", len(qb.Schema), len(meta.Schema))
		}
		if batch, err = qb.Convert(meta.Schema); err != nil {
			return nil, err
		}
	} else if batch, err = bindValues(meta.Schema, st.Columns, st.Values); err != nil {
		return nil, err
	}
	n, err := tx.Insert(st.Table, batch)
	if err != nil {
		return nil, err
	}
	return &Result{RowsAffected: n}, nil
}

// bindValues binds a VALUES list into a batch of schema. cols names the
// column each cell position fills (nil: every column, in order); columns it
// leaves out are NULL, and a column named twice takes the later cell. Row by
// row, the expression cells fold first, in cell order, then every column
// appends in schema order, so the first error is the one a row of boxed
// values appended through Batch.AppendRow would report.
func bindValues(schema colfile.Schema, cols []string, v *Values) (*colfile.Batch, error) {
	width := len(schema)
	if cols != nil {
		width = len(cols)
	}
	src := make([]int, len(schema)) // the cell position each column reads, -1: NULL
	for j := range src {
		src[j] = -1
	}
	for i := 0; i < width; i++ {
		var name string
		if cols != nil {
			name = cols[i]
		} else {
			name = schema[i].Name
		}
		j := schema.ColIndex(name)
		if j < 0 {
			return nil, fmt.Errorf("sql: unknown column %q", name)
		}
		src[j] = i
	}
	batch := colfile.NewBatch(schema)
	for _, vec := range batch.Cols {
		vec.Grow(len(v.Ends))
	}
	var folded []any // the row's expression cells, by position
	start := 0
	for _, end := range v.Ends {
		row := v.Cells[start:end]
		start = end
		if len(row) != width {
			return nil, fmt.Errorf("sql: row has %d values, expected %d", len(row), width)
		}
		for i, c := range row {
			if c.Kind != CellExpr {
				continue
			}
			if folded == nil {
				folded = make([]any, width)
			}
			val, err := valuesCell(v.Exprs[c.Int])
			if err != nil {
				return nil, err
			}
			folded[i] = val
		}
		for j, vec := range batch.Cols {
			var err error
			switch i := src[j]; {
			case i < 0:
				vec.AppendNull()
			case row[i].Kind == CellExpr:
				err = vec.AppendValue(folded[i])
			default:
				err = appendCell(vec, row[i])
			}
			if err != nil {
				return nil, err
			}
		}
	}
	return batch, nil
}

// appendCell appends a typed cell with Vec.AppendValue's conversions,
// unboxed. A cell the column cannot take goes through AppendValue itself,
// boxed, for its error.
func appendCell(vec *colfile.Vec, c Cell) error {
	switch {
	case c.Kind == CellNull:
		vec.AppendNull()
	case c.Kind == CellInt && vec.Type == colfile.Int64:
		vec.AppendInt(c.Int)
	case c.Kind == CellInt && vec.Type == colfile.Float64:
		vec.AppendFloat(float64(c.Int))
	case c.Kind == CellFloat && vec.Type == colfile.Float64:
		vec.AppendFloat(c.Float)
	case c.Kind == CellFloat && vec.Type == colfile.Int64:
		vec.AppendInt(int64(c.Float))
	case c.Kind == CellString && vec.Type == colfile.String:
		vec.AppendStr(c.Str)
	case c.Kind == CellBool && vec.Type == colfile.Bool:
		vec.AppendBool(c.Int != 0)
	default:
		return vec.AppendValue(c.value())
	}
	return nil
}

// value boxes a literal cell.
func (c Cell) value() any {
	switch c.Kind {
	case CellInt:
		return c.Int
	case CellFloat:
		return c.Float
	case CellString:
		return c.Str
	case CellBool:
		return c.Int != 0
	}
	return nil
}

// valuesCell evaluates one VALUES cell. A literal is its own value; any other
// expression is compiled against an empty scope (a column reference is an
// unknown column) and run over one row, so it folds with SELECT's kernels,
// NULL semantics and errors.
func valuesCell(e Expr) (any, error) {
	if lit, ok := e.(Lit); ok {
		return lit.Val, nil
	}
	prog, err := compile(e, &scope{})
	if err != nil {
		return nil, err
	}
	row := colfile.NewVec(colfile.Int64)
	row.AppendInt(0)
	v, err := prog.Run(prog.NewCtx(), &colfile.Batch{Cols: []*colfile.Vec{row}})
	if err != nil {
		return nil, err
	}
	return v.Value(0), nil
}

func runUpdate(h *handle, st *UpdateStmt) (*Result, error) {
	meta, err := h.tx.Table(st.Table)
	if err != nil {
		return nil, err
	}
	sc := singleTableScope(meta.Schema, meta.Name)
	// Bind SET expressions in column order so a statement with two bad
	// assignments reports the same error every run.
	setCols := make([]string, 0, len(st.Set))
	for col := range st.Set {
		setCols = append(setCols, col)
	}
	sort.Strings(setCols)
	set := make(map[string]exec.Expr, len(st.Set))
	for _, col := range setCols {
		bound, err := bind(st.Set[col], sc)
		if err != nil {
			return nil, err
		}
		set[col] = bound
	}
	pred, err := wherePred(st.Where, sc)
	if err != nil {
		return nil, err
	}
	n, err := h.tx.Update(h.ctx, st.Table, pred, set)
	if err != nil {
		return nil, err
	}
	return &Result{RowsAffected: n}, nil
}

func runDelete(h *handle, st *DeleteStmt) (*Result, error) {
	meta, err := h.tx.Table(st.Table)
	if err != nil {
		return nil, err
	}
	pred, err := wherePred(st.Where, singleTableScope(meta.Schema, meta.Name))
	if err != nil {
		return nil, err
	}
	n, err := h.tx.Delete(h.ctx, st.Table, pred)
	if err != nil {
		return nil, err
	}
	return &Result{RowsAffected: n}, nil
}

func wherePred(where Expr, sc *scope) (exec.Expr, error) {
	if where == nil {
		return exec.Const{Val: true}, nil
	}
	return bind(where, sc)
}

func runShow(tx *core.Txn, st ShowStmt) (*Result, error) {
	switch st.What {
	case "tables":
		tables, err := tx.ListTables()
		if err != nil {
			return nil, err
		}
		schema := colfile.Schema{
			{Name: "name", Type: colfile.String},
			{Name: "id", Type: colfile.Int64},
			{Name: "columns", Type: colfile.Int64},
			{Name: "cloned_from", Type: colfile.Int64},
		}
		b := colfile.NewBatch(schema)
		for _, m := range tables {
			_ = b.AppendRow(m.Name, m.ID, int64(len(m.Schema)), m.ClonedFrom)
		}
		return &Result{Batch: b}, nil
	case "stats":
		s, err := tx.Stats(st.Table)
		if err != nil {
			return nil, err
		}
		schema := colfile.Schema{
			{Name: "table", Type: colfile.String},
			{Name: "files", Type: colfile.Int64},
			{Name: "rows", Type: colfile.Int64},
			{Name: "deleted", Type: colfile.Int64},
			{Name: "bytes", Type: colfile.Int64},
			{Name: "manifests", Type: colfile.Int64},
			{Name: "last_seq", Type: colfile.Int64},
			{Name: "healthy", Type: colfile.Bool},
		}
		b := colfile.NewBatch(schema)
		_ = b.AppendRow(s.Name, int64(s.Files), s.Rows, s.Deleted, s.SizeBytes,
			int64(s.Manifests), s.LastSeq, s.Health.Healthy())
		return &Result{Batch: b}, nil
	}
	return nil, fmt.Errorf("sql: unknown SHOW %q", st.What)
}
