package sql

// Statement execution. Execute dispatches a parsed statement. A SELECT runs
// one way: planSelect (planner.go) returns the plan, open fetches its morsels,
// a stage runner executes the per-morsel fragments — runStagesPool here,
// runStagesDAG in dag.go — and mergeSelect combines their outputs. bind and
// compile are the package's only path from an AST expression to a kernel
// program; the DML statements at the end of the file use them too.

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"time"

	"polaris/internal/catalog"
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

// Execute compiles and runs one parsed statement inside the transaction.
// Transaction-control statements are the session's job, not Execute's.
func Execute(tx *core.Txn, st Statement) (*Result, error) {
	switch s := st.(type) {
	case *SelectStmt:
		b, err := runSelect(tx, s)
		if err != nil {
			return nil, err
		}
		return &Result{Batch: b}, nil
	case *ExplainStmt:
		return runExplain(tx, s.Query)
	case *InsertStmt:
		return runInsert(tx, s)
	case *UpdateStmt:
		return runUpdate(tx, s)
	case *DeleteStmt:
		return runDelete(tx, s)
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
			path, err := tx.CheckpointTable(s.Table)
			if err != nil {
				return nil, err
			}
			return &Result{Message: "checkpoint " + path}, nil
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

// prunableRange extracts a zone-map hint from the WHERE clause: a conjunct of
// the form col >= lo / col <= hi / col = v / col BETWEEN over an int column of
// the base table.
func prunableRange(where Expr, meta catalog.TableMeta, alias string) *exec.PruneHint {
	lo := map[string]int64{}
	hi := map[string]int64{}
	var walk func(e Expr)
	record := func(c ColName, op string, v int64) {
		if c.Table != "" && !strings.EqualFold(c.Table, alias) {
			return
		}
		idx := meta.Schema.ColIndex(c.Name)
		if idx < 0 || meta.Schema[idx].Type != colfile.Int64 {
			return
		}
		switch op {
		case ">=", ">":
			if cur, ok := lo[c.Name]; !ok || v > cur {
				lo[c.Name] = v
			}
		case "<=", "<":
			if cur, ok := hi[c.Name]; !ok || v < cur {
				hi[c.Name] = v
			}
		case "=":
			lo[c.Name], hi[c.Name] = v, v
		}
	}
	walk = func(e Expr) {
		switch x := e.(type) {
		case BinExpr:
			if x.Op == "AND" {
				walk(x.L)
				walk(x.R)
				return
			}
			c, cok := x.L.(ColName)
			l, lok := x.R.(Lit)
			if cok && lok {
				if v, ok := l.Val.(int64); ok {
					record(c, x.Op, v)
				}
			}
		case BetweenExpr:
			c, cok := x.E.(ColName)
			llo, lok := x.Lo.(Lit)
			lhi, hok := x.Hi.(Lit)
			if cok && lok && hok {
				vlo, ok1 := llo.Val.(int64)
				vhi, ok2 := lhi.Val.(int64)
				if ok1 && ok2 {
					record(c, ">=", vlo)
					record(c, "<=", vhi)
				}
			}
		}
	}
	if where == nil {
		return nil
	}
	walk(where)
	// Pick the lexicographically first bounded column so the same WHERE
	// clause always yields the same hint (and the same EXPLAIN), whatever
	// order the bounds were recorded in.
	loCols := make([]string, 0, len(lo))
	for col := range lo {
		loCols = append(loCols, col)
	}
	sort.Strings(loCols)
	for _, col := range loCols {
		h := int64(1<<62 - 1)
		if v, ok := hi[col]; ok {
			h = v
		}
		return &exec.PruneHint{Col: col, Lo: lo[col], Hi: h}
	}
	hiCols := make([]string, 0, len(hi))
	for col := range hi {
		hiCols = append(hiCols, col)
	}
	sort.Strings(hiCols)
	for _, col := range hiCols {
		return &exec.PruneHint{Col: col, Lo: -(1 << 62), Hi: hi[col]}
	}
	return nil
}

// runSelect executes a SELECT. There is one executor: the statement is
// planned once (planSelect), the plan is opened — every relation's morsels
// fetched from the snapshot the plan resolved, every build given its spill
// namespace — its per-morsel fragments run on one of two stage runners, the
// in-process morsel pool or, under DistributedQueries, a DCP task DAG, and the
// per-morsel outputs are combined by the deterministic merge tail
// (mergeSelect). Parallelism sizes the decomposition and the worker lease; it
// selects no code path, so Parallelism 1 is the same plan run by one worker.
func runSelect(tx *core.Txn, st *SelectStmt) (*colfile.Batch, error) {
	p, err := planSelect(tx, st)
	if err != nil {
		return nil, err
	}
	p.recordWork(tx)

	// Grace-join spill context: the join memory budget plus the statement's
	// spill and exchange namespaces. finish() runs after the result is
	// materialized, so they are deleted on success and error alike.
	spill := newJoinSpill(tx)
	defer spill.finish()

	// When concurrent queries hold the fabric's slots the lease degrades the
	// worker count (possibly to 1); the plan shape — and therefore the output
	// — depends on the configured Parallelism only.
	dop, release := tx.LeaseDOP(tx.Parallelism())
	defer release()
	if err := p.open(tx, spill); err != nil {
		return nil, err
	}
	return mergeSelect(tx, p, func(suffix func(exec.Operator) exec.Operator, limit int64) ([]*colfile.Batch, error) {
		switch {
		case len(p.base.ms.Morsels) == 0:
			// Nothing to scan, so nothing to build or probe either: the merge
			// tail turns the empty list into the empty (or, for a global
			// aggregate, the one zero) result.
			return nil, nil
		case p.dag:
			return runStagesDAG(tx, p, dop, spill, suffix)
		default:
			return runStagesPool(tx, p, dop, spill, suffix, limit)
		}
	})
}

// open fetches every relation's morsels from the snapshot the plan already
// holds and gives each build its spill namespace, before anything runs. The
// probe base's split is sized from the CONFIGURED parallelism, not the granted
// one: a lease only caps live workers, so the decomposition — and with it
// float-aggregation order — cannot shift under slot contention; a cell split
// does not depend on the parallelism at all.
func (p *selectPlan) open(tx *core.Txn, spill *joinSpill) error {
	fetch := func(r *relation) (err error) {
		want := tx.Parallelism() * morselsPerWorker
		if r.byCell {
			want = 0
		}
		r.ms, err = tx.Morsels(r.state, r.meta, want)
		return err
	}
	if err := fetch(p.base); err != nil {
		return err
	}
	for _, j := range p.joins {
		if err := fetch(j.build); err != nil {
			return err
		}
		j.cfg = spill.config(j.distAligned)
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
		return t.agg.finish(nil).Schema()
	}
	return t.project(nil).Schema()
}

// filter stacks the residual WHERE, if any, on a plan fragment.
func (t *selectTail) filter(op exec.Operator, tel *exec.Telemetry) exec.Operator {
	if t.where == nil {
		return op
	}
	return &exec.Filter{In: op, Pred: t.where, Tel: tel}
}

// bareLimitSelect reports a bare LIMIT query (no ORDER BY, no aggregation).
// Its answer is a prefix of the morsel-order concatenation, so the in-process
// pool stops scanning once the completed prefix of morsels holds LIMIT+OFFSET
// rows (exec.RunIndexedPrefix); a task DAG would run — and write to the
// exchange — every morsel first, so these statements stay in-process even
// under DistributedQueries.
func bareLimitSelect(st *SelectStmt) bool {
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

// finishSelect applies ORDER BY and LIMIT and materializes the result. Under
// a LIMIT the order is a bounded heap of the LIMIT+OFFSET smallest rows
// (exec.TopN, tie-stable, so the rows a full stable sort would put first).
func finishSelect(ctx context.Context, p *selectPlan, outOp exec.Operator) (*colfile.Batch, error) {
	switch {
	case len(p.sortKeys) > 0 && p.limit >= 0:
		outOp = &exec.TopN{In: outOp, Keys: p.sortKeys, N: p.limit + p.offset}
	case len(p.sortKeys) > 0:
		outOp = &exec.Sort{In: outOp, Keys: p.sortKeys}
	}
	if p.limit >= 0 {
		outOp = &exec.Limit{In: outOp, N: p.limit, Offset: p.offset}
	}
	return exec.CollectCtx(ctx, outOp)
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

func newJoinSpill(tx *core.Txn) *joinSpill {
	return &joinSpill{tx: tx, budget: tx.JoinMemoryBudget()}
}

// newDir allocates a query-scoped namespace and registers it for cleanup.
func (s *joinSpill) newDir() *objectstore.SpillDir {
	dir := s.tx.NewSpillDir()
	s.dirs = append(s.dirs, dir)
	return dir
}

// config assembles the spill configuration for one join build: the budget, a
// namespace of its own, and — when the join key covers the build table's
// distribution column — a d(r) partitioner, so spill partitions coincide
// with the table's storage cells.
func (s *joinSpill) config(distAligned bool) exec.SpillConfig {
	cfg := exec.SpillConfig{Budget: s.budget}
	if s.budget <= 0 {
		return cfg
	}
	cfg.Store = s.newDir()
	if distAligned {
		fanout := s.tx.Distributions()
		cfg.Fanout = fanout
		cfg.Partition = func(b *colfile.Batch, keyCols []int, row int, _ uint64) int {
			v := b.Cols[keyCols[0]]
			if v.IsNull(row) {
				return 0
			}
			return core.DistHash(v, row, fanout)
		}
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

// finish adds the spill accounting — bytes durably written (sj.SpillBytes
// counts successful puts only, so a build that errored mid-spill contributes
// exactly what reached the store) and partition-wise join tasks — and deletes
// the statement's namespaces. Cleanup is best effort (errors leave orphans
// confined to the spill/ namespace, outside GC's and the publishers'
// prefixes).
func (s *joinSpill) finish() {
	for _, sj := range s.spilled {
		s.tx.Work().JoinSpillBytes.Add(sj.SpillBytes())
		s.tx.Work().JoinSpillPartitions.Add(sj.PartitionsJoined())
		s.tx.Work().RuntimeFilterRows.Add(sj.BloomPrunedRows())
	}
	for _, dir := range s.dirs {
		_ = dir.Cleanup()
	}
}

// fragment opens one morsel's scan with the plan's projection and pushed
// predicate applied. Rows a pushed predicate rejects are dropped inside the
// scan, before unreferenced columns are even decoded.
func (r *relation) fragment(m exec.Morsel) (exec.Operator, error) {
	s, err := exec.NewMorselScan(m, r.cols, r.hint, r.ms.Tel)
	if err != nil {
		return nil, err
	}
	if err := s.SetSchema(r.meta.Schema); err != nil {
		return nil, err
	}
	if r.pred != nil && !s.PushPredicate(r.pred) {
		return &exec.Filter{In: s, Pred: r.pred, Tel: r.ms.Tel}, nil
	}
	return s, nil
}

// groupByCoversDistCol reports whether a GROUP BY item names the table's
// distribution column (unqualified or qualified with the table alias). When
// it does, every group lives entirely inside one distribution cell — rows
// sharing a distribution-column value (NULLs included) are assigned to one
// cell by d(r) — so cell-aligned per-morsel partials need no merge.
func groupByCoversDistCol(groupBy []Expr, distCol, alias string) bool {
	if distCol == "" {
		return false
	}
	for _, g := range groupBy {
		c, ok := g.(ColName)
		if !ok {
			continue
		}
		if strings.EqualFold(c.Name, distCol) && (c.Table == "" || strings.EqualFold(c.Table, alias)) {
			return true
		}
	}
	return false
}

// openBuild opens the build side as a fresh operator: the right table's
// per-cell fragments concatenated in cell order, the table's global row order.
func (j *planJoin) openBuild() (exec.Operator, error) {
	morsels := j.build.ms.Morsels
	if len(morsels) == 0 {
		return exec.NewBatchList(j.build.schema, nil), nil
	}
	ops := make([]exec.Operator, len(morsels))
	for i, m := range morsels {
		op, err := j.build.fragment(m)
		if err != nil {
			return nil, err
		}
		ops[i] = op
	}
	return &exec.UnionAll{Ins: ops}, nil
}

// runStagesPool runs an opened plan's stages on the in-process morsel pool,
// under the statement's context, and returns the per-morsel outputs in morsel
// order. Build sides are drained once under the join memory budget: into an
// immutable JoinTable shared by every probe worker while they fit (the build
// itself is partition-parallel), into spill partitions when they overflow.
//
// While no build spilled, each worker runs scan→[probe…]→filter→suffix per
// morsel (the streaming shape): compiled programs and JoinTables are
// stateless/immutable values, safe to share across workers; each Probe owns
// its scratch buffers; the telemetry sink is atomic. Once a build spilled the
// joins run stage by stage over materialized per-morsel batches (the staged
// shape) — in-memory stages probe every batch in parallel, spilled stages fan
// the partition-wise grace join over the same leased workers — and each
// worker then runs filter→suffix over its batch. The batches are byte-wise
// what the streaming probes would have produced and morsel order is kept
// throughout, so everything downstream is unchanged.
//
// limit >= 0 (a bare LIMIT) lets the stage that runs the suffix stop early.
func runStagesPool(tx *core.Txn, p *selectPlan, dop int, spill *joinSpill,
	suffix func(exec.Operator) exec.Operator, limit int64) ([]*colfile.Batch, error) {
	ctx := tx.Context()
	morsels, tel := p.base.ms.Morsels, p.base.ms.Tel
	pruned := &tx.Work().RuntimeFilterRows

	// blooms[j] is join j's runtime filter, derived once from the completed
	// in-memory build and shared read-only by every probe worker (nil for
	// LEFT OUTER, where probe rows survive regardless).
	srcs := make([]*exec.JoinSource, len(p.joins))
	blooms := make([]*exec.Bloom, len(p.joins))
	probe := func(j int, in exec.Operator) exec.Operator {
		return &exec.Probe{In: in, Table: srcs[j].Table, LeftKeys: p.joins[j].leftKeys, Tel: tel,
			Bloom: blooms[j], Pruned: pruned}
	}
	anySpilled := false
	for j, pj := range p.joins {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		right, err := pj.openBuild()
		if err != nil {
			return nil, err
		}
		src, err := exec.BuildGraceJoin(right, pj.rightKeys, pj.typ, tx.Parallelism(), pj.cfg, tel)
		if err != nil {
			return nil, err
		}
		spill.count(src)
		srcs[j] = src
		if src.Spilled != nil {
			anySpilled = true
		} else if pj.typ != exec.LeftOuterJoin {
			blooms[j] = src.Table.BloomFilter()
		}
	}

	last := func(n int, build func(i int) (exec.Operator, error)) ([]*colfile.Batch, error) {
		if limit >= 0 {
			return exec.RunIndexedPrefix(ctx, n, dop, limit, build)
		}
		return exec.RunIndexed(ctx, n, dop, build)
	}
	if !anySpilled {
		return last(len(morsels), func(i int) (exec.Operator, error) {
			op, err := p.base.fragment(morsels[i])
			if err != nil {
				return nil, err
			}
			for j := range p.joins {
				op = probe(j, op)
			}
			return suffix(p.tail.filter(op, tel)), nil
		})
	}

	// over runs one operator per non-empty per-morsel batch of the previous
	// stage; empty morsels skip the remaining stages.
	over := func(in []*colfile.Batch, build func(b *colfile.Batch) exec.Operator) func(int) (exec.Operator, error) {
		return func(i int) (exec.Operator, error) {
			if in[i] == nil {
				return nil, nil
			}
			return build(in[i]), nil
		}
	}
	cur, err := exec.RunIndexed(ctx, len(morsels), dop, func(i int) (exec.Operator, error) {
		return p.base.fragment(morsels[i])
	})
	if err != nil {
		return nil, err
	}
	for j, pj := range p.joins {
		if srcs[j].Spilled != nil {
			cur, err = srcs[j].Spilled.JoinBatches(ctx, cur, pj.leftKeys, pj.leftSchema, dop)
		} else {
			cur, err = exec.RunIndexed(ctx, len(cur), dop, over(cur, func(b *colfile.Batch) exec.Operator {
				return probe(j, exec.NewBatchSource(b))
			}))
		}
		if err != nil {
			return nil, err
		}
	}
	return last(len(cur), over(cur, func(b *colfile.Batch) exec.Operator {
		return suffix(p.tail.filter(exec.NewBatchSource(b), tel))
	}))
}

// fragmentRunner runs an opened plan's per-morsel fragments, each ending in
// suffix, wherever the statement executes and returns their outputs in morsel
// order (nil = no rows). limit >= 0 tells it the merge reads only the first
// limit rows of that order.
type fragmentRunner func(suffix func(exec.Operator) exec.Operator, limit int64) ([]*colfile.Batch, error)

// mergeSelect is the merge tail of a SELECT: it drives run with the plan's
// per-fragment suffix (partial aggregation, projection, or sorted runs) and
// combines the per-morsel batches with the deterministic merge operators —
// ordered concatenation for projections and joins, key-ordered MergeAgg for
// aggregates, loser-tree MergeRuns for ORDER BY. The stage runners only
// decide where the fragments run, so they cannot drift apart downstream of
// the fragment boundary.
func mergeSelect(tx *core.Txn, p *selectPlan, run fragmentRunner) (*colfile.Batch, error) {
	tail, tel := p.tail, p.base.ms.Tel
	var outOp exec.Operator
	if ap := tail.agg; ap != nil {
		// ORDER BY over an aggregate runs on the FE (finishSelect): the merged
		// aggregate is already materialized there, one group per row, so
		// there is nothing left to fan out.
		partial := func(op exec.Operator) exec.Operator {
			return &exec.HashAgg{In: op, GroupBy: ap.groupBy, Aggs: ap.aggs, Partial: true}
		}
		batches, err := run(partial, -1)
		if err != nil {
			return nil, err
		}
		if p.mergeFree {
			tx.Work().MergeFreeAggs.Add(1)
		}
		outOp = ap.finish(&exec.MergeAgg{
			// the partial layout is a function of the programs alone
			In:     exec.NewBatchList(partial(nil).Schema(), batches),
			Groups: len(ap.groupBy), Aggs: ap.aggs, MergeFree: p.mergeFree, Tel: tel,
		})
	} else {
		// Rows each fragment must ship: all of them (-1), or LIMIT+OFFSET —
		// under ORDER BY its smallest (TopN), else its first.
		bound := int64(-1)
		if p.limit >= 0 {
			bound = p.limit + p.offset
		}
		if len(p.sortKeys) > 0 {
			return mergeOrderBy(tx, p, run, bound)
		}
		batches, err := run(func(op exec.Operator) exec.Operator {
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
	return finishSelect(tx.Context(), p, outOp)
}

// mergeOrderBy executes a projection's ORDER BY [LIMIT/OFFSET] on the morsel
// decomposition instead of a monolithic FE sort: every fragment sorts its
// morsel's projected rows into a tie-stable run (SortRuns), and the FE k-way
// merges the runs over a loser tree with the lowest morsel index winning
// ties — byte-identical to one stable sort of the whole input at every DOP,
// NULL ordering and DESC keys included. When a LIMIT bounds the output, each
// fragment instead keeps only its LIMIT+OFFSET smallest rows (TopN pushdown,
// the paper's distributed top-N shape, counted in WorkStats.TopNPushdowns)
// and the merge cuts off after LIMIT+OFFSET rows, so neither the workers nor
// the FE ever materialize the full sorted result.
func mergeOrderBy(tx *core.Txn, p *selectPlan, run fragmentRunner, bound int64) (*colfile.Batch, error) {
	project, keys, tel := p.tail.project, p.sortKeys, p.base.ms.Tel
	batches, err := run(func(op exec.Operator) exec.Operator {
		if bound >= 0 {
			return &exec.TopN{In: project(op), Keys: keys, N: bound, Tel: tel}
		}
		return &exec.SortRuns{In: project(op), Keys: keys, Tel: tel}
	}, -1)
	if err != nil {
		return nil, err
	}
	if bound >= 0 {
		tx.Work().TopNPushdowns.Add(1)
	}
	var out exec.Operator = exec.NewMergeRuns(p.tail.outSchema(), batches, keys, bound)
	if p.limit >= 0 {
		out = &exec.Limit{In: out, N: p.limit, Offset: p.offset}
	}
	return exec.CollectCtx(tx.Context(), out)
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
	out      []*exec.Prog
	outNames []string
	having   *exec.Prog // nil = none
}

// finish stacks HAVING and the output projection on the merged aggregate.
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

func runInsert(tx *core.Txn, st *InsertStmt) (*Result, error) {
	meta, err := tx.Table(st.Table)
	if err != nil {
		return nil, err
	}
	var batch *colfile.Batch
	if st.Query != nil {
		qb, err := runSelect(tx, st.Query)
		if err != nil {
			return nil, err
		}
		if len(qb.Schema) != len(meta.Schema) {
			return nil, fmt.Errorf("sql: INSERT SELECT arity %d, table has %d columns", len(qb.Schema), len(meta.Schema))
		}
		batch = colfile.NewBatch(meta.Schema)
		for i := 0; i < qb.NumRows(); i++ {
			if err := batch.AppendRow(qb.Row(i)...); err != nil {
				return nil, err
			}
		}
	} else {
		cols := st.Columns
		if cols == nil {
			cols = make([]string, len(meta.Schema))
			for i, f := range meta.Schema {
				cols[i] = f.Name
			}
		}
		colIdx := make([]int, len(cols))
		for i, c := range cols {
			idx := meta.Schema.ColIndex(c)
			if idx < 0 {
				return nil, fmt.Errorf("sql: unknown column %q", c)
			}
			colIdx[i] = idx
		}
		batch = colfile.NewBatch(meta.Schema)
		for _, row := range st.Rows {
			if len(row) != len(cols) {
				return nil, fmt.Errorf("sql: row has %d values, expected %d", len(row), len(cols))
			}
			vals := make([]any, len(meta.Schema)) // unnamed columns are NULL
			for i, e := range row {
				lit, err := evalConst(e)
				if err != nil {
					return nil, err
				}
				vals[colIdx[i]] = lit
			}
			if err := batch.AppendRow(vals...); err != nil {
				return nil, err
			}
		}
	}
	n, err := tx.Insert(st.Table, batch)
	if err != nil {
		return nil, err
	}
	return &Result{RowsAffected: n}, nil
}

// evalConst folds a literal-only expression (VALUES rows).
func evalConst(e Expr) (any, error) {
	switch x := e.(type) {
	case Lit:
		return x.Val, nil
	case BinExpr:
		l, err := evalConst(x.L)
		if err != nil {
			return nil, err
		}
		r, err := evalConst(x.R)
		if err != nil {
			return nil, err
		}
		li, lok := l.(int64)
		ri, rok := r.(int64)
		if lok && rok {
			switch x.Op {
			case "+":
				return li + ri, nil
			case "-":
				return li - ri, nil
			case "*":
				return li * ri, nil
			case "/":
				if ri == 0 {
					return nil, errors.New("sql: division by zero")
				}
				return li / ri, nil
			}
		}
		lf, lok := toF(l)
		rf, rok := toF(r)
		if lok && rok {
			switch x.Op {
			case "+":
				return lf + rf, nil
			case "-":
				return lf - rf, nil
			case "*":
				return lf * rf, nil
			case "/":
				if rf == 0 {
					return nil, errors.New("sql: division by zero")
				}
				return lf / rf, nil
			}
		}
		return nil, fmt.Errorf("sql: VALUES expressions must be constant")
	default:
		return nil, fmt.Errorf("sql: VALUES expressions must be literals")
	}
}

func toF(v any) (float64, bool) {
	switch x := v.(type) {
	case int64:
		return float64(x), true
	case float64:
		return x, true
	}
	return 0, false
}

func runUpdate(tx *core.Txn, st *UpdateStmt) (*Result, error) {
	meta, err := tx.Table(st.Table)
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
	n, err := tx.Update(st.Table, pred, set, prunableRange(st.Where, meta, meta.Name))
	if err != nil {
		return nil, err
	}
	return &Result{RowsAffected: n}, nil
}

func runDelete(tx *core.Txn, st *DeleteStmt) (*Result, error) {
	meta, err := tx.Table(st.Table)
	if err != nil {
		return nil, err
	}
	pred, err := wherePred(st.Where, singleTableScope(meta.Schema, meta.Name))
	if err != nil {
		return nil, err
	}
	n, err := tx.Delete(st.Table, pred, prunableRange(st.Where, meta, meta.Name))
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
