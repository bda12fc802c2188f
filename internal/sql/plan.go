package sql

import (
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
// error is reported at plan time, before the statement's pipeline runs, by
// the serial, morsel and DAG paths alike.
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

// scanTable opens a table scan and returns its operator plus scope. The
// physical plan (optional) projects the scan to the referenced columns and
// pushes the relation's WHERE conjuncts into it.
func scanTable(tx *core.Txn, ref TableRef, hint *exec.PruneHint, plan *physPlan) (exec.Operator, *scope, error) {
	op, _, err := tx.Scan(ref.Name, core.ScanOptions{Columns: plan.colsFor(ref), AsOfSeq: ref.AsOfSeq, Prune: hint})
	if err != nil {
		return nil, nil, err
	}
	alias := ref.Alias
	if alias == "" {
		alias = ref.Name
	}
	schema := op.Schema()
	quals := make([]string, len(schema))
	for i := range quals {
		quals[i] = alias
	}
	sc := &scope{schema: schema, quals: quals}
	op, err = applyPushdown(op, sc, plan.pushedFor(ref))
	if err != nil {
		return nil, nil, err
	}
	return op, sc, nil
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

func runSelect(tx *core.Txn, st *SelectStmt) (*colfile.Batch, error) {
	// Cost-based physical planning: stats-driven join reordering, predicate
	// and projection pushdown. The plan rewrites the statement; everything
	// below consumes the rewritten form, so the serial and parallel paths
	// execute the same plan shape.
	plan := planSelect(tx, st)
	plan.recordWork(tx)
	st = plan.st
	meta, err := tx.Table(st.From.Name)
	if err != nil {
		return nil, err
	}
	var hint *exec.PruneHint
	if len(st.Joins) == 0 {
		// The hint is extracted from the original WHERE so conjuncts the
		// planner pushed into the scan still contribute zone-map pruning.
		hint = prunableRange(plan.where, meta, aliasOf(st.From))
	}

	// Grace-join spill context: the engine's JoinMemoryBudget plus a lazily
	// allocated query-scoped spill namespace. finish() runs after the result
	// is materialized, so spill files are deleted on success and error alike.
	spill := newJoinSpill(tx)
	defer spill.finish()

	// Statements go through the morsel-driven parallel executor when the
	// engine has a parallelism target — joins and ORDER BY included: build
	// sides are materialized into shared JoinTables once, the probe side
	// fans out over the left table's morsels, and ORDER BY sorts per-morsel
	// runs that a k-way merge combines (with top-N pushdown under LIMIT).
	// The exception is bare LIMIT queries (no ORDER BY, no aggregation),
	// where the serial streaming path stops scanning after N rows while the
	// parallel path would materialize every morsel first.
	if tx.Parallelism() > 1 && !bareLimitSelect(st) {
		var (
			b       *colfile.Batch
			handled bool
		)
		if tx.DistributedQueries() {
			// Distributed execution: the same plan is lowered onto DCP task
			// DAGs with object-store exchange between stages (docs/
			// DCP-QUERIES.md). Byte-identical to the morsel path by
			// construction — both share the morsel decomposition and the
			// merge operators.
			b, handled, err = runSelectDAG(tx, plan, meta, hint, spill)
		} else {
			b, handled, err = runSelectParallel(tx, plan, meta, hint, spill)
		}
		if handled {
			return b, err
		}
	}

	op, sc, err := scanTable(tx, st.From, hint, plan)
	if err != nil {
		return nil, err
	}

	// Joins: hash equi-joins extracted from the ON conjunction. Each build
	// side is drained eagerly under the join memory budget: while it fits,
	// the probe streams against an in-memory JoinTable exactly as before; a
	// build that overflows grace-spills and the probe joins partition-wise
	// (byte-identical output either way).
	for _, j := range st.Joins {
		bj, jsc, err := bindJoin(tx, j, sc, plan)
		if err != nil {
			return nil, err
		}
		src, err := exec.BuildGraceJoin(bj.right, bj.rightKeys, bj.typ, tx.Parallelism(), spill.config(bj), nil)
		if err != nil {
			return nil, err
		}
		spill.track(src)
		if src.Spilled != nil {
			// The spilled path carries its own runtime filter, accumulated
			// while the build drained; joinSpill.finish folds its pruned-row
			// count into WorkStats.
			op = &exec.SpilledProbe{In: op, Join: src.Spilled, LeftKeys: bj.leftKeys}
		} else {
			pr := &exec.Probe{In: op, Table: src.Table, LeftKeys: bj.leftKeys}
			if bj.typ != exec.LeftOuterJoin {
				pr.Bloom = src.Table.BloomFilter()
				pr.Pruned = &tx.Work().RuntimeFilterRows
			}
			op = pr
		}
		sc = jsc
	}

	tail, err := compileTail(st, sc)
	if err != nil {
		return nil, err
	}
	op = tail.filter(op, nil)
	if tail.agg != nil {
		op = tail.agg.finish(&exec.HashAgg{In: op, GroupBy: tail.agg.groupBy, Aggs: tail.agg.aggs})
	} else {
		op = &exec.Project{In: op, Exprs: tail.proj, Names: tail.names}
	}
	return finishSelect(st, op)
}

// selectTail is the compiled part of a SELECT downstream of its joins: the
// residual WHERE, then either the aggregation or the plain projection. It is
// compiled once per statement against the post-join scope and consumed by the
// serial tail, the morsel path and the DAG path; the Progs are immutable, so
// per-morsel operator instances share them.
type selectTail struct {
	where *exec.Prog // nil = none
	agg   *aggPlan   // nil = plain projection
	proj  []*exec.Prog
	names []string
}

func compileTail(st *SelectStmt, sc *scope) (*selectTail, error) {
	t := &selectTail{}
	var err error
	if st.Where != nil {
		if t.where, err = compile(st.Where, sc); err != nil {
			return nil, err
		}
	}
	if selectHasAgg(st) {
		t.agg, err = buildAggPlan(st, sc)
	} else {
		t.proj, t.names, err = buildProjection(st, sc)
	}
	if err != nil {
		return nil, err
	}
	return t, nil
}

// filter stacks the residual WHERE, if any, on a plan fragment.
func (t *selectTail) filter(op exec.Operator, tel *exec.Telemetry) exec.Operator {
	if t.where == nil {
		return op
	}
	return &exec.Filter{In: op, Pred: t.where, Tel: tel}
}

// bareLimitSelect reports a bare LIMIT query (no ORDER BY, no aggregation):
// the serial streaming path stops scanning after N rows, while a parallel
// executor would materialize every morsel first — so these stay serial.
func bareLimitSelect(st *SelectStmt) bool {
	return st.Limit >= 0 && len(st.OrderBy) == 0 && !selectHasAgg(st)
}

// selectHasAgg reports whether the statement needs an aggregation stage.
func selectHasAgg(st *SelectStmt) bool {
	if len(st.GroupBy) > 0 || st.Having != nil {
		return true
	}
	for _, it := range st.Items {
		if containsAgg(it.Expr) {
			return true
		}
	}
	return false
}

// finishSelect applies ORDER BY and LIMIT and materializes the result.
func finishSelect(st *SelectStmt, outOp exec.Operator) (*colfile.Batch, error) {
	if len(st.OrderBy) > 0 {
		keys, err := orderKeys(st, outOp.Schema())
		if err != nil {
			return nil, err
		}
		outOp = &exec.Sort{In: outOp, Keys: keys}
	}
	if st.Limit >= 0 {
		outOp = &exec.Limit{In: outOp, N: st.Limit, Offset: st.Offset}
	}
	return exec.Collect(outOp)
}

// morselsPerWorker over-decomposes the scan so the morsel queue
// load-balances across workers with uneven morsel costs.
const morselsPerWorker = 4

// boundJoin is one join clause's planning product: the build-side operator,
// the resolved key columns and the join type. Both the serial and parallel
// paths drain it through BuildGraceJoin, so their join semantics (and the
// spill decision) cannot drift apart. distAligned marks a join whose key
// covers the build table's distribution column, letting a spilling build
// reuse the table's cell boundaries as partition seams.
type boundJoin struct {
	right               exec.Operator
	leftKeys, rightKeys []int
	typ                 exec.JoinType
	distAligned         bool
}

// bindJoin opens the join's right table, resolves the equi-join keys against
// the current scope, and returns the binding plus the joined output scope.
func bindJoin(tx *core.Txn, j JoinClause, sc *scope, plan *physPlan) (*boundJoin, *scope, error) {
	rop, rsc, err := scanTable(tx, j.Table, nil, plan)
	if err != nil {
		return nil, nil, err
	}
	rmeta, err := tx.Table(j.Table.Name)
	if err != nil {
		return nil, nil, err
	}
	lk, rk, err := equiKeys(j.On, sc, rsc)
	if err != nil {
		return nil, nil, err
	}
	typ := exec.InnerJoin
	if j.Left {
		typ = exec.LeftOuterJoin
	}
	joined := &scope{
		schema: append(append(colfile.Schema{}, sc.schema...), rsc.schema...),
		quals:  append(append([]string{}, sc.quals...), rsc.quals...),
	}
	distAligned := len(rk) == 1 && rmeta.DistributionCol != "" &&
		strings.EqualFold(rsc.schema[rk[0]].Name, rmeta.DistributionCol)
	return &boundJoin{right: rop, leftKeys: lk, rightKeys: rk, typ: typ, distAligned: distAligned}, joined, nil
}

// joinSpill carries one statement's grace-join spill state: the engine's
// build-side memory budget, the per-build spill namespaces, and the spilled
// builds to account for. Each build gets its own namespace — two spilling
// joins in one statement write identical relative partition paths, so
// sharing a namespace would let the second build overwrite the first's
// files. It exists per statement so finish() can delete the namespaces
// exactly when the result is materialized.
type joinSpill struct {
	tx      *core.Txn
	budget  int64
	pending *objectstore.SpillDir // namespace handed to the build in flight
	dirs    []*objectstore.SpillDir
	spilled []*exec.SpilledJoin
}

func newJoinSpill(tx *core.Txn) *joinSpill {
	return &joinSpill{tx: tx, budget: tx.JoinMemoryBudget()}
}

// config assembles the spill configuration for one join build: the budget, a
// namespace of its own, and — when the join key covers the build table's
// distribution column — a d(r) partitioner, so spill partitions coincide
// with the table's storage cells. Namespace creation is pure bookkeeping (no
// store IO); only builds that actually spill retain theirs (note), so the
// no-spill path never pays a cleanup round trip.
func (s *joinSpill) config(bj *boundJoin) exec.SpillConfig {
	cfg := exec.SpillConfig{Budget: s.budget}
	if s.budget <= 0 {
		return cfg
	}
	s.pending = s.tx.NewSpillDir()
	cfg.Store = s.pending
	if bj.distAligned {
		fanout := s.tx.Distributions()
		cfg.Fanout = fanout
		cfg.Partition = func(b *colfile.Batch, keyCols []int, row int, _ []byte) int {
			v := b.Cols[keyCols[0]]
			if v.IsNull(row) {
				return 0
			}
			return core.DistHash(v.Value(row), fanout)
		}
	}
	return cfg
}

// track resolves the pending namespace after a build completes: a spilled
// build is recorded in the engine-wide work counters (plan choice is
// deterministic for a given snapshot and budget, so tests assert on it) and
// its namespace kept for cleanup; an in-memory build wrote nothing, so its
// namespace is simply dropped — no cleanup round trip on the no-spill path.
func (s *joinSpill) track(src *exec.JoinSource) {
	if src.Spilled != nil {
		s.spilled = append(s.spilled, src.Spilled)
		s.dirs = append(s.dirs, s.pending)
		s.tx.Work().JoinSpills.Add(1)
	}
	s.pending = nil
}

// hold retains the pending namespace for end-of-statement cleanup without
// waiting for a build outcome. The DAG path allocates every join's spill
// namespace at graph-build time — the builds themselves run later, inside
// DCP tasks, possibly more than once under retry — so the namespaces must
// be on the cleanup list before the graph runs. Cleanup of a namespace that
// never spilled is a cheap empty listing.
func (s *joinSpill) hold() {
	if s.pending != nil {
		s.dirs = append(s.dirs, s.pending)
		s.pending = nil
	}
}

// trackDAG records a DAG build task's outcome in the work counters. Unlike
// track, it does not manage namespaces (hold already did) and tolerates nil
// (a run that failed before the build completed).
func (s *joinSpill) trackDAG(src *exec.JoinSource) {
	if src != nil && src.Spilled != nil {
		s.spilled = append(s.spilled, src.Spilled)
		s.tx.Work().JoinSpills.Add(1)
	}
}

// finish adds the spill accounting — bytes durably written (sj.SpillBytes
// counts successful puts only, so a build that errored mid-spill contributes
// exactly what reached the store) and partition-wise join tasks — and deletes
// the query's spill namespaces, including a still-pending one, which means
// the build errored mid-spill and may have partition files on disk already.
// Cleanup is best effort (errors leave orphans confined to the spill/
// namespace, outside GC's and the publishers' prefixes).
func (s *joinSpill) finish() {
	for _, sj := range s.spilled {
		s.tx.Work().JoinSpillBytes.Add(sj.SpillBytes())
		s.tx.Work().JoinSpillPartitions.Add(sj.PartitionsJoined())
		s.tx.Work().RuntimeFilterRows.Add(sj.BloomPrunedRows())
	}
	if s.pending != nil {
		_ = s.pending.Cleanup()
	}
	for _, dir := range s.dirs {
		_ = dir.Cleanup()
	}
}

// probeStage is one planned join stage of a parallel SELECT: an in-memory
// JoinTable shared by per-morsel Probe operators, or a spilled build joined
// partition-wise.
type probeStage struct {
	src      *exec.JoinSource
	leftKeys []int
	typ      exec.JoinType
	// bloom is the stage's runtime filter, derived once from the completed
	// in-memory build and shared read-only by every probe worker (nil for
	// LEFT OUTER, where probe rows survive regardless).
	bloom *exec.Bloom
}

// runSpilledJoinStages executes a parallel SELECT's join pipeline when at
// least one build spilled: the probe-side scan is materialized per morsel,
// then each stage transforms the per-morsel batches in order — in-memory
// stages probe every batch in parallel against the shared JoinTable, spilled
// stages fan the partition-wise grace join over the same leased worker pool,
// one depth-0 partition per task with the nested build parallelism capped
// (whose per-morsel outputs are byte-identical to in-memory probes of the
// same batches). Morsel order, and with it the downstream determinism
// contract, is preserved throughout.
func runSpilledJoinStages(tx *core.Txn, ms *core.MorselScan, dop int, stages []probeStage, hint *exec.PruneHint, base *baseScanPlan) ([]*colfile.Batch, error) {
	cur, err := exec.RunMorsels(ms.Morsels, dop, func(m exec.Morsel) (exec.Operator, error) {
		return base.fragment(m, ms, hint)
	})
	if err != nil {
		return nil, err
	}
	leftSchema := base.schema
	for _, ps := range stages {
		if ps.src.Table != nil {
			table, keys, bloom := ps.src.Table, ps.leftKeys, ps.bloom
			pruned := &tx.Work().RuntimeFilterRows
			cur, err = exec.RunBatches(cur, dop, func(_ int, b *colfile.Batch) (exec.Operator, error) {
				return &exec.Probe{In: exec.NewBatchSource(b), Table: table, LeftKeys: keys, Tel: ms.Tel,
					Bloom: bloom, Pruned: pruned}, nil
			})
		} else {
			cur, err = ps.src.Spilled.JoinBatches(cur, ps.leftKeys, leftSchema, dop)
		}
		if err != nil {
			return nil, err
		}
		if ps.typ != exec.SemiJoin {
			leftSchema = append(append(colfile.Schema{}, leftSchema...), ps.src.BuildSchema()...)
		}
	}
	return cur, nil
}

// baseScanPlan is the parallel path's per-morsel scan recipe for the probe
// base: the projected columns, the resulting scan schema, and the pushed
// predicate (compiled once per statement, shared read-only by the morsel
// workers — each scan owns its EvalCtx).
type baseScanPlan struct {
	cols   []string
	schema colfile.Schema // projected scan output schema
	pred   *exec.Prog     // pushed conjunction (nil = none)
}

// newBaseScanPlan resolves the physical plan's projection and pushdown
// decisions for the probe base against a morsel scan's full table schema.
func newBaseScanPlan(plan *physPlan, ref TableRef, ms *core.MorselScan) (*baseScanPlan, error) {
	b := &baseScanPlan{cols: plan.colsFor(ref), schema: ms.Schema}
	if b.cols != nil {
		proj := make(colfile.Schema, len(b.cols))
		for i, name := range b.cols {
			idx := ms.Schema.ColIndex(name)
			if idx < 0 {
				return nil, fmt.Errorf("sql: unknown column %q", name)
			}
			proj[i] = ms.Schema[idx]
		}
		b.schema = proj
	}
	if conj := plan.pushedFor(ref); len(conj) > 0 {
		var err error
		if b.pred, err = compile(andFold(conj), singleTableScope(b.schema, aliasOf(ref))); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// fragment opens one morsel's scan with the plan's projection and pushed
// predicate applied. Rows a pushed predicate rejects are dropped inside the
// scan, before unreferenced columns are even decoded.
func (b *baseScanPlan) fragment(m exec.Morsel, ms *core.MorselScan, hint *exec.PruneHint) (exec.Operator, error) {
	s, err := exec.NewMorselScan(m, b.cols, hint, ms.Tel)
	if err != nil {
		return nil, err
	}
	if err := s.SetSchema(ms.Schema); err != nil {
		return nil, err
	}
	if b.pred != nil && !s.PushPredicate(b.pred) {
		return &exec.Filter{In: s, Pred: b.pred, Tel: ms.Tel}, nil
	}
	return s, nil
}

// groupByCoversDistCol reports whether a GROUP BY item names the table's
// distribution column (unqualified or qualified with the table alias). When
// it does, every group lives entirely inside one distribution cell — rows
// sharing a distribution-column value (NULLs included) are assigned to one
// cell by d(r) — so cell-aligned per-morsel partials need no merge.
func groupByCoversDistCol(st *SelectStmt, distCol, alias string) bool {
	if distCol == "" {
		return false
	}
	for _, g := range st.GroupBy {
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

// runSelectParallel executes a SELECT on the morsel-driven parallel
// executor: the left (probe-side) scan is split into morsels, a worker pool
// sized by the fabric's slot lease runs scan→[probe…]→filter→project (or
// →partial aggregation, or →sorted run) per morsel, and a deterministic
// merge — ordered concatenation for projections and joins, key-ordered
// MergeAgg for aggregates, loser-tree MergeRuns for ORDER BY — combines the
// per-morsel outputs. Join build sides are materialized once into immutable
// JoinTables shared by every probe worker.
// When the GROUP BY key set covers the table's distribution column, morsels
// are cell-aligned and the merge degenerates to concatenation (merge-free
// distribution-aware aggregation, counted in WorkStats.MergeFreeAggs).
// When concurrent queries hold the fabric's slots the lease degrades the
// worker count (possibly to 1) but the plan shape — and therefore the
// output order — stays the same for a given Parallelism config. Returns
// handled=false only for an empty table, which falls back to the serial
// path.
// Join build sides are drained under the join memory budget: a build that
// overflows grace-spills both sides to the query's spill namespace and the
// join runs partition-wise, producing per-morsel outputs byte-identical to
// the in-memory probes', so everything downstream of the join stages is
// unchanged.
func runSelectParallel(tx *core.Txn, plan *physPlan, meta catalog.TableMeta, hint *exec.PruneHint, spill *joinSpill) (*colfile.Batch, bool, error) {
	st := plan.st
	dop, release := tx.LeaseDOP(tx.Parallelism())
	defer release()
	alias := aliasOf(st.From)
	// Distribution-aware aggregation: cell-aligned morsels make per-morsel
	// partials complete, so MergeAgg can skip the merge. The cell split is
	// DOP-independent, so results stay identical at every parallelism.
	mergeFree := len(st.Joins) == 0 && len(st.GroupBy) > 0 && selectHasAgg(st) &&
		groupByCoversDistCol(st, meta.DistributionCol, alias)

	// The morsel split is sized from the CONFIGURED parallelism, not the
	// granted one: the lease only caps live workers, so the decomposition —
	// and with it float-aggregation order — cannot shift under slot
	// contention.
	var ms *core.MorselScan
	var err error
	if mergeFree {
		ms, err = tx.ScanCellMorsels(st.From.Name, st.From.AsOfSeq)
	} else {
		ms, err = tx.ScanMorsels(st.From.Name, st.From.AsOfSeq, tx.Parallelism()*morselsPerWorker)
	}
	if err != nil {
		return nil, true, err
	}
	if len(ms.Morsels) == 0 {
		return nil, false, nil // empty table: serial path supplies the schema
	}

	base, err := newBaseScanPlan(plan, st.From, ms)
	if err != nil {
		return nil, true, err
	}
	sc := singleTableScope(base.schema, alias)

	// Joins: drain each right side once under the join memory budget —
	// into an immutable shared JoinTable while it fits (the build itself is
	// partition-parallel), or into spill partitions when it overflows —
	// extending the scope as the serial planner would.
	var stages []probeStage
	anySpilled := false
	for _, j := range st.Joins {
		bj, jsc, err := bindJoin(tx, j, sc, plan)
		if err != nil {
			return nil, true, err
		}
		src, err := exec.BuildGraceJoin(bj.right, bj.rightKeys, bj.typ, tx.Parallelism(), spill.config(bj), ms.Tel)
		if err != nil {
			return nil, true, err
		}
		spill.track(src)
		if src.Spilled != nil {
			anySpilled = true
		}
		ps := probeStage{src: src, leftKeys: bj.leftKeys, typ: bj.typ}
		if src.Table != nil && bj.typ != exec.LeftOuterJoin {
			ps.bloom = src.Table.BloomFilter()
		}
		stages = append(stages, ps)
		sc = jsc
	}

	tail, err := compileTail(st, sc)
	if err != nil {
		return nil, true, err
	}
	// runFragments fans the embarrassingly parallel tail of the plan out
	// over the workers and returns per-morsel batches in morsel order. In
	// the streaming shape (no spilled build) each worker runs
	// scan→[probe…]→filter→suffix per morsel: compiled programs and
	// JoinTables are stateless/immutable values, safe to share across
	// workers; each Probe instance owns its scratch buffers; the telemetry
	// sink is atomic. When a build spilled, the join stages have already
	// materialized per-morsel batches (runSpilledJoinStages) and each worker
	// runs filter→suffix over its batch — the batches are byte-wise what the
	// streaming probes would have produced, so the downstream plan and its
	// determinism are unchanged.
	var runFragments func(suffix func(exec.Operator) (exec.Operator, error)) ([]*colfile.Batch, error)
	if !anySpilled {
		pruned := &tx.Work().RuntimeFilterRows
		fragment := func(m exec.Morsel) (exec.Operator, error) {
			op, err := base.fragment(m, ms, hint)
			if err != nil {
				return nil, err
			}
			for _, ps := range stages {
				op = &exec.Probe{In: op, Table: ps.src.Table, LeftKeys: ps.leftKeys, Tel: ms.Tel,
					Bloom: ps.bloom, Pruned: pruned}
			}
			return tail.filter(op, ms.Tel), nil
		}
		runFragments = func(suffix func(exec.Operator) (exec.Operator, error)) ([]*colfile.Batch, error) {
			return exec.RunMorsels(ms.Morsels, dop, func(m exec.Morsel) (exec.Operator, error) {
				op, err := fragment(m)
				if err != nil {
					return nil, err
				}
				return suffix(op)
			})
		}
	} else {
		joined, err := runSpilledJoinStages(tx, ms, dop, stages, hint, base)
		if err != nil {
			return nil, true, err
		}
		runFragments = func(suffix func(exec.Operator) (exec.Operator, error)) ([]*colfile.Batch, error) {
			return exec.RunBatches(joined, dop, func(_ int, b *colfile.Batch) (exec.Operator, error) {
				return suffix(tail.filter(exec.NewBatchSource(b), ms.Tel))
			})
		}
	}
	return finishParallelSelect(tx, st, tail, ms.Tel, mergeFree, runFragments)
}

// finishParallelSelect runs the merge tail of a parallel SELECT: it drives
// runFragments with the plan's per-fragment suffix (partial aggregation,
// projection, or sorted runs) and combines the per-morsel batches with the
// deterministic merge operators. Shared by the morsel-pool and DCP-DAG
// executors — runFragments abstracts where the fragments ran, so the two
// paths cannot drift apart downstream of the fragment boundary.
func finishParallelSelect(tx *core.Txn, st *SelectStmt, tail *selectTail, tel *exec.Telemetry, mergeFree bool,
	runFragments func(func(exec.Operator) (exec.Operator, error)) ([]*colfile.Batch, error)) (*colfile.Batch, bool, error) {
	var outOp exec.Operator
	if ap := tail.agg; ap != nil {
		// ORDER BY over an aggregate stays on the serial Sort: the merged
		// aggregate is already materialized on the FE, one group per row, so
		// there is nothing left to fan out.
		partial := func(op exec.Operator) *exec.HashAgg {
			return &exec.HashAgg{In: op, GroupBy: ap.groupBy, Aggs: ap.aggs, Partial: true}
		}
		batches, err := runFragments(func(op exec.Operator) (exec.Operator, error) {
			return partial(op), nil
		})
		if err != nil {
			return nil, true, err
		}
		if mergeFree {
			tx.Work().MergeFreeAggs.Add(1)
		}
		outOp = ap.finish(&exec.MergeAgg{
			// the partial layout is a function of the programs alone
			In:     exec.NewBatchList(partial(nil).Schema(), batches),
			Groups: len(ap.groupBy), Aggs: ap.aggs, MergeFree: mergeFree, Tel: tel,
		})
	} else {
		project := func(op exec.Operator) exec.Operator {
			return &exec.Project{In: op, Exprs: tail.proj, Names: tail.names}
		}
		outSchema := project(nil).Schema()
		if len(st.OrderBy) > 0 {
			b, err := runParallelOrderBy(tx, st, runFragments, tel, project, outSchema)
			return b, true, err
		}
		batches, err := runFragments(func(op exec.Operator) (exec.Operator, error) {
			return project(op), nil
		})
		if err != nil {
			return nil, true, err
		}
		outOp = exec.NewBatchList(outSchema, batches)
	}

	b, err := finishSelect(st, outOp)
	return b, true, err
}

// runParallelOrderBy executes a projection's ORDER BY [LIMIT/OFFSET] on the
// morsel executor instead of a monolithic FE sort: every worker sorts its
// morsel's projected rows into a tie-stable run (SortRuns), and the FE k-way
// merges the runs over a loser tree with the lowest morsel index winning
// ties — byte-identical to the serial stable sort at every DOP, NULL
// ordering and DESC keys included. When a LIMIT bounds the output, each
// worker instead keeps only its LIMIT+OFFSET smallest rows (TopN pushdown,
// the paper's distributed top-N shape, counted in WorkStats.TopNPushdowns)
// and the merge cuts off after LIMIT+OFFSET rows, so neither the workers nor
// the FE ever materialize the full sorted result.
func runParallelOrderBy(tx *core.Txn, st *SelectStmt,
	runFragments func(func(exec.Operator) (exec.Operator, error)) ([]*colfile.Batch, error),
	tel *exec.Telemetry, project func(exec.Operator) exec.Operator,
	outSchema colfile.Schema) (*colfile.Batch, error) {
	keys, err := orderKeys(st, outSchema)
	if err != nil {
		return nil, err
	}
	bound := int64(-1) // rows each worker must ship; -1 = all (full sort)
	if st.Limit >= 0 {
		bound = st.Limit + st.Offset
	}
	batches, err := runFragments(func(op exec.Operator) (exec.Operator, error) {
		op = project(op)
		if bound >= 0 {
			return &exec.TopN{In: op, Keys: keys, N: bound, Tel: tel}, nil
		}
		return &exec.SortRuns{In: op, Keys: keys, Tel: tel}, nil
	})
	if err != nil {
		return nil, err
	}
	if bound >= 0 {
		tx.Work().TopNPushdowns.Add(1)
	}
	var out exec.Operator = exec.NewMergeRuns(outSchema, batches, keys, bound)
	if st.Limit >= 0 {
		out = &exec.Limit{In: out, N: st.Limit, Offset: st.Offset}
	}
	return exec.Collect(out)
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
// relating one left-scope column to one right-scope column.
func equiKeys(on Expr, left, right *scope) (lk, rk []int, err error) {
	var conjuncts []Expr
	var split func(e Expr)
	split = func(e Expr) {
		if b, ok := e.(BinExpr); ok && b.Op == "AND" {
			split(b.L)
			split(b.R)
			return
		}
		conjuncts = append(conjuncts, e)
	}
	split(on)
	for _, c := range conjuncts {
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
	return lk, rk, nil
}

// buildProjection compiles the SELECT items to output programs and names.
func buildProjection(st *SelectStmt, sc *scope) ([]*exec.Prog, []string, error) {
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
	for _, it := range st.Items {
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
// argument programs over the input scope for the (serial or partial/merge)
// aggregation stage, plus the post-aggregation projection and HAVING
// predicate, compiled over the aggregate's output schema.
type aggPlan struct {
	groupBy  []*exec.Prog
	aggs     []exec.AggSpec
	out      []*exec.Prog
	outNames []string
	having   *exec.Prog // nil = none
}

// finish stacks HAVING and the output projection on the final aggregate (a
// serial HashAgg or the parallel paths' MergeAgg — same output schema).
func (ap *aggPlan) finish(agg exec.Operator) exec.Operator {
	if ap.having != nil {
		agg = &exec.Filter{In: agg, Pred: ap.having}
	}
	return &exec.Project{In: agg, Exprs: ap.out, Names: ap.outNames}
}

// buildAggPlan compiles an aggregate query's pieces: group keys and aggregate
// arguments against the input scope, then the item and HAVING expressions —
// rewritten over [groups..., aggs...] — against the aggregate's output.
func buildAggPlan(st *SelectStmt, sc *scope) (*aggPlan, error) {
	ap := &aggPlan{groupBy: make([]*exec.Prog, len(st.GroupBy))}
	for i, g := range st.GroupBy {
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
		ap.aggs = append(ap.aggs, exec.AggSpec{Kind: kind, Arg: arg, Name: key})
		aggIndex[key] = len(ap.aggs) - 1
		return len(ap.aggs) - 1, nil
	}

	// replaceAgg rewrites an item expression into a post-aggregation
	// expression over [groups..., aggs...].
	var replaceAgg func(e Expr) (Expr, error)
	replaceAgg = func(e Expr) (Expr, error) {
		// An item expression structurally equal to a GROUP BY expression maps
		// to that group column (e.g. GROUP BY d/30 ... SELECT d/30).
		for i, g := range st.GroupBy {
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
			return slotRef{idx: len(st.GroupBy) + slot, name: ap.aggs[slot].Name}, nil
		case ColName:
			// must match a GROUP BY expression
			for i, g := range st.GroupBy {
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

	items := make([]Expr, len(st.Items))
	for i, it := range st.Items {
		if it.Star {
			return nil, errors.New("sql: SELECT * with GROUP BY is not supported")
		}
		e, err := replaceAgg(it.Expr)
		if err != nil {
			return nil, err
		}
		items[i] = e
		ap.outNames = append(ap.outNames, itemName(it))
	}
	var having Expr
	if st.Having != nil {
		var err error
		if having, err = replaceAgg(st.Having); err != nil {
			return nil, err
		}
	}

	// Every aggregate is registered now, so the aggregate's output schema is
	// known; it is a function of the compiled programs alone.
	asc := &scope{schema: (&exec.HashAgg{GroupBy: ap.groupBy, Aggs: ap.aggs}).Schema()}
	for _, e := range items {
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

// orderKeys resolves ORDER BY items against the output schema by alias/name.
func orderKeys(st *SelectStmt, schema colfile.Schema) ([]exec.SortKey, error) {
	var keys []exec.SortKey
	for _, o := range st.OrderBy {
		c, ok := o.Expr.(ColName)
		if !ok {
			if l, isLit := o.Expr.(Lit); isLit {
				if pos, isInt := l.Val.(int64); isInt && pos >= 1 && int(pos) <= len(schema) {
					keys = append(keys, exec.SortKey{Col: int(pos - 1), Desc: o.Desc})
					continue
				}
			}
			return nil, errors.New("sql: ORDER BY supports output columns or positions")
		}
		idx := -1
		for i, f := range schema {
			if strings.EqualFold(f.Name, c.Name) {
				idx = i
				break
			}
		}
		if idx < 0 {
			return nil, fmt.Errorf("sql: ORDER BY column %q not in output", c.Name)
		}
		keys = append(keys, exec.SortKey{Col: idx, Desc: o.Desc})
	}
	return keys, nil
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
	sc := tableScope(meta)
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
	n, err := tx.Update(st.Table, pred, set)
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
	pred, err := wherePred(st.Where, tableScope(meta))
	if err != nil {
		return nil, err
	}
	n, err := tx.Delete(st.Table, pred)
	if err != nil {
		return nil, err
	}
	return &Result{RowsAffected: n}, nil
}

func tableScope(meta catalog.TableMeta) *scope {
	quals := make([]string, len(meta.Schema))
	for i := range quals {
		quals[i] = meta.Name
	}
	return &scope{schema: meta.Schema, quals: quals}
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
