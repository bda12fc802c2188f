package sql

// The plan of a SELECT is one value. planSelect resolves the statement's
// relations, makes the cost-based decisions (join order and build sides, scan
// pushdown and projection), binds the joins and compiles every expression —
// or fails with the statement's plan-time error. EXPLAIN renders the value it
// returns (explain.go) and runSelect opens and executes that same value
// (plan.go, dag.go), so the two cannot disagree. The pipeline shape is fixed
// — scan → joins* → filter → aggregate|project → sort → limit — so the plan
// is a flat struct, and a relation is addressed by its position in it: 0 is
// the probe base, j+1 the build side of join j.

import (
	"errors"
	"fmt"
	"slices"
	"strings"

	"polaris/internal/catalog"
	"polaris/internal/colfile"
	"polaris/internal/core"
	"polaris/internal/exec"
	"polaris/internal/manifest"
)

// relation is one base table of a SELECT: what the planner decided about its
// scan, and what the executor needs to run it.
type relation struct {
	ref   TableRef
	meta  catalog.TableMeta
	state *manifest.TableState // the snapshot the statement reads, resolved once
	pos   int                  // syntactic position: 0 = FROM, i+1 = Joins[i]
	est   float64              // estimated scan output rows after local conjuncts

	cols   []string       // projected scan columns (nil = all)
	schema colfile.Schema // scan output schema
	pushed Expr           // WHERE conjunction the scan evaluates, as written (nil = none)
	pred   *exec.Prog     // the same conjunction compiled over schema, shared read-only by the workers; its ranges prune row groups

	ms *core.MorselScan // the fetched morsels: set by open, nil under EXPLAIN
}

// planJoin is one join in execution order: the build relation, the key
// columns and the join type. Only the operators are opened by the stage
// runner — on the DAG inside the build task, freshly per attempt, so a retry
// re-drains a new stream instead of resuming a half-consumed one.
type planJoin struct {
	build               *relation
	on                  Expr
	leftKeys, rightKeys []int
	typ                 exec.JoinType
	leftSchema          colfile.Schema // the probe side entering this stage
	cols                []int          // the columns the probe gathers (exec.Probe.Cols; nil = all)
	coded               []int          // output positions the probe gathers dictionary-coded (exec.Probe.Coded) when it runs in the last segment
	reordered           bool           // cost-based reordering moved this build from its syntactic slot

	cfg exec.SpillConfig // budget and spill namespace: set by open
}

// selectPlan is a planned SELECT: the probe base, the joins in execution
// order, the compiled tail, and the statement's remaining clauses as written
// (EXPLAIN prints them; the merge tail reads the sort keys and the limit).
type selectPlan struct {
	base  *relation
	joins []*planJoin
	tail  *selectTail

	where    Expr // residual WHERE: what no scan evaluates
	items    []SelectItem
	groupBy  []Expr
	having   Expr
	orderBy  []OrderItem
	sortKeys []exec.SortKey // orderBy resolved against the output columns
	limit    int64          // -1 = none
	offset   int64

	// dag: the stages run as a DCP task DAG rather than on the in-process
	// morsel pool — Options.DistributedQueries, except for a bare LIMIT (see
	// SelectStmt.BareLimit). EXPLAIN renders it as [dag] on the base scan.
	dag bool

	pushedCount int64 // WHERE conjuncts moved into scans
}

// planSelect plans one SELECT against the transaction's snapshot.
func planSelect(tx *core.Txn, st *SelectStmt) (*selectPlan, error) {
	rels, err := resolveRelations(tx, st)
	if err != nil {
		return nil, err
	}
	if err := rels.checkExposedNames(); err != nil {
		return nil, err
	}
	p := &selectPlan{
		items: st.Items, groupBy: st.GroupBy, having: st.Having,
		orderBy: st.OrderBy, limit: st.Limit, offset: st.Offset,
		dag: tx.DistributedQueries() && !st.BareLimit(),
	}

	// Cost-based decisions.
	order, ons := rels, make([]Expr, len(st.Joins))
	for i, j := range st.Joins {
		ons[i] = j.On
	}
	conjuncts := splitAnd(st.Where)
	owners := make([]*relation, len(conjuncts)) // the relation whose scan evaluates conjunct i; nil = the residual WHERE
	rels.estimate(conjuncts)
	if o, e := rels.reorderJoins(st); o != nil {
		order, ons = o, e
		p.items = rels.expandStar(st.Items)
	}
	rels.chooseProjection(st)
	rels.choosePushdown(st, conjuncts, owners, order[0])

	// Bind and compile in execution order.
	p.base = order[0]
	// What no scan takes stays in the post-join Filter, in WHERE order.
	p.where = st.Where
	if slices.ContainsFunc(owners, func(r *relation) bool { return r != nil }) {
		var rest []Expr
		for i, c := range conjuncts {
			if owners[i] == nil {
				rest = append(rest, c)
			}
		}
		p.where = andFold(rest)
	}
	later := p.laterRefs(ons)
	sc := singleTableScope(p.base.schema, aliasOf(p.base.ref))
	if err := p.push(p.base, conjuncts, owners, sc); err != nil {
		return nil, err
	}
	for i, build := range order[1:] {
		rsc := singleTableScope(build.schema, aliasOf(build.ref))
		if err := p.push(build, conjuncts, owners, rsc); err != nil {
			return nil, err
		}
		lk, rk, err := equiKeys(ons[i], sc, rsc)
		if err != nil {
			return nil, err
		}
		typ := exec.InnerJoin
		if st.Joins[i].Left { // only all-inner statements are reordered, so slot i's flag holds either way
			typ = exec.LeftOuterJoin
		}
		j := &planJoin{
			build: build, on: ons[i], leftKeys: lk, rightKeys: rk, typ: typ,
			leftSchema: sc.schema,
			reordered:  build.pos != i+1,
		}
		sc = &scope{
			schema: append(append(colfile.Schema{}, sc.schema...), rsc.schema...),
			quals:  append(append([]string{}, sc.quals...), rsc.quals...),
		}
		// Late materialization: the probe gathers only what is read after
		// it, and everything after it binds against that narrower scope.
		if later != nil {
			j.cols = sc.live(later[i])
			sc = sc.pick(j.cols)
		}
		p.joins = append(p.joins, j)
	}
	if p.tail, err = compileTail(p, sc); err != nil {
		return nil, err
	}
	p.codeGroupKeys(sc, ons)
	if p.sortKeys, err = orderKeys(p.orderBy, p.items, sc, p.tail.outSchema()); err != nil {
		return nil, err
	}
	return p, nil
}

// codeGroupKeys lists, for each join, the build-side String columns its
// probe gathers dictionary-coded (exec.Probe.Coded): those an aggregation
// groups by as a bare column and that nothing else reads before it — no
// residual WHERE, ON condition, aggregate argument or other expression — so
// the only reader of the coded column is the group key. Items, HAVING and
// ORDER BY read the aggregate's output, but one that names the column inside
// an expression keeps it plain too, to stay on the safe side. A column is
// traced back from sc, the scope after the last join, through the joins after
// the one whose build it comes from. A key of the base scan, or one computed
// from a column, is interned per row instead.
func (p *selectPlan) codeGroupKeys(sc *scope, ons []Expr) {
	if p.tail.agg == nil {
		return
	}
	read := make([]bool, len(sc.schema)) // read other than as a bare column
	note := func(e Expr) {
		walkCols(e, func(c ColName) {
			for f := range sc.schema {
				if strings.EqualFold(sc.schema[f].Name, c.Name) && (c.Table == "" || strings.EqualFold(sc.quals[f], c.Table)) {
					read[f] = true
				}
			}
		})
	}
	if p.where != nil {
		note(p.where)
	}
	if p.having != nil {
		note(p.having)
	}
	for _, on := range ons {
		note(on)
	}
	for _, it := range p.items {
		if _, bare := it.Expr.(ColName); !bare && it.Expr != nil {
			note(it.Expr)
		}
	}
	for _, o := range p.orderBy {
		if _, bare := o.Expr.(ColName); !bare {
			note(o.Expr)
		}
	}
	for _, g := range p.groupBy {
		if _, bare := g.(ColName); !bare {
			note(g)
		}
	}
	for _, g := range p.groupBy {
		c, ok := g.(ColName)
		if !ok {
			continue
		}
		f, err := sc.resolve(c)
		if err != nil || read[f] || sc.schema[f].Type != colfile.String {
			continue
		}
		// f is an output position of join j; full, its position among the
		// probe side's columns and then the build side's.
		for j := len(p.joins) - 1; j >= 0; j-- {
			full := f
			if p.joins[j].cols != nil {
				full = p.joins[j].cols[f]
			}
			if full >= len(p.joins[j].leftSchema) {
				p.joins[j].coded = append(p.joins[j].coded, f)
				break
			}
			f = full
		}
	}
}

// laterRefs returns, for each join i, the column references something after
// it reads: the ON conditions of the joins after it, then the tail — the
// residual WHERE, the items, GROUP BY, HAVING and ORDER BY. It returns nil
// when an item is *, which outputs every column of the joined scope.
func (p *selectPlan) laterRefs(ons []Expr) [][]ColName {
	var refs []ColName
	add := func(c ColName) { refs = append(refs, c) }
	for _, it := range p.items {
		if it.Star {
			return nil
		}
		walkCols(it.Expr, add)
	}
	if p.where != nil {
		walkCols(p.where, add)
	}
	for _, g := range p.groupBy {
		walkCols(g, add)
	}
	if p.having != nil {
		walkCols(p.having, add)
	}
	for _, o := range p.orderBy {
		walkCols(o.Expr, add)
	}
	later := make([][]ColName, len(ons))
	for i := len(ons) - 1; i >= 0; i-- {
		later[i] = slices.Clip(refs)
		walkCols(ons[i], add)
	}
	return later
}

// push compiles the conjunction a relation's scan evaluates, once: the
// program that proves the conjuncts run as a kernel is the one the scan runs.
// A compile error, or a conjunct that is not boolean, is the statement's.
func (p *selectPlan) push(r *relation, conjuncts []Expr, owners []*relation, sc *scope) error {
	var mine []Expr
	for i, c := range conjuncts {
		if owners[i] == r {
			mine = append(mine, c)
		}
	}
	if len(mine) == 0 {
		return nil
	}
	conj := andFold(mine)
	prog, err := compile(conj, sc)
	if err != nil {
		return err
	}
	if err := exec.CheckPredicate(prog); err != nil {
		return err
	}
	r.pushed, r.pred = conj, prog
	p.pushedCount += int64(len(mine))
	return nil
}

// recordWork publishes the plan-shape counters once per executed statement.
// EXPLAIN does not call this — it plans without executing.
func (p *selectPlan) recordWork(tx *core.Txn) {
	var swaps int64 // join slots whose build table differs from the syntactic one
	for _, j := range p.joins {
		if j.reordered {
			swaps++
		}
	}
	if swaps > 0 {
		tx.Work().BuildSideSwaps.Add(swaps)
	}
	if p.pushedCount > 0 {
		tx.Work().PushedFilters.Add(p.pushedCount)
	}
}

// relations are a SELECT's base tables in syntactic order (index = pos).
type relations []*relation

// resolveRelations resolves every base relation's metadata and snapshot, once
// per statement: the planner folds its statistics from the same snapshot the
// executor later fetches.
func resolveRelations(tx *core.Txn, st *SelectStmt) (relations, error) {
	refs := []TableRef{st.From}
	for _, j := range st.Joins {
		refs = append(refs, j.Table)
	}
	rels := make(relations, len(refs))
	for pos, ref := range refs {
		asOf := ref.AsOfSeq
		if asOf == 0 {
			asOf = -1
		}
		state, meta, err := tx.Snapshot(ref.Name, asOf)
		if err != nil {
			return nil, err
		}
		rels[pos] = &relation{ref: ref, meta: meta, state: state, pos: pos, schema: meta.Schema}
	}
	return rels, nil
}

// checkExposedNames rejects two relations under one exposed name (alias, or
// table name when unaliased; compared case-insensitively), which T-SQL also
// refuses: every qualified reference to that name would be ambiguous.
func (rs relations) checkExposedNames() error {
	for i, r := range rs {
		for _, o := range rs[:i] {
			if strings.EqualFold(aliasOf(r.ref), aliasOf(o.ref)) {
				return fmt.Errorf("sql: two FROM relations share the exposed name %q; use distinct aliases", aliasOf(r.ref))
			}
		}
	}
	return nil
}

// estimate computes each relation's post-filter cardinality estimate from
// its statistics and the single-table WHERE conjuncts that apply to it.
func (rs relations) estimate(conjuncts []Expr) {
	local := make([][]Expr, len(rs))
	for _, c := range conjuncts {
		if owner := rs.conjunctOwner(c); owner != nil {
			local[owner.pos] = append(local[owner.pos], c)
		}
	}
	for _, r := range rs {
		r.est = estimateRows(collectStats(r.state, r.meta.Schema), local[r.pos])
	}
}

// splitAnd flattens an AND conjunction into its conjuncts (nil → none).
func splitAnd(e Expr) []Expr {
	if e == nil {
		return nil
	}
	if b, ok := e.(BinExpr); ok && b.Op == "AND" {
		return append(splitAnd(b.L), splitAnd(b.R)...)
	}
	return []Expr{e}
}

// andFold rebuilds a conjunction, preserving conjunct order (nil for none).
func andFold(conjuncts []Expr) Expr {
	var out Expr
	for _, c := range conjuncts {
		if out == nil {
			out = c
		} else {
			out = BinExpr{Op: "AND", L: out, R: c}
		}
	}
	return out
}

// walkCols visits every column reference in an expression.
func walkCols(e Expr, f func(ColName)) {
	switch x := e.(type) {
	case ColName:
		f(x)
	case BinExpr:
		walkCols(x.L, f)
		walkCols(x.R, f)
	case NotExpr:
		walkCols(x.E, f)
	case IsNullExpr:
		walkCols(x.E, f)
	case LikeExpr:
		walkCols(x.E, f)
	case InExpr:
		walkCols(x.E, f)
	case BetweenExpr:
		walkCols(x.E, f)
		walkCols(x.Lo, f)
		walkCols(x.Hi, f)
	case FuncExpr:
		if x.Arg != nil {
			walkCols(x.Arg, f)
		}
	}
}

// has reports whether a column reference can name a column of this relation.
func (r *relation) has(c ColName) bool {
	if c.Table != "" && !strings.EqualFold(c.Table, aliasOf(r.ref)) {
		return false
	}
	for _, f := range r.meta.Schema {
		if strings.EqualFold(f.Name, c.Name) {
			return true
		}
	}
	return false
}

// ownerOf resolves a column reference to the single relation that owns it,
// or nil when the reference is unknown or ambiguous.
func (rs relations) ownerOf(c ColName) *relation {
	var owner *relation
	for _, r := range rs {
		if r.has(c) {
			if owner != nil {
				return nil // ambiguous
			}
			owner = r
		}
	}
	return owner
}

// conjunctOwner returns the single relation a conjunct reads, or nil when it
// spans relations, contains aggregates, references unknown or ambiguous
// columns, or references no column at all.
func (rs relations) conjunctOwner(e Expr) *relation {
	if containsAgg(e) {
		return nil
	}
	var owner *relation
	bad := false
	walkCols(e, func(c ColName) {
		o := rs.ownerOf(c)
		if o == nil || (owner != nil && o != owner) {
			bad = true
			return
		}
		owner = o
	})
	if bad {
		return nil
	}
	return owner
}

// reorderJoins picks the join order by estimated cardinality: the
// largest-estimate relation becomes the probe base and the remaining
// relations join greedily smallest-first among those connected to the tables
// already in scope, so every build side is as small as the statistics allow.
// Only all-inner joins with pure two-relation equi ONs are reordered —
// inner-join conjuncts commute, so redistributing the ON edges over a new
// order preserves results. Ties keep syntactic order, which also makes the
// choice deterministic for a fixed snapshot (the byte-identity suites rely
// on that). It returns the relations in execution order and the ON condition
// of each join, or nil when the statement keeps its syntactic order.
func (rs relations) reorderJoins(st *SelectStmt) (relations, []Expr) {
	if len(st.Joins) == 0 {
		return nil, nil
	}
	for _, j := range st.Joins {
		if j.Left {
			return nil, nil
		}
	}
	// SELECT * with GROUP BY errors later; keep the syntactic order so the
	// star is still there to report.
	if selectHasAgg(st) {
		for _, it := range st.Items {
			if it.Star {
				return nil, nil
			}
		}
	}
	type edge struct {
		a, b *relation
		expr Expr
		used bool
	}
	var edges []*edge
	for _, j := range st.Joins {
		for _, c := range splitAnd(j.On) {
			b, ok := c.(BinExpr)
			if !ok || b.Op != "=" {
				return nil, nil
			}
			lc, ok1 := b.L.(ColName)
			rc, ok2 := b.R.(ColName)
			if !ok1 || !ok2 {
				return nil, nil
			}
			la, ra := rs.ownerOf(lc), rs.ownerOf(rc)
			if la == nil || ra == nil || la == ra {
				return nil, nil
			}
			edges = append(edges, &edge{a: la, b: ra, expr: c})
		}
	}
	inScope := make([]bool, len(rs))
	connects := func(e *edge, r *relation) bool {
		return (inScope[e.a.pos] && e.b == r) || (inScope[e.b.pos] && e.a == r)
	}

	// Pick the probe base: the largest estimate (strictly larger wins, so
	// equal-size relations keep syntactic order).
	base := rs[0]
	for _, r := range rs[1:] {
		if r.est > base.est {
			base = r
		}
	}
	inScope[base.pos] = true
	order := relations{base}
	var remaining relations
	for _, r := range rs {
		if r != base {
			remaining = append(remaining, r)
		}
	}
	for len(remaining) > 0 {
		pick := -1
		for i, r := range remaining {
			connected := false
			for _, e := range edges {
				if connects(e, r) {
					connected = true
					break
				}
			}
			if !connected {
				continue
			}
			if pick < 0 || r.est < remaining[pick].est {
				pick = i
			}
		}
		if pick < 0 {
			return nil, nil // disconnected join graph under this base: keep syntactic
		}
		r := remaining[pick]
		inScope[r.pos] = true
		order = append(order, r)
		remaining = append(remaining[:pick:pick], remaining[pick+1:]...)
	}
	same := true
	for i, r := range order {
		if r != rs[i] {
			same = false
			break
		}
	}
	if same {
		return nil, nil
	}

	// Rebuild the join conditions: each relation takes every still-unused ON
	// edge that connects it to the scope built so far.
	inScope = make([]bool, len(rs))
	inScope[order[0].pos] = true
	ons := make([]Expr, 0, len(order)-1)
	for _, r := range order[1:] {
		var on []Expr
		for _, e := range edges {
			if !e.used && connects(e, r) {
				e.used = true
				on = append(on, e.expr)
			}
		}
		if len(on) == 0 {
			return nil, nil
		}
		inScope[r.pos] = true
		ons = append(ons, andFold(on))
	}
	for _, e := range edges {
		if !e.used {
			return nil, nil // an edge never found a home (e.g. redundant predicate)
		}
	}
	return order, ons
}

// expandStar rewrites * items into qualified column references in the
// syntactic scope order, so a reordered join changes row order at most —
// never the output columns.
func (rs relations) expandStar(items []SelectItem) []SelectItem {
	out := make([]SelectItem, 0, len(items))
	for _, it := range items {
		if !it.Star {
			out = append(out, it)
			continue
		}
		for _, r := range rs {
			for _, f := range r.meta.Schema {
				out = append(out, SelectItem{Expr: ColName{Table: aliasOf(r.ref), Name: f.Name}})
			}
		}
	}
	return out
}

// choosePushdown assigns each WHERE conjunct a scan can evaluate itself to
// that scan's relation (owners[i]); the rest stay in the residual the
// post-join Filter keeps. SQL's three-valued AND is order-independent, so
// evaluating a conjunct early never changes which rows survive the full
// conjunction. A conjunct is pushable when it reads exactly one relation and
// cannot raise a runtime error; conjuncts on non-base relations additionally
// require every join to be inner (a filtered build side would change LEFT
// JOIN padding).
func (rs relations) choosePushdown(st *SelectStmt, conjuncts []Expr, owners []*relation, base *relation) {
	allInner := true
	for _, j := range st.Joins {
		if j.Left {
			allInner = false
			break
		}
	}
	for i, c := range conjuncts {
		owner := rs.conjunctOwner(c)
		if owner != nil && !exprCanError(c) && (owner == base || allInner) {
			owners[i] = owner
		}
	}
}

func singleTableScope(schema colfile.Schema, alias string) *scope {
	quals := make([]string, len(schema))
	for i := range quals {
		quals[i] = alias
	}
	return &scope{schema: schema, quals: quals}
}

// chooseProjection projects each relation's scan to the columns the statement
// references (select items, WHERE, join keys, grouping, HAVING, ORDER BY),
// matched as scope.live matches them, so unreferenced columns are never
// decoded. Unqualified names owned by several relations count for each —
// over-inclusion is always safe. A * item outputs every column of every
// relation, so nothing is projected.
func (rs relations) chooseProjection(st *SelectStmt) {
	var refs []ColName
	addCol := func(c ColName) { refs = append(refs, c) }
	for _, it := range st.Items {
		if it.Star {
			return
		}
		walkCols(it.Expr, addCol)
	}
	if st.Where != nil {
		walkCols(st.Where, addCol)
	}
	for _, j := range st.Joins {
		walkCols(j.On, addCol)
	}
	for _, g := range st.GroupBy {
		walkCols(g, addCol)
	}
	if st.Having != nil {
		walkCols(st.Having, addCol)
	}
	for _, o := range st.OrderBy {
		walkCols(o.Expr, addCol)
	}
	for _, r := range rs {
		cols := singleTableScope(r.meta.Schema, aliasOf(r.ref)).live(refs)
		if cols == nil {
			continue
		}
		r.schema = make(colfile.Schema, len(cols))
		r.cols = make([]string, len(cols))
		for i, c := range cols {
			r.schema[i] = r.meta.Schema[c]
			r.cols[i] = r.schema[i].Name
		}
	}
}

// orderKeys resolves the ORDER BY items against the output columns. A bare
// name is an output column's alias or name; a qualified name matches only an
// output column that passes through the scope column it names (so t.c is
// never taken for another relation's c); a literal is an output position.
func orderKeys(orderBy []OrderItem, items []SelectItem, sc *scope, out colfile.Schema) ([]exec.SortKey, error) {
	if len(orderBy) == 0 {
		return nil, nil
	}
	// slots[i] is the scope column output column i passes through (-1: computed).
	var slots []int
	for _, it := range items {
		if it.Star {
			for i := range sc.schema {
				slots = append(slots, i)
			}
			continue
		}
		slot := -1
		if c, ok := it.Expr.(ColName); ok {
			if i, err := sc.resolve(c); err == nil {
				slot = i
			}
		}
		slots = append(slots, slot)
	}
	keys := make([]exec.SortKey, 0, len(orderBy))
	for _, o := range orderBy {
		c, ok := o.Expr.(ColName)
		if !ok {
			if l, isLit := o.Expr.(Lit); isLit {
				if pos, isInt := l.Val.(int64); isInt && pos >= 1 && int(pos) <= len(out) {
					keys = append(keys, exec.SortKey{Col: int(pos - 1), Desc: o.Desc})
					continue
				}
			}
			return nil, errors.New("sql: ORDER BY supports output columns or positions")
		}
		idx := -1
		if c.Table == "" {
			for i, f := range out {
				if strings.EqualFold(f.Name, c.Name) {
					idx = i
					break
				}
			}
		} else if want, err := sc.resolve(c); err == nil {
			for i, slot := range slots {
				if slot == want {
					idx = i
					break
				}
			}
		}
		if idx < 0 {
			return nil, fmt.Errorf("sql: ORDER BY column %q not in output", displayName(c))
		}
		keys = append(keys, exec.SortKey{Col: idx, Desc: o.Desc})
	}
	return keys, nil
}
