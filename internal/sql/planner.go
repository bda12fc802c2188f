package sql

import (
	"strings"

	"polaris/internal/catalog"
	"polaris/internal/colfile"
	"polaris/internal/core"
)

// planTable is one base relation of a SELECT as the cost-based planner sees
// it: syntactic position, catalog metadata and folded statistics.
type planTable struct {
	ref   TableRef
	alias string // lower-cased alias (or table name)
	pos   int    // syntactic position: 0 = FROM, i+1 = Joins[i]
	meta  catalog.TableMeta
	stats *tableStats
	est   float64 // estimated scan output rows after local conjuncts; -1 unknown
}

// physPlan is the cost-based planning product of one SELECT statement.
// Execution and EXPLAIN consume the same plan, so they can never disagree
// about join order, build sides, pushed predicates, scan projections or which
// stage runner executes the statement. Planning is best-effort: any shape
// the planner doesn't understand (unknown tables, duplicate aliases,
// non-equi ONs, missing statistics) degrades to the syntactic statement
// untouched, and execution surfaces errors exactly as before.
type physPlan struct {
	st    *SelectStmt // possibly rewritten: joins reordered, star pre-expanded
	where Expr        // original WHERE (zone-map hint extraction sees pushed conjuncts too)

	reordered   bool
	swaps       int64 // join slots whose build table differs from syntactic
	pushedCount int64 // WHERE conjuncts moved into scans

	// pushed maps a table alias to the WHERE conjuncts its scan evaluates.
	pushed map[string][]Expr
	// scanCols maps a table alias to the projected scan columns (nil = all).
	scanCols map[string][]string

	order  []*planTable // syntactic order
	tables map[string]*planTable

	// dag marks a plan whose stages run as a DCP task DAG rather than on the
	// in-process morsel pool: Options.DistributedQueries, except for a bare
	// LIMIT (see bareLimitSelect). runSelect routes on it and EXPLAIN renders
	// it as a [dag] annotation on the probe-base scan.
	dag bool
}

// planSelect runs cost-based physical planning over one SELECT.
func planSelect(tx *core.Txn, st *SelectStmt) *physPlan {
	p := &physPlan{
		st: st, where: st.Where,
		pushed: map[string][]Expr{}, scanCols: map[string][]string{},
		tables: map[string]*planTable{},
	}
	p.dag = tx.DistributedQueries() && !bareLimitSelect(st)
	if !p.loadTables(tx, st) {
		return p
	}
	p.estimate()
	p.reorderJoins(st)
	p.choosePushdown()
	p.chooseProjection()
	return p
}

// recordWork publishes the plan-shape counters once per executed statement.
// EXPLAIN does not call this — it plans without executing.
func (p *physPlan) recordWork(tx *core.Txn) {
	if p.swaps > 0 {
		tx.Work().BuildSideSwaps.Add(p.swaps)
	}
	if p.pushedCount > 0 {
		tx.Work().PushedFilters.Add(p.pushedCount)
	}
}

// loadTables resolves every base relation and its statistics. Reports false
// (planning disabled) when a table is unknown or two relations share an
// alias — execution reproduces the original error in the former case, and
// ambiguity handling stays bind's job in the latter.
func (p *physPlan) loadTables(tx *core.Txn, st *SelectStmt) bool {
	add := func(ref TableRef, pos int) bool {
		alias := strings.ToLower(aliasOf(ref))
		if _, dup := p.tables[alias]; dup {
			return false
		}
		meta, err := tx.Table(ref.Name)
		if err != nil {
			return false
		}
		t := &planTable{ref: ref, alias: alias, pos: pos, meta: meta, est: -1}
		if ts, err := collectStats(tx, ref); err == nil {
			t.stats = ts
		}
		p.order = append(p.order, t)
		p.tables[alias] = t
		return true
	}
	if !add(st.From, 0) {
		return false
	}
	for i, j := range st.Joins {
		if !add(j.Table, i+1) {
			return false
		}
	}
	return true
}

// estimate computes each relation's post-filter cardinality estimate from
// its statistics and the single-table WHERE conjuncts that apply to it.
func (p *physPlan) estimate() {
	local := map[string][]Expr{}
	for _, c := range splitAnd(p.st.Where) {
		if owner := p.conjunctOwner(c); owner != "" {
			local[owner] = append(local[owner], c)
		}
	}
	for _, t := range p.order {
		t.est = estimateRows(t.stats, local[t.alias])
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

// schemaHas reports whether a schema contains a column (case-insensitive).
func schemaHas(s colfile.Schema, name string) bool {
	for _, f := range s {
		if strings.EqualFold(f.Name, name) {
			return true
		}
	}
	return false
}

// ownerOf resolves a column reference to the single relation that owns it,
// or "" when the reference is unknown or ambiguous.
func (p *physPlan) ownerOf(c ColName) string {
	if c.Table != "" {
		a := strings.ToLower(c.Table)
		if t, ok := p.tables[a]; ok && schemaHas(t.meta.Schema, c.Name) {
			return a
		}
		return ""
	}
	owner := ""
	//polaris:nondet unique-or-empty fold: one match yields that alias, two yield "" whichever is seen first
	for a, t := range p.tables {
		if schemaHas(t.meta.Schema, c.Name) {
			if owner != "" {
				return "" // ambiguous
			}
			owner = a
		}
	}
	return owner
}

// conjunctOwner returns the alias of the single relation a conjunct reads,
// or "" when it spans relations, contains aggregates, or references unknown
// or ambiguous columns. A conjunct with no column references has no owner.
func (p *physPlan) conjunctOwner(e Expr) string {
	if containsAgg(e) {
		return ""
	}
	owner, bad := "", false
	walkCols(e, func(c ColName) {
		o := p.ownerOf(c)
		if o == "" || (owner != "" && o != owner) {
			bad = true
			return
		}
		owner = o
	})
	if bad {
		return ""
	}
	return owner
}

// reorderJoins rewrites the FROM/JOIN sequence by estimated cardinality:
// the largest-estimate relation becomes the probe base and the remaining
// relations join greedily smallest-first among those connected to the tables
// already in scope, so every build side is as small as the statistics allow.
// Only all-inner joins with pure two-relation equi ONs are reordered —
// inner-join conjuncts commute, so redistributing the ON edges over a new
// order preserves results. Ties keep syntactic order, which also makes the
// rewrite deterministic for a fixed snapshot (the byte-identity suites rely
// on that).
func (p *physPlan) reorderJoins(orig *SelectStmt) {
	st := p.st
	if len(st.Joins) == 0 {
		return
	}
	for _, j := range st.Joins {
		if j.Left {
			return
		}
	}
	for _, t := range p.order {
		if t.est < 0 {
			return // a relation without statistics: don't compare garbage
		}
	}
	// SELECT * with GROUP BY errors later; keep the syntactic statement so
	// the error text is unchanged.
	if selectHasAgg(st) {
		for _, it := range st.Items {
			if it.Star {
				return
			}
		}
	}
	type edge struct {
		a, b string
		expr Expr
		used bool
	}
	var edges []*edge
	for _, j := range st.Joins {
		for _, c := range splitAnd(j.On) {
			b, ok := c.(BinExpr)
			if !ok || b.Op != "=" {
				return
			}
			lc, ok1 := b.L.(ColName)
			rc, ok2 := b.R.(ColName)
			if !ok1 || !ok2 {
				return
			}
			la, ra := p.ownerOf(lc), p.ownerOf(rc)
			if la == "" || ra == "" || la == ra {
				return
			}
			edges = append(edges, &edge{a: la, b: ra, expr: c})
		}
	}

	// Pick the probe base: the largest estimate (strictly larger wins, so
	// equal-size relations keep syntactic order).
	base := p.order[0]
	for _, t := range p.order[1:] {
		if t.est > base.est {
			base = t
		}
	}
	inScope := map[string]bool{base.alias: true}
	order := []*planTable{base}
	var remaining []*planTable
	for _, t := range p.order {
		if t != base {
			remaining = append(remaining, t)
		}
	}
	for len(remaining) > 0 {
		pick := -1
		for i, t := range remaining {
			connected := false
			for _, e := range edges {
				if (inScope[e.a] && e.b == t.alias) || (inScope[e.b] && e.a == t.alias) {
					connected = true
					break
				}
			}
			if !connected {
				continue
			}
			if pick < 0 || t.est < remaining[pick].est {
				pick = i
			}
		}
		if pick < 0 {
			return // disconnected join graph under this base: keep syntactic
		}
		t := remaining[pick]
		inScope[t.alias] = true
		order = append(order, t)
		remaining = append(remaining[:pick:pick], remaining[pick+1:]...)
	}
	same := true
	for i, t := range order {
		if t != p.order[i] {
			same = false
			break
		}
	}
	if same {
		return
	}

	// Rebuild the join clauses: each relation takes every still-unused ON
	// edge that connects it to the scope built so far.
	inScope = map[string]bool{order[0].alias: true}
	newJoins := make([]JoinClause, 0, len(order)-1)
	for _, t := range order[1:] {
		var on []Expr
		for _, e := range edges {
			if e.used {
				continue
			}
			if (inScope[e.a] && e.b == t.alias) || (inScope[e.b] && e.a == t.alias) {
				e.used = true
				on = append(on, e.expr)
			}
		}
		if len(on) == 0 {
			return
		}
		inScope[t.alias] = true
		newJoins = append(newJoins, JoinClause{Table: t.ref, On: andFold(on)})
	}
	for _, e := range edges {
		if !e.used {
			return // an edge never found a home (e.g. redundant predicate)
		}
	}

	cp := *st
	cp.From = order[0].ref
	cp.Joins = newJoins
	cp.Items = p.expandStar(st.Items)
	for i := range newJoins {
		if !strings.EqualFold(aliasOf(newJoins[i].Table), aliasOf(orig.Joins[i].Table)) {
			p.swaps++
		}
	}
	p.st = &cp
	p.reordered = true
}

// expandStar rewrites * items into qualified column references in the
// original syntactic scope order, so a reordered join changes row order at
// most — never the output columns.
func (p *physPlan) expandStar(items []SelectItem) []SelectItem {
	out := make([]SelectItem, 0, len(items))
	for _, it := range items {
		if !it.Star {
			out = append(out, it)
			continue
		}
		for _, t := range p.order {
			for _, f := range t.meta.Schema {
				out = append(out, SelectItem{Expr: ColName{Table: aliasOf(t.ref), Name: f.Name}})
			}
		}
	}
	return out
}

// choosePushdown splits the WHERE conjunction into conjuncts each scan can
// evaluate itself and the residual the post-join Filter keeps. SQL's
// three-valued AND is order-independent, so evaluating a conjunct early
// never changes which rows survive the full conjunction. A conjunct is
// pushable when it reads exactly one relation, cannot raise a runtime error,
// and compiles to a kernel program; conjuncts on non-base relations
// additionally require every join to be inner (a filtered build side would
// change LEFT JOIN padding).
func (p *physPlan) choosePushdown() {
	st := p.st
	if st.Where == nil {
		return
	}
	allInner := true
	for _, j := range st.Joins {
		if j.Left {
			allInner = false
			break
		}
	}
	baseAlias := strings.ToLower(aliasOf(st.From))
	var residual []Expr
	for _, c := range splitAnd(st.Where) {
		owner := p.conjunctOwner(c)
		ok := owner != "" && !exprCanError(c) &&
			(owner == baseAlias || allInner) && p.compilable(c, owner)
		if !ok {
			residual = append(residual, c)
			continue
		}
		p.pushed[owner] = append(p.pushed[owner], c)
		p.pushedCount++
	}
	if p.pushedCount == 0 {
		return
	}
	cp := *st
	cp.Where = andFold(residual)
	p.st = &cp
}

// compilable verifies a conjunct binds and compiles to a Bool kernel program
// over its relation's schema. Compilation success depends on column types
// only, so the same program compiles against any projection of the schema
// that contains the referenced columns. A conjunct that does not compile is
// not an error here: it stays in the residual WHERE, whose compilation
// (compileTail) reports the error as the statement's.
func (p *physPlan) compilable(e Expr, alias string) bool {
	t := p.tables[alias]
	prog, err := compile(e, singleTableScope(t.meta.Schema, aliasOf(t.ref)))
	return err == nil && len(prog.Cols()) > 0 && prog.OutType() == colfile.Bool
}

func singleTableScope(schema colfile.Schema, alias string) *scope {
	quals := make([]string, len(schema))
	for i := range quals {
		quals[i] = alias
	}
	return &scope{schema: schema, quals: quals}
}

// chooseProjection computes, per relation, the set of columns the query
// actually references (select items, residual and pushed predicates, join
// keys, grouping, HAVING, ORDER BY). A scan whose referenced set is a strict
// subset of the schema is projected, so unreferenced columns are never
// decoded. Unqualified names owned by several relations count for each —
// over-inclusion is always safe.
func (p *physPlan) chooseProjection() {
	st := p.st
	need := map[string]map[string]bool{}
	full := map[string]bool{}
	addCol := func(c ColName) {
		mark := func(alias string) {
			if need[alias] == nil {
				need[alias] = map[string]bool{}
			}
			need[alias][strings.ToLower(c.Name)] = true
		}
		if c.Table != "" {
			a := strings.ToLower(c.Table)
			if t, ok := p.tables[a]; ok && schemaHas(t.meta.Schema, c.Name) {
				mark(a)
			}
			return
		}
		//polaris:nondet mark only inserts into the per-alias need set keyed by the range key; set inserts commute
		for a, t := range p.tables {
			if schemaHas(t.meta.Schema, c.Name) {
				mark(a)
			}
		}
	}
	for _, it := range st.Items {
		if it.Star {
			for a := range p.tables {
				full[a] = true
			}
			continue
		}
		walkCols(it.Expr, addCol)
	}
	if st.Where != nil {
		walkCols(st.Where, addCol)
	}
	//polaris:nondet addCol only accumulates per-alias need/full sets; which conjunct marks a column first is immaterial
	for _, cs := range p.pushed {
		for _, c := range cs {
			walkCols(c, addCol)
		}
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
	//polaris:nondet each iteration writes only scanCols[a] for its own range key; list is rebuilt per alias in schema order
	for a, t := range p.tables {
		if full[a] {
			continue
		}
		var list []string
		for _, f := range t.meta.Schema {
			if need[a][strings.ToLower(f.Name)] {
				list = append(list, f.Name)
			}
		}
		// A query referencing no columns of a relation (SELECT COUNT(*))
		// still needs one column for row counts.
		if len(list) == 0 {
			list = []string{t.meta.Schema[0].Name}
		}
		if len(list) < len(t.meta.Schema) {
			p.scanCols[a] = list
		}
	}
}

// colsFor returns the projected scan column list for a relation (nil = all).
func (p *physPlan) colsFor(ref TableRef) []string {
	if p == nil {
		return nil
	}
	return p.scanCols[strings.ToLower(aliasOf(ref))]
}

// pushedFor returns the conjuncts a relation's scan evaluates.
func (p *physPlan) pushedFor(ref TableRef) []Expr {
	if p == nil {
		return nil
	}
	return p.pushed[strings.ToLower(aliasOf(ref))]
}
