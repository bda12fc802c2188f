package sql

import (
	"fmt"
	"strconv"
	"strings"

	"polaris/internal/colfile"
)

// Parse parses one SQL statement. Trailing semicolons are allowed.
func Parse(src string) (Statement, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	st, err := p.statement()
	if err != nil {
		return nil, err
	}
	p.accept(tokSymbol, ";")
	if !p.at(tokEOF, "") {
		return nil, fmt.Errorf("sql: trailing input at %q", p.cur().text)
	}
	return st, nil
}

// ParseScript parses a semicolon-separated list of statements.
func ParseScript(src string) ([]Statement, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	var out []Statement
	for !p.at(tokEOF, "") {
		st, err := p.statement()
		if err != nil {
			return nil, err
		}
		out = append(out, st)
		if !p.accept(tokSymbol, ";") {
			break
		}
	}
	if !p.at(tokEOF, "") {
		return nil, fmt.Errorf("sql: trailing input at %q", p.cur().text)
	}
	return out, nil
}

type parser struct {
	toks []token
	i    int
}

func (p *parser) cur() token  { return p.toks[p.i] }
func (p *parser) peek() token { return p.toks[min(p.i+1, len(p.toks)-1)] }

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func (p *parser) at(kind tokKind, text string) bool {
	t := p.cur()
	return t.kind == kind && (text == "" || t.text == text)
}

func (p *parser) accept(kind tokKind, text string) bool {
	if p.at(kind, text) {
		p.i++
		return true
	}
	return false
}

func (p *parser) expect(kind tokKind, text string) (token, error) {
	t := p.cur()
	if !p.at(kind, text) {
		want := text
		if want == "" {
			want = fmt.Sprintf("token kind %d", kind)
		}
		return t, fmt.Errorf("sql: expected %s, got %q at %d", want, t.text, t.pos)
	}
	p.i++
	return t, nil
}

func (p *parser) kw(word string) bool { return p.accept(tokKeyword, word) }

func (p *parser) statement() (Statement, error) {
	switch {
	case p.at(tokKeyword, "SELECT"):
		return p.selectStmt()
	case p.at(tokKeyword, "INSERT"):
		return p.insertStmt()
	case p.at(tokKeyword, "UPDATE"):
		return p.updateStmt()
	case p.at(tokKeyword, "DELETE"):
		return p.deleteStmt()
	case p.at(tokKeyword, "CREATE"):
		return p.createStmt()
	case p.at(tokKeyword, "DROP"):
		return p.dropStmt()
	case p.kw("BEGIN"):
		p.kw("TRANSACTION")
		return BeginStmt{}, nil
	case p.kw("COMMIT"):
		p.kw("TRANSACTION")
		return CommitStmt{}, nil
	case p.kw("ROLLBACK"):
		p.kw("TRANSACTION")
		return RollbackStmt{}, nil
	case p.at(tokKeyword, "CLONE"):
		return p.cloneStmt()
	case p.at(tokKeyword, "RESTORE"):
		return p.restoreStmt()
	case p.at(tokKeyword, "SHOW"):
		return p.showStmt()
	case p.kw("EXPLAIN"):
		sel, err := p.selectStmt()
		if err != nil {
			return nil, err
		}
		return &ExplainStmt{Query: sel.(*SelectStmt)}, nil
	case p.kw("COMPACT"):
		p.kw("TABLE")
		name, err := p.ident()
		return MaintenanceStmt{What: "compact", Table: name}, err
	case p.kw("CHECKPOINT"):
		p.kw("TABLE")
		name, err := p.ident()
		return MaintenanceStmt{What: "checkpoint", Table: name}, err
	case p.kw("VACUUM"):
		return MaintenanceStmt{What: "vacuum"}, nil
	default:
		return nil, fmt.Errorf("sql: unexpected %q at %d", p.cur().text, p.cur().pos)
	}
}

func (p *parser) ident() (string, error) {
	t := p.cur()
	if t.kind == tokIdent {
		p.i++
		return t.text, nil
	}
	return "", fmt.Errorf("sql: expected identifier, got %q at %d", t.text, t.pos)
}

func (p *parser) selectStmt() (Statement, error) {
	if _, err := p.expect(tokKeyword, "SELECT"); err != nil {
		return nil, err
	}
	st := &SelectStmt{Limit: -1, From: TableRef{AsOfSeq: -1}}
	for {
		item, err := p.selectItem()
		if err != nil {
			return nil, err
		}
		st.Items = append(st.Items, item)
		if !p.accept(tokSymbol, ",") {
			break
		}
	}
	if _, err := p.expect(tokKeyword, "FROM"); err != nil {
		return nil, err
	}
	from, err := p.tableRef()
	if err != nil {
		return nil, err
	}
	st.From = from
	for {
		left := false
		save := p.i
		if p.kw("LEFT") {
			p.kw("OUTER")
			left = true
		} else if p.kw("INNER") {
			// inner join
		}
		if !p.kw("JOIN") {
			p.i = save
			break
		}
		ref, err := p.tableRef()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokKeyword, "ON"); err != nil {
			return nil, err
		}
		on, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		st.Joins = append(st.Joins, JoinClause{Table: ref, Left: left, On: on})
	}
	if p.kw("WHERE") {
		if st.Where, err = p.parseExpr(); err != nil {
			return nil, err
		}
	}
	if p.kw("GROUP") {
		if _, err := p.expect(tokKeyword, "BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			st.GroupBy = append(st.GroupBy, e)
			if !p.accept(tokSymbol, ",") {
				break
			}
		}
	}
	if p.kw("HAVING") {
		if st.Having, err = p.parseExpr(); err != nil {
			return nil, err
		}
	}
	if p.kw("ORDER") {
		if _, err := p.expect(tokKeyword, "BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := OrderItem{Expr: e}
			if p.kw("DESC") {
				item.Desc = true
			} else {
				p.kw("ASC")
			}
			st.OrderBy = append(st.OrderBy, item)
			if !p.accept(tokSymbol, ",") {
				break
			}
		}
	}
	if p.kw("LIMIT") {
		n, err := p.intLit()
		if err != nil {
			return nil, err
		}
		st.Limit = n
		if p.kw("OFFSET") {
			if st.Offset, err = p.intLit(); err != nil {
				return nil, err
			}
		}
	}
	return st, nil
}

func (p *parser) selectItem() (SelectItem, error) {
	if p.accept(tokSymbol, "*") {
		return SelectItem{Star: true}, nil
	}
	e, err := p.parseExpr()
	if err != nil {
		return SelectItem{}, err
	}
	item := SelectItem{Expr: e}
	if p.kw("AS") {
		a, err := p.ident()
		if err != nil {
			return SelectItem{}, err
		}
		item.Alias = a
	} else if p.at(tokIdent, "") {
		item.Alias = p.cur().text
		p.i++
	}
	return item, nil
}

func (p *parser) tableRef() (TableRef, error) {
	name, err := p.ident()
	if err != nil {
		return TableRef{}, err
	}
	ref := TableRef{Name: name, AsOfSeq: -1}
	// AS OF <n> | AS alias | bare alias
	if p.at(tokKeyword, "AS") && p.peek().kind == tokKeyword && p.peek().text == "OF" {
		p.i += 2
		n, err := p.intLit()
		if err != nil {
			return TableRef{}, err
		}
		ref.AsOfSeq = n
	} else if p.kw("AS") {
		if ref.Alias, err = p.ident(); err != nil {
			return TableRef{}, err
		}
	} else if p.at(tokIdent, "") {
		ref.Alias = p.cur().text
		p.i++
	}
	return ref, nil
}

func (p *parser) intLit() (int64, error) {
	t := p.cur()
	if t.kind != tokNumber {
		return 0, fmt.Errorf("sql: expected number, got %q at %d", t.text, t.pos)
	}
	p.i++
	n, err := strconv.ParseInt(t.text, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("sql: bad integer %q: %w", t.text, err)
	}
	return n, nil
}

func (p *parser) insertStmt() (Statement, error) {
	if _, err := p.expect(tokKeyword, "INSERT"); err != nil {
		return nil, err
	}
	if _, err := p.expect(tokKeyword, "INTO"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	st := &InsertStmt{Table: name}
	if p.accept(tokSymbol, "(") {
		for {
			c, err := p.ident()
			if err != nil {
				return nil, err
			}
			st.Columns = append(st.Columns, c)
			if !p.accept(tokSymbol, ",") {
				break
			}
		}
		if _, err := p.expect(tokSymbol, ")"); err != nil {
			return nil, err
		}
	}
	if p.kw("VALUES") {
		if st.Values, err = p.values(); err != nil {
			return nil, err
		}
		return st, nil
	}
	if p.at(tokKeyword, "SELECT") {
		q, err := p.selectStmt()
		if err != nil {
			return nil, err
		}
		st.Query = q.(*SelectStmt)
		return st, nil
	}
	return nil, fmt.Errorf("sql: INSERT needs VALUES or SELECT at %d", p.cur().pos)
}

// values parses the rows of a VALUES list into one flat cell list, sized
// once from a count of the list's tokens.
func (p *parser) values() (*Values, error) {
	rows, cells := p.valuesShape()
	v := &Values{Cells: make([]Cell, 0, cells), Ends: make([]int, 0, rows)}
	for {
		if _, err := p.expect(tokSymbol, "("); err != nil {
			return nil, err
		}
		for {
			c, ok, err := p.literalCell()
			if err != nil {
				return nil, err
			}
			if !ok {
				e, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				c = Cell{Kind: CellExpr, Int: int64(len(v.Exprs))}
				v.Exprs = append(v.Exprs, e)
			}
			v.Cells = append(v.Cells, c)
			if !p.accept(tokSymbol, ",") {
				break
			}
		}
		if _, err := p.expect(tokSymbol, ")"); err != nil {
			return nil, err
		}
		v.Ends = append(v.Ends, len(v.Cells))
		if !p.accept(tokSymbol, ",") {
			break
		}
	}
	return v, nil
}

// valuesShape counts the rows of the VALUES list at p.i and an upper bound
// on its cells (the separators at parenthesis depth 1, plus one per row),
// without consuming tokens. A malformed list only makes the counts wrong.
func (p *parser) valuesShape() (rows, cells int) {
	depth := 0
	for _, t := range p.toks[p.i:] {
		if t.kind == tokEOF {
			break
		}
		if t.kind == tokSymbol {
			switch t.text {
			case "(":
				if depth == 0 {
					rows++
				}
				depth++
				continue
			case ")":
				depth--
				continue
			case ",":
				if depth == 1 {
					cells++
				}
				continue
			}
		}
		if depth == 0 {
			break
		}
	}
	return rows, cells + rows
}

// literalCell reads a bare literal — a number, possibly negated, a string,
// TRUE, FALSE or NULL — followed by ',' or ')' as a typed cell. It consumes
// nothing and reports false for any other cell, which parses as an Expr.
func (p *parser) literalCell() (Cell, bool, error) {
	i := p.i
	neg := p.toks[i].kind == tokSymbol && p.toks[i].text == "-"
	if neg {
		i++
	}
	t := p.toks[i]
	if t.kind == tokEOF {
		return Cell{}, false, nil
	}
	if next := p.toks[i+1]; next.kind != tokSymbol || (next.text != "," && next.text != ")") {
		return Cell{}, false, nil
	}
	var c Cell
	switch {
	case t.kind == tokNumber:
		n, f, isFloat, err := number(t.text)
		if err != nil {
			return Cell{}, false, err
		}
		if neg {
			n, f = -n, -f
		}
		c = Cell{Kind: CellInt, Int: n}
		if isFloat {
			c = Cell{Kind: CellFloat, Float: f}
		}
	case neg:
		return Cell{}, false, nil
	case t.kind == tokString:
		c = Cell{Kind: CellString, Str: t.text}
	case t.kind == tokKeyword && t.text == "TRUE":
		c = Cell{Kind: CellBool, Int: 1}
	case t.kind == tokKeyword && t.text == "FALSE":
		c = Cell{Kind: CellBool}
	case t.kind == tokKeyword && t.text == "NULL":
		c = Cell{Kind: CellNull}
	default:
		return Cell{}, false, nil
	}
	p.i = i + 1
	return c, true, nil
}

func (p *parser) updateStmt() (Statement, error) {
	if _, err := p.expect(tokKeyword, "UPDATE"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokKeyword, "SET"); err != nil {
		return nil, err
	}
	st := &UpdateStmt{Table: name, Set: map[string]Expr{}}
	for {
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokSymbol, "="); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		st.Set[col] = e
		if !p.accept(tokSymbol, ",") {
			break
		}
	}
	if p.kw("WHERE") {
		if st.Where, err = p.parseExpr(); err != nil {
			return nil, err
		}
	}
	return st, nil
}

func (p *parser) deleteStmt() (Statement, error) {
	if _, err := p.expect(tokKeyword, "DELETE"); err != nil {
		return nil, err
	}
	if _, err := p.expect(tokKeyword, "FROM"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	st := &DeleteStmt{Table: name}
	if p.kw("WHERE") {
		if st.Where, err = p.parseExpr(); err != nil {
			return nil, err
		}
	}
	return st, nil
}

func (p *parser) createStmt() (Statement, error) {
	if _, err := p.expect(tokKeyword, "CREATE"); err != nil {
		return nil, err
	}
	if _, err := p.expect(tokKeyword, "TABLE"); err != nil {
		return nil, err
	}
	st := &CreateTableStmt{}
	if p.at(tokKeyword, "IF") {
		p.i++
		if !p.kw("NOT") || !p.kw("EXISTS") {
			return nil, fmt.Errorf("sql: expected IF NOT EXISTS at %d", p.cur().pos)
		}
		st.IfNotExists = true
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	st.Name = name
	if _, err := p.expect(tokSymbol, "("); err != nil {
		return nil, err
	}
	for {
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		t := p.cur()
		var dt colfile.DataType
		switch t.text {
		case "INT", "BIGINT":
			dt = colfile.Int64
		case "FLOAT", "DOUBLE":
			dt = colfile.Float64
		case "VARCHAR", "TEXT":
			dt = colfile.String
		case "BOOL", "BOOLEAN":
			dt = colfile.Bool
		default:
			return nil, fmt.Errorf("sql: unknown type %q at %d", t.text, t.pos)
		}
		p.i++
		// optional (n) length
		if p.accept(tokSymbol, "(") {
			if _, err := p.intLit(); err != nil {
				return nil, err
			}
			if _, err := p.expect(tokSymbol, ")"); err != nil {
				return nil, err
			}
		}
		st.Schema = append(st.Schema, colfile.Field{Name: col, Type: dt})
		if !p.accept(tokSymbol, ",") {
			break
		}
	}
	if _, err := p.expect(tokSymbol, ")"); err != nil {
		return nil, err
	}
	if p.kw("WITH") {
		if _, err := p.expect(tokSymbol, "("); err != nil {
			return nil, err
		}
		for {
			t := p.cur()
			if t.kind == tokEOF {
				return nil, fmt.Errorf("sql: expected table option at %d", t.pos)
			}
			key := strings.ToUpper(t.text)
			p.i++
			if _, err := p.expect(tokSymbol, "="); err != nil {
				return nil, err
			}
			val, err := p.ident()
			if err != nil {
				return nil, err
			}
			switch key {
			case "DISTRIBUTION":
				st.DistCol = val
			case "ORDER", "SORT", "SORTCOL":
				st.SortCol = val
			default:
				return nil, fmt.Errorf("sql: unknown table option %q", key)
			}
			if !p.accept(tokSymbol, ",") {
				break
			}
		}
		if _, err := p.expect(tokSymbol, ")"); err != nil {
			return nil, err
		}
	}
	return st, nil
}

func (p *parser) dropStmt() (Statement, error) {
	if _, err := p.expect(tokKeyword, "DROP"); err != nil {
		return nil, err
	}
	if _, err := p.expect(tokKeyword, "TABLE"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	return DropTableStmt{Name: name}, nil
}

func (p *parser) cloneStmt() (Statement, error) {
	if _, err := p.expect(tokKeyword, "CLONE"); err != nil {
		return nil, err
	}
	if _, err := p.expect(tokKeyword, "TABLE"); err != nil {
		return nil, err
	}
	src, err := p.ident()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokKeyword, "TO"); err != nil {
		return nil, err
	}
	dst, err := p.ident()
	if err != nil {
		return nil, err
	}
	st := CloneStmt{Source: src, Dest: dst, AsOfSeq: -1}
	if p.kw("AS") {
		if _, err := p.expect(tokKeyword, "OF"); err != nil {
			return nil, err
		}
		if st.AsOfSeq, err = p.intLit(); err != nil {
			return nil, err
		}
	}
	return st, nil
}

func (p *parser) restoreStmt() (Statement, error) {
	if _, err := p.expect(tokKeyword, "RESTORE"); err != nil {
		return nil, err
	}
	if _, err := p.expect(tokKeyword, "TABLE"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokKeyword, "AS"); err != nil {
		return nil, err
	}
	if _, err := p.expect(tokKeyword, "OF"); err != nil {
		return nil, err
	}
	seq, err := p.intLit()
	if err != nil {
		return nil, err
	}
	return RestoreStmt{Table: name, AsOfSeq: seq}, nil
}

func (p *parser) showStmt() (Statement, error) {
	if _, err := p.expect(tokKeyword, "SHOW"); err != nil {
		return nil, err
	}
	if p.kw("TABLES") {
		return ShowStmt{What: "tables"}, nil
	}
	if p.kw("STATS") {
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		return ShowStmt{What: "stats", Table: name}, nil
	}
	return nil, fmt.Errorf("sql: SHOW TABLES or SHOW STATS <table> at %d", p.cur().pos)
}

// Expression parsing: precedence climbing.
// OR < AND < NOT < comparison/IS/IN/LIKE/BETWEEN < add < mul < unary.

func (p *parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *parser) parseOr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.kw("OR") {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = BinExpr{Op: "OR", L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseAnd() (Expr, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.kw("AND") {
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = BinExpr{Op: "AND", L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseNot() (Expr, error) {
	if p.kw("NOT") {
		e, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return NotExpr{E: e}, nil
	}
	return p.parseCmp()
}

func (p *parser) parseCmp() (Expr, error) {
	l, err := p.parseAdd()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.at(tokSymbol, "=") || p.at(tokSymbol, "<") || p.at(tokSymbol, ">") ||
			p.at(tokSymbol, "<=") || p.at(tokSymbol, ">=") || p.at(tokSymbol, "<>") || p.at(tokSymbol, "!="):
			op := p.cur().text
			p.i++
			r, err := p.parseAdd()
			if err != nil {
				return nil, err
			}
			l = BinExpr{Op: op, L: l, R: r}
		case p.at(tokKeyword, "IS"):
			p.i++
			neg := p.kw("NOT")
			if !p.kw("NULL") {
				return nil, fmt.Errorf("sql: expected NULL after IS at %d", p.cur().pos)
			}
			l = IsNullExpr{E: l, Negate: neg}
		case p.at(tokKeyword, "LIKE"):
			p.i++
			t, err := p.expect(tokString, "")
			if err != nil {
				return nil, err
			}
			l = LikeExpr{E: l, Pattern: t.text}
		case p.at(tokKeyword, "NOT") && p.peek().text == "LIKE":
			p.i += 2
			t, err := p.expect(tokString, "")
			if err != nil {
				return nil, err
			}
			l = LikeExpr{E: l, Pattern: t.text, Negate: true}
		case p.at(tokKeyword, "NOT") && p.peek().text == "IN":
			p.i += 2
			vals, err := p.literalList()
			if err != nil {
				return nil, err
			}
			l = InExpr{E: l, Vals: vals, Negate: true}
		case p.at(tokKeyword, "IN"):
			p.i++
			vals, err := p.literalList()
			if err != nil {
				return nil, err
			}
			l = InExpr{E: l, Vals: vals}
		case p.at(tokKeyword, "BETWEEN"):
			p.i++
			lo, err := p.parseAdd()
			if err != nil {
				return nil, err
			}
			if !p.kw("AND") {
				return nil, fmt.Errorf("sql: expected AND in BETWEEN at %d", p.cur().pos)
			}
			hi, err := p.parseAdd()
			if err != nil {
				return nil, err
			}
			l = BetweenExpr{E: l, Lo: lo, Hi: hi}
		default:
			return l, nil
		}
	}
}

func (p *parser) literalList() ([]any, error) {
	if _, err := p.expect(tokSymbol, "("); err != nil {
		return nil, err
	}
	var vals []any
	for {
		e, err := p.parsePrimary()
		if err != nil {
			return nil, err
		}
		lit, ok := e.(Lit)
		if !ok {
			return nil, fmt.Errorf("sql: IN list supports literals only")
		}
		vals = append(vals, lit.Val)
		if !p.accept(tokSymbol, ",") {
			break
		}
	}
	if _, err := p.expect(tokSymbol, ")"); err != nil {
		return nil, err
	}
	return vals, nil
}

func (p *parser) parseAdd() (Expr, error) {
	l, err := p.parseMul()
	if err != nil {
		return nil, err
	}
	for p.at(tokSymbol, "+") || p.at(tokSymbol, "-") {
		op := p.cur().text
		p.i++
		r, err := p.parseMul()
		if err != nil {
			return nil, err
		}
		l = BinExpr{Op: op, L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseMul() (Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.at(tokSymbol, "*") || p.at(tokSymbol, "/") || p.at(tokSymbol, "%") {
		op := p.cur().text
		p.i++
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		l = BinExpr{Op: op, L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseUnary() (Expr, error) {
	if p.accept(tokSymbol, "-") {
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		if lit, ok := e.(Lit); ok {
			switch v := lit.Val.(type) {
			case int64:
				return Lit{Val: -v}, nil
			case float64:
				return Lit{Val: -v}, nil
			}
		}
		return BinExpr{Op: "-", L: Lit{Val: int64(0)}, R: e}, nil
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.cur()
	switch {
	case t.kind == tokNumber:
		p.i++
		n, f, isFloat, err := number(t.text)
		switch {
		case err != nil:
			return nil, err
		case isFloat:
			return Lit{Val: f}, nil
		}
		return Lit{Val: n}, nil
	case t.kind == tokString:
		p.i++
		return Lit{Val: t.text}, nil
	case p.kw("TRUE"):
		return Lit{Val: true}, nil
	case p.kw("FALSE"):
		return Lit{Val: false}, nil
	case p.kw("NULL"):
		return Lit{Val: nil}, nil
	case t.kind == tokKeyword && isAggName(t.text):
		p.i++
		if _, err := p.expect(tokSymbol, "("); err != nil {
			return nil, err
		}
		fe := FuncExpr{Name: t.text}
		if p.accept(tokSymbol, "*") {
			fe.Star = true
		} else {
			arg, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			fe.Arg = arg
		}
		if _, err := p.expect(tokSymbol, ")"); err != nil {
			return nil, err
		}
		return fe, nil
	case t.kind == tokIdent:
		p.i++
		if p.at(tokSymbol, ".") && p.peek().kind == tokIdent {
			p.i++
			col := p.cur().text
			p.i++
			return ColName{Table: t.text, Name: col}, nil
		}
		return ColName{Name: t.text}, nil
	case p.accept(tokSymbol, "("):
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokSymbol, ")"); err != nil {
			return nil, err
		}
		return e, nil
	default:
		return nil, fmt.Errorf("sql: unexpected %q at %d", t.text, t.pos)
	}
}

// number parses a number token: a float64 if it holds a '.', else an int64.
func number(text string) (n int64, f float64, isFloat bool, err error) {
	if strings.IndexByte(text, '.') >= 0 {
		f, err = strconv.ParseFloat(text, 64)
		isFloat = true
	} else {
		n, err = strconv.ParseInt(text, 10, 64)
	}
	if err != nil {
		return 0, 0, false, fmt.Errorf("sql: bad number %q", text)
	}
	return n, f, isFloat, nil
}

func isAggName(s string) bool {
	switch s {
	case "COUNT", "SUM", "AVG", "MIN", "MAX":
		return true
	}
	return false
}
