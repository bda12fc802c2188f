package sql

import (
	"fmt"
	"strings"
	"unicode"

	"polaris/internal/colfile"
)

// The statement front end as it was before the byte-class lexer and typed
// VALUES cells, kept as the oracle FuzzLex and FuzzInsertValues compare
// against: a lexer that appends one token at a time, and a VALUES binder
// that parses every cell as an Expr, folds it with valuesCell and appends
// each row boxed through Batch.AppendRow.

type refToken struct {
	kind tokKind
	text string // keywords uppercased; idents as written; symbols literal
	pos  int
}

var refKeywords = map[string]bool{
	"SELECT": true, "FROM": true, "WHERE": true, "GROUP": true, "BY": true,
	"HAVING": true, "ORDER": true, "ASC": true, "DESC": true, "LIMIT": true,
	"OFFSET": true, "AS": true, "OF": true, "JOIN": true, "INNER": true,
	"LEFT": true, "OUTER": true, "ON": true, "AND": true, "OR": true,
	"NOT": true, "NULL": true, "IS": true, "IN": true, "LIKE": true,
	"BETWEEN": true, "INSERT": true, "INTO": true, "VALUES": true,
	"UPDATE": true, "SET": true, "DELETE": true, "CREATE": true,
	"TABLE": true, "DROP": true, "BEGIN": true, "COMMIT": true,
	"ROLLBACK": true, "TRANSACTION": true, "INT": true, "BIGINT": true,
	"FLOAT": true, "VARCHAR": true, "TEXT": true, "BOOL": true,
	"BOOLEAN": true, "TRUE": true, "FALSE": true, "WITH": true,
	"DISTRIBUTION": true, "COUNT": true, "SUM": true, "AVG": true,
	"MIN": true, "MAX": true, "CLONE": true, "TO": true, "RESTORE": true,
	"SHOW": true, "TABLES": true, "STATS": true, "EXISTS": true, "IF": true,
	"COMPACT": true, "CHECKPOINT": true, "VACUUM": true, "DOUBLE": true,
	"EXPLAIN": true,
}

// refLex tokenizes the input; errors carry byte positions.
func refLex(src string) ([]refToken, error) {
	var toks []refToken
	i := 0
	n := len(src)
	for i < n {
		c := src[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '-' && i+1 < n && src[i+1] == '-': // comment to EOL
			for i < n && src[i] != '\n' {
				i++
			}
		case unicode.IsLetter(rune(c)) || c == '_':
			j := i
			for j < n && (unicode.IsLetter(rune(src[j])) || unicode.IsDigit(rune(src[j])) || src[j] == '_') {
				j++
			}
			word := src[i:j]
			up := strings.ToUpper(word)
			if refKeywords[up] {
				toks = append(toks, refToken{tokKeyword, up, i})
			} else {
				toks = append(toks, refToken{tokIdent, word, i})
			}
			i = j
		case unicode.IsDigit(rune(c)) || (c == '.' && i+1 < n && unicode.IsDigit(rune(src[i+1]))):
			j := i
			seenDot := false
			for j < n && (unicode.IsDigit(rune(src[j])) || (src[j] == '.' && !seenDot)) {
				if src[j] == '.' {
					seenDot = true
				}
				j++
			}
			toks = append(toks, refToken{tokNumber, src[i:j], i})
			i = j
		case c == '\'':
			j := i + 1
			var sb strings.Builder
			for {
				if j >= n {
					return nil, fmt.Errorf("sql: unterminated string at %d", i)
				}
				if src[j] == '\'' {
					if j+1 < n && src[j+1] == '\'' { // escaped quote
						sb.WriteByte('\'')
						j += 2
						continue
					}
					break
				}
				sb.WriteByte(src[j])
				j++
			}
			toks = append(toks, refToken{tokString, sb.String(), i})
			i = j + 1
		default:
			// multi-char symbols first
			for _, sym := range []string{"<=", ">=", "<>", "!=", "=", "<", ">", "(", ")", ",", "*", "+", "-", "/", "%", ".", ";"} {
				if strings.HasPrefix(src[i:], sym) {
					toks = append(toks, refToken{tokSymbol, sym, i})
					i += len(sym)
					goto next
				}
			}
			return nil, fmt.Errorf("sql: unexpected character %q at %d", c, i)
		next:
		}
	}
	toks = append(toks, refToken{tokEOF, "", n})
	return toks, nil
}

// refInsert is an INSERT … VALUES statement with every cell an Expr.
type refInsert struct {
	table string
	cols  []string
	rows  [][]Expr
}

// refParseInsert parses one INSERT … VALUES statement from refLex's tokens,
// every cell through parseExpr, as Parse did.
func refParseInsert(src string) (*refInsert, error) {
	rtoks, err := refLex(src)
	if err != nil {
		return nil, err
	}
	toks := make([]token, len(rtoks))
	for i, t := range rtoks {
		toks[i] = token{text: t.text, pos: t.pos, kind: t.kind}
	}
	p := &parser{toks: toks}
	if !p.at(tokKeyword, "INSERT") {
		return nil, fmt.Errorf("sql: unexpected %q at %d", p.cur().text, p.cur().pos)
	}
	p.i++
	if _, err := p.expect(tokKeyword, "INTO"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	st := &refInsert{table: name}
	if p.accept(tokSymbol, "(") {
		for {
			c, err := p.ident()
			if err != nil {
				return nil, err
			}
			st.cols = append(st.cols, c)
			if !p.accept(tokSymbol, ",") {
				break
			}
		}
		if _, err := p.expect(tokSymbol, ")"); err != nil {
			return nil, err
		}
	}
	if !p.kw("VALUES") {
		return nil, fmt.Errorf("sql: INSERT needs VALUES or SELECT at %d", p.cur().pos)
	}
	for {
		if _, err := p.expect(tokSymbol, "("); err != nil {
			return nil, err
		}
		var row []Expr
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			row = append(row, e)
			if !p.accept(tokSymbol, ",") {
				break
			}
		}
		if _, err := p.expect(tokSymbol, ")"); err != nil {
			return nil, err
		}
		st.rows = append(st.rows, row)
		if !p.accept(tokSymbol, ",") {
			break
		}
	}
	p.accept(tokSymbol, ";")
	if !p.at(tokEOF, "") {
		return nil, fmt.Errorf("sql: trailing input at %q", p.cur().text)
	}
	return st, nil
}

// refBindValues is runInsert's VALUES binding as it was: one boxed row per
// VALUES row, unnamed columns NULL, appended through Batch.AppendRow.
func refBindValues(schema colfile.Schema, st *refInsert) (*colfile.Batch, error) {
	cols := st.cols
	if cols == nil {
		cols = make([]string, len(schema))
		for i, f := range schema {
			cols[i] = f.Name
		}
	}
	colIdx := make([]int, len(cols))
	for i, c := range cols {
		idx := schema.ColIndex(c)
		if idx < 0 {
			return nil, fmt.Errorf("sql: unknown column %q", c)
		}
		colIdx[i] = idx
	}
	batch := colfile.NewBatch(schema)
	for _, row := range st.rows {
		if len(row) != len(cols) {
			return nil, fmt.Errorf("sql: row has %d values, expected %d", len(row), len(cols))
		}
		vals := make([]any, len(schema)) // unnamed columns are NULL
		for i, e := range row {
			lit, err := valuesCell(e)
			if err != nil {
				return nil, err
			}
			vals[colIdx[i]] = lit
		}
		if err := batch.AppendRow(vals...); err != nil {
			return nil, err
		}
	}
	return batch, nil
}
