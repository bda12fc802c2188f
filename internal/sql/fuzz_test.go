package sql

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"polaris/internal/colfile"
)

// lexSeeds are inputs at the lexer's edges: quotes, non-ASCII and invalid
// UTF-8 bytes, a comment at EOF, dotted numbers and every multi-byte symbol.
var lexSeeds = []string{
	`'it''s'`, `''`, `'unterminated`, `'a''`, `SELECT 'é' FROM t`, "é", "\xff",
	"SELECT 1 --", "--", `1.2.3`, `.5`, `5.`, `!`, `!=`, `<>`, `<=`, `>=`,
	`a<>b!=c<=d>=e`, "sElEcT\tx\r\nFROM t", `_x1 DISTRIBUTIONS distribution`,
}

// FuzzParse feeds arbitrary text to the parser, which takes it straight from
// clients (the HTTP front end parses before admission): Parse and ParseScript
// must return statements or an error, never panic. The seeds are one
// statement of every kind, inputs that once crashed the parser, and the
// lexer's edge cases.
func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		`SELECT a, COUNT(*) AS n FROM t AS x JOIN u ON x.a = u.b WHERE a BETWEEN 1 AND 9 GROUP BY a HAVING COUNT(*) > 1 ORDER BY n DESC LIMIT 5 OFFSET 1`,
		`SELECT * FROM t AS OF 3 LEFT JOIN u ON t.k = u.k WHERE s LIKE '%x' AND v IS NOT NULL`,
		`INSERT INTO t (a, b) VALUES (1, 'x'), (-2, NULL)`,
		`INSERT INTO t SELECT * FROM u`,
		`UPDATE t SET a = a + 1 WHERE b IN (1, 2)`,
		`DELETE FROM t WHERE NOT a = 1`,
		`CREATE TABLE IF NOT EXISTS t (a INT, b VARCHAR(10), c FLOAT, d BOOL) WITH (DISTRIBUTION = a, SORTCOL = b)`,
		`DROP TABLE IF EXISTS t`,
		`BEGIN TRANSACTION; COMMIT; ROLLBACK`,
		`CLONE TABLE a TO b AS OF 7`,
		`RESTORE TABLE a AS OF 9`,
		`SHOW TABLES`,
		`EXPLAIN SELECT a FROM t`,
		`COMPACT TABLE t; CHECKPOINT TABLE t; VACUUM`,
		`CREATE TABLE A(A INT,A VARCHAR)WITH(`,
	} {
		f.Add(seed)
	}
	for _, seed := range lexSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if st, err := Parse(src); err == nil && st == nil {
			t.Fatalf("Parse(%q) returned neither a statement nor an error", src)
		}
		stmts, err := ParseScript(src)
		if err != nil {
			return
		}
		for i, st := range stmts {
			if st == nil {
				t.Fatalf("ParseScript(%q) returned a nil statement %d without an error", src, i)
			}
		}
	})
}

// FuzzLex checks the byte-class lexer against the lexer it replaced
// (refLex): the same tokens — kind, text and position — or the same error.
func FuzzLex(f *testing.F) {
	for _, seed := range lexSeeds {
		f.Add(seed)
	}
	f.Add(`INSERT INTO t (a, b) VALUES (1, 'x'), (-2.5, NULL); SELECT a FROM t WHERE b LIKE 'x%'`)
	f.Fuzz(func(t *testing.T, src string) {
		got, err := lex(src)
		want, refErr := refLex(src)
		if err != nil || refErr != nil {
			if fmt.Sprint(err) != fmt.Sprint(refErr) {
				t.Fatalf("lex(%q) error %v, reference %v", src, err, refErr)
			}
			return
		}
		if len(got) != len(want) {
			t.Fatalf("lex(%q): %d tokens, reference %d", src, len(got), len(want))
		}
		for i, g := range got {
			if w := want[i]; g.kind != w.kind || g.text != w.text || g.pos != w.pos {
				t.Fatalf("lex(%q) token %d = {%d %q %d}, reference {%d %q %d}",
					src, i, g.kind, g.text, g.pos, w.kind, w.text, w.pos)
			}
		}
	})
}

// choices reads a fuzz input as a stream of small choices, 0 once it is
// exhausted.
type choices []byte

func (c *choices) pick(n int) int {
	if len(*c) == 0 {
		return 0
	}
	b := (*c)[0]
	*c = (*c)[1:]
	return int(b) % n
}

// valuesCells are the cells FuzzInsertValues writes: bare literals of every
// kind, spellings at the edges of "bare", expressions that fold, and cells
// that fail to parse or to fold.
var valuesCells = []string{
	"0", "7", "42", "-3", "- 12", "9223372036854775807", "99999999999999999999",
	"2.9", "-2.9", ".5", "7.", "-0.0", "1e3",
	`'x'`, `''`, `'it''s'`, `'a''''b'`, `'é'`,
	"TRUE", "FALSE", "NULL", "true", "null",
	"1 + 2 * 3", "-(2)", "(4)", "2 * 1.5", "- -5", "-NULL", "NOT TRUE",
	"NULL + 1", "'a' + 1", "1 / 0", "7 % 2", "1 = 1", "k", "COUNT(*)", "-'x'",
}

var valuesTypes = []colfile.DataType{colfile.Int64, colfile.Float64, colfile.String, colfile.Bool}

// FuzzInsertValues checks VALUES binding against the binder it replaced: a
// generated INSERT over INT/FLOAT/VARCHAR/BOOL columns, with NULLs,
// negatives, expression cells, column lists and rows of the wrong width,
// binds to the same batch bytes as refBindValues builds, or both fail with
// the same error text.
func FuzzInsertValues(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 0, 1, 2, 3, 1, 1, 0, 2, 0, 4, 7, 19, 20, 24})
	f.Add([]byte{1, 1, 2, 0, 2, 1, 0, 1, 0, 8, 0, 1, 9})
	f.Add([]byte{2, 3, 1, 2, 3, 0, 2, 1, 3, 4, 5, 23, 25, 30, 34, 37})
	f.Add([]byte{0, 0, 0, 1, 0, 0, 0, 1, 1, 2})     // (c0, c0) VALUES (7, 42): the later cell wins
	f.Add([]byte{1, 2, 0, 0, 1, 1, 0, 0, 1, 13, 1}) // (c1, c0) VALUES ('x', 7): both fail, schema order reports
	f.Fuzz(func(t *testing.T, data []byte) {
		c := choices(data)
		schema := make(colfile.Schema, 1+c.pick(4))
		for i := range schema {
			schema[i] = colfile.Field{Name: fmt.Sprintf("c%d", i), Type: valuesTypes[c.pick(len(valuesTypes))]}
		}
		var sb strings.Builder
		sb.WriteString("INSERT INTO t")
		width := len(schema)
		if c.pick(3) == 0 { // a column list, maybe naming a column twice or one that is not there
			width = 1 + c.pick(len(schema)+1)
			for i := 0; i < width; i++ {
				sep := ", "
				if i == 0 {
					sep = " ("
				}
				name := "nosuch"
				if k := c.pick(len(schema) + 1); k < len(schema) || c.pick(4) != 0 {
					name = schema[k%len(schema)].Name
				}
				sb.WriteString(sep + name)
			}
			sb.WriteString(")")
		}
		sb.WriteString(" VALUES ")
		rows := 1 + c.pick(4)
		for r := 0; r < rows; r++ {
			if r > 0 {
				sb.WriteString(",")
			}
			w := width
			if c.pick(8) == 0 { // a row of the wrong width, mostly
				w = 1 + c.pick(width+2)
			}
			sb.WriteString("(")
			for i := 0; i < w; i++ {
				if i > 0 {
					sb.WriteString(", ")
				}
				sb.WriteString(valuesCells[c.pick(len(valuesCells))])
			}
			sb.WriteString(")")
		}
		src := sb.String()

		want, refErr := refParseInsert(src)
		st, err := Parse(src)
		if err != nil || refErr != nil {
			if fmt.Sprint(err) != fmt.Sprint(refErr) {
				t.Fatalf("Parse(%q) error %v, reference %v", src, err, refErr)
			}
			return
		}
		ins := st.(*InsertStmt)
		got, err := bindValues(schema, ins.Columns, ins.Values)
		ref, refErr := refBindValues(schema, want)
		if err != nil || refErr != nil {
			if fmt.Sprint(err) != fmt.Sprint(refErr) {
				t.Fatalf("%q into %v: error %v, reference %v", src, schema, err, refErr)
			}
			return
		}
		gb, err := colfile.MarshalBatch(got)
		if err != nil {
			t.Fatal(err)
		}
		rb, err := colfile.MarshalBatch(ref)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gb, rb) {
			t.Fatalf("%q into %v: batch differs from the reference's", src, schema)
		}
	})
}
