// Package sql implements the T-SQL subset Polaris's SQL FE compiles
// (paper 3.3): DDL, DML, queries with joins and aggregation, explicit
// transaction control, and the lineage extensions (AS OF time travel, CLONE,
// RESTORE). Compilation is consolidated in the FE — there is no BE-side
// compilation stage — matching the paper's single-phase query optimization.
package sql

import (
	"fmt"
	"strings"
	"unicode"
)

// tokKind classifies lexer tokens.
type tokKind uint8

const (
	tokEOF tokKind = iota
	tokIdent
	tokKeyword
	tokNumber
	tokString
	tokSymbol
)

// token is one lexeme. text is a substring of the source for identifiers,
// numbers, symbols and strings without a doubled quote; a keyword's text is
// its canonical upper-case spelling.
type token struct {
	text string
	pos  int
	kind tokKind
}

// keywords maps each keyword to its canonical (upper-case) text.
var keywords = func() map[string]string {
	m := map[string]string{}
	for _, k := range strings.Fields(`
		SELECT FROM WHERE GROUP BY HAVING ORDER ASC DESC LIMIT OFFSET AS OF
		JOIN INNER LEFT OUTER ON AND OR NOT NULL IS IN LIKE BETWEEN INSERT
		INTO VALUES UPDATE SET DELETE CREATE TABLE DROP BEGIN COMMIT ROLLBACK
		TRANSACTION INT BIGINT FLOAT VARCHAR TEXT BOOL BOOLEAN TRUE FALSE WITH
		DISTRIBUTION COUNT SUM AVG MIN MAX CLONE TO RESTORE SHOW TABLES STATS
		EXISTS IF COMPACT CHECKPOINT VACUUM DOUBLE EXPLAIN`) {
		m[k] = k
	}
	return m
}()

// maxKeywordLen is the length of the longest keyword, DISTRIBUTION.
const maxKeywordLen = 12

// Byte classes. A byte is lexed by its own value alone, read as a Latin-1
// rune, so a multi-byte UTF-8 character is several bytes of whatever
// classes its bytes have.
const (
	classSpace      = 1 << iota // ' ', \t, \n, \r
	classIdentStart             // unicode.IsLetter, or '_'
	classIdent                  // classIdentStart or unicode.IsDigit
	classDigit                  // unicode.IsDigit
)

var byteClass = func() (t [256]uint8) {
	for b := range t {
		r := rune(b)
		switch {
		case b == ' ' || b == '\t' || b == '\n' || b == '\r':
			t[b] = classSpace
		case unicode.IsLetter(r) || b == '_':
			t[b] = classIdentStart | classIdent
		case unicode.IsDigit(r):
			t[b] = classDigit | classIdent
		}
	}
	return t
}()

// lex tokenizes the input; errors carry byte positions.
func lex(src string) ([]token, error) {
	n := len(src)
	// Every token but EOF spans at least one byte and most are separated
	// by at least one more, so this fits nearly every statement at once.
	toks := make([]token, 0, n/2+2)
	for i := 0; i < n; {
		c := src[i]
		cls := byteClass[c]
		switch {
		case cls&classSpace != 0:
			i++
		case cls&classIdentStart != 0:
			j := i + 1
			for j < n && byteClass[src[j]]&classIdent != 0 {
				j++
			}
			if kw, ok := keyword(src[i:j]); ok {
				toks = append(toks, token{kw, i, tokKeyword})
			} else {
				toks = append(toks, token{src[i:j], i, tokIdent})
			}
			i = j
		case cls&classDigit != 0 || (c == '.' && i+1 < n && byteClass[src[i+1]]&classDigit != 0):
			j, seenDot := i, false
			for j < n && (byteClass[src[j]]&classDigit != 0 || (src[j] == '.' && !seenDot)) {
				seenDot = seenDot || src[j] == '.'
				j++
			}
			toks = append(toks, token{src[i:j], i, tokNumber})
			i = j
		case c == '\'':
			s, end, err := stringLit(src, i)
			if err != nil {
				return nil, err
			}
			toks = append(toks, token{s, i, tokString})
			i = end
		case c == '-' && i+1 < n && src[i+1] == '-': // comment to EOL
			for i < n && src[i] != '\n' {
				i++
			}
		default:
			w := symbolLen(src, i)
			if w == 0 {
				return nil, fmt.Errorf("sql: unexpected character %q at %d", c, i)
			}
			toks = append(toks, token{src[i : i+w], i, tokSymbol})
			i += w
		}
	}
	return append(toks, token{"", n, tokEOF}), nil
}

// keyword reports whether word is a keyword in any letter case, and its
// canonical text. Only an ASCII word can be one.
func keyword(word string) (string, bool) {
	if len(word) > maxKeywordLen {
		return "", false
	}
	var up [maxKeywordLen]byte
	for k := 0; k < len(word); k++ {
		b := word[k]
		if b >= 0x80 {
			return "", false
		}
		if 'a' <= b && b <= 'z' {
			b -= 'a' - 'A'
		}
		up[k] = b
	}
	kw, ok := keywords[string(up[:len(word)])]
	return kw, ok
}

// stringLit reads the string literal whose opening quote is at src[i] and
// returns its value and the position just past its closing quote. The value
// is a substring of src unless the literal holds a doubled quote.
func stringLit(src string, i int) (string, int, error) {
	var b []byte // the value so far, once a doubled quote forces a copy
	for j := i + 1; ; {
		k := strings.IndexByte(src[j:], '\'')
		if k < 0 {
			return "", 0, fmt.Errorf("sql: unterminated string at %d", i)
		}
		end := j + k // a quote
		if end+1 < len(src) && src[end+1] == '\'' {
			b = append(b, src[j:end+1]...) // through one of the pair
			j = end + 2
			continue
		}
		if b == nil {
			return src[i+1 : end], end + 1, nil
		}
		return string(append(b, src[j:end]...)), end + 1, nil
	}
}

// symbolLen returns the length of the symbol at src[i], or 0 if none
// starts there.
func symbolLen(src string, i int) int {
	next := byte(0)
	if i+1 < len(src) {
		next = src[i+1]
	}
	switch src[i] {
	case '<':
		if next == '=' || next == '>' {
			return 2
		}
		return 1
	case '>':
		if next == '=' {
			return 2
		}
		return 1
	case '!':
		if next == '=' {
			return 2
		}
		return 0
	case '=', '(', ')', ',', '*', '+', '-', '/', '%', '.', ';':
		return 1
	}
	return 0
}
