// Package sqldb is an embedded, in-memory SQL database engine. It
// stands in for the commercial RDBMS used in the paper's experiments
// (§VI): the eCFD detection algorithms only *generate* SQL, so any
// engine that executes the generated dialect — multi-table FROM lists,
// correlated EXISTS / NOT EXISTS, GROUP BY / HAVING, CASE, DISTINCT,
// UPDATE ... WHERE — reproduces them faithfully. It parses that dialect
// and nothing else (README.md, "The dialect").
//
// The pipeline is conventional: lexer → recursive-descent parser → AST
// → compiler (expressions become closures with resolved column
// indexes) → executor. Correlated EXISTS subqueries whose predicates
// are equality conjunctions against outer expressions are decorrelated
// into one hash build plus O(1) probes per outer row, which is what
// makes detection two passes over D as the paper requires.
package sqldb

import (
	"fmt"
	"strings"
)

type tokenKind uint8

const (
	tokEOF tokenKind = iota
	tokIdent
	tokKeyword
	tokString
	tokNumber
	tokPunct
	tokParam // '?'
)

type token struct {
	kind tokenKind
	text string // keywords upper-cased; idents as written; strings unquoted
	pos  int
}

func (t token) String() string {
	if t.kind == tokEOF {
		return "end of input"
	}
	return fmt.Sprintf("%q", t.text)
}

// keywords are the reserved words of the dialect (README.md, "The
// dialect"). Type and function names are identifiers.
var keywords = map[string]bool{
	"SELECT": true, "DISTINCT": true, "FROM": true, "WHERE": true, "GROUP": true,
	"BY": true, "HAVING": true, "ORDER": true, "LIMIT": true, "AS": true,
	"AND": true, "OR": true, "NOT": true, "IN": true, "EXISTS": true, "IS": true,
	"NULL": true, "TRUE": true, "FALSE": true, "CASE": true, "WHEN": true,
	"THEN": true, "ELSE": true, "END": true, "INSERT": true, "INTO": true,
	"VALUES": true, "UPDATE": true, "SET": true, "DELETE": true, "CREATE": true,
	"TABLE": true, "INDEX": true, "ON": true, "DROP": true, "IF": true,
	"TRUNCATE": true,
}

// refused are the keywords and operators of SQL the dialect leaves out:
// the lexer stops at one with a positioned error, so no statement that
// uses one reaches the parser.
var refused = map[string]bool{
	"LIKE": true, "BETWEEN": true, "JOIN": true, "CROSS": true, "INNER": true,
	"OFFSET": true, "ASC": true, "DESC": true, "ALL": true,
	"+": true, "/": true, "%": true, "||": true, "!=": true,
}

// notSupported is the error for a refused keyword, operator or function.
func notSupported(pos int, what string) error { return errAt(pos, "%s is not supported", what) }

type lexer struct {
	src string
	pos int
}

// lexError is a positioned scan/parse error.
type lexError struct {
	pos int
	msg string
}

func (e *lexError) Error() string { return fmt.Sprintf("sql: at offset %d: %s", e.pos, e.msg) }

func errAt(pos int, format string, args ...any) error {
	return &lexError{pos: pos, msg: fmt.Sprintf(format, args...)}
}

func (l *lexer) next() (token, error) {
	for l.pos < len(l.src) && strings.IndexByte(" \t\n\r", l.src[l.pos]) >= 0 {
		l.pos++
	}
	if l.pos == len(l.src) {
		return token{kind: tokEOF, pos: l.pos}, nil
	}
	start := l.pos
	c := l.src[l.pos]
	switch {
	case c == '\'':
		l.pos++
		var b strings.Builder
		for l.pos < len(l.src) {
			ch := l.src[l.pos]
			if ch == '\'' {
				if l.pos+1 < len(l.src) && l.src[l.pos+1] == '\'' {
					b.WriteByte('\'') // '' escapes a quote
					l.pos += 2
					continue
				}
				l.pos++
				return token{kind: tokString, text: b.String(), pos: start}, nil
			}
			b.WriteByte(ch)
			l.pos++
		}
		return token{}, errAt(start, "unterminated string literal")

	case c >= '0' && c <= '9', c == '.' && l.pos+1 < len(l.src) && isDigit(l.src[l.pos+1]):
		for l.pos < len(l.src) && (isDigit(l.src[l.pos]) || l.src[l.pos] == '.' ||
			l.src[l.pos] == 'e' || l.src[l.pos] == 'E' ||
			((l.src[l.pos] == '+' || l.src[l.pos] == '-') && (l.src[l.pos-1] == 'e' || l.src[l.pos-1] == 'E'))) {
			l.pos++
		}
		return token{kind: tokNumber, text: l.src[start:l.pos], pos: start}, nil

	case c == '?':
		l.pos++
		return token{kind: tokParam, text: "?", pos: start}, nil

	case isIdentStart(c):
		for l.pos < len(l.src) && isIdentPart(l.src[l.pos]) {
			l.pos++
		}
		word := l.src[start:l.pos]
		up := strings.ToUpper(word)
		if refused[up] {
			return token{}, notSupported(start, up)
		}
		if keywords[up] {
			return token{kind: tokKeyword, text: up, pos: start}, nil
		}
		return token{kind: tokIdent, text: word, pos: start}, nil
	}
	op := l.src[l.pos : l.pos+1]
	for _, two := range [...]string{"<>", "<=", ">=", "!=", "||"} {
		if strings.HasPrefix(l.src[l.pos:], two) {
			op = two
		}
	}
	if refused[op] {
		return token{}, notSupported(start, op)
	}
	if len(op) == 1 && !strings.Contains("(),.*=<>-;", op) {
		return token{}, errAt(start, "unexpected character %q", c)
	}
	l.pos += len(op)
	return token{kind: tokPunct, text: op, pos: start}, nil
}

func isDigit(c byte) bool      { return c >= '0' && c <= '9' }
func isIdentStart(c byte) bool { return c == '_' || (c|0x20 >= 'a' && c|0x20 <= 'z') }
func isIdentPart(c byte) bool  { return isIdentStart(c) || isDigit(c) || c == '$' || c == '@' }
