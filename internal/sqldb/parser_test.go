package sqldb

import (
	"strings"
	"testing"
)

// parseBad, parseGood and their srcs are the inputs of the two table
// tests below and seeds of FuzzParse. A bad input carries the offset its
// error must name: the token the parser stopped at.
var (
	parseBad = []struct {
		src string
		off int
	}{
		{``, 0},
		{`;`, 0},
		{`SELEC x`, 0},
		{`SELECT FROM`, 7},
		{`SELECT * FROM`, 13},
		{`SELECT * FROM t WHERE`, 21},
		{`CREATE TABLE`, 12},
		{`CREATE TABLE t (a BLOB)`, 18},
		{`CREATE VIEW v AS SELECT 1`, 7},
		{`INSERT t VALUES (1)`, 7},
		{`INSERT INTO t (a VALUES (1)`, 17},
		{`INSERT INTO t SET a = 1`, 14},
		{`UPDATE t WHERE x = 1`, 9},
		{`DELETE t`, 7},
		{`SELECT CASE END`, 12},
		{`SELECT COUNT(*`, 14},
		{`SELECT (SELECT 1`, 8},
		{`SELECT 'unterminated`, 7},
		{`SELECT "unterminated`, 7},
		{`SELECT /* unterminated`, 7},
		{`SELECT x FROM (SELECT 1) -- derived without alias`, 25},
		{`SELECT 1 $ 2`, 9},
		{`SELECT x BETWEEN 1, 2`, 9},
		{`SELECT a.b.c FROM t`, 10},
		{`SELECT 99999999999999999999999`, 7},
		{`SELECT COALESCE(a, b, 1) FROM t`, 7},

		// One statement per production the dialect leaves out (README.md,
		// "The dialect").
		{`SELECT a FROM t WHERE a LIKE 'x%'`, 24},
		{`SELECT a FROM t WHERE a NOT BETWEEN 1 AND 2`, 24},
		{`SELECT (SELECT MAX(a) FROM t) FROM t`, 8}, // scalar subquery
		{`SELECT a + 1 FROM t`, 9},
		{`SELECT a FROM t WHERE a - 1 = 0`, 24},
		{`SELECT a * 2 FROM t`, 9},
		{`SELECT a / 2 FROM t`, 9},
		{`SELECT a % 2 FROM t`, 9},
		{`SELECT a || 'x' FROM t`, 9},
		{`SELECT +1`, 7},
		{`SELECT -a FROM t`, 8}, // minus only makes negative numbers
		{`SELECT a FROM t WHERE NOT a = 1`, 26},
		{`SELECT LENGTH(a) FROM t`, 7},
		{`SELECT UPPER(a) FROM t`, 7},
		{`SELECT LOWER(a) FROM t`, 7},
		{`SELECT NULLIF(a, 1) FROM t`, 7},
		{`SELECT IFNULL(a, 1) FROM t`, 7},
		{`SELECT AVG(a) FROM t`, 7},
		{`SELECT MIN(a) FROM t`, 7},
		{`SELECT COUNT(a) FROM t`, 13},
		{`SELECT COUNT(DISTINCT a) FROM t`, 13},
		{`SELECT a FROM t LIMIT 1 OFFSET 2`, 24},
		{`SELECT a FROM t JOIN u ON t.a = u.a`, 16},
		{`SELECT a FROM t INNER JOIN u ON t.a = u.a`, 16},
		{`SELECT a FROM t CROSS JOIN u`, 16},
		{`UPDATE t SET a = b`, 17},
		{`UPDATE t SET a = ?`, 17},
		{`SELECT CASE a WHEN 1 THEN 2 ELSE 3 END FROM t`, 12},
		{`SELECT CASE WHEN a = 1 THEN 1 WHEN a = 2 THEN 2 ELSE 3 END FROM t`, 30},
		{`SELECT CASE WHEN a = 1 THEN 1 END FROM t`, 30},
		{`SELECT a FROM t WHERE a NOT IN (1, 2)`, 24},
		{`SELECT a FROM t WHERE a IN (1, 2)`, 27},
		{`SELECT a FROM t ORDER BY a DESC`, 27},
		{`SELECT a FROM t ORDER BY a ASC`, 27},
		{`SELECT a FROM t ORDER BY 1`, 25},
		{`SELECT ALL a FROM t`, 7},
		{`SELECT t.* FROM t`, 9},
		{`CREATE TABLE IF NOT EXISTS t (a INTEGER)`, 13},
		{`CREATE TABLE t (a INT)`, 18},
		{`CREATE TABLE t (a VARCHAR(8))`, 18},
		{`CREATE TABLE t (a FLOAT)`, 18},
		{`CREATE TABLE t (a BOOL)`, 18},
		{`CREATE TABLE t (a INTEGER NOT NULL)`, 26},
		{`CREATE TABLE t (a INTEGER PRIMARY KEY)`, 26},
		{`TRUNCATE t`, 9},
		{`SELECT "a" FROM t`, 7},
		{`SELECT a FROM t -- comment`, 16},
		{`SELECT a /* comment */ FROM t`, 9},
		{`SELECT a FROM t WHERE a != 1`, 24},
		{`SELECT a FROM t AS x`, 16},
		{`SELECT a x FROM t`, 9},
		{`SELECT index FROM t`, 7},
	}
	parseGood = []string{
		`SELECT 1; SELECT 2;`,
		`SELECT -1.5e3`,
		`SELECT .5`,
		`SELECT x FROM t WHERE x IS NOT NULL AND NOT EXISTS (SELECT 1 FROM u WHERE u.y = t.x)`,
		`CREATE TABLE v (a INTEGER, b TEXT, c REAL, d BOOLEAN)`,
		`SELECT DISTINCT x AS y FROM t, u v WHERE x = 1 OR x = ? ORDER BY x, v.y LIMIT 1`,
		`SELECT CASE WHEN a THEN 1 ELSE 'x' END FROM t`,
		`SELECT m.a, COUNT(*), SUM(m.b), MAX(m.b) FROM (SELECT a, b FROM t) m GROUP BY m.a HAVING COUNT(*) > 1`,
		`SELECT COALESCE(TOTEXT(a), '@'), ABS(b) FROM t WHERE a IN (SELECT c FROM u)`,
		`UPDATE t x SET a = -1, b = 'y', c = NULL, d = TRUE WHERE x.e = FALSE`,
		`INSERT INTO t (a, b) VALUES (1, ?), (-2.5, NULL); INSERT INTO t SELECT * FROM u`,
		`DELETE FROM t d WHERE d.a >= ?`,
		`DROP TABLE IF EXISTS t; DROP TABLE t; CREATE INDEX i ON t (a, b)`,
		`TRUNCATE TABLE x`,
	}
)

func TestParseErrorsSurface(t *testing.T) {
	for _, c := range parseBad {
		_, err := ParseScript(c.src)
		if off, ok := ParseErrorOffset(err); !ok || off != c.off {
			t.Errorf("%q: error %v at offset %d, want a parse error at %d", c.src, err, off, c.off)
		}
	}
}

func TestParseAccepts(t *testing.T) {
	for _, src := range parseGood {
		if _, err := ParseScript(src); err != nil {
			t.Errorf("unexpected error for %q: %v", src, err)
		}
	}
}

func TestOrderByOrdinalRange(t *testing.T) {
	db := NewDB()
	mustExec(t, db, `CREATE TABLE o (x INTEGER)`)
	if _, err := db.Query(`SELECT x FROM o ORDER BY 2`); err == nil {
		t.Error("out-of-range ordinal must fail at compile time")
	}
	if _, err := db.Query(`SELECT x FROM o ORDER BY 0`); err == nil {
		t.Error("zero ordinal must fail")
	}
}

func TestTokenAndErrorStrings(t *testing.T) {
	if (token{kind: tokEOF}).String() != "end of input" {
		t.Error("EOF token string")
	}
	if got := (token{kind: tokIdent, text: "x"}).String(); got != `"x"` {
		t.Errorf("token string = %s", got)
	}
	err := errAt(7, "boom %d", 42)
	if !strings.Contains(err.Error(), "offset 7") || !strings.Contains(err.Error(), "boom 42") {
		t.Errorf("errAt rendering: %v", err)
	}
}

func TestParamCounting(t *testing.T) {
	stmt, err := Parse(`SELECT * FROM t WHERE a = ? AND b = ? AND (c = ? OR c = ?)`)
	if err != nil {
		t.Fatal(err)
	}
	sel := stmt.(*Select)
	// Parameters get ascending indexes.
	var conj []Expr
	splitConjuncts(sel.Where, &conj)
	if len(conj) != 3 {
		t.Fatalf("conjuncts = %d", len(conj))
	}
	or := conj[2].(*Binary)
	if or.L.(*Binary).R.(*Param).Index != 2 || or.R.(*Binary).R.(*Param).Index != 3 {
		t.Error("param indexes must ascend in source order")
	}
}

func TestUpdateDeleteAliasParsing(t *testing.T) {
	stmt, err := Parse(`UPDATE t alias SET x = 1 WHERE alias.x = 2`)
	if err != nil {
		t.Fatal(err)
	}
	if stmt.(*Update).Alias != "alias" {
		t.Error("update alias lost")
	}
	stmt, err = Parse(`DELETE FROM t d WHERE d.x = 1`)
	if err != nil {
		t.Fatal(err)
	}
	if stmt.(*Delete).Alias != "d" {
		t.Error("delete alias lost")
	}
}

func TestInsertMultiRowAndColumns(t *testing.T) {
	stmt, err := Parse(`INSERT INTO t (a, b) VALUES (1, 2), (3, 4), (5, 6)`)
	if err != nil {
		t.Fatal(err)
	}
	ins := stmt.(*Insert)
	if len(ins.Cols) != 2 || len(ins.Rows) != 3 {
		t.Errorf("cols=%d rows=%d", len(ins.Cols), len(ins.Rows))
	}
}
