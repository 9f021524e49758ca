package sqldb

import (
	"strings"
	"testing"
)

// parseBad and parseGood are the inputs of the two table tests below and
// seeds of FuzzParse.
var (
	parseBad = []string{
		``,
		`;`,
		`SELEC x`,
		`SELECT FROM`,
		`SELECT * FROM`,
		`SELECT * FROM t WHERE`,
		`CREATE TABLE`,
		`CREATE TABLE t (a BLOB)`,
		`CREATE VIEW v AS SELECT 1`,
		`INSERT t VALUES (1)`,
		`INSERT INTO t (a VALUES (1)`,
		`INSERT INTO t SET a = 1`,
		`UPDATE t WHERE x = 1`,
		`DELETE t`,
		`SELECT CASE END`,
		`SELECT COUNT(*`,
		`SELECT (SELECT 1`,
		`SELECT 'unterminated`,
		`SELECT "unterminated`,
		`SELECT /* unterminated`,
		`SELECT x FROM (SELECT 1) -- derived without alias`,
		`SELECT 1 $ 2`,
		`SELECT x BETWEEN 1, 2`,
		`SELECT a.b.c FROM t`,
		`SELECT 99999999999999999999999`,
	}
	parseGood = []string{
		`SELECT 1; SELECT 2;`,
		`SELECT -1.5e3`,
		`SELECT .5`,
		`SELECT x FROM t WHERE x IS NOT NULL AND NOT x = 2`,
		`SELECT "quoted ident" FROM t`,
		`SELECT x /* block comment */ FROM t -- trailing`,
		`CREATE TABLE v (a VARCHAR(255) NOT NULL, b INT PRIMARY KEY)`,
		`SELECT x FROM a CROSS JOIN b`,
		`SELECT ALL x FROM t`,
		`SELECT x AS "the x" FROM t ORDER BY x ASC LIMIT 1 OFFSET 2`,
		`SELECT CASE WHEN a THEN 1 WHEN b THEN 2 ELSE 3 END FROM t`,
		`TRUNCATE TABLE x`,
		`TRUNCATE x`,
		`SELECT MIN(x), MAX(y) FROM t`,
	}
)

func TestParseErrorsSurface(t *testing.T) {
	for _, src := range parseBad {
		if _, err := ParseScript(src); err == nil {
			t.Errorf("expected parse error for %q", src)
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
	stmt, err := Parse(`SELECT * FROM t WHERE a = ? AND b = ? AND c IN (?, ?)`)
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
	inList := conj[2].(*InList)
	if inList.List[0].(*Param).Index != 2 || inList.List[1].(*Param).Index != 3 {
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
