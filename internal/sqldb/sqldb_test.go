package sqldb

import (
	"strings"
	"testing"
	"time"

	"ecfd/internal/relation"
)

// testDB builds a small database used across the engine tests.
func testDB(t *testing.T) *DB {
	t.Helper()
	db := NewDB()
	mustExec(t, db, `CREATE TABLE emp (id INTEGER, name TEXT, dept TEXT, salary REAL)`)
	mustExec(t, db, `INSERT INTO emp VALUES
		(1, 'ann', 'eng', 100.0),
		(2, 'bob', 'eng', 90.0),
		(3, 'cat', 'ops', 80.0),
		(4, 'dan', 'ops', 80.0),
		(5, 'eve', 'hr', NULL)`)
	mustExec(t, db, `CREATE TABLE dept (name TEXT, head TEXT)`)
	mustExec(t, db, `INSERT INTO dept VALUES ('eng', 'ann'), ('ops', 'cat')`)
	return db
}

func mustExec(t *testing.T, db *DB, q string, params ...relation.Value) int64 {
	t.Helper()
	n, err := db.Exec(q, params...)
	if err != nil {
		t.Fatalf("exec %q: %v", q, err)
	}
	return n
}

func mustQuery(t *testing.T, db *DB, q string, params ...relation.Value) *Result {
	t.Helper()
	res, err := db.Query(q, params...)
	if err != nil {
		t.Fatalf("query %q: %v", q, err)
	}
	return res
}

// flat renders a result as "a,b;c,d" for compact assertions.
func flat(res *Result) string {
	rows := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		cells := make([]string, len(r))
		for j, v := range r {
			cells[j] = v.String()
		}
		rows[i] = strings.Join(cells, ",")
	}
	return strings.Join(rows, ";")
}

func TestCreateInsertSelect(t *testing.T) {
	db := testDB(t)
	res := mustQuery(t, db, `SELECT name FROM emp WHERE id = 3`)
	if flat(res) != "cat" {
		t.Errorf("got %q", flat(res))
	}
	if got := res.Cols[0]; got != "name" {
		t.Errorf("column name = %q", got)
	}
}

func TestSelectStar(t *testing.T) {
	db := testDB(t)
	res := mustQuery(t, db, `SELECT * FROM dept ORDER BY name`)
	if flat(res) != "eng,ann;ops,cat" {
		t.Errorf("got %q", flat(res))
	}
}

func TestWhereOperators(t *testing.T) {
	db := testDB(t)
	cases := map[string]string{
		`SELECT id FROM emp WHERE salary > 85 ORDER BY id`:                    "1;2",
		`SELECT id FROM emp WHERE salary >= 80 AND dept <> 'eng' ORDER BY id`: "3;4",
		`SELECT id FROM emp WHERE dept = 'eng' OR dept = 'hr' ORDER BY id`:    "1;2;5",
		`SELECT id FROM emp WHERE salary IS NULL`:                             "5",
		`SELECT id FROM emp WHERE salary IS NOT NULL ORDER BY id`:             "1;2;3;4",
		`SELECT id FROM emp WHERE id <> 1 AND id < 3`:                         "2",
	}
	for q, want := range cases {
		if got := flat(mustQuery(t, db, q)); got != want {
			t.Errorf("%s\n got %q want %q", q, got, want)
		}
	}
}

func TestNullComparisonNeverMatches(t *testing.T) {
	db := testDB(t)
	// salary = NULL is unknown, never true; likewise <> NULL.
	if got := flat(mustQuery(t, db, `SELECT id FROM emp WHERE salary = NULL`)); got != "" {
		t.Errorf("= NULL matched %q", got)
	}
	if got := flat(mustQuery(t, db, `SELECT id FROM emp WHERE salary <> NULL`)); got != "" {
		t.Errorf("<> NULL matched %q", got)
	}
	// A disjunction with a NULL arm still matches its other arms.
	if got := flat(mustQuery(t, db, `SELECT id FROM emp WHERE id = 1 OR id = NULL`)); got != "1" {
		t.Errorf("id = 1 OR id = NULL matched %q", got)
	}
}

// TestArithmeticAndFunctions: the dialect's functions evaluate, and
// arithmetic, which it leaves out, is refused.
func TestArithmeticAndFunctions(t *testing.T) {
	db := testDB(t)
	cases := map[string]string{
		`SELECT -5`:                  "-5",
		`SELECT ABS(-4)`:             "4",
		`SELECT ABS(-4.5)`:           "4.5",
		`SELECT COALESCE(NULL, 'x')`: "x",
		`SELECT COALESCE(3, 'x')`:    "3",
		`SELECT TOTEXT(3)`:           "3",
		`SELECT TRUE`:                "TRUE",
		`SELECT FALSE OR TRUE`:       "TRUE",
		`SELECT CASE WHEN 1 > 2 THEN 'x' ELSE 'y' END`: "y",
	}
	for q, want := range cases {
		if got := flat(mustQuery(t, db, q)); got != want {
			t.Errorf("%s = %q, want %q", q, got, want)
		}
	}
	for _, q := range []string{`SELECT 1 + 2`, `SELECT 7 / 2`, `SELECT 7 % 3`, `SELECT 'a' || 'b'`} {
		if _, err := db.Query(q); err == nil {
			t.Errorf("%s: arithmetic must be refused", q)
		}
	}
}

func TestJoins(t *testing.T) {
	db := testDB(t)
	want := "ann,ann;cat,cat"
	q := `SELECT e.name, d.head FROM emp e, dept d WHERE e.dept = d.name AND e.name = d.head ORDER BY e.name`
	if got := flat(mustQuery(t, db, q)); got != want {
		t.Errorf("%s = %q, want %q", q, got, want)
	}
	// Cross join cardinality.
	res := mustQuery(t, db, `SELECT COUNT(*) FROM emp, dept`)
	if flat(res) != "10" {
		t.Errorf("cross join count = %q", flat(res))
	}
}

func TestGroupByHaving(t *testing.T) {
	db := testDB(t)
	res := mustQuery(t, db, `SELECT dept, COUNT(*), SUM(salary), MAX(salary) FROM emp GROUP BY dept ORDER BY dept`)
	if flat(res) != "eng,2,190,100;hr,1,NULL,NULL;ops,2,160,80" {
		t.Errorf("got %q", flat(res))
	}
	res = mustQuery(t, db, `SELECT dept FROM emp GROUP BY dept HAVING COUNT(*) > 1 ORDER BY dept`)
	if flat(res) != "eng;ops" {
		t.Errorf("HAVING got %q", flat(res))
	}
	// Global aggregate over empty input yields one row.
	res = mustQuery(t, db, `SELECT COUNT(*), SUM(salary) FROM emp WHERE id > 100`)
	if flat(res) != "0,NULL" {
		t.Errorf("empty aggregate got %q", flat(res))
	}
	// GROUP BY over empty input yields no rows.
	res = mustQuery(t, db, `SELECT dept, COUNT(*) FROM emp WHERE id > 100 GROUP BY dept`)
	if len(res.Rows) != 0 {
		t.Errorf("empty grouped query returned %d rows", len(res.Rows))
	}
}

func TestDistinct(t *testing.T) {
	db := testDB(t)
	res := mustQuery(t, db, `SELECT DISTINCT dept FROM emp ORDER BY dept`)
	if flat(res) != "eng;hr;ops" {
		t.Errorf("got %q", flat(res))
	}
	res = mustQuery(t, db, `SELECT DISTINCT salary FROM emp WHERE dept = 'ops'`)
	if flat(res) != "80" {
		t.Errorf("got %q", flat(res))
	}
}

// TestOrderLimitOffset: ORDER BY sorts ascending on every key, LIMIT
// cuts, and OFFSET, which the dialect leaves out, is refused.
func TestOrderLimitOffset(t *testing.T) {
	db := testDB(t)
	res := mustQuery(t, db, `SELECT id FROM emp ORDER BY salary, id`)
	// NULL sorts first.
	if flat(res) != "5;3;4;2;1" {
		t.Errorf("got %q", flat(res))
	}
	res = mustQuery(t, db, `SELECT id FROM emp ORDER BY id LIMIT 2`)
	if flat(res) != "1;2" {
		t.Errorf("LIMIT got %q", flat(res))
	}
	for _, q := range []string{`SELECT id FROM emp ORDER BY id DESC`, `SELECT id FROM emp ORDER BY id LIMIT 2 OFFSET 3`} {
		if _, err := db.Query(q); err == nil {
			t.Errorf("%s must be refused", q)
		}
	}
}

func TestExistsCorrelated(t *testing.T) {
	db := testDB(t)
	// Decorrelatable shape: single table, equality on outer column.
	res := mustQuery(t, db, `SELECT e.id FROM emp e WHERE EXISTS
		(SELECT d.name FROM dept d WHERE d.name = e.dept) ORDER BY e.id`)
	if flat(res) != "1;2;3;4" {
		t.Errorf("EXISTS got %q", flat(res))
	}
	res = mustQuery(t, db, `SELECT e.id FROM emp e WHERE NOT EXISTS
		(SELECT d.name FROM dept d WHERE d.name = e.dept)`)
	if flat(res) != "5" {
		t.Errorf("NOT EXISTS got %q", flat(res))
	}
	// With an inner-only filter folded into the hash build.
	res = mustQuery(t, db, `SELECT e.id FROM emp e WHERE EXISTS
		(SELECT 1 FROM dept d WHERE d.name = e.dept AND d.head = 'ann') ORDER BY e.id`)
	if flat(res) != "1;2" {
		t.Errorf("EXISTS+filter got %q", flat(res))
	}
}

func TestExistsNonDecorrelatable(t *testing.T) {
	db := testDB(t)
	// Inequality correlation falls back to the naive path; results must
	// still be correct.
	res := mustQuery(t, db, `SELECT e.id FROM emp e WHERE EXISTS
		(SELECT 1 FROM emp e2 WHERE e2.salary > e.salary) ORDER BY e.id`)
	if flat(res) != "2;3;4" {
		t.Errorf("naive EXISTS got %q", flat(res))
	}
}

func TestExistsUncorrelated(t *testing.T) {
	db := testDB(t)
	res := mustQuery(t, db, `SELECT id FROM emp WHERE EXISTS (SELECT 1 FROM dept) ORDER BY id`)
	if flat(res) != "1;2;3;4;5" {
		t.Errorf("got %q", flat(res))
	}
	res = mustQuery(t, db, `SELECT id FROM emp WHERE EXISTS (SELECT 1 FROM dept WHERE name = 'nope')`)
	if flat(res) != "" {
		t.Errorf("got %q", flat(res))
	}
}

func TestInSelect(t *testing.T) {
	db := testDB(t)
	res := mustQuery(t, db, `SELECT id FROM emp WHERE dept IN (SELECT name FROM dept) ORDER BY id`)
	if flat(res) != "1;2;3;4" {
		t.Errorf("IN subquery got %q", flat(res))
	}
	if _, err := db.Query(`SELECT id FROM emp WHERE dept IN (SELECT name, head FROM dept)`); err == nil {
		t.Error("multi-column IN subquery must error")
	}
}

func TestDerivedTable(t *testing.T) {
	db := testDB(t)
	res := mustQuery(t, db, `SELECT m.dept, m.c FROM
		(SELECT dept, COUNT(*) AS c FROM emp GROUP BY dept) m
		WHERE m.c > 1 ORDER BY m.dept`)
	if flat(res) != "eng,2;ops,2" {
		t.Errorf("got %q", flat(res))
	}
	if _, err := db.Query(`SELECT * FROM (SELECT 1)`); err == nil {
		t.Error("derived table without alias must error")
	}
}

func TestUpdate(t *testing.T) {
	db := testDB(t)
	n := mustExec(t, db, `UPDATE emp SET salary = 110 WHERE dept = 'eng'`)
	if n != 2 {
		t.Errorf("affected %d, want 2", n)
	}
	res := mustQuery(t, db, `SELECT salary FROM emp WHERE id = 1`)
	if flat(res) != "110" {
		t.Errorf("got %q", flat(res))
	}
	// UPDATE with correlated EXISTS, the shape IncDetect uses.
	n = mustExec(t, db, `UPDATE emp SET name = 'HEAD' WHERE EXISTS
		(SELECT 1 FROM dept WHERE dept.name = emp.dept AND dept.head = emp.name)`)
	if n != 2 {
		t.Errorf("EXISTS update affected %d, want 2", n)
	}
	res = mustQuery(t, db, `SELECT name FROM emp WHERE id = 1 OR id = 3 ORDER BY id`)
	if flat(res) != "HEAD;HEAD" {
		t.Errorf("got %q", flat(res))
	}
	if n := mustExec(t, db, `UPDATE emp SET salary = 0 WHERE id = 999`); n != 0 {
		t.Errorf("no-match update affected %d", n)
	}
}

func TestDelete(t *testing.T) {
	db := testDB(t)
	n := mustExec(t, db, `DELETE FROM emp WHERE salary IS NULL`)
	if n != 1 {
		t.Errorf("deleted %d, want 1", n)
	}
	if got := flat(mustQuery(t, db, `SELECT COUNT(*) FROM emp`)); got != "4" {
		t.Errorf("count after delete = %q", got)
	}
	n = mustExec(t, db, `DELETE FROM emp`)
	if n != 4 {
		t.Errorf("deleted %d, want 4", n)
	}
}

// TestRowsMatchedAndWritten pins the DML counters: UPDATE and DELETE add
// the rows they select to RowsMatched, and every DML statement adds the
// rows it inserts, changes or removes to RowsWritten — an UPDATE not the
// rows already holding their new values. TRUNCATE and SELECT add nothing.
func TestRowsMatchedAndWritten(t *testing.T) {
	db := testDB(t)
	for _, c := range []struct {
		q                string
		matched, written int64
	}{
		{`INSERT INTO emp VALUES (6, 'fay', 'hr', 70.0), (7, 'gus', 'hr', 70.0)`, 0, 2},
		{`INSERT INTO dept SELECT dept, name FROM emp WHERE salary > 1000`, 0, 0},
		{`UPDATE emp SET salary = 80.0 WHERE dept = 'ops' OR dept = 'hr'`, 5, 3},
		{`UPDATE emp SET salary = 80.0 WHERE dept = 'ops'`, 2, 0},
		{`UPDATE emp SET salary = 1.0 WHERE id = 999`, 0, 0},
		{`DELETE FROM emp WHERE EXISTS (SELECT 1 FROM dept WHERE dept.head = emp.name)`, 2, 2},
		{`SELECT * FROM emp`, 0, 0},
		{`TRUNCATE TABLE dept`, 0, 0},
	} {
		before := db.Stats()
		mustExec(t, db, c.q)
		after := db.Stats()
		if m, w := after.RowsMatched-before.RowsMatched, after.RowsWritten-before.RowsWritten; m != c.matched || w != c.written {
			t.Errorf("%s: matched %d, wrote %d rows; want %d and %d", c.q, m, w, c.matched, c.written)
		}
	}
}

func TestInsertVariants(t *testing.T) {
	db := testDB(t)
	mustExec(t, db, `INSERT INTO dept (name) VALUES ('hr')`)
	res := mustQuery(t, db, `SELECT head FROM dept WHERE name = 'hr'`)
	if flat(res) != "NULL" {
		t.Errorf("missing column must default NULL, got %q", flat(res))
	}
	// INSERT ... SELECT.
	mustExec(t, db, `CREATE TABLE names (n TEXT)`)
	n := mustExec(t, db, `INSERT INTO names SELECT name FROM emp WHERE dept = 'eng'`)
	if n != 2 {
		t.Errorf("insert-select inserted %d", n)
	}
	if got := flat(mustQuery(t, db, `SELECT n FROM names ORDER BY n`)); got != "ann;bob" {
		t.Errorf("got %q", got)
	}
	// Parameterized insert.
	mustExec(t, db, `INSERT INTO names VALUES (?)`, relation.Text("zoe"))
	if got := flat(mustQuery(t, db, `SELECT COUNT(*) FROM names`)); got != "3" {
		t.Errorf("got %q", got)
	}
	// Arity errors.
	if _, err := db.Exec(`INSERT INTO names VALUES ('a', 'b')`); err == nil {
		t.Error("width mismatch must fail")
	}
	if _, err := db.Exec(`INSERT INTO names (nope) VALUES ('a')`); err == nil {
		t.Error("unknown column must fail")
	}
}

func TestTypeCoercion(t *testing.T) {
	db := NewDB()
	mustExec(t, db, `CREATE TABLE t (i INTEGER, f REAL, b BOOLEAN, s TEXT)`)
	mustExec(t, db, `INSERT INTO t VALUES (2.0, 3, 1, 42)`)
	res := mustQuery(t, db, `SELECT i, f, b, s FROM t`)
	if flat(res) != "2,3,TRUE,42" {
		t.Errorf("got %q", flat(res))
	}
	if _, err := db.Exec(`INSERT INTO t VALUES (2.5, 3, 1, 'x')`); err == nil {
		t.Error("lossy float→int must fail")
	}
	if _, err := db.Exec(`INSERT INTO t VALUES (1, 1, 7, 'x')`); err == nil {
		t.Error("int 7 → bool must fail")
	}
}

func TestParams(t *testing.T) {
	db := testDB(t)
	res := mustQuery(t, db, `SELECT name FROM emp WHERE dept = ? AND salary > ? ORDER BY id`,
		relation.Text("eng"), relation.Float(95))
	if flat(res) != "ann" {
		t.Errorf("got %q", flat(res))
	}
	if _, err := db.Query(`SELECT * FROM emp WHERE id = ?`); err == nil {
		t.Error("missing parameter must error")
	}
}

func TestTruncateAndDrop(t *testing.T) {
	db := testDB(t)
	mustExec(t, db, `TRUNCATE TABLE dept`)
	if got := flat(mustQuery(t, db, `SELECT COUNT(*) FROM dept`)); got != "0" {
		t.Errorf("after truncate: %q", got)
	}
	mustExec(t, db, `DROP TABLE dept`)
	if _, err := db.Query(`SELECT * FROM dept`); err == nil {
		t.Error("dropped table must be gone")
	}
	mustExec(t, db, `DROP TABLE IF EXISTS dept`) // no error
	if _, err := db.Exec(`DROP TABLE dept`); err == nil {
		t.Error("dropping a missing table must fail")
	}
	if _, err := db.Exec(`CREATE TABLE emp (x INTEGER)`); err == nil {
		t.Error("duplicate create must fail")
	}
}

func TestTransactions(t *testing.T) {
	db := testDB(t)
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	txExec(t, tx, `DELETE FROM emp WHERE dept = 'eng'`)
	txExec(t, tx, `UPDATE dept SET head = 'nobody'`)
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	if got := flat(mustQuery(t, db, `SELECT COUNT(*) FROM emp`)); got != "5" {
		t.Errorf("rollback lost rows: %q", got)
	}
	if got := flat(mustQuery(t, db, `SELECT head FROM dept WHERE name = 'eng'`)); got != "ann" {
		t.Errorf("rollback lost update: %q", got)
	}

	tx, err = db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	txExec(t, tx, `DELETE FROM emp WHERE id = 5`)
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := flat(mustQuery(t, db, `SELECT COUNT(*) FROM emp`)); got != "4" {
		t.Errorf("commit must keep changes: %q", got)
	}
	if err := tx.Commit(); err == nil {
		t.Error("double commit must fail")
	}

	// A second Begin waits until the open transaction ends.
	tx1, _ := db.Begin()
	began := make(chan *Tx, 1)
	go func() {
		tx2, _ := db.Begin()
		began <- tx2
	}()
	select {
	case tx2 := <-began:
		t.Error("a second Begin must wait while a transaction is open")
		began <- tx2
	case <-time.After(50 * time.Millisecond):
	}
	if err := tx1.Rollback(); err != nil {
		t.Fatal(err)
	}
	if err := (<-began).Rollback(); err != nil {
		t.Fatal(err)
	}
}

func TestSecondaryIndex(t *testing.T) {
	db := testDB(t)
	mustExec(t, db, `CREATE INDEX idx_dept ON emp (dept)`)
	if _, err := db.Exec(`CREATE INDEX idx_dept ON emp (dept)`); err == nil {
		t.Error("duplicate index must fail")
	}
	if _, err := db.Exec(`CREATE INDEX i2 ON emp (nope)`); err == nil {
		t.Error("index on missing column must fail")
	}
	// Index stays correct across mutations (lazy rebuild).
	mustExec(t, db, `INSERT INTO emp VALUES (6, 'fay', 'eng', 70.0)`)
	res := mustQuery(t, db, `SELECT COUNT(*) FROM emp WHERE dept = 'eng'`)
	if flat(res) != "3" {
		t.Errorf("got %q", flat(res))
	}
}

func TestMultiStatementExec(t *testing.T) {
	db := NewDB()
	n := mustExec(t, db, `CREATE TABLE a (x INTEGER); INSERT INTO a VALUES (1), (2); DELETE FROM a WHERE x = 1;`)
	if n != 3 { // 0 + 2 + 1
		t.Errorf("total affected = %d", n)
	}
}

func TestCaseInsensitivity(t *testing.T) {
	db := testDB(t)
	res := mustQuery(t, db, `select NAME from EMP where ID = 1`)
	if flat(res) != "ann" {
		t.Errorf("got %q", flat(res))
	}
}

func TestAmbiguityAndResolutionErrors(t *testing.T) {
	db := testDB(t)
	if _, err := db.Query(`SELECT name FROM emp, dept`); err == nil {
		t.Error("ambiguous column must error")
	}
	if _, err := db.Query(`SELECT nosuch FROM emp`); err == nil {
		t.Error("unknown column must error")
	}
	if _, err := db.Query(`SELECT x.name FROM emp`); err == nil {
		t.Error("unknown alias must error")
	}
	if _, err := db.Query(`SELECT COUNT(*) FROM nosuch`); err == nil {
		t.Error("unknown table must error")
	}
	if _, err := db.Exec(`UPDATE emp SET nosuch = 1`); err == nil {
		t.Error("update unknown column must error")
	}
}

func TestAggregateOutsideGrouping(t *testing.T) {
	db := testDB(t)
	if _, err := db.Query(`SELECT id FROM emp WHERE COUNT(*) > 1`); err == nil {
		t.Error("aggregate in WHERE must error")
	}
}

func TestSnapshotAndLoadRelation(t *testing.T) {
	db := testDB(t)
	snap, err := db.Snapshot("dept")
	if err != nil {
		t.Fatal(err)
	}
	if snap.Len() != 2 {
		t.Fatalf("snapshot rows = %d", snap.Len())
	}
	// Mutating the snapshot must not touch the table.
	snap.Rows[0][1] = relation.Text("evil")
	if got := flat(mustQuery(t, db, `SELECT head FROM dept WHERE name = 'eng'`)); got != "ann" {
		t.Errorf("snapshot aliasing: %q", got)
	}

	if err := db.LoadRelation(snap); err != nil {
		t.Fatal(err)
	}
	if got := flat(mustQuery(t, db, `SELECT head FROM dept WHERE name = 'eng'`)); got != "evil" {
		t.Errorf("LoadRelation must replace contents: %q", got)
	}
	if _, err := db.Snapshot("nosuch"); err == nil {
		t.Error("snapshot of missing table must fail")
	}
}

func TestTableHelpers(t *testing.T) {
	db := testDB(t)
	names := db.TableNames()
	if strings.Join(names, ",") != "dept,emp" {
		t.Errorf("TableNames = %v", names)
	}
	n, err := db.TableLen("emp")
	if err != nil || n != 5 {
		t.Errorf("TableLen = %d, %v", n, err)
	}
	if _, err := db.TableLen("nosuch"); err == nil {
		t.Error("TableLen of missing table must fail")
	}
}
