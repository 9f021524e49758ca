package sqldb

import (
	"strings"
	"testing"

	"ecfd/internal/relation"
)

func TestExistsWithDerivedTableFallsBack(t *testing.T) {
	db := testDB(t)
	// EXISTS over a derived table cannot decorrelate or use execExists's
	// fast path — it must still be correct.
	res := mustQuery(t, db, `SELECT e.id FROM emp e WHERE EXISTS
		(SELECT 1 FROM (SELECT dept AS dn FROM emp WHERE salary > 95) m WHERE m.dn = e.dept)
		ORDER BY e.id`)
	if flat(res) != "1;2" {
		t.Errorf("got %q", flat(res))
	}
}

func TestExistsGroupedSubquery(t *testing.T) {
	db := testDB(t)
	// Grouped subqueries bail to full execution inside EXISTS.
	res := mustQuery(t, db, `SELECT e.id FROM emp e WHERE EXISTS
		(SELECT dept FROM emp GROUP BY dept HAVING COUNT(*) > 2)`)
	if flat(res) != "" { // no department has 3 members
		t.Errorf("got %q", flat(res))
	}
	res = mustQuery(t, db, `SELECT COUNT(*) FROM emp e WHERE EXISTS
		(SELECT dept FROM emp GROUP BY dept HAVING COUNT(*) > 1)`)
	if flat(res) != "5" {
		t.Errorf("got %q", flat(res))
	}
}

func TestCorrelatedInSubquery(t *testing.T) {
	db := testDB(t)
	// Correlated IN: for each employee, the heads of their department.
	res := mustQuery(t, db, `SELECT e.id FROM emp e WHERE e.name IN
		(SELECT d.head FROM dept d WHERE d.name = e.dept) ORDER BY e.id`)
	if flat(res) != "1;3" {
		t.Errorf("got %q", flat(res))
	}
}

func TestNestedSubqueryThreeDeep(t *testing.T) {
	db := testDB(t)
	res := mustQuery(t, db, `SELECT e.id FROM emp e WHERE EXISTS
		(SELECT 1 FROM dept d WHERE d.name = e.dept AND EXISTS
			(SELECT 1 FROM emp e2 WHERE e2.name = d.head AND e2.salary > 90))
		ORDER BY e.id`)
	// Only eng's head (ann, 100) passes the innermost filter.
	if flat(res) != "1;2" {
		t.Errorf("got %q", flat(res))
	}
}

func TestGroupByExpression(t *testing.T) {
	db := testDB(t)
	res := mustQuery(t, db, `SELECT g.n FROM (SELECT COUNT(*) AS n FROM emp GROUP BY salary IS NULL) g ORDER BY n`)
	if flat(res) != "1;4" {
		t.Errorf("got %q", flat(res))
	}
}

func TestHavingWithoutGroupBy(t *testing.T) {
	db := testDB(t)
	res := mustQuery(t, db, `SELECT COUNT(*) FROM emp HAVING COUNT(*) > 3`)
	if flat(res) != "5" {
		t.Errorf("got %q", flat(res))
	}
	res = mustQuery(t, db, `SELECT COUNT(*) FROM emp HAVING COUNT(*) > 99`)
	if flat(res) != "" {
		t.Errorf("got %q", flat(res))
	}
}

// TestLimitOffsetParams: LIMIT takes a parameter; OFFSET, which the
// dialect leaves out, is refused.
func TestLimitOffsetParams(t *testing.T) {
	db := testDB(t)
	res := mustQuery(t, db, `SELECT id FROM emp ORDER BY id LIMIT ?`, relation.Int(2))
	if flat(res) != "1;2" {
		t.Errorf("got %q", flat(res))
	}
	if _, err := db.Query(`SELECT id FROM emp ORDER BY id LIMIT ? OFFSET ?`, relation.Int(2), relation.Int(1)); err == nil {
		t.Error("OFFSET must be refused")
	}
}

func TestUpdateMultipleColumnsSnapshot(t *testing.T) {
	db := testDB(t)
	// The row selection reads the pre-update values: assigning the
	// column the WHERE tests changes only the rows that matched before.
	mustExec(t, db, `CREATE TABLE sw (a INTEGER, b INTEGER)`)
	mustExec(t, db, `INSERT INTO sw VALUES (1, 2), (2, 1)`)
	mustExec(t, db, `UPDATE sw SET a = 2, b = 1 WHERE a = 1`)
	res := mustQuery(t, db, `SELECT a, b FROM sw`)
	if flat(res) != "2,1;2,1" {
		t.Errorf("got %q", flat(res))
	}
}

func TestInsertFromExpression(t *testing.T) {
	db := testDB(t)
	mustExec(t, db, `CREATE TABLE calc (v INTEGER)`)
	mustExec(t, db, `INSERT INTO calc VALUES (7), (ABS(-4))`)
	res := mustQuery(t, db, `SELECT v FROM calc ORDER BY v`)
	if flat(res) != "4;7" {
		t.Errorf("got %q", flat(res))
	}
}

// TestDecorrelationDisabledEquivalence: one DB, one Prepared, run under
// Planned → Reference → Planned. The mode is an input of compilation,
// so each switch must replace the cached plan — EXPLAIN, which describes
// that cached plan, shows the decorrelated probe, then the nested loop
// without it, then the probe again — and the rows never change. A test
// that only compared rows would pass with the cache serving the
// decorrelated plan in every mode.
func TestDecorrelationDisabledEquivalence(t *testing.T) {
	t.Parallel()
	db := testDB(t)
	q := `SELECT e.id FROM emp e WHERE EXISTS (SELECT 1 FROM dept d WHERE d.name = e.dept) ORDER BY e.id`
	p, err := db.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	var want string
	for i, m := range []Mode{Planned, Reference, Planned} {
		db.SetMode(m)
		res, err := p.Query()
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			want = flat(res)
		} else if got := flat(res); got != want {
			t.Errorf("step %d (mode %d) changed the rows: %q vs %q", i, m, got, want)
		}
		plan, err := db.Explain(q)
		if err != nil {
			t.Fatal(err)
		}
		probe := strings.Contains(plan, "value-set probe d")
		nested := strings.Contains(plan, "nested loop over the WHERE closure")
		if probe != (m == Planned) || nested != (m == Reference) {
			t.Errorf("step %d (mode %d): probe kernel %v, nested loop %v in\n%s", i, m, probe, nested, plan)
		}
	}
}

func TestIndexProbeEquivalence(t *testing.T) {
	// With an index on the probe columns the EXISTS path switches to
	// persistent-index probing; results must match the hash-build path,
	// including after mutations (lazy rebuild).
	build := func(withIndex bool) *DB {
		db := NewDB()
		mustExec(t, db, `CREATE TABLE big (k INTEGER, v TEXT)`)
		mustExec(t, db, `CREATE TABLE probe (k INTEGER)`)
		if withIndex {
			mustExec(t, db, `CREATE INDEX bigk ON big (k)`)
		}
		mustExec(t, db, `INSERT INTO big VALUES (1, 'a'), (2, 'b'), (3, 'c')`)
		mustExec(t, db, `INSERT INTO probe VALUES (2), (3), (4)`)
		return db
	}
	q := `SELECT p.k FROM probe p WHERE EXISTS (SELECT 1 FROM big b WHERE b.k = p.k) ORDER BY p.k`
	plain := build(false)
	indexed := build(true)
	if a, b := flat(mustQuery(t, plain, q)), flat(mustQuery(t, indexed, q)); a != b {
		t.Fatalf("index path diverges: %q vs %q", a, b)
	}
	// Mutate and re-query: the lazy rebuild must see the new row.
	mustExec(t, indexed, `INSERT INTO big VALUES (4, 'd')`)
	if got := flat(mustQuery(t, indexed, q)); got != "2;3;4" {
		t.Errorf("after mutation got %q", got)
	}
	mustExec(t, indexed, `DELETE FROM big WHERE k = 2`)
	if got := flat(mustQuery(t, indexed, q)); got != "3;4" {
		t.Errorf("after delete got %q", got)
	}
}

// TestSeparatorInTextKeys: grouping keys stay apart for TEXT cells that
// hold 0x1f, the separator keys were once joined with, and a kind tag.
// Joined so, the cells of both rows below are the same bytes; while text
// keys were not length-prefixed, DISTINCT kept one row, GROUP BY formed
// one group of two and a join probing those keys paired every x row with
// every y row. The join probes the index's equality map, which encodes
// its keys the same way.
func TestSeparatorInTextKeys(t *testing.T) {
	t.Parallel()
	db := NewDB()
	for _, tbl := range []string{"x", "y"} {
		mustExec(t, db, `CREATE TABLE `+tbl+` (a TEXT, b TEXT)`)
		mustExec(t, db, `INSERT INTO `+tbl+` VALUES (?, ?), (?, ?)`,
			relation.Text("a\x1f\x00tb"), relation.Text("c"), relation.Text("a"), relation.Text("b\x1f\x00tc"))
	}
	mustExec(t, db, `CREATE INDEX idx_y_ab ON y (a, b)`)
	join := `SELECT COUNT(*) FROM x, y WHERE x.a = y.a AND x.b = y.b`
	if plan, err := db.Explain(join); err != nil || !strings.Contains(plan, "index probe y via idx_y_ab") {
		t.Fatalf("the join is not an index probe (%v):\n%s", err, plan)
	}
	for m := Planned; m <= Reference; m++ {
		if n := len(queryIn(t, db, m, `SELECT DISTINCT a, b FROM x`).Rows); n != 2 {
			t.Errorf("mode %d: SELECT DISTINCT a, b returned %d rows, want 2", m, n)
		}
		for _, c := range []struct{ q, want string }{
			{`SELECT COUNT(*) FROM (SELECT DISTINCT a, b FROM x) d`, "2"},
			{`SELECT COUNT(*) FROM x GROUP BY a, b`, "1;1"},
			{join, "2"},
		} {
			if got := flat(queryIn(t, db, m, c.q)); got != c.want {
				t.Errorf("mode %d, %s: got %q, want %q", m, c.q, got, c.want)
			}
		}
	}
}
