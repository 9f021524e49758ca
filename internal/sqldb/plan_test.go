package sqldb

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"ecfd/internal/relation"
)

// canonical renders a result as an order-independent multiset key.
func canonical(res *Result) string {
	rows := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		cells := make([]string, len(r))
		for j, v := range r {
			cells[j] = v.String()
		}
		rows[i] = strings.Join(cells, ",")
	}
	sort.Strings(rows)
	return strings.Join(rows, ";")
}

// runBothPaths executes q once through the planner and once through
// the forced nested loop, returning both canonical results.
func runBothPaths(t *testing.T, db *DB, q string) (planned, nested string) {
	t.Helper()
	return canonical(queryIn(t, db, Planned, q)), canonical(queryIn(t, db, Reference, q))
}

// TestExplainUnindexedEquiJoin: an equality join between two base
// tables that no index covers runs as a scan of each, the equality a
// kernel filter of the inner level, the small side driving; with an
// index on the join column it is an index probe. Both match the nested
// loop.
func TestExplainUnindexedEquiJoin(t *testing.T) {
	db := NewDB()
	mustExec(t, db, `CREATE TABLE big (k INTEGER, v INTEGER)`)
	mustExec(t, db, `CREATE TABLE small (k INTEGER, w INTEGER)`)
	for i := 0; i < 200; i++ {
		mustExec(t, db, `INSERT INTO big VALUES (?, ?)`, relation.Int(int64(i%20)), relation.Int(int64(i)))
	}
	mustExec(t, db, `INSERT INTO small VALUES (1, 10), (2, 20), (3, 30)`)

	const q = `SELECT b.v, s.w FROM big b, small s WHERE b.k = s.k`
	check := func(inner string) {
		t.Helper()
		plan, err := db.Explain(q)
		if err != nil {
			t.Fatal(err)
		}
		// The small side must drive the loop: it appears first.
		if s, b := strings.Index(plan, "scan s"), strings.Index(plan, inner); s < 0 || b < s {
			t.Fatalf("expected a scan of s, then %q:\n%s", inner, plan)
		}
		if planned, nested := runBothPaths(t, db, q); planned != nested {
			t.Fatalf("%s diverges from nested loop:\n%s\nvs\n%s", inner, planned, nested)
		}
	}
	check("scan b (200 rows) [batch: 1 kernel filter(s)]")
	mustExec(t, db, `CREATE INDEX idx_big_k ON big (k)`)
	check("index probe b via idx_big_k")
}

// TestExplainShowsIndexProbe: a single-table equality over an indexed
// column set resolves through the persistent index.
func TestExplainShowsIndexProbe(t *testing.T) {
	db := NewDB()
	mustExec(t, db, `CREATE TABLE it (k INTEGER, v TEXT)`)
	mustExec(t, db, `INSERT INTO it VALUES (1, 'a'), (2, 'b'), (2, 'c')`)
	mustExec(t, db, `CREATE INDEX idx_it_k ON it (k)`)

	plan, err := db.Explain(`SELECT v FROM it WHERE k = 2`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "index probe it via idx_it_k") {
		t.Fatalf("expected an index probe in plan:\n%s", plan)
	}
	res := mustQuery(t, db, `SELECT v FROM it WHERE k = 2 ORDER BY v`)
	if flat(res) != "b;c" {
		t.Fatalf("index probe result: %q", flat(res))
	}
}

// TestExplainSemiJoinRowSelection: UPDATE ... WHERE EXISTS over base tables
// reports the semi-join row selection when the size heuristic would
// actually take it, and the planned (batched) row selection otherwise —
// EXPLAIN mirrors runUpdate's runtime choice.
func TestExplainSemiJoinRowSelection(t *testing.T) {
	db := NewDB()
	mustExec(t, db, `CREATE TABLE d (id INTEGER, flag INTEGER)`)
	mustExec(t, db, `CREATE TABLE pat (id INTEGER)`)
	for i := 0; i < 12; i++ {
		mustExec(t, db, `INSERT INTO d VALUES (?, 0)`, relation.Int(int64(i)))
	}
	mustExec(t, db, `INSERT INTO pat VALUES (2)`)
	q := `UPDATE d t SET flag = 1 WHERE EXISTS (SELECT 1 FROM pat p WHERE p.id = t.id)`
	plan, err := db.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "semi-join row selection") {
		t.Fatalf("expected semi-join in plan:\n%s", plan)
	}
	// Grow the subquery side past the heuristic: the same statement now
	// executes (and reports) the planned row selection instead.
	for i := 0; i < 40; i++ {
		mustExec(t, db, `INSERT INTO pat VALUES (?)`, relation.Int(int64(100+i)))
	}
	plan, err = db.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(plan, "semi-join row selection") || !strings.Contains(plan, "planned row selection") {
		t.Fatalf("expected the planned row selection once the subquery side dominates:\n%s", plan)
	}
}

// TestPlanCacheInvalidationOnDDL: a cached prepared statement must see
// the new catalog after DROP TABLE / CREATE TABLE, per the planner's
// invalidation contract.
func TestPlanCacheInvalidationOnDDL(t *testing.T) {
	db := NewDB()
	mustExec(t, db, `CREATE TABLE ct (a INTEGER)`)
	mustExec(t, db, `INSERT INTO ct VALUES (1)`)

	p, err := db.Prepare(`SELECT * FROM ct`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Query()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cols) != 1 || len(res.Rows) != 1 {
		t.Fatalf("before DDL: %d cols, %d rows", len(res.Cols), len(res.Rows))
	}

	mustExec(t, db, `DROP TABLE ct`)
	if _, err := p.Query(); err == nil {
		t.Fatal("query against dropped table must fail")
	}

	mustExec(t, db, `CREATE TABLE ct (a INTEGER, b TEXT)`)
	mustExec(t, db, `INSERT INTO ct VALUES (7, 'x')`)
	res, err = p.Query()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cols) != 2 {
		t.Fatalf("after re-create: SELECT * sees %d cols, want 2 (stale plan)", len(res.Cols))
	}
	if flat(res) != "7,x" {
		t.Fatalf("after re-create: %q", flat(res))
	}

	// Prepare must hand back the same cached object for the same text.
	p2, err := db.Prepare(`SELECT * FROM ct`)
	if err != nil {
		t.Fatal(err)
	}
	if p2 != p {
		t.Fatal("plan cache did not reuse the prepared statement")
	}
}

// TestPlanCacheInvalidationOnCreateIndex: creating an index recompiles
// cached plans so they pick up the new access path.
func TestPlanCacheInvalidationOnCreateIndex(t *testing.T) {
	db := NewDB()
	mustExec(t, db, `CREATE TABLE ci (k INTEGER, v INTEGER)`)
	mustExec(t, db, `INSERT INTO ci VALUES (1, 10), (2, 20)`)
	q := `SELECT v FROM ci WHERE k = ?`
	res := mustQuery(t, db, q, relation.Int(2))
	if flat(res) != "20" {
		t.Fatalf("pre-index: %q", flat(res))
	}
	mustExec(t, db, `CREATE INDEX idx_ci_k ON ci (k)`)
	plan, err := db.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "index probe") {
		t.Fatalf("expected index probe after CREATE INDEX:\n%s", plan)
	}
	res = mustQuery(t, db, q, relation.Int(2))
	if flat(res) != "20" {
		t.Fatalf("post-index: %q", flat(res))
	}
}

// TestSemiJoinRowSelectionEquivalence: the semi-join UPDATE strategy and the
// per-row filter produce identical table states.
func TestSemiJoinRowSelectionEquivalence(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 20; trial++ {
		setup := func() *DB {
			db := NewDB()
			mustExec(t, db, `CREATE TABLE d (id INTEGER, a INTEGER, flag INTEGER)`)
			mustExec(t, db, `CREATE TABLE pat (p INTEGER, q INTEGER)`)
			rng2 := rand.New(rand.NewSource(int64(trial)))
			for i := 0; i < 30+rng2.Intn(40); i++ {
				mustExec(t, db, `INSERT INTO d VALUES (?, ?, 0)`,
					relation.Int(int64(i)), relation.Int(int64(rng2.Intn(8))))
			}
			for i := 0; i < rng2.Intn(6); i++ {
				mustExec(t, db, `INSERT INTO pat VALUES (?, ?)`,
					relation.Int(int64(rng2.Intn(8))), relation.Int(int64(rng2.Intn(3))))
			}
			return db
		}
		lim := rng.Intn(30)
		q := fmt.Sprintf(
			`UPDATE d t SET flag = 1 WHERE t.id < %d AND EXISTS (SELECT 1 FROM pat c WHERE c.p = t.a AND c.q < 2)`, lim)

		// pat holds at most 5 rows against d's 30 or more, so the size
		// rule (useSemiJoin) picks the semi-join on its own.
		dbA := setup()
		if plan, err := dbA.Explain(q); err != nil || !strings.Contains(plan, "semi-join row selection") {
			t.Fatalf("trial %d: expected the semi-join row selection (%v):\n%s", trial, err, plan)
		}
		mustExec(t, dbA, q)

		dbB := setup()
		dbB.SetMode(Reference)
		mustExec(t, dbB, q)

		a := canonical(mustQuery(t, dbA, `SELECT id, a, flag FROM d`))
		b := canonical(mustQuery(t, dbB, `SELECT id, a, flag FROM d`))
		if a != b {
			t.Fatalf("trial %d: semi-join update diverges:\n%s\nvs\n%s", trial, a, b)
		}
	}
}

// TestHashJoinNaNConsistency: NaN = NaN is false under SQL equality,
// however the equality is spelled and whatever answers it — a planned
// kernel filter or index probe must not pair NaN keys the nested loop
// rejects, and neither may the decorrelated EXISTS probe (hash build or
// index) that stands in for the same predicate.
func TestHashJoinNaNConsistency(t *testing.T) {
	t.Parallel()
	for _, indexed := range []bool{false, true} {
		db := NewDB()
		mustExec(t, db, `CREATE TABLE fa (x REAL)`)
		mustExec(t, db, `CREATE TABLE fb (y REAL)`)
		if indexed {
			mustExec(t, db, `CREATE INDEX idx_fb_y ON fb (y)`)
		}
		mustExec(t, db, `INSERT INTO fa VALUES (?)`, relation.Float(math.NaN()))
		mustExec(t, db, `INSERT INTO fa VALUES (1.5)`)
		mustExec(t, db, `INSERT INTO fb VALUES (?)`, relation.Float(math.NaN()))
		mustExec(t, db, `INSERT INTO fb VALUES (1.5)`)
		for _, c := range []struct{ q, want string }{
			{`SELECT fa.x FROM fa, fb WHERE fa.x = fb.y`, "1.5"},
			{`SELECT fa.x FROM fa WHERE EXISTS (SELECT 1 FROM fb WHERE fb.y = fa.x)`, "1.5"},
			{`SELECT fa.x FROM fa WHERE fa.x IN (SELECT fb.y FROM fb)`, "1.5"},
			{`SELECT fa.x FROM fa WHERE NOT EXISTS (SELECT 1 FROM fb WHERE fb.y = fa.x)`, "NaN"},
		} {
			batch, row, nested := runThreeWays(t, db, c.q, false)
			if batch != c.want || row != c.want || nested != c.want {
				t.Errorf("indexed=%v %q: NaN must equal nothing, want %q:\nbatch  %q\nrow    %q\nnested %q",
					indexed, c.q, c.want, batch, row, nested)
			}
		}
	}
}

// TestPreparedNumParams: parameter counts come from the AST, so '?'
// inside string literals never counts.
func TestPreparedNumParams(t *testing.T) {
	db := NewDB()
	mustExec(t, db, `CREATE TABLE np (a INTEGER, s TEXT)`)
	p, err := db.Prepare(`SELECT a FROM np WHERE s = '?' AND a = ?`)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.NumParams(); got != 1 {
		t.Fatalf("NumParams = %d, want 1", got)
	}
}

// TestDeletePlannedSelectionDifferential: DELETE selects its rows
// through the same planned selection as UPDATE — batched single-source
// scan, or a semi-join driven from an EXISTS / IN (SELECT …) source —
// and must remove exactly the rows the forced nested loop removes,
// under random predicates over NULL- and NaN-bearing data, whichever
// side of the size heuristic the tables fall on.
func TestDeletePlannedSelectionDifferential(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(211))
	semiSeen := 0
	for trial := 0; trial < 120; trial++ {
		seed := rng.Int63()
		setup := func() *DB {
			r := rand.New(rand.NewSource(seed))
			db := NewDB()
			mustExec(t, db, `CREATE TABLE d (rid INTEGER, a INTEGER, x REAL)`)
			mustExec(t, db, `CREATE TABLE pat (p INTEGER, q REAL)`)
			mustExec(t, db, `CREATE INDEX idx_d_rid ON d (rid)`)
			val := func(n int) relation.Value {
				if r.Intn(9) == 0 {
					return relation.Null()
				}
				return relation.Int(int64(r.Intn(n)))
			}
			real := func() relation.Value {
				switch r.Intn(8) {
				case 0:
					return relation.Null()
				case 1:
					return relation.Float(math.NaN())
				}
				return relation.Float(float64(r.Intn(6)) / 2)
			}
			for i, n := 0, 10+r.Intn(60); i < n; i++ {
				mustExec(t, db, `INSERT INTO d VALUES (?, ?, ?)`, relation.Int(int64(i)), val(8), real())
			}
			for i, n := 0, r.Intn(12); i < n; i++ {
				mustExec(t, db, `INSERT INTO pat VALUES (?, ?)`, val(70), real())
			}
			return db
		}
		leaf := func() string {
			switch rng.Intn(9) {
			case 0:
				return fmt.Sprintf("t.a = %d", rng.Intn(8))
			case 1:
				return fmt.Sprintf("t.rid >= %d", rng.Intn(60))
			case 2:
				return fmt.Sprintf("t.rid IN (%d, %d, %d)", rng.Intn(60), rng.Intn(60), rng.Intn(60))
			case 3:
				return "t.rid IN (SELECT c.p FROM pat c)"
			case 4:
				return fmt.Sprintf("t.rid IN (SELECT c.p FROM pat c WHERE c.q < %d)", rng.Intn(3))
			case 5:
				return "t.x IN (SELECT c.q FROM pat c)"
			case 6:
				return "EXISTS (SELECT 1 FROM pat c WHERE c.p = t.rid AND c.q >= 1)"
			case 7:
				return "t.a NOT IN (SELECT c.p FROM pat c)"
			default:
				return "t.x IS NULL"
			}
		}
		where := leaf()
		for i := rng.Intn(3); i > 0; i-- {
			op := " AND "
			if rng.Intn(3) == 0 {
				op = " OR "
			}
			where = "(" + where + op + leaf() + ")"
		}
		q := "DELETE FROM d t WHERE " + where

		planned, nested := setup(), setup()
		nested.SetMode(Reference)
		if plan, err := planned.Explain(q); err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, q)
		} else if strings.Contains(plan, "semi-join row selection") {
			semiSeen++
		}
		nPlanned := mustExec(t, planned, q)
		nNested := mustExec(t, nested, q)

		a := canonical(mustQuery(t, planned, `SELECT rid, a, x FROM d`))
		b := canonical(mustQuery(t, nested, `SELECT rid, a, x FROM d`))
		if nPlanned != nNested || a != b {
			t.Fatalf("trial %d: %s\nplanned deleted %d, nested %d\nplanned left: %s\nnested left:  %s",
				trial, q, nPlanned, nNested, a, b)
		}
		verifyIndexConsistent(t, planned, "d", "idx_d_rid")
	}
	if semiSeen == 0 {
		t.Error("no trial took the semi-join row selection")
	}
}

// TestExplainDeleteInSubqueryDriver: a DELETE whose rows are named by a
// small staged key set is driven from that set through the target's
// index — the plan shape the detector's deletion of ΔD⁻ depends on.
func TestExplainDeleteInSubqueryDriver(t *testing.T) {
	db := NewDB()
	mustExec(t, db, `CREATE TABLE d (rid INTEGER, v INTEGER)`)
	mustExec(t, db, `CREATE TABLE doomed (rid INTEGER)`)
	mustExec(t, db, `CREATE INDEX idx_d_rid ON d (rid)`)
	for i := 0; i < 100; i++ {
		mustExec(t, db, `INSERT INTO d VALUES (?, 0)`, relation.Int(int64(i)))
	}
	mustExec(t, db, `INSERT INTO doomed VALUES (3), (97), (3), (1000)`)
	q := `DELETE FROM d t WHERE t.rid IN (SELECT x.rid FROM doomed x)`
	plan, err := db.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"DELETE d", "semi-join row selection", "scan x (4 rows)", "index probe t via idx_d_rid"} {
		if !strings.Contains(plan, want) {
			t.Fatalf("plan lacks %q:\n%s", want, plan)
		}
	}
	if n := mustExec(t, db, q); n != 2 {
		t.Fatalf("deleted %d rows, want 2 (a repeated and an absent key delete nothing extra)", n)
	}
	if got := flat(mustQuery(t, db, `SELECT COUNT(*) FROM d WHERE rid = 3 OR rid = 97`)); got != "0" {
		t.Fatalf("doomed rows survive: %s", got)
	}
}
