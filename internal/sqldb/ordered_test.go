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

// Tests for the ordered-index subsystem: range-pruned scans,
// index-served ORDER BY, incremental index maintenance under DML, and
// the EXPLAIN access-path surface.

// testEpochIndex digs the named index and its published-epoch state
// out for white-box checks.
func testEpochIndex(t *testing.T, db *DB, table, name string) (*Index, *indexData, []relation.Tuple) {
	t.Helper()
	ep := db.cur.Load()
	tbl, ok := ep.tables[lowerName(table)]
	if !ok {
		t.Fatalf("no table %s", table)
	}
	td := ep.tds[tbl]
	for _, sl := range td.indexes {
		if sl.idx.Name == name {
			return sl.idx, sl.data, storedRows(tbl, td)
		}
	}
	t.Fatalf("no index %s on %s", name, table)
	return nil, nil, nil
}

// testIndex digs the named index handle out for white-box checks.
func testIndex(t *testing.T, db *DB, table, name string) *Index {
	t.Helper()
	idx, _, _ := testEpochIndex(t, db, table, name)
	return idx
}

// verifyIndexConsistent rebuilds both index structures from scratch
// and compares them with the incrementally maintained ones in the
// published epoch. Built structures must match exactly up to their
// cover; unbuilt ones are skipped (they have nothing to be consistent
// with yet).
func verifyIndexConsistent(t *testing.T, db *DB, table, name string) {
	t.Helper()
	idx, d, rows := testEpochIndex(t, db, table, name)
	d.mu.RLock()
	m, mCover := d.m, d.mCover
	sorted, sBase := d.sorted, d.sBase
	d.mu.RUnlock()

	if m != nil {
		if mCover > len(rows) {
			t.Fatalf("index %s map covers %d rows of %d", name, mCover, len(rows))
		}
		want := make(map[string][]int, mCover)
		key := make([]relation.Value, len(idx.Cols))
		for ri := 0; ri < mCover; ri++ {
			for i, c := range idx.Cols {
				key[i] = rows[ri][c]
			}
			k := relation.KeyOf(key)
			want[k] = append(want[k], ri)
		}
		if len(want) != len(m) {
			t.Fatalf("index %s map: %d keys, want %d", name, len(m), len(want))
		}
		for k, bucket := range want {
			got := m[k]
			if len(got) != len(bucket) {
				t.Fatalf("index %s key %q: bucket %v, want %v", name, k, got, bucket)
			}
			for i := range bucket {
				if got[i] != bucket[i] {
					t.Fatalf("index %s key %q: bucket %v, want %v", name, k, got, bucket)
				}
			}
		}
	}
	if sorted != nil {
		if sBase > len(rows) || len(sorted) > len(rows) {
			t.Fatalf("index %s sorted: %d positions (base %d) for %d rows", name, len(sorted), sBase, len(rows))
		}
		// sorted[:g] must be an in-order permutation of [0, g) for every
		// fence g >= sBase; checking the longest one covers them all.
		n := len(sorted)
		seen := make([]bool, n)
		for i, ri := range sorted {
			if ri < 0 || ri >= n || seen[ri] {
				t.Fatalf("index %s sorted: bad or duplicate position %d", name, ri)
			}
			seen[ri] = true
			if i > 0 && !lessPosIn(idx.Cols, rows, sorted[i-1], ri) {
				t.Fatalf("index %s sorted: out of order at %d (%d, %d)", name, i, sorted[i-1], ri)
			}
		}
	}
}

// TestDeleteNoFullRebuild is the DML cost-asymmetry regression test: a
// single-row DELETE ... WHERE rid = ? must maintain every built index
// incrementally — no full rebuild — and leave them correct.
func TestDeleteNoFullRebuild(t *testing.T) {
	db := NewDB()
	mustExec(t, db, `CREATE TABLE d (rid INTEGER, v TEXT, flag INTEGER)`)
	mustExec(t, db, `CREATE INDEX idx_d_rid ON d (rid)`)
	mustExec(t, db, `CREATE INDEX idx_d_v ON d (v)`)
	for i := 0; i < 200; i++ {
		mustExec(t, db, `INSERT INTO d VALUES (?, ?, 0)`,
			relation.Int(int64(i)), relation.Text(string(rune('a'+i%7))))
	}
	// Force both structures of both indexes to build.
	mustQuery(t, db, `SELECT v FROM d WHERE rid = 17`)                 // eq map on rid
	mustQuery(t, db, `SELECT rid FROM d WHERE rid > 100 ORDER BY rid`) // sorted on rid
	mustQuery(t, db, `SELECT rid FROM d WHERE v = 'c'`)                // eq map on v
	mustQuery(t, db, `SELECT v FROM d ORDER BY v`)                     // sorted on v

	ridIdx := testIndex(t, db, "d", "idx_d_rid")
	vIdx := testIndex(t, db, "d", "idx_d_v")
	ridBuilds, vBuilds := ridIdx.rebuilds.Load(), vIdx.rebuilds.Load()
	if ridBuilds == 0 || vBuilds == 0 {
		t.Fatalf("indexes not built before the delete (rid %d, v %d)", ridBuilds, vBuilds)
	}

	if n := mustExec(t, db, `DELETE FROM d WHERE rid = ?`, relation.Int(42)); n != 1 {
		t.Fatalf("deleted %d rows, want 1", n)
	}
	// UPDATE of a non-indexed column must not touch any index either.
	mustExec(t, db, `UPDATE d SET flag = 1 WHERE rid < 10`)

	if got := mustQuery(t, db, `SELECT v FROM d WHERE rid = 41`); flat(got) != "g" {
		t.Fatalf("post-delete eq probe: %q", flat(got))
	}
	res := mustQuery(t, db, `SELECT rid FROM d WHERE rid >= 40 AND rid <= 44 ORDER BY rid`)
	if flat(res) != "40;41;43;44" {
		t.Fatalf("post-delete range: %q", flat(res))
	}
	verifyIndexConsistent(t, db, "d", "idx_d_rid")
	verifyIndexConsistent(t, db, "d", "idx_d_v")

	if ridIdx.rebuilds.Load() != ridBuilds || vIdx.rebuilds.Load() != vBuilds {
		t.Fatalf("DELETE/UPDATE forced a full index rebuild (rid %d→%d, v %d→%d)",
			ridBuilds, ridIdx.rebuilds.Load(), vBuilds, vIdx.rebuilds.Load())
	}
}

// TestIncrementalMaintenanceRandomOps hammers one table with random
// INSERT/UPDATE/DELETE/TRUNCATE and verifies after every step that the
// incrementally maintained structures equal a from-scratch build and
// that indexed query results match the unindexed engine.
func TestIncrementalMaintenanceRandomOps(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	db := NewDB()
	mustExec(t, db, `CREATE TABLE h (k INTEGER, s TEXT, w INTEGER)`)
	mustExec(t, db, `CREATE INDEX idx_h_k ON h (k)`)
	mustExec(t, db, `CREATE INDEX idx_h_ks ON h (k, s)`)
	ref := NewDB() // identical table, no indexes: the oracle
	mustExec(t, ref, `CREATE TABLE h (k INTEGER, s TEXT, w INTEGER)`)

	both := func(q string, params ...relation.Value) {
		mustExec(t, db, q, params...)
		mustExec(t, ref, q, params...)
	}
	for i := 0; i < 40; i++ {
		both(`INSERT INTO h VALUES (?, ?, ?)`,
			relation.Int(int64(rng.Intn(12))), relation.Text(string(rune('a'+rng.Intn(4)))), relation.Int(int64(i)))
	}
	// Build everything.
	mustQuery(t, db, `SELECT w FROM h WHERE k = 3`)
	mustQuery(t, db, `SELECT k FROM h ORDER BY k`)
	mustQuery(t, db, `SELECT w FROM h WHERE k = 3 AND s = 'a'`)
	mustQuery(t, db, `SELECT k FROM h ORDER BY k, s`)

	for step := 0; step < 120; step++ {
		switch rng.Intn(10) {
		case 0, 1, 2, 3:
			both(`INSERT INTO h VALUES (?, ?, ?)`,
				relation.Int(int64(rng.Intn(12))), relation.Text(string(rune('a'+rng.Intn(4)))), relation.Int(int64(1000+step)))
		case 4, 5:
			both(`UPDATE h SET k = ? WHERE w % 7 = ?`,
				relation.Int(int64(rng.Intn(12))), relation.Int(int64(rng.Intn(7))))
		case 6:
			both(`UPDATE h SET s = ?, w = w + 1 WHERE k = ?`,
				relation.Text(string(rune('a'+rng.Intn(4)))), relation.Int(int64(rng.Intn(12))))
		case 7, 8:
			both(`DELETE FROM h WHERE k = ? AND w % 3 = ?`,
				relation.Int(int64(rng.Intn(12))), relation.Int(int64(rng.Intn(3))))
		default:
			if rng.Intn(4) == 0 {
				both(`TRUNCATE TABLE h`)
			}
		}
		verifyIndexConsistent(t, db, "h", "idx_h_k")
		verifyIndexConsistent(t, db, "h", "idx_h_ks")

		kq := fmt.Sprintf(`SELECT w FROM h WHERE k = %d`, rng.Intn(12))
		if a, b := canonical(mustQuery(t, db, kq)), canonical(mustQuery(t, ref, kq)); a != b {
			t.Fatalf("step %d: eq probe diverges on %q: %q vs %q", step, kq, a, b)
		}
		rq := fmt.Sprintf(`SELECT k, s, w FROM h WHERE k >= %d AND k < %d ORDER BY k, s, w`, rng.Intn(6), 6+rng.Intn(6))
		if a, b := flat(mustQuery(t, db, rq)), flat(mustQuery(t, ref, rq)); a != b {
			t.Fatalf("step %d: range scan diverges on %q: %q vs %q", step, rq, a, b)
		}
	}
}

// TestOrderedScanMatchesSort pins index-served ORDER BY (with and
// without a range restriction) to the forced nested-loop path's sorted
// output; DESC, which the index does not serve, must match it through
// the sort.
func TestOrderedScanMatchesSort(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(73))
	db := NewDB()
	mustExec(t, db, `CREATE TABLE o (a INTEGER, b INTEGER)`)
	mustExec(t, db, `CREATE INDEX idx_o_ab ON o (a, b)`)
	for i := 0; i < 80; i++ {
		a := relation.Int(int64(rng.Intn(10)))
		if rng.Intn(9) == 0 {
			a = relation.Null()
		}
		mustExec(t, db, `INSERT INTO o VALUES (?, ?)`, a, relation.Int(int64(rng.Intn(5))))
	}
	for _, q := range []string{
		`SELECT a, b FROM o ORDER BY a, b`,
		`SELECT a, b FROM o ORDER BY a DESC, b DESC`,
		`SELECT a, b FROM o WHERE a >= 3 AND a <= 7 ORDER BY a, b`,
		`SELECT a, b FROM o WHERE a BETWEEN 2 AND 8 AND b <> 1 ORDER BY a, b`,
		`SELECT a, b FROM o WHERE a >= 3 AND a <= 7 ORDER BY a DESC, b DESC`,
		`SELECT DISTINCT a, b FROM o ORDER BY a, b`,
		`SELECT a, b FROM o ORDER BY a, b LIMIT 7 OFFSET 3`,
	} {
		plan, err := db.Explain(q)
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(plan, "no sort") == strings.Contains(q, "DESC") {
			t.Fatalf("expected index-served ORDER BY for %q unless descending:\n%s", q, plan)
		}
		planned, nested := runBothPaths(t, db, q)
		if planned != nested {
			t.Fatalf("ordered scan diverges on %q:\nplanned %q\nnested  %q", q, planned, nested)
		}
		// ORDER BY covers every output column, so the sequences must be
		// identical, not just the multisets.
		n := queryIn(t, db, Reference, q)
		if p := mustQuery(t, db, q); flat(p) != flat(n) {
			t.Fatalf("ordered scan sequence diverges on %q:\nplanned %q\nnested  %q", q, flat(p), flat(n))
		}
	}
	// Shapes that must NOT claim index order either: mixed direction,
	// non-prefix key, expression key.
	for _, q := range []string{
		`SELECT a, b FROM o ORDER BY a, b DESC`,
		`SELECT a, b FROM o ORDER BY b`,
		`SELECT a, b FROM o ORDER BY a + 1`,
	} {
		plan, err := db.Explain(q)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(plan, "sort") || strings.Contains(plan, "no sort") {
			t.Fatalf("expected a real sort for %q:\n%s", q, plan)
		}
	}
}

// TestRangeScanCorrectness checks range-pruned scans against the
// nested loop across operators, strictness, NULL bounds and correlated
// bounds.
func TestRangeScanCorrectness(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(79))
	db := NewDB()
	mustExec(t, db, `CREATE TABLE rt (k INTEGER, v INTEGER)`)
	mustExec(t, db, `CREATE TABLE drv (lo INTEGER, hi INTEGER)`)
	mustExec(t, db, `CREATE INDEX idx_rt_k ON rt (k)`)
	for i := 0; i < 90; i++ {
		k := relation.Int(int64(rng.Intn(20)))
		if rng.Intn(10) == 0 {
			k = relation.Null()
		}
		mustExec(t, db, `INSERT INTO rt VALUES (?, ?)`, k, relation.Int(int64(i)))
	}
	mustExec(t, db, `INSERT INTO drv VALUES (3, 11), (8, 15)`)

	for _, q := range []string{
		`SELECT v FROM rt WHERE k > 5`,
		`SELECT v FROM rt WHERE k >= 5 AND k < 12`,
		`SELECT v FROM rt WHERE k <= 4`,
		`SELECT v FROM rt WHERE k BETWEEN 7 AND 13`,
		`SELECT v FROM rt WHERE 6 < k AND 14 >= k`,
		`SELECT v FROM rt WHERE k > NULL`,
		`SELECT d.lo, r.v FROM drv d, rt r WHERE r.k >= d.lo AND r.k <= d.hi`,
	} {
		planned, nested := runBothPaths(t, db, q)
		if planned != nested {
			t.Fatalf("range scan diverges on %q:\nplanned %q\nnested  %q", q, planned, nested)
		}
	}
	// Parameterized slice restriction — the parallel detector's shape.
	q := `SELECT v FROM rt WHERE k >= ? AND k <= ?`
	planned := canonical(mustQuery(t, db, q, relation.Int(4), relation.Int(9)))
	nres := queryIn(t, db, Reference, q, relation.Int(4), relation.Int(9))
	if planned != canonical(nres) {
		t.Fatalf("parameterized range diverges: %q vs %q", planned, canonical(nres))
	}
}

// TestRangeScanNaNConsistency: NaN must not break the index's total
// order. relation.Compare sorts NaN after every other number (equal
// only to itself), so the binary-searched range scan and the retained
// filter — both Compare-based — select the same rows; before that
// rule NaN compared equal to everything, idx.sorted was not totally
// ordered and sort.Search could land on a wrong boundary, silently
// dropping rows the nested loop kept.
func TestRangeScanNaNConsistency(t *testing.T) {
	t.Parallel()
	db := NewDB()
	mustExec(t, db, `CREATE TABLE f (x REAL)`)
	mustExec(t, db, `CREATE INDEX idx_f_x ON f (x)`)
	mustExec(t, db, `INSERT INTO f VALUES (?)`, relation.Float(math.NaN()))
	mustExec(t, db, `INSERT INTO f VALUES (1.0), (5.0)`)
	for _, q := range []string{
		`SELECT x FROM f WHERE x >= 3`,
		`SELECT x FROM f WHERE x < 3`,
		`SELECT x FROM f WHERE x BETWEEN 0 AND 6`,
		`SELECT x FROM f ORDER BY x`,
	} {
		planned, nested := runBothPaths(t, db, q)
		if planned != nested {
			t.Fatalf("NaN diverges on %q: planned %q vs nested %q", q, planned, nested)
		}
	}
	verifyIndexConsistent(t, db, "f", "idx_f_x")
}

// TestExplainAccessPaths walks the four access paths across
// detection-representative queries: equality probe, range scan,
// ordered scan and the full-scan fallback.
func TestExplainAccessPaths(t *testing.T) {
	db := NewDB()
	mustExec(t, db, `CREATE TABLE data (rid INTEGER, city TEXT, ac INTEGER, sv INTEGER, mv INTEGER)`)
	mustExec(t, db, `CREATE TABLE enc (cid INTEGER, city_l INTEGER, ac_r INTEGER)`)
	mustExec(t, db, `CREATE INDEX idx_data_rid ON data (rid)`)
	mustExec(t, db, `CREATE INDEX idx_data_city ON data (city)`)
	for i := 0; i < 100; i++ {
		mustExec(t, db, `INSERT INTO data VALUES (?, ?, ?, 0, 0)`,
			relation.Int(int64(i)), relation.Text(string(rune('A'+i%5))), relation.Int(int64(200+i%3)))
	}
	mustExec(t, db, `INSERT INTO enc VALUES (1, 1, 2), (2, 2, 1)`)

	cases := []struct {
		name, q, want string
	}{
		{"eq-probe", `SELECT rid FROM data WHERE city = 'B'`, "index probe data via idx_data_city"},
		{"range-scan", `SELECT rid FROM data WHERE rid >= ? AND rid <= ?`, "range scan data via idx_data_rid on rid"},
		{"range-scan-join", `SELECT d.rid FROM enc c, data d WHERE d.rid >= ? AND d.rid <= ? AND d.ac <> c.ac_r`,
			"range scan d via idx_data_rid on rid"},
		{"ordered-scan", `SELECT rid, city FROM data WHERE sv = 1 OR mv = 1 ORDER BY rid`, "ordered scan data via idx_data_rid"},
		{"ordered-range-scan", `SELECT rid FROM data WHERE rid > 10 ORDER BY rid`, "ordered range scan data via idx_data_rid on rid"},
		{"fallback-full-scan", `SELECT rid FROM data WHERE ac >= 201`, "scan data"},
	}
	for _, tc := range cases {
		plan, err := db.Explain(tc.q)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !strings.Contains(plan, tc.want) {
			t.Fatalf("%s: plan for %q lacks %q:\n%s", tc.name, tc.q, tc.want, plan)
		}
	}
	// The fallback line must really be a bare scan, not a range/ordered one.
	plan, err := db.Explain(`SELECT rid FROM data WHERE ac >= 201`)
	if err != nil {
		t.Fatal(err)
	}
	for _, banned := range []string{"range scan", "ordered"} {
		if strings.Contains(plan, banned) {
			t.Fatalf("fallback plan unexpectedly uses %q:\n%s", banned, plan)
		}
	}
}

// TestTruncateKeepsBuiltIndexes: TRUNCATE empties built structures in
// place (no rebuild on next probe) and later inserts maintain them.
func TestTruncateKeepsBuiltIndexes(t *testing.T) {
	db := NewDB()
	mustExec(t, db, `CREATE TABLE tr (k INTEGER)`)
	mustExec(t, db, `CREATE INDEX idx_tr_k ON tr (k)`)
	mustExec(t, db, `INSERT INTO tr VALUES (3), (1), (2)`)
	mustQuery(t, db, `SELECT k FROM tr WHERE k = 2`)
	mustQuery(t, db, `SELECT k FROM tr ORDER BY k`)
	idx := testIndex(t, db, "tr", "idx_tr_k")
	builds := idx.rebuilds.Load()

	mustExec(t, db, `TRUNCATE TABLE tr`)
	mustExec(t, db, `INSERT INTO tr VALUES (9), (7), (8)`)
	if got := flat(mustQuery(t, db, `SELECT k FROM tr ORDER BY k`)); got != "7;8;9" {
		t.Fatalf("post-truncate ordered scan: %q", got)
	}
	if got := flat(mustQuery(t, db, `SELECT k FROM tr WHERE k = 8`)); got != "8" {
		t.Fatalf("post-truncate eq probe: %q", got)
	}
	verifyIndexConsistent(t, db, "tr", "idx_tr_k")
	if idx.rebuilds.Load() != builds {
		t.Fatalf("TRUNCATE forced a rebuild (%d → %d)", builds, idx.rebuilds.Load())
	}
}

// TestOrderedScanSortedOutput double-checks actual sortedness of an
// index-served ORDER BY (belt and braces beyond the differential
// comparison), and of the DESC sort beside it.
func TestOrderedScanSortedOutput(t *testing.T) {
	db := NewDB()
	mustExec(t, db, `CREATE TABLE s (n INTEGER)`)
	mustExec(t, db, `CREATE INDEX idx_s_n ON s (n)`)
	vals := []int64{5, 3, 9, 1, 7, 3, 5, 0}
	for _, v := range vals {
		mustExec(t, db, `INSERT INTO s VALUES (?)`, relation.Int(v))
	}
	asc := mustQuery(t, db, `SELECT n FROM s ORDER BY n`)
	want := append([]int64(nil), vals...)
	sort.Slice(want, func(a, b int) bool { return want[a] < want[b] })
	for i, row := range asc.Rows {
		if row[0].I != want[i] {
			t.Fatalf("ASC position %d: %d, want %d", i, row[0].I, want[i])
		}
	}
	desc := mustQuery(t, db, `SELECT n FROM s ORDER BY n DESC`)
	for i, row := range desc.Rows {
		if row[0].I != want[len(want)-1-i] {
			t.Fatalf("DESC position %d: %d, want %d", i, row[0].I, want[len(want)-1-i])
		}
	}
}

// TestJoinDriverOrderBy pins the multi-table index-served ORDER BY:
// when the ordered source is also the join order's first pick, the
// driving level iterates its index in order and the final sort
// disappears — visible as `order by: served by index (join driver)` —
// and the emitted sequence matches the forced nested loop exactly
// (outputs are restricted to the sort keys, so tie groups hold
// identical rows). A descending ORDER BY is sorted, to the same end.
func TestJoinDriverOrderBy(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(83))
	db := NewDB()
	mustExec(t, db, `CREATE TABLE big (k INTEGER, v INTEGER)`)
	mustExec(t, db, `CREATE TABLE drv (a INTEGER, b INTEGER)`)
	mustExec(t, db, `CREATE INDEX idx_drv_ab ON drv (a, b)`)
	for i := 0; i < 90; i++ {
		mustExec(t, db, `INSERT INTO big VALUES (?, ?)`,
			relation.Int(int64(rng.Intn(8))), relation.Int(int64(i)))
	}
	for i := 0; i < 30; i++ {
		a := relation.Int(int64(rng.Intn(8)))
		if rng.Intn(9) == 0 {
			a = relation.Null()
		}
		mustExec(t, db, `INSERT INTO drv VALUES (?, ?)`, a, relation.Int(int64(rng.Intn(4))))
	}

	for _, q := range []string{
		`SELECT d.a, d.b FROM drv d, big t WHERE d.a = t.k ORDER BY d.a, d.b`,
		`SELECT d.a, d.b FROM drv d, big t WHERE d.a = t.k AND t.v <> 3 ORDER BY d.a DESC, d.b DESC`,
		`SELECT d.a, d.b FROM big t, drv d WHERE d.a = t.k ORDER BY d.a, d.b`,
	} {
		plan, err := db.Explain(q)
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(plan, "order by: served by index (join driver)") == strings.Contains(q, "DESC") {
			t.Fatalf("expected join-driver order service for %q unless descending:\n%s", q, plan)
		}
		n := queryIn(t, db, Reference, q)
		if p := mustQuery(t, db, q); flat(p) != flat(n) {
			t.Fatalf("join-driver ordered sequence diverges on %q:\nplanned %q\nnested  %q", q, flat(p), flat(n))
		}
	}

	// The ordered source is NOT the first pick here (big drives nothing:
	// drv is smaller, so ordering by big's columns cannot be served) —
	// the plan must fall back to a real sort, still correct.
	q := `SELECT t.k, t.v FROM drv d, big t WHERE d.a = t.k ORDER BY t.k, t.v`
	plan, err := db.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(plan, "join driver") || !strings.Contains(plan, "sort") {
		t.Fatalf("non-driving ordered source must sort:\n%s", plan)
	}
	planned, nested := runBothPaths(t, db, q)
	if planned != nested {
		t.Fatalf("sorted fallback diverges on %q", q)
	}
}

// TestRangeElisionDifferential targets the elided-filter paths: the
// inclusive bounds dropped from the filter set must select exactly the
// rows the closure predicates would, across NULL-bearing columns,
// upper-bound-only scans (where the scan itself must exclude the NULL
// rows sorting first), strict/inclusive mixes, BETWEEN, NULL and NaN
// bounds, and correlated bounds re-evaluated per entry.
func TestRangeElisionDifferential(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(89))
	db := NewDB()
	mustExec(t, db, `CREATE TABLE re (k REAL, w INTEGER)`)
	mustExec(t, db, `CREATE TABLE bnd (lo INTEGER, hi INTEGER)`)
	mustExec(t, db, `CREATE INDEX idx_re_k ON re (k)`)
	for i := 0; i < 110; i++ {
		k := relation.Value(relation.Float(float64(rng.Intn(24)) / 2))
		switch rng.Intn(12) {
		case 0:
			k = relation.Null()
		case 1:
			k = relation.Float(math.NaN())
		}
		mustExec(t, db, `INSERT INTO re VALUES (?, ?)`, k, relation.Int(int64(i)))
	}
	mustExec(t, db, `INSERT INTO bnd VALUES (2, 9), (5, 5), (11, 3)`)

	// The upper-bound-only shape must show the elision and no kernels.
	plan, err := db.Explain(`SELECT w FROM re WHERE k <= 6`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "1 filter(s) elided: implied by range") {
		t.Fatalf("expected the inclusive upper bound to elide:\n%s", plan)
	}

	for _, q := range []string{
		`SELECT w FROM re WHERE k <= 6`,
		`SELECT w FROM re WHERE k >= 4`,
		`SELECT w FROM re WHERE k >= 4 AND k <= 9`,
		`SELECT w FROM re WHERE k > 4 AND k <= 9`,
		`SELECT w FROM re WHERE k >= 4 AND k < 9`,
		`SELECT w FROM re WHERE k BETWEEN 3 AND 8`,
		`SELECT w FROM re WHERE k BETWEEN 8 AND 3`,
		`SELECT w FROM re WHERE k <= NULL`,
		`SELECT w FROM re WHERE k >= 100`,
		`SELECT b.lo, r.w FROM bnd b, re r WHERE r.k >= b.lo AND r.k <= b.hi`,
		`SELECT b.lo, r.w FROM bnd b, re r WHERE r.k <= b.hi`,
	} {
		batch, row, nested := runThreeWays(t, db, q, false)
		if batch != row || row != nested {
			t.Fatalf("elision divergence on %q:\nbatch  %q\nrow    %q\nnested %q", q, batch, row, nested)
		}
	}

	// NaN bound through a parameter: Compare places NaN above every
	// number, and the pruned scan must agree with the closure exactly.
	q := `SELECT w FROM re WHERE k <= ?`
	p := canonical(mustQuery(t, db, q, relation.Float(math.NaN())))
	nres := queryIn(t, db, Reference, q, relation.Float(math.NaN()))
	if p != canonical(nres) {
		t.Fatalf("NaN-bound elision diverges: %q vs %q", p, canonical(nres))
	}
}

// TestEqualityProbesFromOrderedIndex: an index whose in-order positions
// are built answers equality probes by binary search and never builds
// or maintains the hash map. Under interleaved append / delete / update
// / truncate forks it must agree — on NULL, NaN, duplicate and
// mixed-kind keys, through the planner's join probe, the decorrelated
// EXISTS closure and the probe kernel — with a twin that only ever
// built the map, and with an unindexed oracle. An UPDATE of an index's
// columns restarts it cold in both twins.
func TestEqualityProbesFromOrderedIndex(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(79))
	newTwin := func(indexed bool) *DB {
		db := NewDB()
		mustExec(t, db, `CREATE TABLE e (k REAL, g INTEGER, w INTEGER)`)
		mustExec(t, db, `CREATE TABLE probe (v REAL)`)
		if indexed {
			mustExec(t, db, `CREATE INDEX idx_e_k ON e (k)`)
			mustExec(t, db, `CREATE INDEX idx_e_kg ON e (k, g)`)
		}
		mustExec(t, db, `INSERT INTO probe VALUES (0.5), (1), (1.5), (7), (?), (?)`,
			relation.Float(math.NaN()), relation.Null())
		return db
	}
	ordered, mapped, ref := newTwin(true), newTwin(true), newTwin(false)
	all := func(q string, params ...relation.Value) {
		for _, db := range []*DB{ordered, mapped, ref} {
			mustExec(t, db, q, params...)
		}
	}
	key := func() relation.Value {
		switch rng.Intn(10) {
		case 0:
			return relation.Null()
		case 1:
			return relation.Float(math.NaN())
		}
		return relation.Float(float64(rng.Intn(5)) / 2) // 0, 0.5, … 2: many duplicates
	}
	insert := func(w int) {
		all(`INSERT INTO e VALUES (?, ?, ?)`, key(), relation.Int(int64(rng.Intn(3))), relation.Int(int64(w)))
	}
	for i := 0; i < 30; i++ {
		insert(i)
	}
	// Order first: from here on the ordered twin serves every equality
	// probe from the in-order positions.
	order := func() {
		mustQuery(t, ordered, `SELECT k FROM e ORDER BY k`)
		mustQuery(t, ordered, `SELECT k, g FROM e ORDER BY k, g`)
	}
	order()
	data := func(db *DB, name string) *indexData {
		_, d, _ := testEpochIndex(t, db, "e", name)
		return d
	}
	// rekeyed lists, per operation, the indexes whose columns it assigns.
	rekeyed := map[int][]string{6: {"idx_e_k", "idx_e_kg"}, 7: {"idx_e_k", "idx_e_kg"}, 8: {"idx_e_kg"}}

	probes := []relation.Value{relation.Float(0.5), relation.Int(1), relation.Float(1.5),
		relation.Float(7), relation.Float(math.NaN()), relation.Null()}
	for step := 0; step < 150; step++ {
		op := rng.Intn(10)
		var was []*indexData
		for _, name := range rekeyed[op] {
			was = append(was, data(ordered, name), data(mapped, name))
		}
		switch op {
		case 0, 1, 2, 3:
			insert(1000 + step)
		case 4, 5:
			all(`DELETE FROM e WHERE w % 5 = ?`, relation.Int(int64(rng.Intn(5))))
		case 6, 7:
			all(`UPDATE e SET k = ? WHERE w % 4 = ?`, key(), relation.Int(int64(rng.Intn(4))))
		case 8:
			all(`UPDATE e SET g = g + 1 WHERE k = ?`, key())
		default:
			if rng.Intn(5) == 0 {
				all(`TRUNCATE TABLE e`)
			}
		}
		// An UPDATE that changed rows restarts the indexes it re-keyed cold
		// in both twins; the ordered twin then orders them again.
		for i, name := range rekeyed[op] {
			for j, db := range []*DB{ordered, mapped} {
				if d := data(db, name); d != was[2*i+j] && (d.m != nil || d.sorted != nil) {
					t.Fatalf("step %d: %s after an UPDATE of its columns: map built %v, order built %v", step, name, d.m != nil, d.sorted != nil)
				}
			}
		}
		if len(rekeyed[op]) > 0 {
			order()
		}
		for _, mode := range []Mode{RowAtATime, Planned} { // ends in Planned: the DML above runs with kernels
			for _, db := range []*DB{ref, ordered, mapped} {
				db.SetMode(mode)
			}
			for _, q := range []string{
				`SELECT w FROM e WHERE k = ?`,
				`SELECT w FROM e WHERE k = ? AND g = 1`,
				`SELECT p.v FROM probe p WHERE EXISTS (SELECT 1 FROM e WHERE e.k = p.v)`,
				`SELECT p.v FROM probe p WHERE NOT EXISTS (SELECT 1 FROM e WHERE e.k = p.v AND e.g = 2)`,
			} {
				params := [][]relation.Value{nil}
				if strings.Contains(q, "?") {
					params = params[:0]
					for _, v := range probes {
						params = append(params, []relation.Value{v})
					}
				}
				for _, ps := range params {
					want := canonical(mustQuery(t, ref, q, ps...))
					if got := canonical(mustQuery(t, ordered, q, ps...)); got != want {
						t.Fatalf("step %d mode %d: ordered index diverges on %q %v: %q, want %q", step, mode, q, ps, got, want)
					}
					if got := canonical(mustQuery(t, mapped, q, ps...)); got != want {
						t.Fatalf("step %d mode %d: mapped index diverges on %q %v: %q, want %q", step, mode, q, ps, got, want)
					}
				}
			}
		}
		for _, name := range []string{"idx_e_k", "idx_e_kg"} {
			verifyIndexConsistent(t, ordered, "e", name)
			verifyIndexConsistent(t, mapped, "e", name)
			if _, d, _ := testEpochIndex(t, ordered, "e", name); d.m != nil || d.sorted == nil {
				t.Fatalf("step %d: %s of the ordered twin: map built %v, order built %v", step, name, d.m != nil, d.sorted != nil)
			}
			if _, d, _ := testEpochIndex(t, mapped, "e", name); d.m == nil || d.sorted != nil {
				t.Fatalf("step %d: %s of the mapped twin: map built %v, order built %v", step, name, d.m != nil, d.sorted != nil)
			}
		}
	}
}
