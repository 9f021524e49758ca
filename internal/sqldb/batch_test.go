package sqldb

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"ecfd/internal/relation"
)

// Tests for the batched execution pipeline: kernel-vs-closure
// differentials over generated predicates, the columnar scan cache's
// incremental maintenance, equality on a leading index column, and the
// EXPLAIN batch/row surface.

// kernelTable builds a table mixing integer, float, text and NULL
// values — every kind a kernel compare can meet — plus indexes so
// kernels compose with range pruning and probes.
func kernelTable(t *testing.T, rng *rand.Rand, rows int) *DB {
	t.Helper()
	db := NewDB()
	mustExec(t, db, `CREATE TABLE kt (a INTEGER, f REAL, s TEXT, flag INTEGER)`)
	mustExec(t, db, `CREATE INDEX idx_kt_a ON kt (a)`)
	for i := 0; i < rows; i++ {
		a := relation.Int(int64(rng.Intn(12)))
		if rng.Intn(9) == 0 {
			a = relation.Null()
		}
		f := relation.Float(float64(rng.Intn(10)) / 2)
		switch rng.Intn(12) {
		case 0:
			f = relation.Null()
		case 1:
			f = relation.Float(math.NaN())
		}
		s := relation.Text(string(rune('a' + rng.Intn(5))))
		if rng.Intn(10) == 0 {
			s = relation.Null()
		}
		mustExec(t, db, `INSERT INTO kt VALUES (?, ?, ?, ?)`,
			a, f, s, relation.Int(int64(rng.Intn(2))))
	}
	return db
}

// TestKernelClosureDifferential generates random simple-predicate
// WHERE clauses — the shapes the kernel compiler targets, beside the IN
// lists and BETWEEN it leaves to the closures, over NaN and NULL data —
// and checks the batch, row and nested-loop paths agree on every one.
func TestKernelClosureDifferential(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(diffSeed(t, 113)))
	db := kernelTable(t, rng, 120)
	cols := []string{"a", "f", "s", "flag"}
	leaf := func() string {
		col := cols[rng.Intn(len(cols))]
		switch rng.Intn(6) {
		case 0:
			ops := []string{"=", "<>", "<", "<=", ">", ">="}
			if col == "s" {
				return fmt.Sprintf("s %s '%c'", ops[rng.Intn(len(ops))], rune('a'+rng.Intn(5)))
			}
			return fmt.Sprintf("%s %s %d", col, ops[rng.Intn(len(ops))], rng.Intn(10))
		case 1:
			neg := ""
			if rng.Intn(2) == 0 {
				neg = "NOT "
			}
			return fmt.Sprintf("%s IS %sNULL", col, neg)
		case 2:
			neg := ""
			if rng.Intn(2) == 0 {
				neg = "NOT "
			}
			if col == "s" {
				return fmt.Sprintf("s %sIN ('a', 'c', 'e')", neg)
			}
			return fmt.Sprintf("%s %sIN (%d, %d, %d)", col, neg, rng.Intn(10), rng.Intn(10), rng.Intn(10))
		case 3:
			neg := ""
			if rng.Intn(3) == 0 {
				neg = "NOT "
			}
			lo := rng.Intn(8)
			return fmt.Sprintf("%s %sBETWEEN %d AND %d", col, neg, lo, lo+rng.Intn(5))
		case 4:
			// literal OP column: the flipped orientation
			return fmt.Sprintf("%d <= %s", rng.Intn(10), col)
		default:
			return fmt.Sprintf("%s = %d", col, rng.Intn(10))
		}
	}
	for trial := 0; trial < 120; trial++ {
		var conjs []string
		for k := 1 + rng.Intn(3); k > 0; k-- {
			conjs = append(conjs, leaf())
		}
		q := "SELECT a, f, s, flag FROM kt WHERE " + strings.Join(conjs, " AND ")
		batch, row, nested := runThreeWays(t, db, q, false)
		if batch != row || row != nested {
			t.Fatalf("trial %d: divergence on %q:\nbatch  %q\nrow    %q\nnested %q",
				trial, q, batch, row, nested)
		}
	}
}

// TestKernelParamDifferential covers parameterized kernel bounds — the
// parallel detector's RID-slice shape — including NULL parameters,
// which must empty the scan exactly like the closure path does.
func TestKernelParamDifferential(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(127))
	db := kernelTable(t, rng, 80)
	run := func(q string, params ...relation.Value) (string, string) {
		t.Helper()
		return canonical(queryIn(t, db, Planned, q, params...)), canonical(queryIn(t, db, RowAtATime, q, params...))
	}
	for trial := 0; trial < 30; trial++ {
		lo := relation.Value(relation.Int(int64(rng.Intn(8))))
		hi := relation.Value(relation.Int(int64(rng.Intn(8)) + 4))
		if trial%7 == 0 {
			lo = relation.Null()
		}
		b, r := run(`SELECT a, flag FROM kt WHERE a >= ? AND a <= ? AND flag = 0`, lo, hi)
		if b != r {
			t.Fatalf("trial %d: param slice diverges: %q vs %q", trial, b, r)
		}
	}
}

// TestExplainBatchMode pins the EXPLAIN surface: levels with consumed
// kernels report batch mode, everything else reports row mode, and
// RowAtATime flips the marker.
func TestExplainBatchMode(t *testing.T) {
	t.Parallel()
	db := NewDB()
	mustExec(t, db, `CREATE TABLE data (rid INTEGER, city TEXT, sv INTEGER, mv INTEGER)`)
	mustExec(t, db, `CREATE TABLE enc (cid INTEGER, city_l INTEGER)`)
	mustExec(t, db, `CREATE INDEX idx_data_rid ON data (rid)`)
	for i := 0; i < 80; i++ {
		mustExec(t, db, `INSERT INTO data VALUES (?, ?, 0, 0)`,
			relation.Int(int64(i)), relation.Text(string(rune('A'+i%4))))
	}
	mustExec(t, db, `INSERT INTO enc VALUES (1, 1), (2, 0)`)

	// RID-slice scan: the inclusive bounds are exactly implied by the
	// range prune and their filters elide; only the flag test remains as
	// a kernel.
	plan, err := db.Explain(`SELECT rid FROM data WHERE rid >= ? AND rid <= ? AND mv <> 1`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "range scan data via idx_data_rid on rid") ||
		!strings.Contains(plan, "[batch: 1 kernel filter(s)]") ||
		!strings.Contains(plan, "2 filter(s) elided: implied by range") {
		t.Fatalf("expected a batched range scan with elided bounds:\n%s", plan)
	}

	// A constant-equality conjunct no index covers is a kernel like
	// any other; the slice bounds still elide into the range prune.
	plan, err = db.Explain(`SELECT rid FROM data WHERE rid >= ? AND rid <= ? AND mv = 0`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "range scan data via idx_data_rid on rid (80 rows) [batch: 1 kernel filter(s)] — 2 filter(s) elided") {
		t.Fatalf("expected an equality kernel over the pruned range scan:\n%s", plan)
	}

	// A join whose data side carries kernelizable conjuncts: the OR
	// group spanning both sources is claimed whole by the data level
	// (its pattern-side guard binds per entry), so the pattern side
	// keeps no predicate work at all — it is a pure join driver with no
	// evaluation-mode marker.
	plan, err = db.Explain(`SELECT d.rid FROM enc c, data d WHERE d.rid >= ? AND d.mv <> 1 AND (c.city_l <> 1 OR d.city = 'A')`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "[batch: 1 kernel filter(s) + or-group(2 terms)]") {
		t.Fatalf("expected the data side in batch mode with the claimed OR group:\n%s", plan)
	}
	if !strings.Contains(plan, "scan c (2 rows)\n") || strings.Contains(plan, "scan c (2 rows) [row]") {
		t.Fatalf("expected the pattern side as a marker-free pure driver:\n%s", plan)
	}

	// Kernels off: everything with predicate work reports row mode.
	db.SetMode(RowAtATime)
	plan, err = db.Explain(`SELECT rid FROM data WHERE rid >= ? AND rid <= ? AND mv <> 1`)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(plan, "batch:") || !strings.Contains(plan, "[row]") {
		t.Fatalf("expected row mode with kernels disabled:\n%s", plan)
	}
}

// TestColumnCacheMaintenance hammers a table of several segments with
// random DML — inserts that seal tails, scattered and ranged updates and
// deletes, deletes of whole segments, TRUNCATE, rollback — and verifies
// after every step, on the published epoch and on two older pinned ones,
// that the segments partition the rows inside the merge bound, that every
// column of every segment is stored, sealed unless it is the tail, and
// equal, cell by cell, to a mirror the test keeps as plain rows
// (checkSegments), and that the epoch encodes the snapshot a database
// loaded fresh from that mirror encodes. A pinned epoch is checked
// against the mirror of when it was pinned: it never changes.
func TestColumnCacheMaintenance(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(131))
	const schema = `CREATE TABLE cc (k INTEGER, s TEXT, w INTEGER)`
	db := NewDB()
	mustExec(t, db, schema)
	var mirror []relation.Tuple // the published epoch's rows, in position order
	nextW := 0
	insert := func(n int) {
		t.Helper()
		for n > 0 {
			m := min(n, 400)
			n -= m
			vals := make([]string, m)
			for i := range vals {
				row := relation.Tuple{relation.Int(int64(rng.Intn(9))), relation.Text(string(rune('a' + rng.Intn(4)))), relation.Int(int64(nextW))}
				vals[i] = fmt.Sprintf("(%d, '%s', %d)", row[0].I, row[1].S, nextW)
				mirror = append(mirror, row)
				nextW++
			}
			mustExec(t, db, `INSERT INTO cc VALUES `+strings.Join(vals, ", "))
		}
	}
	// keep drops the mirror rows drop selects, as a DELETE does; set
	// replaces those sel selects by what to makes of them.
	keep := func(drop func(relation.Tuple) bool) {
		mirror = slices.DeleteFunc(slices.Clone(mirror), drop)
	}
	set := func(sel func(relation.Tuple) bool, to func(relation.Tuple)) {
		next := slices.Clone(mirror)
		for i, r := range next {
			if sel(r) {
				next[i] = slices.Clone(r)
				to(next[i])
			}
		}
		mirror = next
	}
	insert(6000)
	tbl := mustTable(t, db, "cc")
	const all = `SELECT w FROM cc WHERE k >= 0 AND k <= 8 AND s <> 'zz' AND w >= 0`

	check := func(what string, ep *epoch, rows []relation.Tuple) {
		t.Helper()
		checkSegments(t, what, tbl, ep.tds[tbl], rows)
		fresh := NewDB()
		mustExec(t, fresh, schema)
		rel := relation.New(mustTable(t, fresh, "cc").Schema)
		rel.Rows = rows
		if err := fresh.LoadRelation(rel); err != nil {
			t.Fatal(err)
		}
		if got, want := encodeSnapshot(ep, 1), encodeSnapshot(fresh.cur.Load(), 1); !bytes.Equal(got, want) {
			t.Fatalf("%s: the snapshot encodes %d bytes unlike the fresh load's %d", what, len(got), len(want))
		}
	}
	type pinned struct {
		snap *Snap
		rows []relation.Tuple
	}
	var pins [2]pinned
	defer func() {
		for _, p := range pins {
			p.snap.Close()
		}
	}()
	repin := func(i int) {
		if pins[i].snap != nil {
			pins[i].snap.Close()
		}
		pins[i] = pinned{db.PinSnapshot(), mirror}
	}
	repin(0)
	repin(1)
	verify := func(step int) {
		t.Helper()
		check(fmt.Sprintf("step %d, published epoch", step), db.cur.Load(), mirror)
		for i, p := range pins {
			check(fmt.Sprintf("step %d, pinned epoch %d", step, i), p.snap.ep, p.rows)
		}
	}
	verify(-1)

	for step := 0; step < 300; step++ {
		lo := int64(rng.Intn(nextW + 1))
		switch op := rng.Intn(12); op {
		case 0, 1: // a few rows into the tail
			insert(1 + rng.Intn(20))
		case 2: // enough to seal it, sometimes twice
			insert(300 + rng.Intn(1500))
		case 3: // scattered over every segment
			k, r := int64(rng.Intn(9)), int64(rng.Intn(97))
			mustExec(t, db, `UPDATE cc SET k = ? WHERE w % 97 = ?`, relation.Int(k), relation.Int(r))
			set(func(row relation.Tuple) bool { return row[2].I%97 == r }, func(row relation.Tuple) { row[0] = relation.Int(k) })
		case 4: // a run inside one or two
			k := int64(rng.Intn(9))
			mustExec(t, db, `UPDATE cc SET k = ?, s = 'u' WHERE w >= ? AND w < ? + 40`, relation.Int(k), relation.Int(lo), relation.Int(lo))
			set(func(row relation.Tuple) bool { return row[2].I >= lo && row[2].I < lo+40 },
				func(row relation.Tuple) { row[0], row[1] = relation.Int(k), relation.Text("u") })
		case 5, 6:
			r := int64(rng.Intn(53))
			mustExec(t, db, `DELETE FROM cc WHERE w % 53 = ?`, relation.Int(r))
			keep(func(row relation.Tuple) bool { return row[2].I%53 == r })
		case 7: // a few neighbours
			mustExec(t, db, `DELETE FROM cc WHERE w >= ? AND w < ? + 9`, relation.Int(lo), relation.Int(lo))
			keep(func(row relation.Tuple) bool { return row[2].I >= lo && row[2].I < lo+9 })
		case 8: // whole segments, and the ends of their neighbours
			mustExec(t, db, `DELETE FROM cc WHERE w >= ? AND w < ? + 2500`, relation.Int(lo), relation.Int(lo))
			keep(func(row relation.Tuple) bool { return row[2].I >= lo && row[2].I < lo+2500 })
		case 9: // the tail
			cut := int64(nextW - 1 - rng.Intn(600))
			mustExec(t, db, `DELETE FROM cc WHERE w >= ?`, relation.Int(cut))
			keep(func(row relation.Tuple) bool { return row[2].I >= cut })
		case 10:
			if rng.Intn(4) == 0 {
				mustExec(t, db, `TRUNCATE TABLE cc`)
				mirror = nil
				insert(4000)
			}
		default: // rolled back: the rows the transaction began with
			tx, err := db.Begin()
			if err != nil {
				t.Fatal(err)
			}
			for _, q := range []string{`DELETE FROM cc WHERE w % 7 = 3`, `UPDATE cc SET k = 0 WHERE w % 5 = 1`, `INSERT INTO cc VALUES (1, 'z', -1)`} {
				if _, err := tx.Exec(q); err != nil {
					t.Fatal(err)
				}
			}
			if err := tx.Rollback(); err != nil {
				t.Fatal(err)
			}
		}
		if len(mirror) < 3000 {
			insert(3000) // keep several segments
		}
		mustQuery(t, db, all)
		verify(step)
		if step%40 == 0 {
			repin(step / 40 % 2)
		}
	}
}

// TestEqPrefixRangeProbe: a table with only a (p, q) index answers
// p-equality, alone or with a q-range, without the index — it covers
// more than the probe's columns — by a scan whose kernels decide the
// equality, for a constant key and for a correlated one, in agreement
// with the closure paths.
func TestEqPrefixRangeProbe(t *testing.T) {
	rng := rand.New(rand.NewSource(137))
	db := NewDB()
	mustExec(t, db, `CREATE TABLE cp (p INTEGER, q INTEGER, w INTEGER)`)
	mustExec(t, db, `CREATE INDEX idx_cp_pq ON cp (p, q)`)
	for i := 0; i < 120; i++ {
		q := relation.Int(int64(rng.Intn(10)))
		if rng.Intn(10) == 0 {
			q = relation.Null()
		}
		mustExec(t, db, `INSERT INTO cp VALUES (?, ?, ?)`,
			relation.Int(int64(rng.Intn(7))), q, relation.Int(int64(i)))
	}

	for _, q := range []string{`SELECT w FROM cp WHERE p = 3`, `SELECT w FROM cp WHERE p = 3 AND q > 4`} {
		plan, err := db.Explain(q)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(plan, "scan cp (120 rows) [batch: ") {
			t.Fatalf("expected a batch scan for %q:\n%s", q, plan)
		}
	}

	for _, q := range []string{
		`SELECT w FROM cp WHERE p = 3`,
		`SELECT w FROM cp WHERE p = 3 AND q > 4`,
		`SELECT w FROM cp WHERE p = 2 AND q >= 1 AND q <= 6`,
		`SELECT w FROM cp WHERE p = 5 AND q BETWEEN 2 AND 7`,
		`SELECT w FROM cp WHERE p = 99 AND q < 3`,
		`SELECT w FROM cp WHERE p = 1 AND q > NULL`,
	} {
		batch, row, nested := runThreeWays(t, db, q, false)
		if batch != row || row != nested {
			t.Fatalf("compound probe diverges on %q:\nbatch  %q\nrow    %q\nnested %q", q, batch, row, nested)
		}
	}

	// Correlated form: the equality key and the range bound both come
	// from the driving side, re-evaluated per entry.
	mustExec(t, db, `CREATE TABLE drv (pp INTEGER, lo INTEGER)`)
	mustExec(t, db, `INSERT INTO drv VALUES (2, 3), (4, 0), (6, 8)`)
	q := `SELECT d.pp, c.w FROM drv d, cp c WHERE c.p = d.pp AND c.q >= d.lo`
	if plan, err := db.Explain(q); err != nil || !strings.Contains(plan, "scan c (120 rows) [batch: ") {
		t.Fatalf("expected a batch scan: %v\n%s", err, plan)
	}
	batch, row, nested := runThreeWays(t, db, q, false)
	if batch != row || row != nested {
		t.Fatalf("correlated compound probe diverges:\nbatch  %q\nrow    %q\nnested %q", batch, row, nested)
	}
}

// TestBigIntExactness is the review-found regression: int64 values
// beyond 2^53 collapse under float widening, so Compare must order
// integer pairs exactly — otherwise an equality probe answered by
// binary search in the index order returns rows `=` rejects, and
// ordering kernels (exact int fast path) diverge from the generic
// Compare closures.
func TestBigIntExactness(t *testing.T) {
	const big = int64(1) << 53 // 9007199254740992; big+1 rounds to the same float64
	db := NewDB()
	mustExec(t, db, `CREATE TABLE z (p INTEGER, q INTEGER)`)
	mustExec(t, db, `CREATE INDEX idx_z_p ON z (p)`)
	mustExec(t, db, `INSERT INTO z VALUES (?, 1)`, relation.Int(big))
	mustExec(t, db, `INSERT INTO z VALUES (?, 2)`, relation.Int(big+1))
	mustExec(t, db, `CREATE TABLE k (v INTEGER)`)
	mustExec(t, db, `INSERT INTO k VALUES (?)`, relation.Int(big))
	mustQuery(t, db, `SELECT p FROM z ORDER BY p`) // builds the order the probe below searches

	// Equality answered by binary search must match only the exact key.
	q := `SELECT z.q FROM k, z WHERE z.p = k.v`
	batch, row, nested := runThreeWays(t, db, q, false)
	if batch != row || row != nested {
		t.Fatalf("index probe big-int diverges:\nbatch  %q\nrow    %q\nnested %q", batch, row, nested)
	}
	if batch != "1" {
		t.Fatalf("index probe big-int: got %q, want exactly row q=1", batch)
	}

	// Ordering kernel vs generic closure: column-vs-column compare with
	// adjacent big ints.
	q = `SELECT z.q FROM k, z WHERE z.p > k.v`
	batch, row, nested = runThreeWays(t, db, q, false)
	if batch != row || row != nested {
		t.Fatalf("ordering kernel big-int diverges:\nbatch  %q\nrow    %q\nnested %q", batch, row, nested)
	}
	if batch != "2" {
		t.Fatalf("big-int > compare: got %q, want exactly row q=2", batch)
	}

	// IN lists across the hash threshold with a mixed float/big-int
	// pair: comparison is exact across kinds, so Float(2^53) never
	// matches the Int(2^53+1) item — for both list sizes (Equal scan
	// and Key()-hashed set) and all three execution paths.
	mustExec(t, db, `CREATE TABLE f (x REAL)`)
	mustExec(t, db, `INSERT INTO f VALUES (?)`, relation.Float(float64(big)))
	short := `SELECT x FROM f WHERE x IN (9007199254740993, 1)`
	long := `SELECT x FROM f WHERE x IN (9007199254740993, 1, 2, 3, 4, 5, 6, 7)`
	for _, q := range []string{short, long} {
		b, r, n := runThreeWays(t, db, q, false)
		if b != r || r != n {
			t.Fatalf("mixed-kind IN diverges on %q:\nbatch  %q\nrow    %q\nnested %q", q, b, r, n)
		}
		if b != "" {
			t.Fatalf("mixed-kind IN on %q: got %q, want no match (exact comparison)", q, b)
		}
	}

	// Transitivity of the order itself: big ints and floats mixed in
	// one indexed column must sort exactly, not through float widening.
	mustExec(t, db, `CREATE TABLE mi (y INTEGER)`)
	mustExec(t, db, `CREATE INDEX idx_mi_y ON mi (y)`)
	mustExec(t, db, `INSERT INTO mi VALUES (?), (?)`, relation.Int(big), relation.Int(big+1))
	if got := flat(mustQuery(t, db, `SELECT y FROM mi ORDER BY y`)); got != "9007199254740992;9007199254740993" {
		t.Fatalf("big-int ORDER BY: %q", got)
	}
	if relation.Compare(relation.Int(big+1), relation.Float(float64(big))) <= 0 {
		t.Fatal("Compare(2^53+1, Float(2^53)) must be +1 (exact mixed comparison)")
	}
}

// TestUpdatePlannedRowSelection: an UPDATE whose WHERE is kernel-shaped
// but has no EXISTS (so the semi-join path does not apply) selects its
// rows through the planned, batched scan — and the result matches the
// closure filter.
func TestUpdatePlannedRowSelection(t *testing.T) {
	t.Parallel()
	setup := func() *DB {
		db := NewDB()
		mustExec(t, db, `CREATE TABLE ud (rid INTEGER, v INTEGER, flag INTEGER)`)
		mustExec(t, db, `CREATE INDEX idx_ud_rid ON ud (rid)`)
		for i := 0; i < 60; i++ {
			mustExec(t, db, `INSERT INTO ud VALUES (?, ?, 0)`,
				relation.Int(int64(i)), relation.Int(int64(i%7)))
		}
		return db
	}
	q := `UPDATE ud SET flag = 1 WHERE rid >= 10 AND rid <= 40 AND v <> 3`

	dbA := setup()
	plan, err := dbA.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "planned row selection") || !strings.Contains(plan, "batch:") {
		t.Fatalf("expected a batched planned row selection:\n%s", plan)
	}
	mustExec(t, dbA, q)

	dbB := setup()
	dbB.SetMode(Reference)
	mustExec(t, dbB, q)

	a := canonical(mustQuery(t, dbA, `SELECT rid, v, flag FROM ud`))
	b := canonical(mustQuery(t, dbB, `SELECT rid, v, flag FROM ud`))
	if a != b {
		t.Fatalf("planned UPDATE selection diverges:\n%s\nvs\n%s", a, b)
	}
}

// TestInListNaNConsistency is the review-found regression: the three
// IN implementations (short-list Equal scan, long-list Key()-set,
// batch kernel) must agree when NaN appears as an item, as the probed
// value, or both — under SQL equality NaN matches nothing.
func TestInListNaNConsistency(t *testing.T) {
	t.Parallel()
	db := NewDB()
	mustExec(t, db, `CREATE TABLE ni (x REAL, w INTEGER)`)
	mustExec(t, db, `INSERT INTO ni VALUES (?, 1)`, relation.Float(math.NaN()))
	mustExec(t, db, `INSERT INTO ni VALUES (1.5, 2), (3.0, 3)`)
	nan := relation.Float(math.NaN())

	run := func(q string, params ...relation.Value) [3]string {
		t.Helper()
		var out [3]string
		out[0], out[1], out[2] = runThreeWays(t, db, q, false, params...)
		return out
	}
	cases := []struct {
		q      string
		params []relation.Value
	}{
		// short list (Equal scan) with a NaN parameter
		{`SELECT w FROM ni WHERE x IN (?, ?)`, []relation.Value{nan, relation.Float(1.5)}},
		{`SELECT w FROM ni WHERE x NOT IN (?, ?)`, []relation.Value{nan, relation.Float(1.5)}},
		// long list (>= 8 items: Key()-set) with a NaN parameter
		{`SELECT w FROM ni WHERE x IN (?, 10, 11, 12, 13, 14, 15, ?)`,
			[]relation.Value{nan, relation.Float(1.5)}},
		{`SELECT w FROM ni WHERE x NOT IN (?, 10, 11, 12, 13, 14, 15, ?)`,
			[]relation.Value{nan, relation.Float(1.5)}},
	}
	for _, tc := range cases {
		got := run(tc.q, tc.params...)
		if got[0] != got[1] || got[1] != got[2] {
			t.Fatalf("IN NaN diverges on %q: batch %q, row %q, nested %q", tc.q, got[0], got[1], got[2])
		}
		// And NaN must never have matched: the NaN data row appears only
		// in NOT IN results, the NaN item selects nothing.
		if strings.Contains(tc.q, "NOT IN") {
			if got[0] != "1;3" {
				t.Fatalf("NOT IN with NaN on %q: got %q, want rows 1 and 3", tc.q, got[0])
			}
		} else if got[0] != "2" {
			t.Fatalf("IN with NaN on %q: got %q, want row 2 only", tc.q, got[0])
		}
	}
}

// TestKernelNaNDifferential: NaN-bearing float data through the
// kernel compare paths must match the closure semantics exactly (the
// engine's ordered compares follow relation.Compare, not IEEE).
func TestKernelNaNDifferential(t *testing.T) {
	t.Parallel()
	db := NewDB()
	mustExec(t, db, `CREATE TABLE nf (x REAL, w INTEGER)`)
	mustExec(t, db, `INSERT INTO nf VALUES (?, 1)`, relation.Float(math.NaN()))
	mustExec(t, db, `INSERT INTO nf VALUES (1.5, 2), (3.0, 3)`)
	for _, q := range []string{
		`SELECT w FROM nf WHERE x > 2`,
		`SELECT w FROM nf WHERE x <= 2`,
		`SELECT w FROM nf WHERE x = 1.5 AND w <> 0`,
		`SELECT w FROM nf WHERE x BETWEEN 0 AND 9`,
	} {
		batch, row, nested := runThreeWays(t, db, q, false)
		if batch != row || row != nested {
			t.Fatalf("NaN kernel diverges on %q:\nbatch  %q\nrow    %q\nnested %q", q, batch, row, nested)
		}
	}
}

// TestOrKernelDifferential fuzzes OR groups — 2 to 5 alternatives
// mixing simple predicates, correlated [NOT] EXISTS probe terms,
// AND-pairs and nested disjunctions over NULL/NaN-bearing columns —
// and checks the group-kernel path against the per-row closure path
// and the forced nested loop, mirroring TestKernelClosureDifferential
// for the shapes the OR-group kernels claim.
func TestOrKernelDifferential(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(diffSeed(t, 149)))
	db := kernelTable(t, rng, 120)
	// Probe target with an exact-cover (g, v) index, NULLs included, so
	// both the index-probe and the hash-build kernel paths exercise.
	mustExec(t, db, `CREATE TABLE ps (g INTEGER, v INTEGER)`)
	mustExec(t, db, `CREATE INDEX idx_ps_gv ON ps (g, v)`)
	for i := 0; i < 40; i++ {
		v := relation.Int(int64(rng.Intn(12)))
		if rng.Intn(10) == 0 {
			v = relation.Null()
		}
		mustExec(t, db, `INSERT INTO ps VALUES (?, ?)`, relation.Int(int64(rng.Intn(3))), v)
	}
	cols := []string{"a", "f", "s", "flag"}
	leaf := func() string {
		col := cols[rng.Intn(len(cols))]
		switch rng.Intn(5) {
		case 0:
			ops := []string{"=", "<>", "<", "<=", ">", ">="}
			if col == "s" {
				return fmt.Sprintf("s %s '%c'", ops[rng.Intn(len(ops))], rune('a'+rng.Intn(5)))
			}
			return fmt.Sprintf("%s %s %d", col, ops[rng.Intn(len(ops))], rng.Intn(10))
		case 1:
			neg := ""
			if rng.Intn(2) == 0 {
				neg = "NOT "
			}
			return fmt.Sprintf("%s IS %sNULL", col, neg)
		case 2:
			if col == "s" {
				return "s IN ('a', 'd')"
			}
			return fmt.Sprintf("%s IN (%d, %d)", col, rng.Intn(10), rng.Intn(10))
		default:
			lo := rng.Intn(8)
			return fmt.Sprintf("%s BETWEEN %d AND %d", col, lo, lo+rng.Intn(5))
		}
	}
	probe := func() string {
		neg := ""
		if rng.Intn(2) == 0 {
			neg = "NOT "
		}
		// Mix the index-covered two-key probe with a filtered (hash
		// build) single-key probe; both correlate on a kt column.
		if rng.Intn(2) == 0 {
			return fmt.Sprintf("%sEXISTS (SELECT 1 FROM ps WHERE ps.g = %d AND ps.v = kt.a)", neg, rng.Intn(3))
		}
		return fmt.Sprintf("%sEXISTS (SELECT 1 FROM ps WHERE ps.v = kt.%s AND ps.g < 2)", neg, cols[rng.Intn(2)*3]) // a or flag
	}
	term := func() string {
		switch rng.Intn(5) {
		case 0:
			return probe()
		case 1:
			return fmt.Sprintf("(%s AND %s)", leaf(), probe())
		case 2:
			return fmt.Sprintf("(%s AND (%s OR %s))", leaf(), leaf(), probe())
		case 3:
			return fmt.Sprintf("(%s AND %s)", leaf(), leaf())
		default:
			return leaf()
		}
	}
	for trial := 0; trial < 120; trial++ {
		var terms []string
		for k := 2 + rng.Intn(4); k > 0; k-- {
			terms = append(terms, term())
		}
		var conjs []string
		conjs = append(conjs, "("+strings.Join(terms, " OR ")+")")
		if rng.Intn(2) == 0 {
			conjs = append(conjs, fmt.Sprintf("(%s OR %s)", leaf(), probe()))
		}
		if rng.Intn(3) == 0 {
			conjs = append(conjs, leaf())
		}
		q := "SELECT a, f, s, flag FROM kt WHERE " + strings.Join(conjs, " AND ")
		batch, row, nested := runThreeWays(t, db, q, false)
		if batch != row || row != nested {
			t.Fatalf("trial %d: OR-kernel divergence on %q:\nbatch  %q\nrow    %q\nnested %q",
				trial, q, batch, row, nested)
		}
	}
	// The last alternative reached with no row matched before it: the
	// group filters in place. The pattern row decides the first term, as in
	// the detector's lhsMatch — pat is the outer level, kt has ≥
	// reorderMinRows rows — so for code 1 or NULL only the last term is
	// live, and for code 0 the group passes whole. And the last alternative
	// after an earlier one matched some rows but not all (kt.a < 6 over a in
	// 0..11 and NULL), with and without a dead term between them: those rows
	// must survive whatever the last term says of them.
	mustExec(t, db, `CREATE TABLE pat (code INTEGER)`)
	mustExec(t, db, `INSERT INTO pat VALUES (1), (0), (NULL), (1)`)
	for trial := 0; trial < 60; trial++ {
		last := term()
		for _, where := range []string{
			"(p.code <> 1 OR " + last + ")",
			"(kt.a < 6 OR " + last + ")",
			"(kt.a < 6 OR p.code <> 1 OR " + last + ")",
		} {
			q := "SELECT p.code, kt.a, kt.f, kt.s, kt.flag FROM pat p, kt WHERE " + where
			batch, row, nested := runThreeWays(t, db, q, false)
			if batch != row || row != nested {
				t.Fatalf("trial %d: OR-kernel divergence on %q:\nbatch  %q\nrow    %q\nnested %q",
					trial, q, batch, row, nested)
			}
		}
	}
	plan, err := db.Explain("SELECT kt.a FROM pat p, kt WHERE (p.code <> 1 OR kt.a = 3)")
	if p, k := strings.Index(plan, "scan p "), strings.Index(plan, "scan kt "); err != nil || p < 0 || k < p || !strings.Contains(plan[k:], "or-group(2 terms)") {
		t.Fatalf("the pattern row does not decide the group's first term (%v):\n%s", err, plan)
	}
}

// TestOrKernelPlanClaims pins that the detection-shaped OR group is
// actually claimed by the group kernel (not silently row-pathed), and
// that a group with a non-kernelizable alternative falls back whole.
func TestOrKernelPlanClaims(t *testing.T) {
	rng := rand.New(rand.NewSource(151))
	db := kernelTable(t, rng, 80)
	mustExec(t, db, `CREATE TABLE pat (code INTEGER, val INTEGER)`)
	mustExec(t, db, `INSERT INTO pat VALUES (1, 3), (0, 5)`)

	plan, err := db.Explain(`SELECT kt.a FROM pat p, kt WHERE (p.code <> 1 OR EXISTS (SELECT 1 FROM pat q WHERE q.val = kt.a))`)
	if err != nil {
		t.Fatal(err)
	}
	// ... and EXPLAIN names the probe whose entries may answer from value
	// sets: every key part of q's is a column read or an invariant.
	if !strings.Contains(plan, "or-group(2 terms: value-set probe q)") {
		t.Fatalf("detection-shaped OR group not claimed by the group kernel:\n%s", plan)
	}

	// A loop-invariant scalar subquery RHS kernelizes (it binds once per
	// level entry instead of evaluating per row)...
	plan, err = db.Explain(`SELECT kt.a FROM kt WHERE (kt.flag = 1 OR kt.a = (SELECT MAX(val) FROM pat))`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "or-group(2 terms)") {
		t.Fatalf("invariant-scalar-sub OR group should kernelize:\n%s", plan)
	}
	// ...but a cross-column arithmetic alternative cannot: the whole
	// group must fall back to the per-row path.
	plan, err = db.Explain(`SELECT kt.a FROM kt WHERE (kt.flag = 1 OR kt.a + kt.flag = 5)`)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(plan, "or-group(") || !strings.Contains(plan, "[row]") {
		t.Fatalf("non-kernelizable OR group did not fall back whole:\n%s", plan)
	}
}

// TestOrKernelLazyBindErrors is the review-found regression: the row
// path short-circuits OR alternatives, so an erroring expression in a
// later alternative must not surface when every row satisfies an
// earlier one — group kernels bind alternatives lazily, only when a
// candidate row actually reaches them.
func TestOrKernelLazyBindErrors(t *testing.T) {
	t.Parallel()
	db := NewDB()
	mustExec(t, db, `CREATE TABLE c (z INTEGER)`)
	mustExec(t, db, `CREATE TABLE tt (a INTEGER)`)
	mustExec(t, db, `INSERT INTO c VALUES (0)`)
	mustExec(t, db, `INSERT INTO tt VALUES (1), (1)`)

	// Every row satisfies the first alternative, so 10 / c.z (division
	// by zero) must never evaluate — on either path.
	q := `SELECT tt.a FROM c, tt WHERE (tt.a = 1 OR tt.a < 10 / c.z)`
	batch, row, nested := runThreeWays(t, db, q, false)
	if batch != row || row != nested {
		t.Fatalf("lazy-bind divergence:\nbatch  %q\nrow    %q\nnested %q", batch, row, nested)
	}
	if batch != "1;1" {
		t.Fatalf("got %q, want both rows", batch)
	}

	// When rows do reach the second alternative, both paths must report
	// the same error.
	q = `SELECT tt.a FROM c, tt WHERE (tt.a = 2 OR tt.a < 10 / c.z)`
	if _, err := db.Query(q); err == nil {
		t.Fatal("batch path must surface the division error when rows reach the alternative")
	}
	db.SetMode(RowAtATime)
	if _, err := db.Query(q); err == nil {
		t.Fatal("row path must surface the division error when rows reach the alternative")
	}
}

// TestDistinctPreDedupCorrelated is the review-found regression: the
// raw pre-dedup set must be scoped to one execution — a correlated
// subquery re-executing within one statement emits its rows afresh
// each time, even when the cached site row's pointer is unchanged.
func TestDistinctPreDedupCorrelated(t *testing.T) {
	db := NewDB()
	mustExec(t, db, `CREATE TABLE o (id INTEGER, b INTEGER, v TEXT)`)
	mustExec(t, db, `CREATE TABLE tt (a TEXT, b INTEGER)`)
	mustExec(t, db, `CREATE TABLE p (x INTEGER)`)
	mustExec(t, db, `INSERT INTO o VALUES (1, 1, 'v'), (2, 1, 'v')`)
	mustExec(t, db, `INSERT INTO tt VALUES ('v', 1)`)
	mustExec(t, db, `INSERT INTO p VALUES (1)`)

	q := `SELECT o.id FROM o WHERE o.v IN (SELECT DISTINCT CASE WHEN p.x = 1 THEN tt.a ELSE '@' END FROM tt, p WHERE tt.b = o.b)`
	batch, row, nested := runThreeWays(t, db, q, false)
	if batch != row || row != nested {
		t.Fatalf("pre-dedup divergence:\nbatch  %q\nrow    %q\nnested %q", batch, row, nested)
	}
	if batch != "1;2" {
		t.Fatalf("got %q, want both outer rows", batch)
	}
}
