package sqldb

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"ecfd/internal/relation"
)

// Property tests cross-checking the engine against straightforward Go
// implementations of the same queries.

func randomTable(t *testing.T, rng *rand.Rand, rows int) (*DB, []int64, []string) {
	t.Helper()
	db := NewDB()
	mustExec(t, db, `CREATE TABLE p (n INTEGER, s TEXT)`)
	ns := make([]int64, rows)
	ss := make([]string, rows)
	for i := range ns {
		ns[i] = int64(rng.Intn(20))
		ss[i] = string(rune('a' + rng.Intn(5)))
		mustExec(t, db, `INSERT INTO p VALUES (?, ?)`, relation.Int(ns[i]), relation.Text(ss[i]))
	}
	return db, ns, ss
}

func TestPropertyCountMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 10; trial++ {
		rows := 1 + rng.Intn(60)
		db, ns, _ := randomTable(t, rng, rows)
		threshold := int64(rng.Intn(20))

		want := 0
		for _, n := range ns {
			if n > threshold {
				want++
			}
		}
		res := mustQuery(t, db, `SELECT COUNT(*) FROM p WHERE n > ?`, relation.Int(threshold))
		if got := res.Rows[0][0].I; got != int64(want) {
			t.Fatalf("trial %d: COUNT = %d, want %d", trial, got, want)
		}
	}
}

func TestPropertyOrderBySorted(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for trial := 0; trial < 10; trial++ {
		db, _, _ := randomTable(t, rng, 1+rng.Intn(50))
		res := mustQuery(t, db, `SELECT n FROM p ORDER BY n`)
		for i := 1; i < len(res.Rows); i++ {
			if res.Rows[i-1][0].I > res.Rows[i][0].I {
				t.Fatalf("trial %d: not sorted at %d", trial, i)
			}
		}
	}
}

func TestPropertyGroupBySums(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 10; trial++ {
		db, ns, ss := randomTable(t, rng, 1+rng.Intn(50))
		want := map[string]int64{}
		for i := range ns {
			want[ss[i]] += ns[i]
		}
		res := mustQuery(t, db, `SELECT s, SUM(n) FROM p GROUP BY s ORDER BY s`)
		var keys []string
		for k := range want {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		if len(res.Rows) != len(keys) {
			t.Fatalf("trial %d: %d groups, want %d", trial, len(res.Rows), len(keys))
		}
		for i, k := range keys {
			if res.Rows[i][0].S != k || res.Rows[i][1].I != want[k] {
				t.Fatalf("trial %d group %s: got (%s, %d), want sum %d",
					trial, k, res.Rows[i][0].S, res.Rows[i][1].I, want[k])
			}
		}
	}
}

func TestPropertyDistinctCardinality(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 10; trial++ {
		db, _, ss := randomTable(t, rng, 1+rng.Intn(50))
		uniq := map[string]bool{}
		for _, s := range ss {
			uniq[s] = true
		}
		res := mustQuery(t, db, `SELECT DISTINCT s FROM p`)
		if len(res.Rows) != len(uniq) {
			t.Fatalf("trial %d: DISTINCT returned %d, want %d", trial, len(res.Rows), len(uniq))
		}
	}
}

func TestPropertyDeleteComplement(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for trial := 0; trial < 10; trial++ {
		rows := 1 + rng.Intn(50)
		db, ns, _ := randomTable(t, rng, rows)
		pivot := int64(rng.Intn(20))
		kept := 0
		for _, n := range ns {
			if n >= pivot {
				kept++
			}
		}
		mustExec(t, db, `DELETE FROM p WHERE n < ?`, relation.Int(pivot))
		res := mustQuery(t, db, `SELECT COUNT(*) FROM p`)
		if res.Rows[0][0].I != int64(kept) {
			t.Fatalf("trial %d: kept %d, want %d", trial, res.Rows[0][0].I, kept)
		}
	}
}

// TestPropertyExistsEquivalence: the decorrelated EXISTS path and the
// IN-subquery path must agree on semi-join semantics.
func TestPropertyExistsEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 8; trial++ {
		db := NewDB()
		mustExec(t, db, `CREATE TABLE a (x INTEGER)`)
		mustExec(t, db, `CREATE TABLE b (y INTEGER)`)
		for i := 0; i < 1+rng.Intn(25); i++ {
			mustExec(t, db, fmt.Sprintf(`INSERT INTO a VALUES (%d)`, rng.Intn(10)))
		}
		for i := 0; i < rng.Intn(25); i++ {
			mustExec(t, db, fmt.Sprintf(`INSERT INTO b VALUES (%d)`, rng.Intn(10)))
		}
		viaExists := flat(mustQuery(t, db, `SELECT x FROM a WHERE EXISTS (SELECT 1 FROM b WHERE b.y = a.x) ORDER BY x`))
		viaIn := flat(mustQuery(t, db, `SELECT x FROM a WHERE x IN (SELECT y FROM b) ORDER BY x`))
		if viaExists != viaIn {
			t.Fatalf("trial %d: EXISTS %q vs IN %q", trial, viaExists, viaIn)
		}
		// And the complements agree too.
		notExists := flat(mustQuery(t, db, `SELECT x FROM a WHERE NOT EXISTS (SELECT 1 FROM b WHERE b.y = a.x) ORDER BY x`))
		all := flat(mustQuery(t, db, `SELECT x FROM a ORDER BY x`))
		if len(viaExists)+len(notExists) > 0 {
			merged := mergeFlat(viaExists, notExists)
			if merged != all {
				t.Fatalf("trial %d: EXISTS ∪ NOT EXISTS ≠ all: %q + %q vs %q", trial, viaExists, notExists, all)
			}
		}
	}
}

func mergeFlat(a, b string) string {
	var parts []string
	if a != "" {
		parts = append(parts, splitFlat(a)...)
	}
	if b != "" {
		parts = append(parts, splitFlat(b)...)
	}
	sort.Strings(parts)
	out := ""
	for i, p := range parts {
		if i > 0 {
			out += ";"
		}
		out += p
	}
	return out
}

func splitFlat(s string) []string {
	var out []string
	cur := ""
	for _, r := range s {
		if r == ';' {
			out = append(out, cur)
			cur = ""
			continue
		}
		cur += string(r)
	}
	return append(out, cur)
}

// TestQuickLexerNeverPanics fuzzes the lexer+parser with random byte
// strings: errors are fine, panics are not.
func TestQuickLexerNeverPanics(t *testing.T) {
	f := func(src string) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("panic on %q: %v", src, r)
			}
		}()
		_, _ = ParseScript(src)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestQuickRoundTripInsertSelect: values inserted through parameters
// come back unchanged.
func TestQuickRoundTripInsertSelect(t *testing.T) {
	db := NewDB()
	mustExec(t, db, `CREATE TABLE rt (i INTEGER, f REAL, s TEXT, b BOOLEAN)`)
	f := func(i int64, fl float64, s string, b bool) bool {
		if fl != fl { // NaN never round-trips through equality
			return true
		}
		mustExec(t, db, `TRUNCATE TABLE rt`)
		mustExec(t, db, `INSERT INTO rt VALUES (?, ?, ?, ?)`,
			relation.Int(i), relation.Float(fl), relation.Text(s), relation.Bool(b))
		res := mustQuery(t, db, `SELECT i, f, s, b FROM rt`)
		r := res.Rows[0]
		return r[0].I == i && r[1].F == fl && r[2].S == s && (r[3].I != 0) == b
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestPropertyPlannerNestedLoopEquivalence is the plan-equivalence
// oracle: every generated SELECT runs two ways — the planner with
// batch kernels, and the forced all-pairs nested loop — and both must
// produce identical multisets, identical sequences when an ORDER BY
// pins the order. 250 queries cover joins (equi and cross), OR
// conjuncts spanning sources, AND-within-OR alternatives, OR-group
// kernels (2–5 alternatives, mixed simple predicates / correlated
// EXISTS probe terms / nested disjunctions — the shapes the group
// kernels claim, plus non-kernelizable mixes that must fall back),
// const-equality conjuncts (the `MV = 0` shape), correlated
// EXISTS / NOT EXISTS, IN-subqueries, IN lists, NULL columns,
// source-free conjuncts and alternative parts (`1 = 1`, `2 < 1`,
// `NULL = 1`: the pre-loop and the parts a level decides with its
// conjunct), OR alternatives whose parts read the outer and the inner
// source of a three-source join (decided whole where the last binds),
// DISTINCT, grouped aggregates, range predicates (<, <=, >, >= and
// two-sided pairs — range-pruned with inclusive-bound filter elision through
// the index on w.k, compound equality-prefix + range through the
// (p, q) index on z) and ORDER BY clauses (index-served on
// single-table w queries, join-driver-served when a multi-table
// ORDER BY's source drives the join). `make difffuzz` runs it on a
// fresh seed.
func TestPropertyPlannerNestedLoopEquivalence(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(diffSeed(t, 97)))
	db := NewDB()
	mustExec(t, db, `CREATE TABLE r (a INTEGER, b INTEGER, s TEXT)`)
	mustExec(t, db, `CREATE TABLE u (x INTEGER, y TEXT)`)
	mustExec(t, db, `CREATE TABLE w (k INTEGER, v INTEGER)`)
	mustExec(t, db, `CREATE INDEX idx_w_k ON w (k)`)
	// z has only a compound index: equality on p alone must fall back to
	// the prefix probe (binary search), and p-equality + q-range hits the
	// compound-bound path.
	mustExec(t, db, `CREATE TABLE z (p INTEGER, q INTEGER, c INTEGER)`)
	mustExec(t, db, `CREATE INDEX idx_z_pq ON z (p, q)`)
	for i := 0; i < 70; i++ {
		b := relation.Int(int64(rng.Intn(6)))
		if rng.Intn(8) == 0 {
			b = relation.Null()
		}
		mustExec(t, db, `INSERT INTO r VALUES (?, ?, ?)`,
			relation.Int(int64(rng.Intn(10))), b, relation.Text(string(rune('a'+rng.Intn(4)))))
	}
	for i := 0; i < 25; i++ {
		y := relation.Text(string(rune('a' + rng.Intn(4))))
		if rng.Intn(6) == 0 {
			y = relation.Null()
		}
		mustExec(t, db, `INSERT INTO u VALUES (?, ?)`, relation.Int(int64(rng.Intn(10))), y)
	}
	for i := 0; i < 40; i++ {
		v := relation.Int(int64(rng.Intn(6)))
		if rng.Intn(8) == 0 {
			v = relation.Null()
		}
		mustExec(t, db, `INSERT INTO w VALUES (?, ?)`, relation.Int(int64(rng.Intn(10))), v)
	}
	for i := 0; i < 50; i++ {
		q := relation.Int(int64(rng.Intn(8)))
		if rng.Intn(9) == 0 {
			q = relation.Null()
		}
		mustExec(t, db, `INSERT INTO z VALUES (?, ?, ?)`,
			relation.Int(int64(rng.Intn(6))), q, relation.Int(int64(rng.Intn(5))))
	}

	type src struct {
		table   string
		intCols []string
	}
	pool := []src{
		{table: "r", intCols: []string{"a", "b"}},
		{table: "u", intCols: []string{"x"}},
		{table: "w", intCols: []string{"k", "v"}},
		{table: "z", intCols: []string{"p", "q", "c"}},
	}

	checked := 0
	for trial := 0; trial < 250; trial++ {
		n := 1 + rng.Intn(3)
		idx := rng.Perm(len(pool))[:n]
		aliases := make([]string, n)
		var from []string
		for i, pi := range idx {
			aliases[i] = fmt.Sprintf("t%d", i)
			from = append(from, pool[pi].table+" "+aliases[i])
		}
		intCol := func(i int) string {
			cols := pool[idx[i]].intCols
			return aliases[i] + "." + cols[rng.Intn(len(cols))]
		}
		// cmpOn compares a column of source i alone with a constant.
		cmpOn := func(i int) string {
			ops := []string{"=", "<>", "<", ">="}
			return fmt.Sprintf("%s %s %d", intCol(i), ops[rng.Intn(len(ops))], rng.Intn(8))
		}
		leaf := func() string {
			i := rng.Intn(n)
			switch rng.Intn(8) {
			case 0:
				return fmt.Sprintf("%s = %d", intCol(i), rng.Intn(8))
			case 1:
				// Range predicates: on w.k these go through the ordered
				// index as range-pruned scans, with inclusive bounds
				// elided from the filter set.
				ops := []string{"<", "<=", ">", ">=", "<>"}
				return fmt.Sprintf("%s %s %d", intCol(i), ops[rng.Intn(len(ops))], rng.Intn(8))
			case 2: // x BETWEEN lo AND hi, as its range
				lo := rng.Intn(8)
				c := intCol(i)
				return fmt.Sprintf("(%s >= %d AND %[1]s <= %d)", c, lo, lo+rng.Intn(5))
			case 3:
				return fmt.Sprintf("%s IS NOT NULL", intCol(i))
			case 4: // x [NOT] IN (…) is written x = … OR x = … (x <> … AND x <> …)
				in := "(%[1]s = %[2]d OR %[1]s = %[3]d OR %[1]s = %[4]d)"
				if rng.Intn(3) == 0 {
					in = "(%[1]s <> %[2]d AND %[1]s <> %[3]d AND %[1]s <> %[4]d)"
				}
				return fmt.Sprintf(in, intCol(i), rng.Intn(8), rng.Intn(8), rng.Intn(8))
			case 5:
				// Reads no source: true, false or NULL for every row.
				return []string{"1 = 1", "2 < 1", "NULL = 1"}[rng.Intn(3)]
			default:
				if n > 1 {
					j := rng.Intn(n)
					for j == i {
						j = rng.Intn(n)
					}
					return fmt.Sprintf("%s = %s", intCol(i), intCol(j))
				}
				return fmt.Sprintf("%s = %d", intCol(i), rng.Intn(8))
			}
		}
		// probeTerm is the detection-SQL alternative shape: a correlated
		// [NOT] EXISTS whose key mixes an outer column with the probed
		// table — the OR-group kernels lower it to a probe kernel.
		probeTerm := func() string {
			neg := ""
			if rng.Intn(2) == 0 {
				neg = "NOT "
			}
			return fmt.Sprintf("%sEXISTS (SELECT 1 FROM u e WHERE e.x = %s)", neg, intCol(rng.Intn(n)))
		}
		var conjs []string
		for k := rng.Intn(4); k > 0; k-- {
			switch rng.Intn(10) {
			case 0:
				conjs = append(conjs, fmt.Sprintf("(%s OR %s)", leaf(), leaf()))
			case 1:
				conjs = append(conjs, fmt.Sprintf("(%s OR (%s AND %s))", leaf(), leaf(), leaf()))
			case 2:
				conjs = append(conjs, probeTerm())
			case 3:
				conjs = append(conjs, fmt.Sprintf("%s IN (SELECT k FROM w)", intCol(rng.Intn(n))))
			case 4:
				// Detection-shaped OR group: guard OR probe — claimed whole
				// by the probed source's level when the guard binds there.
				conjs = append(conjs, fmt.Sprintf("(%s OR %s)", leaf(), probeTerm()))
			case 5:
				// Wide OR group, 3–5 alternatives mixing simple leaves,
				// probes, AND-pairs and nested disjunctions.
				terms := []string{leaf()}
				for w := 2 + rng.Intn(3); w > 0; w-- {
					switch rng.Intn(4) {
					case 0:
						terms = append(terms, probeTerm())
					case 1:
						terms = append(terms, fmt.Sprintf("(%s AND %s)", leaf(), leaf()))
					case 2:
						terms = append(terms, fmt.Sprintf("(%s AND (%s OR %s))", leaf(), leaf(), probeTerm()))
					default:
						terms = append(terms, leaf())
					}
				}
				conjs = append(conjs, "("+strings.Join(terms, " OR ")+")")
			case 6:
				// Constant-equality conjunct: the `MV = 0` shape, an
				// equality kernel unless an index covers the column.
				conjs = append(conjs, fmt.Sprintf("%s = %d", intCol(rng.Intn(n)), rng.Intn(4)))
			case 7, 8:
				if n < 3 {
					conjs = append(conjs, leaf())
					break
				}
				// Alternatives whose parts read the outer and the inner
				// source of a three-source join: none holds or fails whole
				// before the last of them binds.
				conjs = append(conjs, fmt.Sprintf("((%s AND %s) OR (%s AND %s) OR %s)",
					cmpOn(0), cmpOn(2), cmpOn(2), cmpOn(1), leaf()))
			default:
				conjs = append(conjs, leaf())
			}
		}
		where := ""
		if len(conjs) > 0 {
			where = " WHERE " + strings.Join(conjs, " AND ")
		}
		var q string
		ordered := false
		switch rng.Intn(6) {
		case 0:
			q = fmt.Sprintf("SELECT COUNT(*) FROM %s%s", strings.Join(from, ", "), where)
		case 1:
			g := intCol(rng.Intn(n))
			q = fmt.Sprintf("SELECT %s, COUNT(*) FROM %s%s GROUP BY %s",
				g, strings.Join(from, ", "), where, g)
		case 2:
			q = fmt.Sprintf("SELECT DISTINCT %s FROM %s%s",
				intCol(rng.Intn(n)), strings.Join(from, ", "), where)
		case 3:
			// ORDER BY over every output column: the result sequence is then fully determined (rows agreeing
			// on all sort keys are identical), so the planned path — which
			// may serve the order from an index with a different tie order
			// — must be byte-identical to the forced nested loop, not just
			// multiset-equal. Single-table w queries with ORDER BY w.k hit
			// the index-served (sort-free) path.
			ordered = true
			var outs []string
			for i := 0; i < n; i++ {
				for _, c := range pool[idx[i]].intCols {
					outs = append(outs, aliases[i]+"."+c)
				}
			}
			q = fmt.Sprintf("SELECT %s FROM %s%s ORDER BY %[1]s", strings.Join(outs, ", "), strings.Join(from, ", "), where)
		case 4:
			// Multi-table ORDER BY over one source's columns, outputs
			// restricted to exactly the order keys: every row of a tie
			// group is identical, so sequence comparison stays exact even
			// though the join fans each driving row out — this is the
			// join-driver index-served ORDER BY shape (served when the
			// ordered source happens to drive the join, sorted when not;
			// both must match the nested loop byte-for-byte).
			ordered = true
			oi := rng.Intn(n)
			var outs []string
			for _, c := range pool[idx[oi]].intCols {
				outs = append(outs, aliases[oi]+"."+c)
			}
			q = fmt.Sprintf("SELECT %s FROM %s%s ORDER BY %[1]s", strings.Join(outs, ", "), strings.Join(from, ", "), where)
		default:
			var outs []string
			for i := 0; i < n; i++ {
				outs = append(outs, intCol(i))
			}
			q = fmt.Sprintf("SELECT %s FROM %s%s", strings.Join(outs, ", "), strings.Join(from, ", "), where)
		}

		batch, nested := runBothWays(t, db, q, ordered)
		if batch != nested {
			t.Fatalf("trial %d: divergence on %q (ordered=%v):\nbatch  %q\nnested %q",
				trial, q, ordered, batch, nested)
		}
		checked++
	}
	if checked < 240 {
		t.Fatalf("only %d queries checked, want >= 240", checked)
	}
}

// runBothWays executes q on db under each Mode — the planner with its
// batch kernels, and the Reference all-pairs nested loop — and leaves db
// in Planned. exact compares the emitted sequences byte-for-byte (valid
// when an ORDER BY pins the order); otherwise results canonicalize to
// multisets.
func runBothWays(t *testing.T, db *DB, q string, exact bool, params ...relation.Value) (batch, nested string) {
	t.Helper()
	canon := canonical
	if exact {
		canon = flat
	}
	return canon(queryIn(t, db, Planned, q, params...)), canon(queryIn(t, db, Reference, q, params...))
}

// queryIn runs q with db switched to mode m, and puts db back in
// Planned. The mode is per DB, so tests that own their DB run in
// parallel with each other.
func queryIn(t *testing.T, db *DB, m Mode, q string, params ...relation.Value) *Result {
	t.Helper()
	db.SetMode(m)
	defer db.SetMode(Planned)
	res, err := db.Query(q, params...)
	if err != nil {
		t.Fatalf("mode %d, %q: %v", m, q, err)
	}
	return res
}
