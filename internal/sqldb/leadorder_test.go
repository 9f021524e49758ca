package sqldb

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"ecfd/internal/relation"
)

// TestTinyJoinOrderDifferential fuzzes the join order of tiny joins —
// every source below reorderMinRows rows, where decide takes the plan's
// lead order (leadOrder) instead of sizes — with the conjuncts the
// detector's statements are made of: an OR of a pattern guard and a
// value-set EXISTS, a guarded NOT EXISTS, ABS(col) = k guards, a per-CID
// EXISTS, one-source filters and a third source joined on the pattern's
// CID, over NULL-bearing columns. Each query runs in every FROM
// permutation under Planned and Reference: every result must
// be the first one. The UPDATE form (the semi-join row selection a tiny
// joint join takes) must leave the same table under Planned and
// Reference. Through EXPLAIN, some planned trials must be driven by a
// source that is not first in FROM and decide no conjunct row by row.
// `make difffuzz` runs it on a fresh seed.
func TestTinyJoinOrderDifferential(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(diffSeed(t, 389)))
	intOrNull := func(r *rand.Rand, n, nullOneIn int) relation.Value {
		if r.Intn(nullOneIn) == 0 {
			return relation.Null()
		}
		return relation.Int(int64(r.Intn(n)))
	}
	setup := func(seed int64) *DB {
		r := rand.New(rand.NewSource(seed))
		db := NewDB()
		mustExec(t, db, `CREATE TABLE d (id INTEGER, a INTEGER, b INTEGER, flag INTEGER)`)
		mustExec(t, db, `CREATE TABLE c (cid INTEGER, al INTEGER, ar INTEGER, k INTEGER)`)
		mustExec(t, db, `CREATE TABLE s (cid INTEGER, val INTEGER)`)
		mustExec(t, db, `CREATE TABLE e (cid INTEGER, x INTEGER)`)
		for i := 0; i < 1+r.Intn(40); i++ {
			mustExec(t, db, `INSERT INTO d VALUES (?, ?, ?, 0)`, relation.Int(int64(i)), intOrNull(r, 6, 7), intOrNull(r, 6, 5))
		}
		for i := 0; i < 1+r.Intn(15); i++ {
			mustExec(t, db, `INSERT INTO c VALUES (?, ?, ?, ?)`, relation.Int(int64(i)),
				intOrNull(r, 4, 9), relation.Int(int64(r.Intn(5)-2)), intOrNull(r, 6, 6))
		}
		for i := 0; i < r.Intn(30); i++ {
			mustExec(t, db, `INSERT INTO s VALUES (?, ?)`, relation.Int(int64(r.Intn(15))), intOrNull(r, 6, 8))
		}
		for i := 0; i < r.Intn(20); i++ {
			mustExec(t, db, `INSERT INTO e VALUES (?, ?)`, relation.Int(int64(r.Intn(15))), intOrNull(r, 6, 6))
		}
		return db
	}
	set := func(not bool, col string) string {
		op := "EXISTS"
		if not {
			op = "NOT EXISTS"
		}
		return fmt.Sprintf("%s (SELECT 1 FROM s WHERE s.cid = c.cid AND s.val = %s)", op, col)
	}
	dataCol := func() string { return []string{"d.a", "d.b"}[rng.Intn(2)] }
	conjunct := func(withE bool) string {
		switch rng.Intn(8) {
		case 0:
			return fmt.Sprintf("(c.al <> %d OR %s)", 1+rng.Intn(2), set(false, dataCol()))
		case 1:
			col := dataCol()
			return fmt.Sprintf("(c.al <> 2 OR (%s IS NOT NULL AND %s))", col, set(true, col))
		case 2:
			a, b := dataCol(), dataCol()
			return fmt.Sprintf("((ABS(c.ar) = 1 AND %s) OR (ABS(c.ar) = 2 AND (%s IS NULL OR %s)))",
				set(true, a), b, set(false, b))
		case 3:
			return "EXISTS (SELECT 1 FROM s g WHERE g.cid = c.cid)"
		case 4:
			return fmt.Sprintf("%s < %d", dataCol(), 1+rng.Intn(5))
		case 5:
			return fmt.Sprintf("(c.k IS NULL OR c.k <> %d)", rng.Intn(6))
		case 6:
			if withE {
				return fmt.Sprintf("(e.x = %d OR e.x = %s)", rng.Intn(6), dataCol())
			}
			return fmt.Sprintf("ABS(c.ar) = %d", rng.Intn(3))
		default:
			return fmt.Sprintf("%s <> c.k", dataCol())
		}
	}
	// driver names the source a plan's first level iterates.
	driver := func(plan string) string {
		line := strings.Split(plan, "\n")[1]
		f := strings.Fields(line)
		for i, w := range f {
			if (w == "scan" || w == "probe") && i+1 < len(f) {
				return f[i+1]
			}
		}
		t.Fatalf("no driving level in plan:\n%s", plan)
		return ""
	}
	led := 0
	const trials = 150
	for trial := 0; trial < trials; trial++ {
		seed := rng.Int63()
		db := setup(seed)
		withE := rng.Intn(2) == 0
		from := []string{"d", "c"}
		conjs := []string{}
		if withE {
			from = append(from, "e")
			conjs = append(conjs, "e.cid = c.cid")
		}
		for i := 0; i < 1+rng.Intn(4); i++ {
			conjs = append(conjs, conjunct(withE))
		}
		where := strings.Join(conjs, " AND ")
		cols := "d.id, c.cid"
		if withE {
			cols += ", e.x"
		}
		distinct := ""
		if rng.Intn(2) == 0 {
			distinct = "DISTINCT "
		}
		var want string
		permute(from, func(order []string) {
			q := fmt.Sprintf("SELECT %s%s FROM %s WHERE %s", distinct, cols, strings.Join(order, ", "), where)
			batch, nested := runBothWays(t, db, q, false)
			if want == "" {
				want = nested
			}
			if batch != want || nested != want {
				t.Fatalf("trial %d (seed %d) %q:\nbatch  %q\nnested %q\nwant   %q", trial, seed, q, batch, nested, want)
			}
			plan, err := db.Explain(q)
			if err != nil {
				t.Fatal(err)
			}
			if driver(plan) != order[0] && !strings.Contains(plan, "decided here") {
				led++
			}
		})
		// The UPDATE form: a tiny joint join takes the semi-join row
		// selection, driven by the lead order too.
		sub := strings.Join(from[1:], ", ")
		upd := fmt.Sprintf("UPDATE d SET flag = 1 WHERE EXISTS (SELECT 1 FROM %s WHERE %s)", sub, where)
		var tables [2]string
		for i, m := range []Mode{Planned, Reference} {
			udb := setup(seed)
			udb.SetMode(m)
			mustExec(t, udb, upd)
			udb.SetMode(Planned)
			tables[i] = canonical(mustQuery(t, udb, `SELECT id, a, b, flag FROM d`))
		}
		if tables[0] != tables[1] {
			t.Fatalf("trial %d (seed %d) %q:\nplanned   %s\nreference %s", trial, seed, upd, tables[0], tables[1])
		}
	}
	if led < trials/4 {
		t.Fatalf("only %d planned runs were driven by a source other than FROM's first with no conjunct decided row by row", led)
	}
}

// permute calls f with every ordering of xs (Heap's algorithm); f must
// not keep the slice.
func permute(xs []string, f func([]string)) {
	xs = append([]string(nil), xs...)
	var gen func(k int)
	gen = func(k int) {
		if k <= 1 {
			f(xs)
			return
		}
		gen(k - 1)
		for i := 0; i < k-1; i++ {
			if k%2 == 0 {
				xs[i], xs[k-1] = xs[k-1], xs[i]
			} else {
				xs[0], xs[k-1] = xs[k-1], xs[0]
			}
			gen(k - 1)
		}
	}
	gen(len(xs))
}
