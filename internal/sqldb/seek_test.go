package sqldb

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"ecfd/internal/relation"
)

// TestSubsetIndexProbeDifferential drives equality probes through an
// index that covers a strict subset of their equalities (probeIndex): the
// index finds the rows of the columns it covers, and the equalities it
// leaves out are checked on those rows — by the level's filters on a plan
// level, by matchRest in a decorrelated EXISTS, whether a probe kernel or
// the closure decides it. Three inner tables index (a), (b), and (c) beside
// (c, a), so the same keys are answered through different covered sets, the
// widest index winning. Keys mix TEXT, REAL and INTEGER columns over NULL,
// NaN, −0, 2^53 and int64's extremes, and compare an INTEGER outer column
// with a REAL inner one and the reverse, where equality is exact; the
// covered columns hold few values, so index keys repeat. Every query runs
// prepared, and again after DML on the inner and outer tables — some rounds
// first read an index in order, so its probes go by binary search rather
// than the map — and must equal Reference mode's answer byte for byte. The
// plans must show the subset probe, and the EXISTS runs no hash build.
// `make difffuzz` runs it on a fresh seed.
func TestSubsetIndexProbeDifferential(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(diffSeed(t, 487)))
	texts := []relation.Value{relation.Null(), relation.Text("x"), relation.Text("y"), relation.Text("@")}
	reals := []relation.Value{relation.Null(), relation.Float(math.NaN()), relation.Float(0), relation.Float(math.Copysign(0, -1)),
		relation.Float(2), relation.Float(2.5), relation.Float(1 << 53)}
	ints := []relation.Value{relation.Null(), relation.Int(0), relation.Int(2), relation.Int(-3),
		relation.Int(1<<53 + 1), relation.Int(math.MaxInt64), relation.Int(math.MinInt64)}
	pick := func(vs []relation.Value) relation.Value { return vs[rng.Intn(len(vs))] }
	db, ref := NewDB(), NewDB()
	ref.SetMode(Reference)
	both := func(q string, params ...relation.Value) {
		t.Helper()
		mustExec(t, db, q, params...)
		mustExec(t, ref, q, params...)
	}
	inner := []string{"ia", "ib", "ic"}
	both(`CREATE TABLE o (id INTEGER, a TEXT, b REAL, k INTEGER)`)
	both(`CREATE TABLE p (g INTEGER)`)
	for _, tb := range inner {
		both(fmt.Sprintf(`CREATE TABLE %s (a TEXT, b REAL, c INTEGER, w INTEGER)`, tb))
	}
	both(`CREATE INDEX idx_ia ON ia (a)`)
	both(`CREATE INDEX idx_ib ON ib (b)`)
	both(`CREATE INDEX idx_ic ON ic (c)`)
	both(`CREATE INDEX idx_ic_ca ON ic (c, a)`)
	addInner := func(tb string, n int) {
		for range n {
			both(fmt.Sprintf(`INSERT INTO %s VALUES (?, ?, ?, ?)`, tb), pick(texts), pick(reals), pick(ints), relation.Int(int64(rng.Intn(5))))
		}
	}
	for _, tb := range inner {
		addInner(tb, 100)
	}
	// o stays below the inner tables, so a plan level of the inner table is
	// entered from o's rows; p drives the two-source EXISTS, whose key reads
	// p.g as a constant of every entry of o's level.
	for id := range 30 {
		both(`INSERT INTO o VALUES (?, ?, ?, ?)`, relation.Int(int64(id)), pick(texts), pick(reals), pick(ints))
	}
	for _, g := range ints {
		both(`INSERT INTO p VALUES (?)`, g)
	}

	keys := []string{
		`i.a = o.a AND i.b = o.b AND i.c = o.k`,
		`i.c = o.k AND i.b = o.k`,               // an INTEGER outer column against a REAL inner one
		`i.a = o.a AND i.c = o.b`,               // a REAL outer column against an INTEGER inner one
		`i.b = o.b AND i.a = o.a AND i.a = o.a`, // a column bound twice
	}
	// pkey binds i.c to p.g instead: the two-source EXISTS's key part that
	// is constant for an entry of o's level.
	pkey := func(key string) string {
		if k := strings.NewReplacer("i.c = o.k", "i.c = p.g", "i.c = o.b", "i.c = p.g").Replace(key); k != key {
			return k
		}
		return key + " AND i.c = p.g"
	}
	type site struct{ q, plan string }
	var sites []site
	for _, tb := range inner {
		for _, key := range keys {
			sites = append(sites,
				site{fmt.Sprintf(`SELECT o.id, i.w FROM o, %s i WHERE %s`, tb, key), "index probe i via idx_" + tb},
				site{fmt.Sprintf(`SELECT o.id FROM o WHERE EXISTS (SELECT 1 FROM %s i WHERE %s)`, tb, key), "or-group"},
				site{fmt.Sprintf(`SELECT o.id FROM o WHERE NOT EXISTS (SELECT 1 FROM %s i WHERE %s)`, tb, key), "or-group"},
				site{fmt.Sprintf(`SELECT o.id, EXISTS (SELECT 1 FROM %s i WHERE %s) FROM o`, tb, key), ""},
				site{fmt.Sprintf(`SELECT DISTINCT p.g, o.id FROM p, o WHERE EXISTS (SELECT 1 FROM %s i WHERE %s)`, tb, pkey(key)), "or-group"},
			)
		}
	}
	// A site whose keys bind every column of some index of its table is
	// probed through it; the others — ia's keys without i.a, ib's without
	// i.b — have no index to use and keep their hash build or scan.
	indexed := func(s site) bool {
		switch {
		case strings.Contains(s.q, " ia i"):
			return strings.Contains(s.q, "i.a = ")
		case strings.Contains(s.q, " ib i"):
			return strings.Contains(s.q, "i.b = ")
		}
		return strings.Contains(s.q, "i.c = ")
	}
	prepared := make([]*Prepared, len(sites))
	probes := 0
	for i, s := range sites {
		plan, err := db.Explain(s.q)
		if err != nil {
			t.Fatal(err)
		}
		if indexed(s) && !strings.Contains(plan, s.plan) {
			t.Fatalf("%s: the plan does not probe the index:\n%s", s.q, plan)
		}
		if prepared[i], err = db.Prepare(s.q); err != nil {
			t.Fatal(err)
		}
	}
	check := func(step string) {
		t.Helper()
		for i, s := range sites {
			before := db.Stats()
			res, err := prepared[i].Query()
			if err != nil {
				t.Fatalf("%s: %s: %v", step, s.q, err)
			}
			st := db.Stats()
			want := mustQuery(t, ref, s.q)
			if got, want := canonical(res), canonical(want); got != want {
				t.Fatalf("%s: %s\nPlanned   %q\nReference %q", step, s.q, got, want)
			}
			if indexed(s) {
				if st.HashBuilds != before.HashBuilds {
					t.Fatalf("%s: %s: %d hash builds beside an index its key binds", step, s.q, st.HashBuilds-before.HashBuilds)
				}
				probes++
			}
		}
	}
	check("the first run")
	for round := range 4 {
		if round%2 == 1 {
			// Reading the indexes in order builds their in-order positions,
			// and the DELETE below keeps only those: equality probes then
			// binary-search them.
			for _, q := range []string{`SELECT i.a FROM ia i ORDER BY i.a`, `SELECT i.b FROM ib i ORDER BY i.b`, `SELECT i.c FROM ic i ORDER BY i.c`} {
				mustQuery(t, db, q)
			}
		}
		for _, tb := range inner {
			both(fmt.Sprintf(`DELETE FROM %s WHERE %s.w = ?`, tb, tb), relation.Int(int64(rng.Intn(5))))
			addInner(tb, 20)
			both(fmt.Sprintf(`UPDATE %s SET b = 2 WHERE %s.w = ?`, tb, tb), relation.Int(int64(rng.Intn(5))))
		}
		both(`UPDATE o SET k = 2 WHERE o.id = ?`, relation.Int(int64(rng.Intn(30))))
		check(fmt.Sprintf("DML round %d", round))
	}
	if probes == 0 {
		t.Fatal("no site was probed through an index")
	}
}

// TestWordSearchDifferential compares the binary searches over an INTEGER
// column that compare words (wordBound) with Reference mode: equality
// probes and ranges over an index on an INTEGER column holding NULLs,
// negative values, values beyond 2^53 and int64's extremes, in the map
// mode of the index and, after an ORDER BY and a DELETE leave it only its
// in-order positions, by binary search. The probe values include REAL 2.0,
// 2.5 and NaN, −0, a BOOLEAN and a value above 2^53 as REAL, which must
// take the Compare path; an index on a REAL column takes it for an INTEGER
// probe too. `make difffuzz` runs it on a fresh seed.
func TestWordSearchDifferential(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(diffSeed(t, 733)))
	ints := []relation.Value{relation.Null(), relation.Int(0), relation.Int(2), relation.Int(3), relation.Int(-2),
		relation.Int(-1 << 60), relation.Int(1<<53 + 1), relation.Int(1 << 53), relation.Int(math.MaxInt64), relation.Int(math.MinInt64)}
	probes := append(slices.Clone(ints[1:]),
		relation.Float(2), relation.Float(2.5), relation.Float(math.NaN()), relation.Float(math.Copysign(0, -1)),
		relation.Float(1<<53+2), relation.Float(math.Inf(-1)), relation.Bool(true), relation.Int(7))
	db, ref := NewDB(), NewDB()
	ref.SetMode(Reference)
	both := func(q string, params ...relation.Value) {
		t.Helper()
		mustExec(t, db, q, params...)
		mustExec(t, ref, q, params...)
	}
	both(`CREATE TABLE w (k INTEGER, r REAL, v INTEGER)`)
	both(`CREATE INDEX idx_w_k ON w (k)`)
	both(`CREATE INDEX idx_w_r ON w (r)`)
	for i := range 300 {
		k := ints[rng.Intn(len(ints))]
		r := relation.Null()
		if !k.IsNull() {
			r = relation.Float(float64(k.I))
		}
		both(`INSERT INTO w VALUES (?, ?, ?)`, k, r, relation.Int(int64(i)))
	}
	queries := []string{
		`SELECT w.v FROM w WHERE w.k = ?`,
		`SELECT w.v FROM w WHERE w.r = ?`,
		`SELECT w.v FROM w WHERE w.k >= ?`,
		`SELECT w.v FROM w WHERE w.k > ?`,
		`SELECT w.v FROM w WHERE w.k <= ?`, // the elided bound skips the NULL cells
		`SELECT w.v FROM w WHERE w.k < ?`,
		`SELECT w.v FROM w WHERE w.r <= ?`,
	}
	check := func(step string) {
		t.Helper()
		for _, q := range queries {
			for _, p := range probes {
				got, want := canonical(mustQuery(t, db, q, p)), canonical(mustQuery(t, ref, q, p))
				if got != want {
					t.Fatalf("%s: %s with %v\nPlanned   %q\nReference %q", step, q, p, got, want)
				}
			}
			for range 5 {
				lo, hi := probes[rng.Intn(len(probes))], probes[rng.Intn(len(probes))]
				q := `SELECT w.v FROM w WHERE w.k >= ? AND w.k <= ?`
				if got, want := canonical(mustQuery(t, db, q, lo, hi)), canonical(mustQuery(t, ref, q, lo, hi)); got != want {
					t.Fatalf("%s: %s with %v, %v\nPlanned   %q\nReference %q", step, q, lo, hi, got, want)
				}
			}
		}
	}
	check("the map")
	mustQuery(t, db, `SELECT w.v FROM w ORDER BY w.k`)
	both(`DELETE FROM w WHERE w.v = 0`)
	before := db.Stats().IndexSeeks
	check("the in-order positions")
	if db.Stats().IndexSeeks == before {
		t.Fatal("no query seeked in the index")
	}
}
