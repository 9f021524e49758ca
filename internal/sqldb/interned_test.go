package sqldb

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"ecfd/internal/relation"
)

// TestInternedGroupKeyDifferential compares Planned with Reference on the
// shapes a DISTINCT keys by interned ids (idKeys): the Qmv macro's
// '@'-blanking CASEs, bare and streamed into GROUP BY, over a data table of
// more than three segments whose dictionaries list the same strings in
// different orders, so one string has different codes in different
// segments. The cells hold the COALESCE literal '@NULL@' beside NULLs, the
// ELSE literal '@' as a THEN value, INTEGER, REAL and BOOLEAN columns read
// through TOTEXT — -0.0 beside 0.0, NaN, NULL — and, in a one-table
// DISTINCT, raw, where 0.0 and -0.0 share an id. Two pattern rows have
// equal invariant outputs, one activates nothing, and one output's THEN arm
// reads two columns; without the pattern's id among the outputs, a column
// one pattern blanks to '@' and another reads as '@' from the data are one
// value. A prepared statement re-executes after an UPDATE, a
// DELETE and a sealed tail. Interning NULL apart from a stored '@NULL@'
// fails it. Part of `make difffuzz`.
func TestInternedGroupKeyDifferential(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(diffSeed(t, 307)))
	texts := []relation.Value{relation.Null(), relation.Text("@NULL@"), relation.Text("@"), relation.Text("x"), relation.Text("y"), relation.Text("")}
	for i := 0; i < 30; i++ {
		texts = append(texts, relation.Text(fmt.Sprintf("z%d", i)))
	}
	reals := []relation.Value{relation.Float(0), relation.Float(math.Copysign(0, -1)), relation.Float(1), relation.Float(1.5), relation.Float(math.NaN()), relation.Null()}
	row := func(rid int) []relation.Value {
		n := relation.Int(int64(rng.Intn(3)))
		if rng.Intn(6) == 0 {
			n = relation.Null()
		}
		f := relation.Bool(rng.Intn(2) == 0)
		if rng.Intn(6) == 0 {
			f = relation.Null()
		}
		return []relation.Value{relation.Int(int64(rid)), texts[rng.Intn(len(texts))], texts[rng.Intn(len(texts))], n, reals[rng.Intn(len(reals))], f}
	}
	db := NewDB()
	mustExec(t, db, `CREATE TABLE it (rid INTEGER, a TEXT, b TEXT, n INTEGER, r REAL, f BOOLEAN)`)
	mustExec(t, db, `CREATE TABLE ip (cid INTEGER, la INTEGER, lb INTEGER, ln INTEGER, lr INTEGER, lf INTEGER)`)
	nextRID := 0
	insert := func(k int) {
		for ; k > 0; k -= 50 {
			var tuples []string
			var params []relation.Value
			for j := 0; j < min(k, 50); j++ {
				tuples = append(tuples, "(?, ?, ?, ?, ?, ?)")
				params = append(params, row(nextRID)...)
				nextRID++
			}
			mustExec(t, db, `INSERT INTO it VALUES `+strings.Join(tuples, ", "), params...)
		}
	}
	insert(3*segRows + 300)
	for _, p := range []string{"(1, 1, 0, 0, 0, 0)", "(2, 1, 1, 0, 0, 0)", "(3, 0, 2, 1, 1, 0)", "(4, 0, 0, 0, 1, 1)",
		"(5, 1, 0, 1, 0, 1)", "(5, 1, 0, 1, 0, 1)", "(6, 0, 0, 0, 0, 0)", "(7, 1, 2, 1, 1, 1)"} {
		mustExec(t, db, `INSERT INTO ip VALUES `+p)
	}
	blank := func(flag, then string) string {
		return fmt.Sprintf("CASE WHEN c.%s > 0 THEN COALESCE(%s, '@NULL@') ELSE '@' END", flag, then)
	}
	macro := "SELECT DISTINCT c.cid AS cid, " + strings.Join([]string{
		blank("la", "TOTEXT(t.a)") + " AS pa", blank("lb", "TOTEXT(t.b)") + " AS pb",
		blank("ln", "TOTEXT(t.n)") + " AS pn", blank("lr", "TOTEXT(t.r)") + " AS pr",
		blank("lf", "TOTEXT(t.f)") + " AS pf", "CASE WHEN c.lb > 1 THEN COALESCE(t.a, t.b) ELSE '@' END AS pab",
	}, ", ") + " FROM it t, ip c WHERE t.rid >= ?"
	queries := []string{
		macro,
		"SELECT m.cid, m.pa, m.pb, COUNT(*) FROM (" + macro + ") m GROUP BY m.cid, m.pa, m.pb HAVING COUNT(*) > 1",
		"SELECT m.cid, m.pa, COUNT(*), MAX(m.pr), MAX(m.pab), SUM(m.pn) FROM (" + macro + ") m GROUP BY m.cid, m.pa",
		"SELECT m.cid, m.pa, m.pb, m.pn, COUNT(*) FROM (" + macro + ") m GROUP BY m.cid, m.pa, m.pb, m.pn HAVING m.pa <> '@' AND COUNT(*) >= 1",
		"SELECT DISTINCT " + blank("la", "TOTEXT(t.a)") + ", " + blank("lb", "TOTEXT(t.b)") + " FROM it t, ip c WHERE t.rid >= ?",
		"SELECT m.pa, COUNT(*) FROM (SELECT DISTINCT " + blank("la", "TOTEXT(t.a)") + " AS pa, " + blank("lf", "TOTEXT(t.f)") +
			" AS pf FROM it t, ip c WHERE t.rid >= ?) m GROUP BY m.pa",
		"SELECT DISTINCT r, n, f FROM it WHERE rid >= ?",
		"SELECT r, COUNT(*) FROM (SELECT DISTINCT r, f FROM it WHERE rid >= ?) m GROUP BY r",
		// Counted: the macro without DISTINCT, grouped by every column.
		"SELECT m.cid, m.pa, m.pb, m.pn, m.pr, m.pf, m.pab, COUNT(*) FROM (" + strings.Replace(macro, "SELECT DISTINCT", "SELECT", 1) +
			") m GROUP BY m.cid, m.pa, m.pb, m.pn, m.pr, m.pf, m.pab HAVING COUNT(*) > 1",
		"SELECT r, n, COUNT(*) FROM (SELECT r, n FROM it WHERE rid >= ?) m GROUP BY r, n",
	}
	// queries[2]'s aggregates read the rows: it groups the materialised
	// source, and the DISTINCT under it still keys by ids.
	for _, q := range []string{queries[1], queries[3], queries[5], queries[8], queries[9]} {
		if plan, err := db.Explain(q); err != nil || !strings.Contains(plan, streamedMark) {
			t.Fatalf("not streamed: %v\n%s\n%s", err, q, plan)
		}
	}
	prepared, err := db.Prepare(queries[1])
	if err != nil {
		t.Fatal(err)
	}
	check := func(step string) {
		t.Helper()
		before := db.Stats()
		lo := relation.Int(int64(rng.Intn(segRows)))
		for _, q := range queries {
			got, want := canonical(queryIn(t, db, Planned, q, lo)), canonical(queryIn(t, db, Reference, q, lo))
			if got != want {
				t.Fatalf("%s: %s %v\nPlanned   %.300s\nReference %.300s", step, q, lo, got, want)
			}
			if got == "" {
				t.Fatalf("%s: no rows, the query checks nothing: %s", step, q)
			}
		}
		res, err := prepared.Query(lo)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := canonical(res), canonical(queryIn(t, db, Reference, queries[1], lo)); got != want {
			t.Fatalf("%s: the prepared statement re-executed diverges:\nPlanned   %.300s\nReference %.300s", step, got, want)
		}
		if st := db.Stats(); st.CodeTranslations == before.CodeTranslations || st.CodeRepeats == before.CodeRepeats {
			t.Fatalf("%s: %d codes translated, %d repeats dropped: the id keys did not run", step,
				st.CodeTranslations-before.CodeTranslations, st.CodeRepeats-before.CodeRepeats)
		}
	}
	check("loaded")
	mustExec(t, db, `UPDATE it SET a = '@NULL@', r = -0.0 WHERE `+residues("rid", 7, 0, nextRID))
	mustExec(t, db, `UPDATE it SET a = NULL, b = '@' WHERE `+residues("rid", 11, 0, nextRID))
	check("updated")
	mustExec(t, db, `DELETE FROM it WHERE rid >= ? AND rid < ?`, relation.Int(segRows-100), relation.Int(2*segRows+40))
	check("deleted")
	insert(segRows)
	check("sealed a tail")
}
