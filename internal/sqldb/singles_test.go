package sqldb

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"ecfd/internal/relation"
)

// singlesMark is the EXPLAIN mark of a streamed grouping that holds a row
// until a second row shows its group key (compiledSelect.singles).
const singlesMark = "groups of one row never keyed]"

// TestSingletonGroupSkipDifferential compares Planned with Reference on
// streamed groupings whose HAVING fails every group of one row, which
// key a row only once a second row shows its group key (idKeys.hold),
// over a data table of more than three segments. Its groups: key-like
// ones, nearly all of one row; groups whose two matches are one DISTINCT
// row, in one run and in two segments apart (never output); a pair whose
// rows sit in the first and the last segment, so a held row waits many
// runs for its partner; a group spanning two pattern rows of one CID, a
// column fixed to '@' under one and live, reading '@', under the other;
// NULL keys beside a stored '@NULL@' through the COALESCE literal; a
// fixed key of 1 under one pattern row and 1.0 under another, and NaN
// under two; INTEGER and REAL keys, under which the hold must end (no row
// left held); HAVING COUNT(*) >= 2, > 2, a column test ANDed to it, and
// ones that take no hold (>= 1, an aggregate of another column); a
// DISTINCT that keys its rows outside dropRepeats. Every
// query runs a second time with the group key hash narrowed to two bits,
// so nearly every hash collides, and must return the same rows. A
// prepared statement re-executes after an UPDATE, a DELETE and a sealed
// tail. Part of `make difffuzz`.
func TestSingletonGroupSkipDifferential(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(diffSeed(t, 4911)))
	db := NewDB()
	mustExec(t, db, `CREATE TABLE sd (rid INTEGER, a TEXT, b TEXT, c TEXT, n INTEGER, r REAL)`)
	mustExec(t, db, `CREATE TABLE sp (cid INTEGER, la INTEGER, lb INTEGER, lc INTEGER, ln INTEGER, lr INTEGER, ci INTEGER, cw REAL)`)
	// The one '@' in a: under the pattern rows of CID 2 its row and the one
	// row of the pattern that fixes a, b and c to '@' are a group of two.
	planted := map[int][3]string{3: {"far", "away", "x"}, 10: {"twin", "same", "x"}, 20: {"run", "twin", "x"}, 21: {"run", "twin", "x"},
		30: {"@", "b1", "x"}}
	reals := []relation.Value{relation.Float(0), relation.Float(1), relation.Float(math.NaN()), relation.Null()}
	text := func(s string) relation.Value {
		if s == "NULL" {
			return relation.Null()
		}
		return relation.Text(s)
	}
	nextRID := 0
	row := func() []relation.Value {
		rid := nextRID
		nextRID++
		abc, ok := planted[rid]
		if !ok {
			abc = [3]string{fmt.Sprintf("a%d", rng.Intn(150)), fmt.Sprintf("b%d", rng.Intn(4000)), []string{"x", "y", "z", "NULL"}[rng.Intn(4)]}
			switch rng.Intn(20) {
			case 0:
				abc[0] = "NULL"
			case 1:
				abc[0] = "@NULL@"
			case 3:
				abc[1] = "NULL"
			}
		}
		return []relation.Value{relation.Int(int64(rid)), text(abc[0]), text(abc[1]), text(abc[2]),
			relation.Int(int64(rng.Intn(3))), reals[rng.Intn(len(reals))]}
	}
	insert := func(k int) {
		for ; k > 0; k -= 50 {
			var tuples []string
			var params []relation.Value
			for j := 0; j < min(k, 50); j++ {
				tuples = append(tuples, "(?, ?, ?, ?, ?, ?)")
				params = append(params, row()...)
			}
			mustExec(t, db, `INSERT INTO sd VALUES `+strings.Join(tuples, ", "), params...)
		}
	}
	insert(2000)
	planted[nextRID] = [3]string{"twin", "same", "x"} // the twin of row 10, a segment later
	insert(3*segRows - 2000)
	planted[nextRID+299] = [3]string{"far", "away", "y"} // the partner of row 3
	insert(300)
	// ci picks the fixed key w: ci itself (1, or 0) or cw (1.0, NaN).
	for _, p := range [][]any{{1, 1, 1, 1, 0, 1, 1, 0.5}, {2, 1, 0, 1, 0, 0, 2, math.NaN()}, {2, 0, 0, 0, 0, 0, 2, math.NaN()},
		{4, 0, 0, 0, 0, 0, 0, 0.0}, {6, 1, 1, 1, 0, 0, 3, 1.0}, {3, 1, 1, 1, 1, 0, 1, 2.0}} {
		var params []relation.Value
		for _, v := range p[:7] {
			params = append(params, relation.Int(int64(v.(int))))
		}
		mustExec(t, db, `INSERT INTO sp VALUES (?, ?, ?, ?, ?, ?, ?, ?)`, append(params, relation.Float(p[7].(float64)))...)
	}
	blank := func(flag, col string) string {
		return fmt.Sprintf("CASE WHEN c.%s > 0 THEN COALESCE(TOTEXT(t.%s), '@NULL@') ELSE '@' END AS p%s", flag, col, col)
	}
	outs := map[string]string{"cid": "c.cid AS cid", "w": "CASE WHEN c.ci > 1 THEN c.cw ELSE c.ci END AS w",
		"pa": blank("la", "a"), "pb": blank("lb", "b"), "pc": blank("lc", "c"), "pn": blank("ln", "n"), "pr": blank("lr", "r")}
	// group groups the macro by keys, its first columns; rest follow them.
	where := "t.rid >= ?"
	group := func(keys, rest []string, having string, aggs ...string) string {
		var sel, by []string
		for _, c := range append(keys, rest...) {
			sel = append(sel, outs[c])
		}
		for _, c := range keys {
			by = append(by, "m."+c)
		}
		g := strings.Join(by, ", ")
		return fmt.Sprintf("SELECT %s, %s FROM (SELECT DISTINCT %s FROM sd t, sp c WHERE %s) m GROUP BY %s HAVING %s",
			g, strings.Join(append([]string{"COUNT(*)"}, aggs...), ", "), strings.Join(sel, ", "), where, g, having)
	}
	cab, pc := []string{"cid", "pa", "pb"}, []string{"pc"}
	cases := []struct {
		q            string
		held, single bool // the plan holds rows; some are never keyed
	}{
		{group(cab, pc, "COUNT(*) > 1"), true, true},
		{group(cab, pc, "COUNT(*) >= 2"), true, true},
		{group(cab, pc, "COUNT(*) > 2"), true, true},
		{group([]string{"w", "pa", "pb"}, []string{"cid", "pc"}, "COUNT(*) > 1"), true, true},
		{group([]string{"cid", "pa"}, []string{"pb", "pc"}, "m.pa <> '@' AND COUNT(*) > 1"), true, true},
		{group([]string{"cid", "pa", "pn"}, pc, "COUNT(*) > 1"), true, false},
		{group([]string{"cid", "pa", "pr"}, pc, "COUNT(*) > 1"), true, false},
		{group(cab, pc, "COUNT(*) >= 1"), false, false},
		{group([]string{"cid", "pa"}, pc, "COUNT(*) > 1 AND MAX(m.pc) > 'x'", "MAX(m.pc)"), false, false},
	}
	// A conjunct no kernel takes keys the rows outside dropRepeats: the
	// hold ends at the first.
	where = "t.rid >= ? AND t.a <> t.b"
	cases = append(cases, struct {
		q            string
		held, single bool
	}{group(cab, pc, "COUNT(*) > 1"), true, false})
	for _, c := range cases {
		plan, err := db.Explain(c.q)
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(plan, singlesMark) != c.held {
			t.Fatalf("EXPLAIN marks the hold %v, want %v: %s\n%s", !c.held, c.held, c.q, plan)
		}
	}
	prepared, err := db.Prepare(cases[0].q)
	if err != nil {
		t.Fatal(err)
	}
	check := func(step string) {
		t.Helper()
		lo := relation.Int(int64(rng.Intn(3)))
		for i, c := range cases {
			before := db.Stats()
			got := canonical(queryIn(t, db, Planned, c.q, lo))
			after := db.Stats()
			if singles := after.SingletonRows - before.SingletonRows; (singles > 0) != c.single {
				t.Fatalf("%s: %d rows held and never keyed: %s", step, singles, c.q)
			}
			db.narrowKeyHashTo(2)
			narrowed := canonical(queryIn(t, db, Planned, c.q, lo))
			db.narrowKeyHashTo(64)
			want := canonical(queryIn(t, db, Reference, c.q, lo))
			if got != want || narrowed != want {
				t.Fatalf("%s: %s %v\nPlanned   %.300s\nnarrowed  %.300s\nReference %.300s", step, c.q, lo, got, narrowed, want)
			}
			if got == "" {
				t.Fatalf("%s: no rows, the query checks nothing: %s", step, c.q)
			}
			if i == 0 && (!strings.Contains(got, "1,far,away,2") || !strings.Contains(got, "2,@,@,2") || strings.Contains(got, "twin")) {
				t.Fatalf("%s: want the far pair, the pair across pattern rows and no twin: %.300s", step, got)
			}
		}
		res, err := prepared.Query(lo)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := canonical(res), canonical(queryIn(t, db, Reference, cases[0].q, lo)); got != want {
			t.Fatalf("%s: the prepared statement re-executed diverges:\nPlanned   %.300s\nReference %.300s", step, got, want)
		}
	}
	check("loaded")
	mustExec(t, db, `UPDATE sd SET a = '@NULL@', c = 'w' WHERE `+residues("rid", 13, 5, nextRID))
	mustExec(t, db, `UPDATE sd SET a = NULL, b = '@' WHERE `+residues("rid", 17, 8, nextRID))
	check("updated")
	mustExec(t, db, `DELETE FROM sd WHERE rid >= ? AND rid < ?`, relation.Int(segRows-100), relation.Int(2*segRows+40))
	check("deleted")
	insert(segRows)
	check("sealed a tail")
}
