package detect

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"ecfd/internal/gen"
	"ecfd/internal/relation"
	"ecfd/internal/sqldb"
)

// stepApply makes the update ApplyUpdates would — batch in (nil for
// none), the RIDs del out — but runs the maintenance script one
// statement at a time, handing visit the engine's counters around each.
func (w *applyWorkload) stepApply(t *testing.T, batch *relation.Relation, del []int64, visit func(q string, before, after sqldb.Stats)) {
	t.Helper()
	d := w.d
	firstRID := d.nextRID + 1
	if _, err := d.db.Exec("TRUNCATE TABLE " + d.insTable); err != nil {
		t.Fatal(err)
	}
	var rids []int64
	if batch != nil {
		var err error
		if rids, err = d.bulkInsert(d.db, d.insTable, batch); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.loadDelRids(d.db, del); err != nil {
		t.Fatal(err)
	}
	for _, q := range d.IncrementalSQL() {
		var args []any
		if q == d.stmts.mvSetNew || q == d.stmts.mvSetOld {
			args = []any{firstRID}
		}
		before := engOf(d).Stats()
		if _, err := d.db.Exec(q, args...); err != nil {
			t.Fatalf("%v\n%s", err, q)
		}
		visit(q, before, engOf(d).Stats())
	}
	w.live = slices.DeleteFunc(w.live, func(rid int64) bool { return slices.Contains(del, rid) })
	w.live = append(w.live, rids...)
}

// groupMember is one row of a violating group: its RID and its blanked
// RHS projection.
type groupMember struct {
	rid int64
	rhs string
}

// violatingGroups lists the members of every Aux group, keyed by CID and
// blanked LHS projection.
func violatingGroups(t *testing.T, d *Detector) map[string][]groupMember {
	t.Helper()
	var lhs, rhs []string
	for _, a := range d.schema.Attrs {
		lhs = append(lhs, d.caseProj("L", a.Name))
		rhs = append(rhs, d.caseProj("R", a.Name))
	}
	q := fmt.Sprintf("SELECT c.CID, t.%s, %s, %s FROM %s t, %s c WHERE %s AND %s AND %s",
		ColRID, strings.Join(lhs, ", "), strings.Join(rhs, ", "), d.dataTable, d.encTable,
		d.fdGuard(), d.lhsMatch(), d.auxProbe(d.auxTable))
	rows, err := d.db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	groups := make(map[string][]groupMember)
	w := d.schema.Width()
	for rows.Next() {
		var cid, rid int64
		cells := make([]string, 2*w)
		ptrs := []any{&cid, &rid}
		for i := range cells {
			ptrs = append(ptrs, &cells[i])
		}
		if err := rows.Scan(ptrs...); err != nil {
			t.Fatal(err)
		}
		key := fmt.Sprint(cid, "|", strings.Join(cells[:w], "|"))
		groups[key] = append(groups[key], groupMember{rid, strings.Join(cells[w:], "|")})
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	return groups
}

// minorityRow picks the largest violating group that one deletion makes
// clean — a single row r holds one RHS projection, every other member
// another — in which no member belongs to a second violating group, so
// deleting r must clear MV on exactly the others.
func minorityRow(groups map[string][]groupMember) (r int64, survivors []int64, ok bool) {
	memberOf := make(map[int64]int)
	for _, g := range groups {
		for _, m := range g {
			memberOf[m.rid]++
		}
	}
	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	slices.Sort(keys) // deterministic choice among equals
	for _, k := range keys {
		g := groups[k]
		count := make(map[string]int)
		alone := true
		for _, m := range g {
			count[m.rhs]++
			alone = alone && memberOf[m.rid] == 1
		}
		i := slices.IndexFunc(g, func(m groupMember) bool { return count[m.rhs] == 1 })
		if len(count) != 2 || !alone || i < 0 || (ok && len(g)-1 <= len(survivors)) {
			continue
		}
		r, survivors, ok = g[i].rid, nil, true
		for _, m := range g {
			if m.rid != r {
				survivors = append(survivors, m.rid)
			}
		}
	}
	return r, survivors, ok
}

// TestMVClearOnTransitionsOnly states in counters that clearing MV costs
// what the groups leaving Aux hold, not |D|. On the inc_40k unit at
// 10 000, 40 000 and 160 000 rows:
//
//   - an update that touches no violating group leaves aux_old empty, and
//     mvClear, stepped alone, scans the |enc| pattern rows and no data row
//     and matches nothing;
//   - a whole warm ApplyUpdates scans at most (FD-bearing patterns + 0.2)
//     · |D| rows: the recompute's one pass per FD-bearing pattern, and not
//     a second one for the clearing;
//   - an update deleting the minority row of a violating group, whose
//     members belong to no other, makes mvClear match and write exactly
//     the surviving members.
func TestMVClearOnTransitionsOnly(t *testing.T) {
	const ops = 4
	for _, rows := range []int{10_000, 40_000, 160_000} {
		w, cleanup := newApplyWorkload(t, rows)
		d := w.d
		var enc, fdPatterns int64
		if err := d.db.QueryRow("SELECT COUNT(*) FROM " + d.encTable).Scan(&enc); err != nil {
			t.Fatal(err)
		}
		if err := d.db.QueryRow(fmt.Sprintf("SELECT COUNT(*) FROM %s c WHERE %s", d.encTable, d.fdGuard())).Scan(&fdPatterns); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			w.apply(t, 0, 1, 2, 3, 4, 5, 6, 7)
		}

		var scanned int64
		for i := 0; i < ops; i++ {
			before := engOf(d).Stats()
			w.apply(t, 0, 1, 2, 3, 4, 5, 6, 7)
			if s := engOf(d).Stats().RowsScanned - before.RowsScanned; s > scanned {
				scanned = s
			}
		}
		if bound := (fdPatterns*10 + 2) * int64(rows) / 10; scanned > bound {
			t.Errorf("%d rows: a warm update scanned %d rows, over (%d FD-bearing patterns + 0.2) · |D| = %d", rows, scanned, fdPatterns, bound)
		}

		quiet := 0
		for i := 0; i < ops; i++ {
			var clear [2]sqldb.Stats
			w.stepApply(t, gen.Updates(w.cfg, 8, w.batch), w.live[:8:8], func(q string, before, after sqldb.Stats) {
				if q == d.stmts.mvClear {
					clear = [2]sqldb.Stats{before, after}
				}
			})
			w.batch++
			var old int64
			if err := d.db.QueryRow("SELECT COUNT(*) FROM " + d.auxOldTable).Scan(&old); err != nil {
				t.Fatal(err)
			}
			if old > 0 {
				continue // a transition: the clearing may scan
			}
			quiet++
			if s, m := clear[1].RowsScanned-clear[0].RowsScanned, clear[1].RowsMatched-clear[0].RowsMatched; s != enc || m != 0 {
				t.Errorf("%d rows: with no violating group touched, mvClear scanned %d rows and matched %d; want the %d pattern rows and 0", rows, s, m, enc)
			}
		}
		if quiet == 0 {
			t.Errorf("%d rows: every update touched a violating group; nothing measured the steady state", rows)
		}

		r, survivors, ok := minorityRow(violatingGroups(t, d))
		if !ok {
			t.Fatalf("%d rows: no violating group one deletion makes clean", rows)
		}
		var matched, written int64
		w.stepApply(t, nil, []int64{r}, func(q string, before, after sqldb.Stats) {
			if q == d.stmts.mvClear {
				matched, written = after.RowsMatched-before.RowsMatched, after.RowsWritten-before.RowsWritten
			}
		})
		t.Logf("%d rows: warm update scans %d rows (%.2f · |D|), %d of %d stepped updates touched no violating group; deleting RID %d cleared %d members",
			rows, scanned, float64(scanned)/float64(rows), quiet, ops, r, written)
		if matched != int64(len(survivors)) || written != int64(len(survivors)) {
			t.Errorf("%d rows: deleting the minority row of a group of %d, mvClear matched %d rows and wrote %d; want the %d survivors",
				rows, len(survivors)+1, matched, written, len(survivors))
		}
		cleanup()
	}
}
