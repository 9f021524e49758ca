package sqldb

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"ecfd/internal/relation"
)

// TestRowSegmentsDifferential drives a table whose rows live in the
// column-cache segments through random DML — inserts that fill, grow and
// seal tails, head / spread / whole-segment deletes, updates of indexed
// and unindexed columns, TRUNCATE, and transactions rolled back after
// reading their own rows — and checks after every step the published
// epoch and two older pinned ones against a mirror the test keeps as
// plain rows, and inside a transaction its writer head. Each checked epoch answers in Planned mode what a
// database loaded fresh from the epoch's mirror answers in Reference
// mode: its rows in position order, ORDER BY served by each index,
// equality and range probes, and the same encodeSnapshot bytes. The
// table has two indexes: idx_rid, whose order is position order until an
// insert or an update puts a rid out of order (the ident order a DELETE
// or TRUNCATE forks without a copy), and idx_k, which never is. A pinned
// epoch sharing a tail chunk whose spare capacity a later insert fills,
// or an order still served as ident after a rid out of order, gives
// itself away as a row or an order the mirror does not have. The word
// columns n, r and b (INTEGER, REAL, BOOLEAN) take NULLs in some inserts
// and updates and none in others, so every fork meets columns whose NULL
// mask is still nil beside columns that have one.
func TestRowSegmentsDifferential(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(diffSeed(t, 211)))
	const schema = `CREATE TABLE t (w INTEGER, rid INTEGER, k INTEGER, s TEXT, n INTEGER, r REAL, b BOOLEAN)`
	indexes := []string{`CREATE INDEX idx_rid ON t (rid)`, `CREATE INDEX idx_k ON t (k)`}
	db := NewDB()
	mustExec(t, db, schema)
	for _, q := range indexes {
		mustExec(t, db, q)
	}
	var mirror []relation.Tuple // the writer head's rows, in position order
	nextW, nextRID, lowRID := int64(0), int64(0), int64(0)
	var tx *Tx // the open transaction, if any: exec runs through it
	exec := func(q string, params ...relation.Value) {
		t.Helper()
		if tx == nil {
			mustExec(t, db, q, params...)
		} else if _, err := tx.Exec(q, params...); err != nil {
			t.Fatalf("exec %q: %v", q, err)
		}
	}
	// words draws n, r and b, NULL one time in nulls (never for 0).
	words := func(nulls int) relation.Tuple {
		row := relation.Tuple{relation.Int(int64(rng.Intn(50) - 25)), relation.Float(float64(rng.Intn(40)) / 4), relation.Bool(rng.Intn(2) == 0)}
		for i := range row {
			if nulls > 0 && rng.Intn(nulls) == 0 {
				row[i] = relation.Null()
			}
		}
		return row
	}
	insert := func(n int, outOfOrder bool) {
		t.Helper()
		vals := make([]string, n)
		nulls := []int{0, 3, 40}[rng.Intn(3)]
		for i := range vals {
			rid := nextRID
			if nextRID++; outOfOrder && i == n/2 {
				lowRID-- // below every rid so far: the order is no longer position order
				rid = lowRID
			}
			row := append(relation.Tuple{relation.Int(nextW), relation.Int(rid), relation.Int(int64(rng.Intn(7))), relation.Text(fmt.Sprintf("s%d", rng.Intn(40)))}, words(nulls)...)
			vals[i] = fmt.Sprintf("(%d, %d, %d, '%s', %s, %s, %s)", row[0].I, row[1].I, row[2].I, row[3].S, row[4].SQL(), row[5].SQL(), row[6].SQL())
			mirror = append(mirror, row)
			nextW++
		}
		exec(`INSERT INTO t VALUES ` + strings.Join(vals, ", "))
	}
	// keep drops the mirror rows drop selects, as a DELETE does.
	keep := func(drop func(relation.Tuple) bool) {
		mirror = slices.DeleteFunc(slices.Clone(mirror), drop)
	}
	// set replaces the mirror rows sel selects by what to makes of them.
	set := func(sel func(relation.Tuple) bool, to func(relation.Tuple) relation.Tuple) {
		next := slices.Clone(mirror)
		for i, r := range next {
			if sel(r) {
				next[i] = to(slices.Clone(r))
			}
		}
		mirror = next
	}
	insert(2500, false)

	type pinned struct {
		snap *Snap
		rows []relation.Tuple
	}
	var pins [2]pinned
	defer func() {
		for _, p := range pins {
			if p.snap != nil {
				p.snap.Close()
			}
		}
	}()
	repin := func(i int) {
		if pins[i].snap != nil {
			pins[i].snap.Close()
		}
		pins[i] = pinned{db.PinSnapshot(), mirror}
	}

	queries := []struct {
		q      string
		params func() [][]relation.Value
	}{
		{`SELECT w, rid, k, s, n, r, b FROM t`, nil},
		{`SELECT w, rid FROM t ORDER BY rid`, nil},
		{`SELECT w, k FROM t ORDER BY k`, nil},
		{`SELECT w, s FROM t WHERE rid = ?`, func() (ps [][]relation.Value) {
			for i := 0; i < 6; i++ {
				ps = append(ps, []relation.Value{relation.Int(lowRID + rng.Int63n(nextRID-lowRID+2))})
			}
			return ps
		}},
		{`SELECT w, rid FROM t WHERE k = ?`, func() [][]relation.Value {
			return [][]relation.Value{{relation.Int(int64(rng.Intn(8)))}}
		}},
		{`SELECT w FROM t WHERE rid >= ? AND rid < ? ORDER BY rid`, func() [][]relation.Value {
			lo := lowRID + rng.Int63n(nextRID-lowRID+1)
			return [][]relation.Value{{relation.Int(lo), relation.Int(lo + int64(rng.Intn(700)))}}
		}},
		{`SELECT w, n, r FROM t WHERE n >= ? AND r < ? AND b IS NOT NULL`, func() [][]relation.Value {
			return [][]relation.Value{{relation.Int(int64(rng.Intn(50) - 25)), relation.Float(float64(rng.Intn(40)) / 4)}}
		}},
	}
	prepared := make([]*Prepared, len(queries))
	for i, q := range queries {
		p, err := db.Prepare(q.q)
		if err != nil {
			t.Fatal(err)
		}
		prepared[i] = p
	}
	for _, q := range []string{queries[1].q, queries[2].q, queries[5].q} {
		if plan, err := db.Explain(q); err != nil || !strings.Contains(plan, "served by index") {
			t.Fatalf("%s\nis not served by an index (%v):\n%s", q, err, plan)
		}
	}

	// check compares one epoch with a database loaded from its mirror.
	check := func(step int, what string, ep *epoch, rows []relation.Tuple) {
		t.Helper()
		ref := NewDB()
		mustExec(t, ref, schema)
		for _, q := range indexes {
			mustExec(t, ref, q)
		}
		rel := relation.New(mustTable(t, ref, "t").Schema)
		rel.Rows = rows
		if err := ref.LoadRelation(rel); err != nil {
			t.Fatal(err)
		}
		ref.SetMode(Reference)
		for i, q := range queries {
			params := [][]relation.Value{nil}
			if q.params != nil {
				params = q.params()
			}
			for _, ps := range params {
				got, err := prepared[i].queryEpoch(ep, ps)
				if err != nil {
					t.Fatalf("step %d, %s: %s: %v", step, what, q.q, err)
				}
				want := flat(mustQuery(t, ref, q.q, ps...))
				if i == 0 && want != flatTuples(rows) {
					t.Fatalf("step %d, %s: a fresh load of the mirror does not hold its rows", step, what)
				}
				if got := flat(got); got != want {
					at := 0
					for at < min(len(got), len(want)) && got[at] == want[at] {
						at++
					}
					at = max(0, at-100)
					t.Fatalf("step %d, %s: %s %v: %d and %d bytes, from byte %d\ngot  %.300s\nwant %.300s",
						step, what, q.q, ps, len(got), len(want), at, got[at:], want[at:])
				}
			}
		}
		if got, want := encodeSnapshot(ep, 1), encodeSnapshot(ref.cur.Load(), 1); !bytes.Equal(got, want) {
			t.Fatalf("step %d, %s: the snapshot encodes %d bytes unlike the mirror's %d", step, what, len(got), len(want))
		}
	}

	repin(0)
	repin(1)
	for step := 0; step < 120; step++ {
		// While the step writes, a reader scans each pinned epoch: the row
		// chunks and columns it shares with the writer's forks stay still.
		reading := make(chan error, 1)
		go func(pins [2]pinned) {
			for i, p := range pins {
				res, err := prepared[0].QueryAt(p.snap)
				if err == nil && flat(res) != flatTuples(p.rows) {
					err = fmt.Errorf("pinned epoch %d changed under a concurrent read", i)
				}
				if err != nil {
					reading <- err
					return
				}
			}
			reading <- nil
		}(pins)
		read := func() {
			if reading == nil {
				return
			}
			if err := <-reading; err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			reading = nil
		}
		lo := int64(0)
		if len(mirror) > 0 {
			lo = mirror[rng.Intn(len(mirror))][0].I
		}
		switch rng.Intn(15) {
		case 0, 1, 2: // a few rows into the tail, in or out of rid order
			insert(1+rng.Intn(40), rng.Intn(4) == 0)
		case 3: // enough to seal the tail
			insert(500+rng.Intn(1200), false)
		case 4: // head: the oldest rows
			if len(mirror) > 0 {
				hi := mirror[min(len(mirror), 8)-1][0].I
				mustExec(t, db, `DELETE FROM t WHERE w <= ?`, relation.Int(hi))
				keep(func(r relation.Tuple) bool { return r[0].I <= hi })
			}
		case 5: // spread over every segment
			m := int64(50 + rng.Intn(200))
			r := rng.Int63n(m)
			mustExec(t, db, `DELETE FROM t WHERE `+residues("w", m, r, nextW))
			keep(func(row relation.Tuple) bool { return row[0].I%m == r })
		case 6: // whole segments and the ends of their neighbours
			mustExec(t, db, `DELETE FROM t WHERE w >= ? AND w < ?`, relation.Int(lo), relation.Int(lo+1100))
			keep(func(r relation.Tuple) bool { return r[0].I >= lo && r[0].I < lo+1100 })
		case 7: // the tail
			cut := nextW - int64(1+rng.Intn(30))
			mustExec(t, db, `DELETE FROM t WHERE w >= ?`, relation.Int(cut))
			keep(func(r relation.Tuple) bool { return r[0].I >= cut })
		case 8: // an unindexed column in a run
			s := fmt.Sprintf("u%d", step)
			mustExec(t, db, `UPDATE t SET s = '`+s+`' WHERE w >= ? AND w < ?`, relation.Int(lo), relation.Int(lo+30))
			set(func(r relation.Tuple) bool { return r[0].I >= lo && r[0].I < lo+30 },
				func(r relation.Tuple) relation.Tuple { r[3] = relation.Text(s); return r })
		case 9: // idx_k's column, scattered
			k, r := int64(rng.Intn(7)), int64(rng.Intn(31))
			mustExec(t, db, fmt.Sprintf(`UPDATE t SET k = %d WHERE %s`, k, residues("w", 31, r, nextW)))
			set(func(row relation.Tuple) bool { return row[0].I%31 == r },
				func(row relation.Tuple) relation.Tuple { row[2] = relation.Int(k); return row })
		case 10: // idx_rid's column: the order starts over
			lowRID--
			rid := lowRID
			mustExec(t, db, fmt.Sprintf(`UPDATE t SET rid = %d WHERE w = ?`, rid), relation.Int(lo))
			set(func(r relation.Tuple) bool { return r[0].I == lo },
				func(r relation.Tuple) relation.Tuple { r[1] = relation.Int(rid); return r })
		case 12: // the word columns, scattered: NULLs in and out
			m, to := int64(rng.Intn(31)), words([]int{0, 2}[rng.Intn(2)])
			mustExec(t, db, fmt.Sprintf(`UPDATE t SET n = %s, r = %s, b = %s WHERE %s`, to[0].SQL(), to[1].SQL(), to[2].SQL(), residues("w", 31, m, nextW)))
			set(func(row relation.Tuple) bool { return row[0].I%31 == m },
				func(row relation.Tuple) relation.Tuple { copy(row[4:], to); return row })
		case 11:
			if rng.Intn(3) == 0 {
				mustExec(t, db, `TRUNCATE TABLE t`)
				mirror = nil
				insert(1+rng.Intn(30), false)
			}
		default: // a transaction that reads its own rows, rolled back
			before := mirror
			var err error
			if tx, err = db.Begin(); err != nil {
				t.Fatal(err)
			}
			insert(1+rng.Intn(20), false)
			if rng.Intn(2) == 0 {
				exec(`DELETE FROM t WHERE ` + residues("w", 7, 3, nextW))
				keep(func(r relation.Tuple) bool { return r[0].I%7 == 3 })
			}
			read()
			// Reading the head extends the columns and indexes it shares
			// with the published epoch past that epoch's fence; a pin
			// taken now sees none of the transaction's rows.
			check(step, "open transaction", db.curW, mirror)
			repin(step % 2)
			pins[step%2].rows = before
			err = tx.Rollback()
			if tx = nil; err != nil {
				t.Fatal(err)
			}
			mirror = slices.Clip(before) // the rolled-back rows may lie past it
		}
		if len(mirror) < 1200 {
			insert(1500, false)
		}
		read()
		// Readers extend the indexes and columns of the published epoch.
		for _, q := range []string{queries[1].q, queries[2].q, `SELECT w FROM t WHERE k >= 0 AND s <> 'x' AND n <> 3`} {
			mustQuery(t, db, q)
		}
		snap := db.PinSnapshot()
		check(step, "published epoch", snap.ep, mirror)
		snap.Close()
		for i, p := range pins {
			check(step, fmt.Sprintf("pinned epoch %d", i), p.snap.ep, p.rows)
		}
		if step%15 == 14 {
			repin(step / 15 % 2)
		}
	}
}

// flatTuples renders rows as flat renders a result.
func flatTuples(rows []relation.Tuple) string {
	return flat(&Result{Rows: rows})
}
