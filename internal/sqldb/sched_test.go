package sqldb

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"ecfd/internal/relation"
)

// The tests below pin what makes a reused execution instance
// (schedule) safe: state built once per statement is forgotten between
// statements, an idle instance references no epoch, and an instance
// serves exactly the executions that decide what it was laid out for.

// TestPooledScheduleINListParams runs prepared SELECTs that carry
// per-statement state — the item set of a long IN list, the NULL item of
// a short one, the same inside an OR, the key of an index probe the
// instance keeps — again and again with other parameters and over other
// data, and compares every answer with Reference mode. A stale set
// answers for the previous parameters; a stale probe, for the previous
// rows.
func TestPooledScheduleINListParams(t *testing.T) {
	db, ref := NewDB(), NewDB()
	ref.SetMode(Reference)
	both := func(q string, params ...relation.Value) {
		t.Helper()
		mustExec(t, db, q, params...)
		mustExec(t, ref, q, params...)
	}
	both(`CREATE TABLE t (k INTEGER, v INTEGER)`)
	both(`CREATE TABLE u (v INTEGER, w INTEGER)`)
	both(`CREATE INDEX idx_t_v ON t (v)`) // u drives, t is probed through it
	for i := 0; i < 200; i++ {
		both(`INSERT INTO t VALUES (?, ?)`, relation.Int(int64(i)), relation.Int(int64(i%40)))
	}
	for i := 0; i < 30; i++ {
		both(`INSERT INTO u VALUES (?, ?)`, relation.Int(int64(i)), relation.Int(int64(1000+i)))
	}
	const (
		qLong  = `SELECT t.k FROM t WHERE t.v IN (?, ?, ?, ?, ?, ?, ?, ?)`
		qShort = `SELECT t.k FROM t WHERE t.v NOT IN (?, ?, ?)`
		qGroup = `SELECT t.k FROM t WHERE t.k < ? OR t.v IN (?, ?, ?, ?, ?, ?, ?, ?)`
		qProbe = `SELECT t.k, u.w FROM t, u WHERE t.v = u.v AND t.k < ?`
	)
	if plan, err := db.Explain(qProbe); err != nil {
		t.Fatal(err)
	} else if !strings.Contains(plan, "index probe t via idx_t_v") {
		t.Fatalf("%s\nplan lacks an index probe, the test would pin nothing:\n%s", qProbe, plan)
	}
	// paramsFor derives a parameter set from a number; every third one
	// puts a NULL into the short list, which empties NOT IN.
	paramsFor := func(n int) map[string][]relation.Value {
		list := make([]relation.Value, 8)
		for i := range list {
			list[i] = relation.Int(int64((n*7 + i*3) % 45))
		}
		short := []relation.Value{list[0], list[1], list[2]}
		if n%3 == 0 {
			short[1] = relation.Null()
		}
		bound := relation.Int(int64(5 + n*11%150))
		return map[string][]relation.Value{
			qLong:  list,
			qShort: short,
			qGroup: append([]relation.Value{bound}, list...),
			qProbe: {bound},
		}
	}
	check := func(t *testing.T, n int, want map[string]string) {
		for q, params := range paramsFor(n) {
			res, err := db.Query(q, params...)
			if err != nil {
				t.Errorf("%s: %v", q, err)
				continue
			}
			if got := canonical(res); got != want[q] {
				t.Errorf("params %d: %s\n got %s\nwant %s", n, q, got, want[q])
			}
		}
	}
	expect := func(n int) map[string]string {
		want := make(map[string]string)
		for q, params := range paramsFor(n) {
			want[q] = canonical(mustQuery(t, ref, q, params...))
		}
		return want
	}
	before := db.Stats()
	for round := 0; round < 6; round++ {
		for n := round * 4; n < round*4+4; n++ {
			check(t, n, expect(n))
		}
		// Eight readers share the four plans, each with parameters of its
		// own: every one needs an instance to itself.
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			n := 100 + round*8 + g
			want := expect(n)
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 10; i++ {
					check(t, n, want)
				}
			}()
		}
		wg.Wait()
		both(`INSERT INTO u VALUES (?, ?)`, relation.Int(int64(30+round)), relation.Int(int64(2000+round)))
		both(`DELETE FROM u WHERE v = ?`, relation.Int(int64(round*2)))
		both(`UPDATE t SET v = v + 1 WHERE k < ?`, relation.Int(int64(10*round)))
		both(`INSERT INTO t VALUES (?, ?)`, relation.Int(int64(500+round)), relation.Int(int64(round)))
	}
	after := db.Stats()
	if reuses := after.SchedReuses - before.SchedReuses; reuses == 0 {
		t.Fatal("no instance was ever reused: the test pinned nothing")
	}
	t.Logf("instances: %d built, %d reused", after.SchedBuilds-before.SchedBuilds, after.SchedReuses-before.SchedReuses)
}

// TestPooledScheduleDroppedAfterError: a statement that fails inside a
// group filter leaves the filter's row mask half-written — the rows its
// first alternative matched are marked, the second alternative's bind
// divides by zero. That instance must not serve the next statement, which
// would emit the marked rows.
func TestPooledScheduleDroppedAfterError(t *testing.T) {
	db := NewDB()
	mustExec(t, db, `CREATE TABLE tt (a INTEGER)`)
	mustExec(t, db, `INSERT INTO tt VALUES (1), (7), (1), (7)`)
	const q = `SELECT tt.a FROM tt WHERE (tt.a = ? OR tt.a < 10 / ?)`
	if got := flat(mustQuery(t, db, q, relation.Int(7), relation.Int(1))); got != "7;7;1;1" && got != "1;7;1;7" {
		t.Fatalf("warm-up run: %q", got)
	}
	if _, err := db.Query(q, relation.Int(1), relation.Int(0)); err == nil {
		t.Fatal("division by zero did not surface")
	}
	before := db.Stats()
	if got := flat(mustQuery(t, db, q, relation.Int(99), relation.Int(100))); got != "" {
		t.Fatalf("run after the failed one returned %q, want no row", got)
	}
	if after := db.Stats(); after.SchedBuilds != before.SchedBuilds+1 || after.SchedReuses != before.SchedReuses {
		t.Errorf("the failed statement's instance was reused: builds %d -> %d, reuses %d -> %d",
			before.SchedBuilds, after.SchedBuilds, before.SchedReuses, after.SchedReuses)
	}
}

// TestPooledScheduleHoldsNoEpoch: an idle instance must not keep the
// epoch its last statement read alive. The query leaves column vectors,
// an index view and value sets bound in its instance; once DELETEs have
// superseded every table it read, the old table data and the old column
// vectors must be collectable, and nothing counts as retired.
func TestPooledScheduleHoldsNoEpoch(t *testing.T) {
	db := NewDB()
	mustExec(t, db, `CREATE TABLE c (cid INTEGER, g INTEGER)`)
	mustExec(t, db, `CREATE TABLE s (cid INTEGER, val TEXT)`)
	mustExec(t, db, `CREATE INDEX idx_s ON s (cid, val)`)
	mustExec(t, db, `CREATE TABLE d (k INTEGER, a TEXT, mv INTEGER, x INTEGER)`)
	for i := 0; i < 3; i++ {
		mustExec(t, db, `INSERT INTO c VALUES (?, ?)`, relation.Int(int64(i)), relation.Int(int64(i%2)))
		for j := 0; j < 4; j++ {
			mustExec(t, db, `INSERT INTO s VALUES (?, ?)`, relation.Int(int64(i)), relation.Text(fmt.Sprintf("v%d", i+j)))
		}
	}
	for i := 0; i < probeSetMinCands+100; i += 100 { // enough candidates for value sets
		rows := make([]string, 100)
		for j := range rows {
			rows[j] = fmt.Sprintf("(%d, 'v%d', %d, %d)", i+j, (i+j)%9, (i+j)%2, (i+j)%11)
		}
		mustExec(t, db, `INSERT INTO d VALUES `+strings.Join(rows, ", "))
	}
	const qOver = `SELECT t.k FROM c, %s t WHERE t.mv = 0 AND t.k >= ? AND
		(c.g <> 1 OR t.x = 7 OR EXISTS (SELECT 1 FROM s WHERE s.cid = c.cid AND s.val = t.a))`
	q := fmt.Sprintf(qOver, "d")
	plan, err := db.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "kernel filter") || !strings.Contains(plan, "value-set probe s") {
		t.Fatalf("plan binds no column vector or no probe, the test would pin nothing:\n%s", plan)
	}
	if n := len(mustQuery(t, db, q, relation.Int(10)).Rows); n == 0 {
		t.Fatal("query matched nothing")
	}
	// The same probe over too few candidates for value sets: it binds a
	// view of the index on s instead.
	mustExec(t, db, `CREATE TABLE e (k INTEGER, a TEXT, mv INTEGER, x INTEGER)`)
	mustExec(t, db, `INSERT INTO e SELECT d.k, d.a, d.mv, d.x FROM d WHERE d.k < 50`)
	if n := len(mustQuery(t, db, fmt.Sprintf(qOver, "e"), relation.Int(10)).Rows); n == 0 {
		t.Fatal("query over e matched nothing")
	}
	if db.Stats().SchedBuilds < 2 {
		t.Fatal("the queries built no instances")
	}

	// Watch the table data and the column vectors of the epoch the query
	// read, then supersede all of it.
	collected := make(chan string, 64)
	watching := 0
	ep := db.cur.Load()
	for name, tbl := range ep.tables {
		td := ep.tds[tbl]
		runtime.SetFinalizer(td, func(*tableData) { collected <- "table data of " + name })
		watching++
		for si, sg := range td.segs {
			for ci := range sg.cols {
				for _, a := range columnArrays(&sg.cols[ci], fmt.Sprintf("segment %d's column %d of %s", si, ci, name)) {
					what := a.what
					a.finalize(func() { collected <- what })
					watching++
				}
			}
		}
	}
	ep = nil
	if watching < 4+2*4 {
		t.Fatalf("watching %d objects: the query built no column vectors", watching)
	}
	for _, tbl := range []string{"c", "s", "d", "e"} {
		mustExec(t, db, `DELETE FROM `+tbl+` WHERE 1 = 1`)
	}
	deadline := time.After(10 * time.Second)
	for got := 0; got < watching; {
		runtime.GC()
		select {
		case what := <-collected:
			t.Logf("collected: %s", what)
			got++
		case <-deadline:
			t.Fatalf("%d of %d superseded objects were never collected: an idle instance pins its last epoch", watching-got, watching)
		case <-time.After(10 * time.Millisecond):
		}
	}
	if st := db.Stats(); st.RetiredBytes != 0 || st.LiveEpochs != 1 {
		t.Errorf("RetiredBytes = %d, LiveEpochs = %d; want 0 and 1", st.RetiredBytes, st.LiveEpochs)
	}
}

// TestScheduleKeyIsDecisions: an instance is reused exactly when the
// sizes of the sources lead to the join order it was laid out for, the
// one decision they make. Growth across reorderMinRows lays out another,
// and what then runs is what EXPLAIN — a fresh build — shows; any other
// growth reuses it.
func TestScheduleKeyIsDecisions(t *testing.T) {
	db := NewDB()
	mustExec(t, db, `CREATE TABLE big (k INTEGER, mv INTEGER)`)
	mustExec(t, db, `CREATE TABLE small (k INTEGER)`)
	grow := func(table string, to int) {
		t.Helper()
		for n := db.cur.Load().tds[mustTable(t, db, table)].n; n < to; n++ {
			if table == "big" {
				mustExec(t, db, `INSERT INTO big VALUES (?, ?)`, relation.Int(int64(n)), relation.Int(int64(n%2)))
			} else {
				mustExec(t, db, `INSERT INTO small VALUES (?)`, relation.Int(int64(n)))
			}
		}
	}
	const q = `SELECT b.k FROM big b, small s WHERE b.mv = 0 AND b.k >= s.k AND b.k <= s.k`
	p, err := db.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	// run executes q and returns how many instances that built and reused,
	// and the rendering of the instance it ran on.
	run := func() (builds, reuses int64, ran string) {
		t.Helper()
		before := db.Stats()
		res, err := p.Query()
		if err != nil {
			t.Fatal(err)
		}
		ep := db.cur.Load()
		want := (min(ep.tds[mustTable(t, db, "small")].n, ep.tds[mustTable(t, db, "big")].n) + 1) / 2
		if len(res.Rows) != want {
			t.Fatalf("%d rows, want %d", len(res.Rows), want)
		}
		plan, err := db.planFor(p, 0, ep)
		if err != nil {
			t.Fatal(err)
		}
		cs := plan.(*compiledSelect)
		// The instance just released is the newest on the free list: with
		// a single reader, the highest slot taken.
		for i := len(cs.free) - 1; i >= 0 && ran == ""; i-- {
			if sch := cs.free[i].Load(); sch != nil {
				ran = strings.Join(cs.describeSchedule(sch, ep), "\n")
			}
		}
		after := db.Stats()
		return after.SchedBuilds - before.SchedBuilds, after.SchedReuses - before.SchedReuses, ran
	}
	explain := func() string {
		t.Helper()
		plan, err := db.Explain(q)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(plan), "\n")[1:] // drop the SELECT head
		for i := range lines {
			lines[i] = strings.TrimPrefix(lines[i], "  ")
		}
		return strings.Join(lines, "\n")
	}
	step := func(what string, wantBuilds, wantReuses int64, drives, has string) {
		t.Helper()
		builds, reuses, ran := run()
		if builds != wantBuilds || reuses != wantReuses {
			t.Errorf("%s: %d built, %d reused; want %d and %d", what, builds, reuses, wantBuilds, wantReuses)
		}
		if fresh := explain(); ran != fresh {
			t.Errorf("%s: ran on\n%s\na fresh build is\n%s", what, ran, fresh)
		}
		if !strings.HasPrefix(ran, drives) || !strings.Contains(ran, has) {
			t.Errorf("%s: instance does not start with %q or lacks %q:\n%s", what, drives, has, ran)
		}
	}
	grow("big", 40)
	grow("small", 10)
	step("first run", 1, 0, "scan b", "kernel filter(s)") // below reorderMinRows: FROM order
	grow("big", 50)
	step("both below reorderMinRows", 0, 1, "scan b", "kernel filter(s)")
	grow("big", reorderMinRows+10)
	step("big crossed reorderMinRows", 1, 0, "scan s", "kernel filter(s)") // smallest first now
	grow("big", 200)
	grow("small", reorderMinRows+20)
	step("growth that keeps the order", 0, 1, "scan s", "kernel filter(s)")
	grow("small", 150)
	step("growth that keeps the order", 0, 1, "scan s", "kernel filter(s)")
}

func mustTable(t *testing.T, db *DB, name string) *Table {
	t.Helper()
	tbl, err := db.cur.Load().table(name)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}
