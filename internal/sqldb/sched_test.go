package sqldb

import (
	"fmt"
	"math/rand"
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
// per-statement state — the parameters of an IN list written as a
// disjunction of equalities, long and short (one with a NULL item), the
// same inside a wider OR, the key of an index probe the instance keeps —
// again and again with other parameters and over other data, and
// compares every answer with Reference mode. A stale list answers for
// the previous parameters; a stale probe, for the previous rows.
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
		in8    = `t.v = ? OR t.v = ? OR t.v = ? OR t.v = ? OR t.v = ? OR t.v = ? OR t.v = ? OR t.v = ?`
		qLong  = `SELECT t.k FROM t WHERE ` + in8
		qShort = `SELECT t.k FROM t WHERE t.v = ? OR t.v = ? OR t.v = ?`
		qGroup = `SELECT t.k FROM t WHERE t.k < ? OR ` + in8
		qProbe = `SELECT t.k, u.w FROM t, u WHERE t.v = u.v AND t.k < ?`
	)
	if plan, err := db.Explain(qProbe); err != nil {
		t.Fatal(err)
	} else if !strings.Contains(plan, "index probe t via idx_t_v") {
		t.Fatalf("%s\nplan lacks an index probe, the test would pin nothing:\n%s", qProbe, plan)
	}
	// paramsFor derives a parameter set from a number; every third one
	// puts a NULL into the short list, whose arm then matches nothing.
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
		both(fmt.Sprintf(`UPDATE t SET v = %d WHERE k < ?`, 40+round), relation.Int(int64(10*round)))
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
// reads a parameter the statement was not given. That instance must not serve the next statement, which
// would emit the marked rows.
func TestPooledScheduleDroppedAfterError(t *testing.T) {
	db := NewDB()
	mustExec(t, db, `CREATE TABLE tt (a INTEGER)`)
	mustExec(t, db, `INSERT INTO tt VALUES (1), (7), (1), (7)`)
	const q = `SELECT tt.a FROM tt WHERE (tt.a = ? OR tt.a < ?)`
	if got := flat(mustQuery(t, db, q, relation.Int(7), relation.Int(10))); got != "7;7;1;1" && got != "1;7;1;7" {
		t.Fatalf("warm-up run: %q", got)
	}
	if _, err := db.Query(q, relation.Int(1)); err == nil {
		t.Fatal("the missing parameter did not surface")
	}
	before := db.Stats()
	if got := flat(mustQuery(t, db, q, relation.Int(99), relation.Int(0))); got != "" {
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
	step("first run", 1, 0, "scan b", "kernel filter(s)") // below reorderMinRows: b.mv = 0 reads b alone, b leads
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

// TestPooledScheduleStaleness: a plan instance keeps two things between
// executions — the pattern-only binds' outcome per site row (bindMemo)
// and its probes' hash builds (probeInst.hb) — each valid for the version
// of the table it was made from. One prepared statement, of the Qsv shape
// (a small site table c outside, guards that read only c, EXISTS probes
// into s, which has no index and so is hash-built), is re-executed after
// DML on the site table, on the build table and on the data table, after
// a rolled-back transaction on each of the first two, beside a reader
// pinned at an older epoch, and after DROP TABLE and CREATE TABLE under
// the same names; every answer, inside the transactions and at the pin
// too, must equal Reference mode's byte for byte. The counters show the
// instance answering from what it kept: a warm run, and a run after DML
// on the data table alone, evaluates no bind and builds no hash. Last,
// two probes whose build filter reads a parameter, or a subquery over
// another table, are re-executed with a new parameter and after DML on
// that table: neither may answer from the previous execution's build.
// Then the positions a probe or range level keeps from its last seek
// (seekMemo): statements whose key repeats within an execution, and from
// one execution to the next, are re-executed after DML on the probed
// table, and a correlated subquery that no probe decorrelates is
// re-entered per outer row with keys that repeat; none may answer from
// the positions of another version of the table.
// `make difffuzz` runs it on a fresh seed.
func TestPooledScheduleStaleness(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(diffSeed(t, 461)))
	texts := []relation.Value{relation.Null(), relation.Text("x"), relation.Text("y"), relation.Text("z"), relation.Text("@")}
	pick := func(vs []relation.Value) relation.Value { return vs[rng.Intn(len(vs))] }
	small := func(n int) relation.Value {
		if rng.Intn(8) == 0 {
			return relation.Null()
		}
		return relation.Int(int64(rng.Intn(n)))
	}
	// lit renders a value for SET, which takes literals only.
	lit := func(v relation.Value) string {
		switch v.K {
		case relation.KindNull:
			return "NULL"
		case relation.KindText:
			return "'" + v.S + "'"
		}
		return v.String()
	}
	db, ref := NewDB(), NewDB()
	ref.SetMode(Reference)
	both := func(q string, params ...relation.Value) {
		t.Helper()
		mustExec(t, db, q, params...)
		mustExec(t, ref, q, params...)
	}
	// Pattern rows keep c smaller than d, so c stays the outer level.
	fillC := func() {
		for cid := 0; cid < 6+rng.Intn(6); cid++ {
			both(`INSERT INTO c VALUES (?, ?, ?)`, relation.Int(int64(cid%4)), small(3), small(4))
		}
	}
	fillS := func() {
		for i := 0; i < 10+rng.Intn(20); i++ {
			both(`INSERT INTO s VALUES (?, ?)`, small(4), pick(texts))
		}
	}
	both(`CREATE TABLE c (cid INTEGER, g INTEGER, h INTEGER)`)
	both(`CREATE TABLE s (cid INTEGER, val TEXT)`)
	both(`CREATE TABLE d (k INTEGER, a TEXT, x INTEGER)`)
	fillC()
	fillS()
	for k := 0; k < 100; k++ {
		both(`INSERT INTO d VALUES (?, ?, ?)`, relation.Int(int64(k)), pick(texts), small(3))
	}
	const q = `SELECT DISTINCT t.k FROM d t, c
		WHERE (c.g <> 1 OR EXISTS (SELECT 1 FROM s WHERE s.cid = c.cid AND s.val = t.a))
		AND (ABS(c.h) = 1 AND t.x = 0
			OR ABS(c.h) = 2 AND NOT EXISTS (SELECT 1 FROM s WHERE s.cid = c.cid AND s.val = t.a)
			OR c.h = 3)`
	if plan, err := db.Explain(q); err != nil {
		t.Fatal(err)
	} else if !strings.Contains(plan, "scan c") || !strings.Contains(plan, "scan t (100 rows) [batch: or-group") {
		t.Fatalf("plan does not bind c's guards outside t's groups, the test would pin nothing:\n%s", plan)
	}
	p, err := db.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := ref.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	hashBuilt := false
	// check runs the statement on both engines and compares; kept says
	// that nothing the instance keeps is stale, so the run must evaluate
	// no bind and build no hash.
	check := func(step string, kept bool) {
		t.Helper()
		before := db.Stats()
		res, err := p.Query()
		if err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		st := db.Stats()
		want, err := pr.Query()
		if err != nil {
			t.Fatalf("%s: Reference: %v", step, err)
		}
		if got, want := canonical(res), canonical(want); got != want {
			t.Fatalf("after %s:\nPlanned   %q\nReference %q", step, got, want)
		}
		evals, builds := st.BindEvals-before.BindEvals, st.HashBuilds-before.HashBuilds
		if kept && (evals != 0 || builds != 0) {
			t.Fatalf("after %s: %d bind evaluations and %d hash builds; want none from a warm instance", step, evals, builds)
		}
		hashBuilt = hashBuilt || builds > 0
	}
	// inTx runs one statement in a transaction on both engines, compares
	// the statement's answer inside it, and rolls back.
	inTx := func(step, dml string) {
		t.Helper()
		tx, err := db.Begin()
		if err != nil {
			t.Fatal(err)
		}
		rtx, err := ref.Begin()
		if err != nil {
			t.Fatal(err)
		}
		for _, x := range []*Tx{tx, rtx} {
			if _, err := x.Exec(dml); err != nil {
				t.Fatalf("%s: %v", step, err)
			}
		}
		got, err := tx.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		want, err := rtx.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if g, w := canonical(got), canonical(want); g != w {
			t.Fatalf("inside %s:\nPlanned   %q\nReference %q", step, g, w)
		}
		for _, x := range []*Tx{tx, rtx} {
			if err := x.Rollback(); err != nil {
				t.Fatal(err)
			}
		}
		check("rolled-back "+step, false)
	}
	check("the first run", false)
	check("a warm run", true)
	for round := 0; round < 6; round++ {
		cid, v := rng.Intn(4), rng.Intn(4)
		switch rng.Intn(3) {
		case 0:
			both(fmt.Sprintf(`UPDATE c SET g = %s, h = %s WHERE c.cid = ?`, lit(small(3)), lit(small(4))), relation.Int(int64(cid)))
		case 1:
			both(`INSERT INTO c VALUES (?, ?, ?)`, relation.Int(int64(cid)), small(3), small(4))
		default:
			both(`DELETE FROM c WHERE c.h = ?`, relation.Int(int64(v)))
		}
		check("DML on the site table", false)
		check("a warm run", true)
		switch rng.Intn(3) {
		case 0:
			both(fmt.Sprintf(`UPDATE s SET val = %s WHERE s.cid = ?`, lit(pick(texts))), relation.Int(int64(cid)))
		case 1:
			both(`INSERT INTO s VALUES (?, ?)`, relation.Int(int64(cid)), pick(texts))
		default:
			both(`DELETE FROM s WHERE s.cid = ?`, relation.Int(int64(cid)))
		}
		check("DML on the build table", false)
		both(fmt.Sprintf(`UPDATE d SET a = %s, x = %s WHERE d.k = ?`, lit(pick(texts)), lit(small(3))), relation.Int(int64(rng.Intn(100))))
		check("DML on the data table", true)
		inTx("UPDATE of the site table", fmt.Sprintf(`UPDATE c SET g = %d, h = %d WHERE c.cid = %d`, rng.Intn(3), rng.Intn(4), cid))
		inTx("DELETE from the build table", fmt.Sprintf(`DELETE FROM s WHERE s.cid = %d`, (cid+1)%4))

		// A reader pinned before a change re-executes the statement beside
		// the writer and the current readers: each version, in turn, is the
		// one the instance it checks out last saw.
		snap, rsnap := db.PinSnapshot(), ref.PinSnapshot()
		res, err := pr.QueryAt(rsnap)
		if err != nil {
			t.Fatal(err)
		}
		pinned := canonical(res)
		both(fmt.Sprintf(`UPDATE c SET g = %s WHERE c.cid = ?`, lit(small(3))), relation.Int(int64(cid)))
		both(`INSERT INTO s VALUES (?, ?)`, relation.Int(int64(v)), pick(texts))
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				res, err := p.QueryAt(snap)
				if err != nil {
					t.Error(err)
					return
				}
				if got := canonical(res); got != pinned {
					t.Errorf("pinned reader, run %d:\nPlanned   %q\nReference %q", i, got, pinned)
					return
				}
			}
		}()
		for i := 0; i < 5; i++ {
			check("DML beside a pinned reader", false)
		}
		wg.Wait()
		snap.Close()
		rsnap.Close()
	}
	// The same names over new tables: the plan recompiles, and no
	// instance of the old one may answer for them.
	both(`DROP TABLE s`)
	both(`CREATE TABLE s (cid INTEGER, val TEXT)`)
	fillS()
	check("DROP and CREATE of the build table", false)
	both(`DROP TABLE c`)
	both(`CREATE TABLE c (cid INTEGER, g INTEGER, h INTEGER)`)
	fillC()
	check("DROP and CREATE of the site table", false)
	check("a warm run", true)
	if !hashBuilt {
		t.Fatal("no run built a hash: the statement probes no hash build")
	}

	// A build filter that reads a parameter or another table is not fixed
	// by the version of the build table: an instance re-executed with a
	// new parameter, or after DML on that other table, must build again.
	// 'p' and 'q' are in no random row, so the two answers differ.
	both(`INSERT INTO s VALUES (1, 'p'), (2, 'q')`)
	both(`CREATE TABLE u (v TEXT)`)
	both(`INSERT INTO u VALUES ('p')`)
	rerun := func(step, q string, between func(), params ...[]relation.Value) {
		t.Helper()
		p, err := db.Prepare(q)
		if err != nil {
			t.Fatal(err)
		}
		pr, err := ref.Prepare(q)
		if err != nil {
			t.Fatal(err)
		}
		for i, args := range params {
			if i > 0 {
				between()
			}
			before := db.Stats().HashBuilds
			res, err := p.Query(args...)
			if err != nil {
				t.Fatalf("%s, run %d: %v", step, i, err)
			}
			if i == 0 && db.Stats().HashBuilds == before {
				t.Fatalf("%s: the first run built no hash, the case would pin nothing", step)
			}
			want, err := pr.Query(args...)
			if err != nil {
				t.Fatalf("%s, run %d: Reference: %v", step, i, err)
			}
			if got, want := canonical(res), canonical(want); got != want {
				t.Errorf("%s, run %d:\nPlanned   %q\nReference %q", step, i, got, want)
				return
			}
		}
	}
	rerun("a parameter in the build filter",
		`SELECT t.k FROM d t WHERE EXISTS (SELECT 1 FROM s WHERE s.cid = t.k AND s.val = ?)`,
		func() {}, []relation.Value{relation.Text("p")}, []relation.Value{relation.Text("q")})
	rerun("a subquery in the build filter",
		`SELECT t.k FROM d t WHERE EXISTS (SELECT 1 FROM s WHERE s.cid = t.k AND s.val IN (SELECT u.v FROM u))`,
		func() {
			both(`DELETE FROM u`)
			both(`INSERT INTO u VALUES ('q')`)
		}, nil, nil)

	// The same key from one execution to the next, and from one level
	// entry to the next: d's x holds three values and NULL over 100 rows, and the
	// correlated EXISTS, which LIMIT keeps from being decorrelated, seeks
	// in w once per entry of its own plan, for each row of d.
	both(`CREATE TABLE w (k INTEGER, v INTEGER)`)
	both(`CREATE INDEX idx_w ON w (k)`)
	fillW := func() {
		for i := 0; i < 70+rng.Intn(20); i++ {
			both(`INSERT INTO w VALUES (?, ?)`, small(4), relation.Int(int64(rng.Intn(100))))
		}
	}
	fillW()
	seekSites := []struct {
		q    string
		args []relation.Value
	}{
		{`SELECT w.v FROM w WHERE w.k = ?`, []relation.Value{relation.Int(1)}},
		{`SELECT w.v FROM w WHERE w.k >= ? AND w.k <= ?`, []relation.Value{relation.Int(1), relation.Int(2)}},
		{`SELECT t.k, w.v FROM d t, w WHERE w.k = t.x`, nil},
		{`SELECT t.k FROM d t WHERE EXISTS (SELECT 1 FROM w WHERE w.k = t.x AND w.v > t.k LIMIT 1)`, nil},
	}
	for _, site := range seekSites {
		p, err := db.Prepare(site.q)
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 4; round++ {
			res, err := p.Query(site.args...)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := canonical(res), canonical(mustQuery(t, ref, site.q, site.args...)); got != want {
				t.Fatalf("%s, run %d:\nPlanned   %q\nReference %q", site.q, round, got, want)
			}
			switch round {
			case 0:
				both(`INSERT INTO w VALUES (1, 99), (2, 98), (0, 97)`)
			case 1:
				both(`DELETE FROM w WHERE w.k = 1`)
			case 2:
				both(`TRUNCATE TABLE w`)
				fillW()
			}
		}
	}
}
