package sqldb

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"ecfd/internal/relation"
)

// Tests of the column cache's segments: what every epoch's segment table
// must look like, that churn keeps it short, that a superseded segment
// lives exactly as long as an epoch listing it is pinned, that runs cut
// at segment boundaries keep index order, and that a pinned reader stays
// inside its fence of a tail a writer is filling.

// checkSegmentTable verifies the shape of one epoch's segment table: the
// segments partition [0, len(rows)) in order, none empty or over segRows,
// and no two neighbours fit in one — hence the bound on their number.
func checkSegmentTable(t *testing.T, what string, td *tableData) {
	t.Helper()
	n := td.n
	if most := 2*((n+segRows-1)/segRows) + 1; len(td.segs) > most {
		t.Fatalf("%s: %d segments for %d rows, bound %d", what, len(td.segs), n, most)
	}
	next, prev := 0, segRows
	for si := range td.segs {
		base, m := td.span(si)
		if base != next || m < 1 || m > segRows {
			t.Fatalf("%s: segment %d covers [%d, %d+%d), previous ended at %d", what, si, base, base, m, next)
		}
		if prev+m <= segRows {
			t.Fatalf("%s: segments %d and %d hold %d + %d rows: they fit in one", what, si-1, si, prev, m)
		}
		next, prev = base+m, m
	}
	if next != n {
		t.Fatalf("%s: segments cover %d of %d rows", what, next, n)
	}
}

// checkSegments verifies one epoch's column cache against its rows: the
// shape of the segment table, and that every built column, decoded,
// mirrors the rows it covers. A column may trail its segment — it
// extends lazily — and only a tail's may lead it, extended by readers of
// a newer epoch that has appended. Each column is checked as a colVec
// too (checkColVec).
func checkSegments(t *testing.T, what string, tbl *Table, td *tableData) {
	t.Helper()
	checkSegmentTable(t, what, td)
	for si, sg := range td.segs {
		base, m := td.span(si)
		sg.c.mu.RLock()
		for ci := range sg.c.vecs {
			vec := &sg.c.vecs[ci]
			where := fmt.Sprintf("%s: segment %d column %d", what, si, ci)
			if vec.len() > m && si < len(td.segs)-1 {
				t.Fatalf("%s has %d cells for %d rows", where, vec.len(), m)
			}
			checkColVec(t, where, tbl.Schema.Attrs[ci].Kind == relation.KindText, vec)
			for i := 0; i < min(vec.len(), m); i++ {
				if v := vec.at(i); !relation.Identical(v, sg.rows[i][ci]) {
					t.Fatalf("%s row %d (position %d): cached %s, stored %s", where, i, base+i, v, sg.rows[i][ci])
				}
			}
		}
		sg.c.mu.RUnlock()
	}
}

// checkColVec verifies a built column's representation: only a
// declared-TEXT column is coded; codes name dictionary strings, which are
// distinct and at most twice as many as the column's cells; a
// permutation sorts the dictionary prefix it covers.
func checkColVec(t *testing.T, where string, text bool, v *colVec) {
	t.Helper()
	if v.codes == nil {
		return
	}
	if !text {
		t.Fatalf("%s: a non-TEXT column is coded", where)
	}
	if n := v.len(); len(v.dict) > 2*n {
		t.Fatalf("%s: %d dictionary strings for %d cells", where, len(v.dict), n)
	}
	for i, c := range v.codes {
		if int(c) > len(v.dict) {
			t.Fatalf("%s: cell %d has code %d past a %d-string dictionary", where, i, c, len(v.dict))
		}
	}
	if distinct := len(slices.Compact(slices.Sorted(slices.Values(v.dict)))); distinct != len(v.dict) {
		t.Fatalf("%s: %d dictionary strings, %d distinct", where, len(v.dict), distinct)
	}
	for i := 1; i < len(v.perm); i++ {
		if v.dict[v.perm[i-1]] >= v.dict[v.perm[i]] {
			t.Fatalf("%s: the permutation does not sort the dictionary at %d", where, i)
		}
	}
}

// TestSegmentChurnKeepsMergeBound: 10 000 steps that delete a few random
// rows and insert as many, |D| constant. Old segments thin out while the
// tail fills, so without merging their number would grow with the steps;
// after every step the segment table has its shape — the bound included
// — and the cache still mirrors the rows.
func TestSegmentChurnKeepsMergeBound(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(173))
	db := NewDB()
	mustExec(t, db, `CREATE TABLE ch (id INTEGER, v INTEGER)`)
	ins, err := db.Prepare(`INSERT INTO ch VALUES (?, ?)`)
	if err != nil {
		t.Fatal(err)
	}
	del, err := db.Prepare(`DELETE FROM ch WHERE id = ?`) // an equality kernel over id: covers it every step
	if err != nil {
		t.Fatal(err)
	}
	var live []int64
	nextID := int64(0)
	add := func() {
		if _, err := ins.Exec(relation.Int(nextID), relation.Int(nextID%13)); err != nil {
			t.Fatal(err)
		}
		live = append(live, nextID)
		nextID++
	}
	for len(live) < 5000 {
		add()
	}
	tbl := mustTable(t, db, "ch")
	most := 0
	for step := 0; step < 10_000; step++ {
		k := 1 + rng.Intn(3)
		for i := 0; i < k; i++ {
			j := rng.Intn(len(live))
			if n, err := del.Exec(relation.Int(live[j])); err != nil || n != 1 {
				t.Fatalf("step %d: delete of id %d: %d rows, %v", step, live[j], n, err)
			}
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		for i := 0; i < k; i++ {
			add()
		}
		td := db.cur.Load().tds[tbl]
		if checkSegmentTable(t, fmt.Sprintf("step %d", step), td); step%100 == 99 {
			checkSegments(t, fmt.Sprintf("step %d", step), tbl, td)
		}
		most = max(most, len(td.segs))
	}
	t.Logf("at most %d segments for 5000 rows over 10 000 steps", most)
	if built := tbl.colBuilt.Load(); built > 2*nextID {
		t.Fatalf("%d cells read from rows for %d rows ever stored", built, nextID)
	}
}

// TestSegmentsCollectableAfterUnpin: a segment a DELETE has replaced
// lives exactly as long as an epoch listing it is pinned. The query
// leaves a warm pooled instance behind, whose probes were last pointed at
// the columns of the segment it scanned last, the tail, and whose value
// sets translated their members into the codes of every segment. The
// DELETE thins the last full segment out until it re-codes and merges
// with the tail. While a snapshot pins the old epoch neither replaced
// segment, nor any array of theirs the new epoch does not share — values,
// codes, dictionaries, permutations — may be collected, and once it is
// closed all must be: nothing the idle instance keeps may reach them, and
// it keeps no value set, so no mask. The segments the DELETE did not
// touch are shared with the new epoch and stay.
func TestSegmentsCollectableAfterUnpin(t *testing.T) {
	db := NewDB()
	mustExec(t, db, `CREATE TABLE c (cid INTEGER, g INTEGER)`)
	mustExec(t, db, `CREATE TABLE s (cid INTEGER, val TEXT)`)
	mustExec(t, db, `CREATE INDEX idx_s ON s (cid, val)`)
	mustExec(t, db, `CREATE TABLE d (k INTEGER, a TEXT, mv INTEGER, x INTEGER, u TEXT)`)
	for i := 0; i < 3; i++ {
		mustExec(t, db, `INSERT INTO c VALUES (?, ?)`, relation.Int(int64(i)), relation.Int(int64(i%2)))
		for j := 0; j < 4; j++ {
			mustExec(t, db, `INSERT INTO s VALUES (?, ?)`, relation.Int(int64(i)), relation.Text(fmt.Sprintf("v%d", i+j)))
		}
	}
	const dRows = 4*segRows + 304 // four full segments and a tail: candidates enough for value sets
	for i := 0; i < dRows; i += 100 {
		rows := make([]string, 100)
		for j := range rows {
			rows[j] = fmt.Sprintf("(%d, 'v%d', %d, %d, 'u%d')", i+j, (i+j)%9, (i+j)%2, (i+j)%11, i+j)
		}
		mustExec(t, db, `INSERT INTO d VALUES `+strings.Join(rows, ", "))
	}
	const q = `SELECT t.k FROM c, d t WHERE t.mv = 0 AND t.k >= ? AND t.u <> 'none' AND
		(c.g <> 1 OR t.x = 7 OR EXISTS (SELECT 1 FROM s WHERE s.cid = c.cid AND s.val = t.a))`
	// The macro's shape: its DISTINCT pre-filter reads the columns of the
	// run its batch level filters through that level's cursor, and keeps
	// a memo of their codes.
	const qd = `SELECT DISTINCT c.cid, CASE WHEN c.g >= 0 THEN t.a ELSE '@' END, CASE WHEN c.g > 0 THEN t.u ELSE '@' END
		FROM c, d t WHERE t.mv = 0`
	run := func() {
		t.Helper()
		if n := len(mustQuery(t, db, q, relation.Int(10)).Rows); n == 0 {
			t.Fatal("query matched nothing")
		}
		if n := len(mustQuery(t, db, qd).Rows); n == 0 {
			t.Fatal("the DISTINCT query matched nothing")
		}
	}
	run()
	run()
	if st := db.Stats(); st.SchedReuses == 0 || st.SetRows == 0 || st.CodeRepeats == 0 {
		t.Fatalf("%d instances reused, %d rows decided by value sets, %d repeats by code: nothing is pooled, translated or memoized",
			st.SchedReuses, st.SetRows, st.CodeRepeats)
	}
	idle := func(q string) []*schedule {
		t.Helper()
		p, err := db.Prepare(q)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := db.planFor(p, 0, db.cur.Load())
		if err != nil {
			t.Fatal(err)
		}
		var out []*schedule
		for i := range plan.(*compiledSelect).free {
			if sch := plan.(*compiledSelect).free[i].Load(); sch != nil {
				out = append(out, sch)
			}
		}
		return out
	}
	// The idle instance of the DISTINCT query keeps its memo and the space
	// for its cursors' columns, but no cursor is live and no column kept.
	memos := 0
	for _, sch := range idle(qd) {
		if sch.state.memo != nil {
			memos++
		}
		for s, cur := range sch.state.cur {
			if cur.seq != 0 || cur.run.c != nil || cur.run.rows != nil {
				t.Errorf("idle instance: the cursor of source %d outlived its level", s)
			}
			for ci := range cur.cols {
				if cur.cols[ci].len() > 0 {
					t.Errorf("idle instance: the cursor of source %d keeps column %d", s, ci)
				}
			}
		}
	}
	if memos == 0 {
		t.Fatal("no idle instance with a pre-filter memo")
	}
	// What the idle instance keeps is sized by a segment, not by d.
	masks := 0
	var keptSets func(ps []predInst) int
	keptSets = func(ps []predInst) (n int) {
		for i := range ps {
			if ps[i].probe != nil && ps[i].probe.vs != nil {
				n++
			}
			n += keptSets(ps[i].or)
		}
		return n
	}
	for _, sch := range idle(q) {
		for pos, gs := range sch.state.gsc {
			if gs != nil && len(gs.mask) > 0 {
				masks++
				if len(gs.mask) > segRows || cap(sch.state.sel[pos]) > 2*segRows {
					t.Errorf("idle instance, level %d: row mask of %d, selection vector of %d for %d-row segments",
						pos, len(gs.mask), cap(sch.state.sel[pos]), segRows)
				}
			}
			for _, g := range sch.levels[pos].groups {
				for ti := range g.terms {
					if n := keptSets(g.terms[ti].preds); n > 0 {
						t.Errorf("idle instance, level %d: %d probes keep their value sets", pos, n)
					}
				}
			}
		}
	}
	if masks == 0 {
		t.Fatal("no idle instance with an OR-group row mask")
	}

	tbl := mustTable(t, db, "d")
	snap := db.PinSnapshot()
	mustExec(t, db, `DELETE FROM d WHERE k >= ? AND k < ?`, relation.Int(3*segRows+10), relation.Int(4*segRows-14))
	old, cur := snap.ep.tds[tbl].segs, db.cur.Load().tds[tbl].segs
	if len(old) != 5 || len(cur) != 4 || cur[0].c != old[0].c || cur[2].c != old[2].c {
		t.Fatalf("%d segments became %d: the DELETE did not merge the thinned one into the tail", len(old), len(cur))
	}
	shared := map[unsafe.Pointer]bool{}
	for _, sg := range cur {
		for ci := range sg.c.vecs {
			for _, a := range columnArrays(&sg.c.vecs[ci], "") {
				shared[a.p] = true
			}
		}
	}
	collected := make(chan string, 64)
	var doomed []string
	watch := func(si int, replaced bool) {
		sg := old[si]
		if replaced {
			doomed = append(doomed, fmt.Sprintf("segment %d", si))
		}
		what := fmt.Sprintf("segment %d", si)
		runtime.SetFinalizer(sg.c, func(*colSeg) { collected <- what })
		for ci := range sg.c.vecs {
			for _, a := range columnArrays(&sg.c.vecs[ci], fmt.Sprintf("segment %d's column %d", si, ci)) {
				if replaced && shared[a.p] {
					continue // the merged segment kept it
				}
				what := a.what
				a.finalize(func() { collected <- what })
				if replaced {
					doomed = append(doomed, what)
				}
			}
		}
	}
	watch(3, true)
	watch(4, true)
	watch(0, false)
	watch(2, false)
	for _, kind := range []string{"values", "codes", "dictionary", "permutation"} {
		if !slices.ContainsFunc(doomed, func(w string) bool { return strings.HasSuffix(w, kind) }) {
			t.Fatalf("the replaced segments hold no %s only they reach: %v", kind, doomed)
		}
	}
	old, cur = nil, nil

	for i := 0; i < 3; i++ {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	select {
	case what := <-collected:
		t.Fatalf("%s was collected while a snapshot pins its epoch", what)
	default:
	}
	if res, err := db.Prepare(`SELECT COUNT(*) FROM d WHERE k >= 0`); err != nil {
		t.Fatal(err)
	} else if got, err := res.QueryAt(snap); err != nil || got.Rows[0][0].I != dRows {
		t.Fatalf("the pinned epoch counts %v rows, %v", got, err)
	}
	snap.Close()
	deadline := time.After(10 * time.Second)
	for got := 0; got < len(doomed); {
		runtime.GC()
		select {
		case what := <-collected:
			if !slices.Contains(doomed, what) {
				t.Fatalf("%s was collected: the published epoch still reaches it", what)
			}
			got++
		case <-deadline:
			t.Fatalf("%d of %d objects of the replaced segments were never collected after the unpin", len(doomed)-got, len(doomed))
		case <-time.After(10 * time.Millisecond):
		}
	}
	run()
	if st := db.Stats(); st.RetiredBytes != 0 || st.LiveEpochs != 1 {
		t.Errorf("RetiredBytes = %d, LiveEpochs = %d; want 0 and 1", st.RetiredBytes, st.LiveEpochs)
	}
}

// colArray is one backing array a built column holds.
type colArray struct {
	what     string
	p        unsafe.Pointer
	finalize func(fire func())
}

// columnArrays lists the backing arrays of a built column — its values or
// codes, dictionary and permutation — named after what.
func columnArrays(v *colVec, what string) []colArray {
	var out []colArray
	add := func(kind string, n int, p unsafe.Pointer, fin func(fire func())) {
		if n > 0 {
			out = append(out, colArray{what + " " + kind, p, fin})
		}
	}
	add("values", cap(v.vals), unsafe.Pointer(unsafe.SliceData(v.vals)), func(fire func()) { finalizeFirst(v.vals, fire) })
	add("codes", cap(v.codes), unsafe.Pointer(unsafe.SliceData(v.codes)), func(fire func()) { finalizeFirst(v.codes, fire) })
	add("dictionary", cap(v.dict), unsafe.Pointer(unsafe.SliceData(v.dict)), func(fire func()) { finalizeFirst(v.dict, fire) })
	add("permutation", cap(v.perm), unsafe.Pointer(unsafe.SliceData(v.perm)), func(fire func()) { finalizeFirst(v.perm, fire) })
	return out
}

func finalizeFirst[T any](s []T, fire func()) {
	runtime.SetFinalizer(&s[:1][0], func(*T) { fire() })
}

// TestSegmentRunsPreserveOrder: an ORDER BY served by an index on a
// column that has nothing to do with position hands the batch level a
// bucket that changes segment with nearly every candidate. Cut into runs
// — many of length one — and filtered by kernels and an OR group, the
// rows must come out in exactly the sequence the Reference mode sorts
// them into, whole and range-pruned. Descending, which index order does
// not serve, the batch level's rows go through the sort to the same end.
func TestSegmentRunsPreserveOrder(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(179))
	db := NewDB()
	mustExec(t, db, `CREATE TABLE o (k INTEGER, v INTEGER, f INTEGER)`)
	mustExec(t, db, `CREATE INDEX idx_o_k ON o (k)`)
	keys := rng.Perm(4000) // unique: no ties for the two modes to break differently
	for i := 0; i < len(keys); i += 250 {
		rows := make([]string, 250)
		for j := range rows {
			rows[j] = fmt.Sprintf("(%d, %d, %d)", keys[i+j], rng.Intn(500), rng.Intn(3))
		}
		mustExec(t, db, `INSERT INTO o VALUES `+strings.Join(rows, ", "))
	}
	// Segments of uneven fill: thin the second out, then append.
	mustExec(t, db, `DELETE FROM o WHERE k % 3 = 0 AND v < 300 AND f = 1`)
	mustExec(t, db, `INSERT INTO o VALUES (4000, 7, 1), (4001, 8, 0)`)
	tbl := mustTable(t, db, "o")
	if td := db.cur.Load().tds[tbl]; len(td.segs) < 3 {
		t.Fatalf("%d segments, want at least 3", len(td.segs))
	}
	for _, q := range []string{
		`SELECT k, v FROM o WHERE f <> 1 AND v >= 100 ORDER BY k`,
		`SELECT k, v FROM o WHERE f <> 1 AND v >= 100 ORDER BY k DESC`,
		`SELECT k, v FROM o WHERE f = 2 AND (v < 50 OR v > 450 OR k % 7 = 0) ORDER BY k DESC`,
		`SELECT k FROM o WHERE k > 1000 AND k <= 3000 AND v <> 3 ORDER BY k LIMIT 700`,
		`SELECT k FROM o WHERE k > 1000 AND k <= 3000 AND v <> 3 ORDER BY k DESC LIMIT 700`,
	} {
		plan, err := db.Explain(q)
		if err != nil {
			t.Fatal(err)
		}
		if desc := strings.Contains(q, "DESC"); !strings.Contains(plan, "[batch:") || strings.Contains(plan, "served by index") == desc {
			t.Fatalf("%s\nis not a batch level, served by the index unless descending:\n%s", q, plan)
		}
		got, want := flat(queryIn(t, db, Planned, q)), flat(queryIn(t, db, Reference, q))
		if got != want {
			t.Errorf("%s\nPlanned and Reference sequences differ:\n%.300s\n%.300s", q, got, want)
		}
		if len(got) < 1000 {
			t.Errorf("%s\nreturned next to nothing: %q", q, got)
		}
	}
	checkSegments(t, "after the ordered scans", tbl, db.cur.Load().tds[tbl])
}

// TestSnapshotStabilityTailFence: a reader pinned to an epoch whose tail
// segment is half full scans it, building and extending its columns —
// one of them coded, whose dictionary grows with its codes — while a
// writer appends into that same segment, seals it and starts the next —
// and reads in between, which extends the shared columns past the pinned
// reader's fence. The pinned reader must keep seeing exactly its own
// rows.
func TestSnapshotStabilityTailFence(t *testing.T) {
	db := NewDB()
	mustExec(t, db, `CREATE TABLE d (id INTEGER, grp INTEGER, tag TEXT)`)
	nextID := 0
	insert := func(n int) error {
		rows := make([]string, n)
		for i := range rows {
			rows[i] = fmt.Sprintf("(%d, %d, 't%d')", nextID, nextID%5, nextID%97)
			nextID++
		}
		_, err := db.Exec(`INSERT INTO d VALUES ` + strings.Join(rows, ", "))
		return err
	}
	const pinned = segRows + segRows/2
	if err := insert(pinned); err != nil {
		t.Fatal(err)
	}
	// tag is coded: the kernel decides each code by its string, so a reader
	// whose codes named strings past its dictionary would fail or miscount.
	p, err := db.Prepare(`SELECT COUNT(*), SUM(id) FROM d WHERE grp >= 0 AND id >= 0 AND tag <> 't2'`)
	if err != nil {
		t.Fatal(err)
	}
	snap := db.PinSnapshot() // no vector is built yet: the readers race to
	defer snap.Close()
	want := func(rows int) (n, sum int64) {
		for id := 0; id < rows; id++ {
			if id%97 != 2 {
				n, sum = n+1, sum+int64(id)
			}
		}
		return n, sum
	}
	wantN, wantSum := want(pinned)

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 150; i++ {
				res, err := p.QueryAt(snap)
				if err != nil {
					errs <- err
					return
				}
				if n, sum := res.Rows[0][0].I, res.Rows[0][1].I; n != wantN || sum != wantSum {
					errs <- fmt.Errorf("pinned read %d: %d rows summing to %d, want %d and %d", i, n, sum, wantN, wantSum)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for nextID < 3*segRows { // fills the pinned tail, seals it, fills another
			if err := insert(37); err != nil {
				errs <- err
				return
			}
			res, err := p.Query()
			if err != nil {
				errs <- err
				return
			}
			if n, _ := want(nextID); res.Rows[0][0].I != n {
				errs <- fmt.Errorf("live read: %d rows, want %d", res.Rows[0][0].I, n)
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	tbl := mustTable(t, db, "d")
	checkSegments(t, "pinned epoch", tbl, snap.ep.tds[tbl])
	checkSegments(t, "published epoch", tbl, db.cur.Load().tds[tbl])
}

// TestSegmentForksShareUntouched states copy-on-write at its grain: an
// INSERT shares every segment and adds to the tail, an UPDATE and a
// DELETE replace the segments holding a position they touch and share
// all the others — behind a DELETE at their shifted starts — and the
// SegCellsCopied they report is what the replaced segments hold.
func TestSegmentForksShareUntouched(t *testing.T) {
	db := NewDB()
	mustExec(t, db, `CREATE TABLE f (k INTEGER, v INTEGER)`)
	for i := 0; i < 5*segRows; i += 512 {
		rows := make([]string, 512)
		for j := range rows {
			rows[j] = fmt.Sprintf("(%d, %d)", i+j, (i+j)%7)
		}
		mustExec(t, db, `INSERT INTO f VALUES `+strings.Join(rows, ", "))
	}
	mustQuery(t, db, `SELECT k FROM f WHERE k >= 0 AND v >= 0`) // both columns, every segment
	tbl := mustTable(t, db, "f")
	// fork runs one statement and returns which of the old epoch's
	// segments the new one still lists, and the segment cells it copied.
	fork := func(q string) (shared []bool, copied int64) {
		t.Helper()
		old, before := db.cur.Load().tds[tbl], db.Stats().SegCellsCopied
		mustExec(t, db, q)
		td := db.cur.Load().tds[tbl]
		checkSegments(t, q, tbl, td)
		shared = make([]bool, len(old.segs))
		for i, o := range old.segs {
			for _, n := range td.segs {
				shared[i] = shared[i] || n.c == o.c
			}
		}
		return shared, db.Stats().SegCellsCopied - before
	}
	want := func(q string, shared []bool, copied int64, replaced []int, cells int64) {
		t.Helper()
		for i, s := range shared {
			if s == slices.Contains(replaced, i) {
				t.Errorf("%s\nshares segments %v, want all but %v", q, shared, replaced)
				break
			}
		}
		if copied != cells {
			t.Errorf("%s\ncopied %d segment cells, want %d", q, copied, cells)
		}
	}
	q := `INSERT INTO f VALUES (-1, 0), (-2, 0)` // a sixth segment: the fifth is full
	shared, copied := fork(q)
	want(q, shared, copied, nil, 0)
	q = fmt.Sprintf(`UPDATE f SET v = 9 WHERE k = %d OR k = %d`, segRows+5, 3*segRows+5) // one column of two segments
	shared, copied = fork(q)
	want(q, shared, copied, []int{1, 3}, 2*segRows)
	q = fmt.Sprintf(`DELETE FROM f WHERE k >= %d AND k < %d`, 2*segRows-3, 2*segRows+4) // the end of one, the start of the next
	shared, copied = fork(q)
	want(q, shared, copied, []int{1, 2}, 2*(2*segRows-7))
	q = fmt.Sprintf(`DELETE FROM f WHERE k >= %d AND k < %d`, 3*segRows, 4*segRows) // a whole segment: dropped, nothing copied
	shared, copied = fork(q)
	want(q, shared, copied, []int{3}, 0)
	q = `DELETE FROM f WHERE k < 0` // the tail's two rows: dropped too
	shared, copied = fork(q)
	want(q, shared, copied, []int{4}, 0)
}

// TestSegmentMergeCompletesFromRows: when a DELETE leaves two neighbours
// that fit in one segment and a column is covered further in the second
// than in the first — a former tail whose vector stopped where the
// appends began — the merge reads the gap from rows, so what the second
// had covered stays covered, in place. Those cells, and no others, count
// as built.
func TestSegmentMergeCompletesFromRows(t *testing.T) {
	db := NewDB()
	mustExec(t, db, `CREATE TABLE m (k INTEGER, v INTEGER)`)
	mustExec(t, db, `CREATE INDEX idx_m_k ON m (k)`)
	next := 0
	insert := func(n int) {
		rows := make([]string, n)
		for i := range rows {
			rows[i] = fmt.Sprintf("(%d, %d)", next, next%5)
			next++
		}
		mustExec(t, db, `INSERT INTO m VALUES `+strings.Join(rows, ", "))
	}
	insert(600)
	mustQuery(t, db, `SELECT k FROM m WHERE v >= 0`) // the tail's v covers its 600 rows
	insert(424)                                      // sealed, v still at 600
	insert(600)
	// A range scan over the second segment alone: its k bound is the index
	// range, its v kernel covers that segment's v whole.
	if n := len(mustQuery(t, db, `SELECT k FROM m WHERE k >= 1100 AND v >= 0`).Rows); n != 524 {
		t.Fatalf("range scan returned %d rows", n)
	}
	tbl := mustTable(t, db, "m")
	cover := func() (cells []int) {
		for _, sg := range db.cur.Load().tds[tbl].segs {
			cells = append(cells, sg.c.vecs[1].len())
		}
		return cells
	}
	if got := cover(); !slices.Equal(got, []int{600, 600}) {
		t.Fatalf("v covers %v cells of the two segments, want 600 of 1024 and 600 of 600", got)
	}
	mustQuery(t, db, `SELECT v FROM m WHERE k <> -1`) // k whole, for the DELETE's own scan
	built := tbl.colBuilt.Load()
	mustExec(t, db, `DELETE FROM m WHERE k >= 300 AND k < 1000`) // 324 + 600 rows left: one segment
	td := db.cur.Load().tds[tbl]
	checkSegments(t, "after the merge", tbl, td)
	if got := cover(); !slices.Equal(got, []int{924}) {
		t.Fatalf("v covers %v cells after the merge, want all 924 of one segment", got)
	}
	if got := tbl.colBuilt.Load() - built; got != 24 {
		t.Fatalf("the merge read %d cells from rows, want the 24 between the two covers", got)
	}
	got, want := flat(queryIn(t, db, Planned, `SELECT k FROM m WHERE v = 3 ORDER BY k`)), flat(queryIn(t, db, Reference, `SELECT k FROM m WHERE v = 3 ORDER BY k`))
	if got != want {
		t.Fatalf("after the merge Planned and Reference differ:\n%.200s\n%.200s", got, want)
	}
}
