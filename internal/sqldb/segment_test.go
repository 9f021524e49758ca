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

// Tests of the segments that store a table's rows: what every epoch's
// segment table must look like, that churn keeps it short, that a
// superseded segment lives exactly as long as an epoch listing it is
// pinned, that runs cut at segment boundaries keep index order, and that a
// pinned reader stays inside its fence of a tail a writer is filling.

// storedRows decodes a table's rows in one epoch, in position order.
func storedRows(tbl *Table, td *tableData) []relation.Tuple {
	out := make([]relation.Tuple, td.n)
	for p, si := 0, 0; p < td.n; p++ {
		r := td.ref(p, &si)
		out[p] = r.tuple(nil, tbl.Schema.Width())
	}
	return out
}

// lessPosIn orders two row positions by the index-column values, ties
// by position: the order of indexData.sorted.
func lessPosIn(cols []int, rows []relation.Tuple, a, b int) bool {
	for _, c := range cols {
		if cmp := relation.Compare(rows[a][c], rows[b][c]); cmp != 0 {
			return cmp < 0
		}
	}
	return a < b
}

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

// checkSegments verifies one epoch's rows as stored: the shape of the
// segment table; every column of the schema, as long as its segment and
// checked as a colVec (checkColVec); every segment but a tail that is not
// full sealed; and, unless want is nil, the rows decoded in position
// order equal to want, kind for kind.
func checkSegments(t *testing.T, what string, tbl *Table, td *tableData, want []relation.Tuple) {
	t.Helper()
	checkSegmentTable(t, what, td)
	if want != nil && len(want) != td.n {
		t.Fatalf("%s: %d rows, want %d", what, td.n, len(want))
	}
	for si, sg := range td.segs {
		base, m := td.span(si)
		if len(sg.cols) != tbl.Schema.Width() {
			t.Fatalf("%s: segment %d has %d columns for %d attributes", what, si, len(sg.cols), tbl.Schema.Width())
		}
		for ci := range sg.cols {
			vec := &sg.cols[ci]
			where := fmt.Sprintf("%s: segment %d column %d", what, si, ci)
			if vec.len() != m {
				t.Fatalf("%s has %d cells for %d rows", where, vec.len(), m)
			}
			if (si < len(td.segs)-1 || m == segRows) && !vec.sealed() {
				t.Fatalf("%s is not the tail and not sealed", where)
			}
			checkColVec(t, where, tbl.Schema.Attrs[ci].Kind == relation.KindText, vec)
			for i := 0; want != nil && i < m; i++ {
				if v, w := vec.at(i), want[base+i][ci]; v.K != w.K || !relation.Identical(v, w) {
					t.Fatalf("%s row %d (position %d): stored %s, want %s", where, i, base+i, v, w)
				}
			}
		}
	}
}

// checkColVec verifies a built column's representation: only a
// declared-TEXT column is coded; codes name dictionary strings, which are
// distinct and at most twice as many as the column's cells; a
// permutation sorts the dictionary prefix it covers; postings list the
// cells they cover by code (checkPostings).
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
	checkPostings(t, where, v)
}

// checkPostings verifies a column's postings, if it has any: under each
// code the ascending offsets of exactly the cells of codes[:len(post.rows)]
// that hold it, and the size of the dictionary's strings.
func checkPostings(t *testing.T, where string, v *colVec) {
	t.Helper()
	if v.post == nil {
		return
	}
	p := v.post
	strs := int64(0)
	for _, w := range v.dict {
		strs += int64(len(w))
	}
	if p.strs != strs {
		t.Fatalf("%s: postings price the dictionary's strings at %d bytes, they hold %d", where, p.strs, strs)
	}
	if len(p.rows) > len(v.codes) || len(p.at) < 2 || len(p.at) > len(v.dict)+2 ||
		p.at[0] != 0 || int(p.at[len(p.at)-1]) != len(p.rows) {
		t.Fatalf("%s: postings of %d rows over %d offsets for %d cells and %d strings", where, len(p.rows), len(p.at), len(v.codes), len(v.dict))
	}
	for c := 0; c+1 < len(p.at); c++ {
		rows := p.rows[p.at[c]:p.at[c+1]]
		for i, r := range rows {
			if int(v.codes[r]) != c || i > 0 && rows[i-1] >= r {
				t.Fatalf("%s: postings of code %d list row %d (code %d) at %d", where, c, r, v.codes[r], i)
			}
		}
	}
}

// TestSegmentChurnKeepsMergeBound: 10 000 steps that delete a few random
// rows and insert as many, |D| constant. Old segments thin out while the
// tail fills, so without merging their number would grow with the steps;
// after every step the segment table has its shape — the bound included
// — and every hundredth step the stored rows are the live ones, in the
// order they were inserted.
func TestSegmentChurnKeepsMergeBound(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(173))
	db := NewDB()
	mustExec(t, db, `CREATE TABLE ch (id INTEGER, v INTEGER)`)
	ins, err := db.Prepare(`INSERT INTO ch VALUES (?, ?)`)
	if err != nil {
		t.Fatal(err)
	}
	del, err := db.Prepare(`DELETE FROM ch WHERE id = ?`)
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
			var mirror []relation.Tuple // ids ascend in insertion order
			for _, id := range slices.Sorted(slices.Values(live)) {
				mirror = append(mirror, relation.Tuple{relation.Int(id), relation.Int(id % 13)})
			}
			checkSegments(t, fmt.Sprintf("step %d", step), tbl, td, mirror)
		}
		most = max(most, len(td.segs))
	}
	t.Logf("at most %d segments for 5000 rows over 10 000 steps", most)
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
	// The macro's shape: its DISTINCT pre-filter reads the codes of the
	// run its batch level filters, and keeps a memo of them.
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
	// The idle instance of the DISTINCT query keeps its memo.
	memos := 0
	for _, sch := range idle(qd) {
		if sch.state.memo != nil {
			memos++
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
	if len(old) != 5 || len(cur) != 4 || &cur[0].cols[0] != &old[0].cols[0] || &cur[2].cols[0] != &old[2].cols[0] {
		t.Fatalf("%d segments became %d: the DELETE did not merge the thinned one into the tail", len(old), len(cur))
	}
	shared := map[unsafe.Pointer]bool{}
	for _, sg := range cur {
		for ci := range sg.cols {
			for _, a := range columnArrays(&sg.cols[ci], "") {
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
		runtime.SetFinalizer(&sg.cols[0], func(*colVec) { collected <- what })
		for ci := range sg.cols {
			for _, a := range columnArrays(&sg.cols[ci], fmt.Sprintf("segment %d's column %d", si, ci)) {
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
	for _, kind := range []string{"words", "codes", "dictionary", "permutation"} {
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

// columnArrays lists the backing arrays of a built column — its words and
// NULL mask or its codes, dictionary and permutation — named after what.
func columnArrays(v *colVec, what string) []colArray {
	var out []colArray
	add := func(kind string, n int, p unsafe.Pointer, fin func(fire func())) {
		if n > 0 {
			out = append(out, colArray{what + " " + kind, p, fin})
		}
	}
	add("words", cap(v.words), unsafe.Pointer(unsafe.SliceData(v.words)), func(fire func()) { finalizeFirst(v.words, fire) })
	add("nulls", cap(v.nulls), unsafe.Pointer(unsafe.SliceData(v.nulls)), func(fire func()) { finalizeFirst(v.nulls, fire) })
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
// them into, whole and range-pruned.
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
	mustExec(t, db, `DELETE FROM o WHERE `+residues("k", 3, 0, 4000)+` AND v < 300 AND f = 1`)
	mustExec(t, db, `INSERT INTO o VALUES (4000, 7, 1), (4001, 8, 0)`)
	tbl := mustTable(t, db, "o")
	if td := db.cur.Load().tds[tbl]; len(td.segs) < 3 {
		t.Fatalf("%d segments, want at least 3", len(td.segs))
	}
	for _, q := range []string{
		`SELECT k, v FROM o WHERE f <> 1 AND v >= 100 ORDER BY k`,
		`SELECT k, v FROM o WHERE f = 2 AND (v < 50 OR v > 450 OR ` + residues("k", 7, 0, 4000) + `) ORDER BY k`,
		`SELECT k FROM o WHERE k > 1000 AND k <= 3000 AND v <> 3 ORDER BY k LIMIT 700`,
	} {
		plan, err := db.Explain(q)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(plan, "[batch:") || !strings.Contains(plan, "served by index") {
			t.Fatalf("%s\nis not a batch level served by the index:\n%s", q, plan)
		}
		got, want := flat(queryIn(t, db, Planned, q)), flat(queryIn(t, db, Reference, q))
		if got != want {
			t.Errorf("%s\nPlanned and Reference sequences differ:\n%.300s\n%.300s", q, got, want)
		}
		if len(got) < 1000 {
			t.Errorf("%s\nreturned next to nothing: %q", q, got)
		}
	}
	checkSegments(t, "after the ordered scans", tbl, db.cur.Load().tds[tbl], nil)
}

// TestSnapshotStabilityTailFence: readers pinned to an epoch whose tail
// segment is half full scan it while a writer appends into that same
// segment's vectors — one of them coded, whose dictionary grows with its
// codes — seals it (a sorted dictionary, postings) and starts the next,
// and reads in between. The pinned readers must keep seeing exactly their
// own rows, and both epochs hold what was inserted.
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
	snap := db.PinSnapshot()
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
	rows := func(n int) (out []relation.Tuple) {
		for id := range n {
			out = append(out, relation.Tuple{relation.Int(int64(id)), relation.Int(int64(id % 5)), relation.Text(fmt.Sprintf("t%d", id%97))})
		}
		return out
	}
	checkSegments(t, "pinned epoch", tbl, snap.ep.tds[tbl], rows(pinned))
	checkSegments(t, "published epoch", tbl, db.cur.Load().tds[tbl], rows(nextID))
}

// TestSegmentForksShareUntouched states copy-on-write at its grain: an
// INSERT shares every segment and adds to the tail, an UPDATE and a
// DELETE replace the segments holding a position they touch and share
// all the others — behind a DELETE at their shifted starts — and the
// SegCellsCopied they report is what the replaced segments copy: the
// assigned columns of an UPDATE's, every column of a DELETE's, but none
// where the rows left are one run of the segment's — the oldest or the
// newest deleted — which the new entry cuts from the old vectors.
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
	tbl := mustTable(t, db, "f")
	// fork runs one statement and returns which of the old epoch's
	// segments the new one still lists, and the segment cells it copied.
	fork := func(q string) (shared []bool, copied int64) {
		t.Helper()
		old, before := db.cur.Load().tds[tbl], db.Stats().SegCellsCopied
		mustExec(t, db, q)
		td := db.cur.Load().tds[tbl]
		checkSegments(t, q, tbl, td, nil)
		shared = make([]bool, len(old.segs))
		for i, o := range old.segs {
			for _, n := range td.segs {
				shared[i] = shared[i] || &n.cols[0] == &o.cols[0]
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
	q = fmt.Sprintf(`DELETE FROM f WHERE k >= %d AND k < %d`, 2*segRows-3, 2*segRows+4) // the end of one, the start of the next: cut
	shared, copied = fork(q)
	want(q, shared, copied, []int{1, 2}, 0)
	q = fmt.Sprintf(`DELETE FROM f WHERE k >= %d AND k < %d`, 10, 20) // inside one: compacted
	shared, copied = fork(q)
	want(q, shared, copied, []int{0}, 2*(segRows-10))
	q = fmt.Sprintf(`DELETE FROM f WHERE k >= %d AND k < %d`, 3*segRows, 4*segRows) // a whole segment: dropped, nothing copied
	shared, copied = fork(q)
	want(q, shared, copied, []int{3}, 0)
	q = `DELETE FROM f WHERE k < 0` // the tail's two rows: dropped too
	shared, copied = fork(q)
	want(q, shared, copied, []int{4}, 0)
}

// TestSegmentMergeCompactsColumns: a DELETE that leaves two neighbours
// fitting in one segment — a full one thinned out and the tail — merges
// them into one, its columns the survivors of both, in order, the first
// part's dictionary kept and the second's strings added to it; the merged
// segment is the new tail and is not sealed, and the epoch pinned before
// the DELETE still holds both segments as they were.
func TestSegmentMergeCompactsColumns(t *testing.T) {
	db := NewDB()
	mustExec(t, db, `CREATE TABLE m (k INTEGER, v INTEGER, s TEXT)`)
	mustExec(t, db, `CREATE INDEX idx_m_k ON m (k)`)
	var mirror []relation.Tuple
	insert := func(n int) {
		rows := make([]string, n)
		for i := range rows {
			k := len(mirror)
			mirror = append(mirror, relation.Tuple{relation.Int(int64(k)), relation.Int(int64(k % 5)), relation.Text(fmt.Sprintf("s%d", k%37))})
			rows[i] = fmt.Sprintf("(%d, %d, 's%d')", k, k%5, k%37)
		}
		mustExec(t, db, `INSERT INTO m VALUES `+strings.Join(rows, ", "))
	}
	insert(600)
	insert(424) // fills the first segment, which is sealed
	insert(600)
	tbl := mustTable(t, db, "m")
	snap := db.PinSnapshot()
	defer snap.Close()
	before := slices.Clone(mirror)
	checkSegments(t, "before the merge", tbl, snap.ep.tds[tbl], before)
	if n := len(snap.ep.tds[tbl].segs); n != 2 {
		t.Fatalf("%d segments before the merge, want 2", n)
	}

	mustExec(t, db, `DELETE FROM m WHERE k >= 300 AND k < 1000`) // 324 + 600 rows left: one segment
	mirror = slices.DeleteFunc(slices.Clone(mirror), func(r relation.Tuple) bool { return r[0].I >= 300 && r[0].I < 1000 })
	td := db.cur.Load().tds[tbl]
	checkSegments(t, "after the merge", tbl, td, mirror)
	if len(td.segs) != 1 || td.segs[0].n != 924 {
		t.Fatalf("%d segments after the merge, want one of 924 rows", len(td.segs))
	}
	if s := &td.segs[0].cols[2]; s.post != nil || len(s.dict) != 37 {
		t.Fatalf("the merged tail has postings (%v) or %d strings, want none and 37", s.post != nil, len(s.dict))
	}
	checkSegments(t, "pinned before the merge", tbl, snap.ep.tds[tbl], before)
	if n := len(mustQuery(t, db, `SELECT k FROM m WHERE k >= 1000 AND v >= 0`).Rows); n != 624 {
		t.Fatalf("range scan after the merge returned %d rows, want 624", n)
	}
}

// TestTailSealBesidePinnedReaders: readers pinned at three fences inside
// one tail segment — a quarter, half and three quarters full — scan it,
// by a kernel over its codes and a decorrelated probe decoding them, while
// the writer appends into the same vectors row by row, seals the segment
// once it is full (a sorted dictionary of more than dictScanMax strings,
// postings) and starts the next. Each pinned reader keeps its answer;
// afterwards each pinned epoch still holds its own rows, its view of the
// former tail as unsealed as when it was pinned, while the published
// epoch's copy is sealed over all segRows rows. Part of `make
// mvccstress`, under -race.
func TestTailSealBesidePinnedReaders(t *testing.T) {
	db := NewDB()
	mustExec(t, db, `CREATE TABLE tl (id INTEGER, tag TEXT)`)
	mustExec(t, db, `CREATE TABLE ts (tag TEXT)`)
	mustExec(t, db, `INSERT INTO ts VALUES ('t3'), ('t40'), ('t77')`)
	ins, err := db.Prepare(`INSERT INTO tl VALUES (?, ?)`)
	if err != nil {
		t.Fatal(err)
	}
	row := func(id int) relation.Tuple {
		return relation.Tuple{relation.Int(int64(id)), relation.Text(fmt.Sprintf("t%d", id*7%97))}
	}
	var mirror []relation.Tuple
	insert := func() {
		r := row(len(mirror))
		if _, err := ins.Exec(r...); err != nil {
			t.Fatal(err)
		}
		mirror = append(mirror, r)
	}
	queries := []string{
		`SELECT COUNT(*), SUM(id) FROM tl WHERE tag <> 't5' AND id >= 0`,
		`SELECT COUNT(*), SUM(id) FROM tl WHERE EXISTS (SELECT 1 FROM ts WHERE ts.tag = tl.tag)`,
	}
	prepared := make([]*Prepared, len(queries))
	for i, q := range queries {
		if prepared[i], err = db.Prepare(q); err != nil {
			t.Fatal(err)
		}
	}
	type pin struct {
		snap *Snap
		rows []relation.Tuple
		want []string
	}
	var pins []pin
	defer func() {
		for _, p := range pins {
			p.snap.Close()
		}
	}()
	for _, fence := range []int{segRows / 4, segRows / 2, 3 * segRows / 4} {
		for len(mirror) < fence {
			insert()
		}
		p := pin{snap: db.PinSnapshot(), rows: mirror}
		for _, q := range queries {
			p.want = append(p.want, flat(queryIn(t, db, Reference, q)))
		}
		pins = append(pins, p)
	}
	var wg sync.WaitGroup
	errs := make(chan error, len(pins))
	stop := make(chan struct{})
	for _, p := range pins {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; ; n++ {
				for i, pq := range prepared {
					res, err := pq.QueryAt(p.snap)
					if err == nil && flat(res) != p.want[i] {
						err = fmt.Errorf("reader pinned at %d rows, read %d: %s\nanswers %s, want %s", len(p.rows), n, queries[i], flat(res), p.want[i])
					}
					if err != nil {
						errs <- err
						return
					}
				}
				select {
				case <-stop:
					return
				default:
				}
			}
		}()
	}
	for len(mirror) < 2*segRows+segRows/4 { // fills the pinned tail, seals it, fills the next
		insert()
		if len(mirror)%64 == 0 {
			mustQuery(t, db, queries[1])
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	tbl := mustTable(t, db, "tl")
	td := db.cur.Load().tds[tbl]
	checkSegments(t, "published epoch", tbl, td, mirror)
	if v := &td.segs[0].cols[1]; len(v.dict) <= dictScanMax || len(v.perm) != len(v.dict) || v.post == nil || len(v.post.rows) != segRows {
		t.Fatalf("the former tail is not sealed: %d strings, %d sorted, postings %v", len(v.dict), len(v.perm), v.post != nil)
	}
	for _, p := range pins {
		what := fmt.Sprintf("epoch pinned at %d rows", len(p.rows))
		ptd := p.snap.ep.tds[tbl]
		checkSegments(t, what, tbl, ptd, p.rows)
		if v := &ptd.segs[0].cols[1]; len(ptd.segs) != 1 || v.post != nil {
			t.Fatalf("%s: %d segments, postings %v: the writer's seal reached it", what, len(ptd.segs), v.post != nil)
		}
	}
}
