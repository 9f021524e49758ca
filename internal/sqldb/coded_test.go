package sqldb

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"ecfd/internal/gen"
	"ecfd/internal/relation"
)

// Tests of the dictionary-coded TEXT columns of the column cache: that
// every consumer of a coded segment answers what the nested loop over
// the rows answers, that churn keeps dictionaries bounded, and what a
// coded cell costs.

// TestCodedTextDifferential compares Planned with Reference over a TEXT
// column whose segments take every representation the cache has: one
// full segment whose UPDATE took its dictionary past 1024 strings, one
// holding the text of integers LoadRelation coerced, one a
// DELETE compacted, one a DELETE merged with its neighbour, sealed ones
// with sorted dictionaries, and a tail that grows between the checks.
// The cells are NULL, '\N' — what COALESCE(TOTEXT(a), '\N') makes of
// NULL — '@', the empty string, multi-byte strings and heavy duplicates.
// Every kernel op runs with its negation, and value sets of 1, 4, 5, 24
// and 256 members decide a probe through the '@'-blanking CASE over
// COALESCE and through the plain column, under EXISTS and NOT EXISTS,
// over whole segments, behind a kernel that leaves part of one, and in
// the order of an index that starts and ends every scan in the same
// segment, so one entry's last run and the next entry's first share
// their codes. After every step — a DELETE's rebuilt segments, an
// UPDATE's forked column, a second UPDATE that re-codes a dictionary
// (dictBounded) — the sealed segments' postings must be rebuilt and list
// their codes exactly (checkPostings), the EXISTS probes must decide
// whole runs from them (Stats.PostingRows) and NOT EXISTS never. Treating the NULL code as a
// non-member, keeping one run's mask for the next or one entry's for the
// next, or keeping postings across a fork that rewrote the codes, fails
// it. Part of `make difffuzz`.
func TestCodedTextDifferential(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(diffSeed(t, 181)))
	common := []relation.Value{relation.Null(), relation.Text(`\N`), relation.Text("@"), relation.Text(""),
		relation.Text("ü"), relation.Text("日本"), relation.Text("x"), relation.Text("y"), relation.Text("1")}
	cell := func(rid int) relation.Value {
		switch {
		case rid < segRows:
			return relation.Text(fmt.Sprintf("d%d", rid)) // 1024 distinct
		case rid >= 3*segRows && rid < 4*segRows && rid%9 == 0:
			return relation.Int(int64(rid % 4)) // planted: LoadRelation stores its text
		case rng.Intn(3) == 0:
			return relation.Text(fmt.Sprintf("z%d", rng.Intn(40)))
		}
		return common[rng.Intn(len(common))]
	}
	schema, err := relation.NewSchema("cd",
		relation.Attribute{Name: "rid", Kind: relation.KindInt},
		relation.Attribute{Name: "a", Kind: relation.KindText},
		relation.Attribute{Name: "k", Kind: relation.KindInt})
	if err != nil {
		t.Fatal(err)
	}
	// k orders the rows by rid, except that the first half segment comes
	// last: an index on it starts and ends every scan in segment 0.
	key := func(rid int) relation.Value {
		if rid < segRows/2 {
			return relation.Int(int64(rid + 1_000_000))
		}
		return relation.Int(int64(rid))
	}
	data := relation.New(schema)
	const n = 6 * segRows
	for rid := 0; rid < n; rid++ {
		data.Rows = append(data.Rows, relation.Tuple{relation.Int(int64(rid)), cell(rid), key(rid)})
	}
	db := NewDB()
	if err := db.LoadRelation(data); err != nil {
		t.Fatal(err)
	}
	planted := 3*segRows + 6 // rid%9 == 0
	if got := mustQuery(t, db, `SELECT a FROM cd WHERE rid = ?`, relation.Int(int64(planted))).Rows[0][0]; got != relation.Text(fmt.Sprint(planted%4)) {
		t.Fatalf("LoadRelation stored planted INTEGER %d as %s %v, want its TEXT", planted%4, got.K, got)
	}
	nextRID := n
	insert := func(k int) {
		for ; k > 0; k-- {
			mustExec(t, db, `INSERT INTO cd VALUES (?, ?, ?)`, relation.Int(int64(nextRID)), cell(nextRID), key(nextRID))
			nextRID++
		}
	}

	// The value sets: member lists of five sizes on a (g, val) index, so
	// the 256 are narrowed by the entry's g; with '\N' in two of them.
	pool := []string{`\N`, "@", "", "ü", "日本", "x", "y", "1", "0", "absent"}
	for i := 0; i < 40; i++ {
		pool = append(pool, fmt.Sprintf("z%d", i))
	}
	for i := 0; i < 400; i++ {
		pool = append(pool, fmt.Sprintf("d%d", rng.Intn(segRows)), fmt.Sprintf("%d", 100_000+rng.Intn(segRows)))
	}
	mustExec(t, db, `CREATE TABLE vs (g INTEGER, val TEXT)`)
	mustExec(t, db, `CREATE INDEX idx_vs ON vs (g, val)`)
	mustExec(t, db, `CREATE INDEX idx_cd_k ON cd (k)`)
	mustExec(t, db, `CREATE TABLE cp (cid INTEGER, la INTEGER)`)
	for g, size := range []int{1, 4, 5, 24, 256} {
		mustExec(t, db, `INSERT INTO cp VALUES (?, 1)`, relation.Int(int64(g)))
		members := map[string]bool{}
		if g == 1 || g == 3 {
			members[`\N`] = true
		}
		for len(members) < size {
			members[pool[rng.Intn(len(pool))]] = true
		}
		for m := range members {
			mustExec(t, db, `INSERT INTO vs VALUES (?, ?)`, relation.Int(int64(g)), relation.Text(m))
		}
	}
	mustExec(t, db, `INSERT INTO cp VALUES (5, 0)`) // blanked: every row probes '@'

	lit := func() string {
		switch v := cell(rng.Intn(n)); {
		case v.IsNull():
			return "'@'"
		case rng.Intn(8) == 0:
			return fmt.Sprint(rng.Intn(3)) // a number against text and planted integers
		default:
			return v.SQL()
		}
	}
	lits := func(k int) string {
		out := make([]string, k)
		for i := range out {
			out[i] = lit()
		}
		return strings.Join(out, ", ")
	}
	kernels := func() []string {
		var out []string
		for _, op := range [][2]string{{"=", "<>"}, {"<", ">="}, {">", "<="}} {
			l := lit()
			out = append(out, "a "+op[0]+" "+l, "a "+op[1]+" "+l)
		}
		lo, hi := lit(), lit()
		out = append(out, fmt.Sprintf("a BETWEEN %s AND %s", lo, hi), fmt.Sprintf("a NOT BETWEEN %s AND %s", lo, hi))
		short, long := lits(3), lits(9) // an Equal scan, a hashed set
		out = append(out, "a IN ("+short+")", "a NOT IN ("+short+")", "a IN ("+long+")", "a NOT IN ("+long+")",
			"a IS NULL", "a IS NOT NULL")
		return out
	}
	blank := `CASE WHEN c.la > 0 THEN COALESCE(TOTEXT(t.a), '\N') ELSE '@' END`
	probes := []string{
		`SELECT t.rid, c.cid FROM cp c, cd t WHERE EXISTS (SELECT 1 FROM vs WHERE vs.g = c.cid AND vs.val = ` + blank + `)`,
		`SELECT t.rid, c.cid FROM cp c, cd t WHERE NOT EXISTS (SELECT 1 FROM vs WHERE vs.g = c.cid AND vs.val = ` + blank + `)`,
		`SELECT t.rid, c.cid FROM cp c, cd t WHERE EXISTS (SELECT 1 FROM vs WHERE vs.g = c.cid AND vs.val = t.a)`,
		`SELECT t.rid, c.cid FROM cp c, cd t WHERE t.rid >= ? AND EXISTS (SELECT 1 FROM vs WHERE vs.g = c.cid AND vs.val = ` + blank + `)`,
		`SELECT t.rid, c.cid FROM cp c, cd t WHERE t.k >= 0 AND EXISTS (SELECT 1 FROM vs WHERE vs.g = c.cid AND vs.val = ` + blank + `)`,
	}
	if plan, err := db.Explain(probes[4]); err != nil || !strings.Contains(plan, "range scan t via idx_cd_k") {
		t.Fatalf("the k range is not an index scan: %v\n%s", err, plan)
	}
	tbl := mustTable(t, db, "cd")
	// The probes re-run their subquery per pair under Reference, 10 M rows a
	// query here: it checks them once, at the end; the steps before compare
	// with RowAtATime, whose closures read a cell at a time and probe a
	// hash build — no kernel, value set or postings.
	check := func(step string, oracle Mode) {
		t.Helper()
		for _, pred := range kernels() {
			for _, q := range []string{"SELECT rid FROM cd WHERE " + pred,
				fmt.Sprintf("SELECT rid FROM cd WHERE rid >= %d AND %s", rng.Intn(nextRID), pred)} {
				if got, want := canonical(queryIn(t, db, Planned, q)), canonical(queryIn(t, db, Reference, q)); got != want {
					t.Fatalf("%s: %s\nPlanned   %.300s\nReference %.300s", step, q, got, want)
				}
			}
		}
		lo := relation.Int(int64(segRows/2 + rng.Intn(segRows)))
		posted := int64(0)
		for pi, q := range probes {
			var params []relation.Value
			if pi == 3 {
				params = append(params, lo)
			}
			before := db.Stats()
			got := canonical(queryIn(t, db, Planned, q, params...))
			st := db.Stats()
			if pi != 3 && st.SetRows-before.SetRows < int64(n) || st.TextLookups-before.TextLookups > (st.SetRows-before.SetRows)/4 {
				t.Fatalf("%s: %s\ndecided %d rows by value sets with %d text lookups", step, q,
					st.SetRows-before.SetRows, st.TextLookups-before.TextLookups)
			}
			if p := st.PostingRows - before.PostingRows; pi == 1 && p != 0 {
				t.Fatalf("%s: %s\nNOT EXISTS decided %d rows from postings", step, q, p)
			} else {
				posted += p
			}
			if want := canonical(queryIn(t, db, oracle, q, params...)); got != want {
				t.Fatalf("%s: %s %v\nPlanned   %.300s\nmode %d    %.300s", step, q, params, got, oracle, want)
			}
		}
		if posted == 0 {
			t.Fatalf("%s: no value set decided a run from postings", step)
		}
		td := db.cur.Load().tds[tbl]
		checkSegments(t, step, tbl, td, nil)
		for si, sg := range td.segs[:len(td.segs)-1] {
			if v := sg.cols[1]; v.post == nil || len(v.post.rows) != len(v.codes) {
				t.Fatalf("%s: sealed segment %d has no postings of its %d cells", step, si, len(v.codes))
			}
		}
	}
	check("loaded", RowAtATime)
	mustExec(t, db, fmt.Sprintf(`UPDATE cd SET a = TOTEXT(rid + 100000) WHERE rid < %d AND rid %% 5 <> 0`, segRows))
	if v := db.cur.Load().tds[tbl].segs[0].cols[1]; len(v.dict) <= segRows || v.codes == nil {
		t.Fatalf("after the UPDATE the first segment's dictionary holds %d strings", len(v.dict))
	}
	insert(50)
	check("updated", RowAtATime)
	mustExec(t, db, fmt.Sprintf(`UPDATE cd SET a = TOTEXT(rid + 200000) WHERE rid < %d AND rid %% 5 <> 0`, segRows))
	if v := db.cur.Load().tds[tbl].segs[0].cols[1]; len(v.dict) > segRows {
		t.Fatalf("after the second UPDATE the first segment's dictionary holds %d strings: not re-coded", len(v.dict))
	}
	check("re-coded", RowAtATime)
	mustExec(t, db, `DELETE FROM cd WHERE rid >= ? AND rid < ?`, relation.Int(segRows+100), relation.Int(segRows+300))
	mustExec(t, db, `DELETE FROM cd WHERE rid >= ? AND rid < ?`, relation.Int(2*segRows-40), relation.Int(3*segRows-60))
	insert(300)
	check("compacted and merged", RowAtATime)
	mustExec(t, db, `UPDATE cd SET a = 'ü' WHERE rid >= ? AND rid < ?`, relation.Int(2*segRows-100), relation.Int(3*segRows))
	insert(segRows - 200)
	check("sealed a tail", Reference)
	td := db.cur.Load().tds[tbl]
	checkSegments(t, "the end", tbl, td, nil)
	var coded, plain int
	for _, sg := range td.segs {
		if v := sg.cols[1]; v.codes != nil {
			coded++
		} else if v.vals != nil {
			plain++
		}
	}
	if coded < 4 || plain != 0 {
		t.Fatalf("%d coded and %d plain segments of a, want every one coded", coded, plain)
	}
}

// TestCodedPreDedupDifferential compares Planned with Reference on the
// Qmv macro's shape: SELECT DISTINCT of '@'-blanking CASEs over a data and
// a pattern table, bare and streamed into GROUP BY … HAVING COUNT(*) > 1,
// whose DISTINCT pre-filter reads the column cache and decides repeats by
// a per-run memo of segment codes (projSpec.preDedup). The data carries
// NULL beside the string COALESCE turns it into, heavy duplicates over
// many segments, integers LoadRelation coerces into a TEXT column, a
// DELETE-compacted, a merged and an updated segment beside a growing
// tail. Patterns activate none to all six columns, more than the memo
// packs; one variant keys on an INTEGER column beside TEXT ones, which
// has no codes for the memo to pack. The data table is scanned whole; in the order of an index on a
// permuted key, which cuts runs of one row; and, as a table of a few rows,
// outside the pattern loop, so the site row changes inside one run. A
// correlated subquery re-runs the macro for the same pattern twice in one
// statement. A memo not emptied on a site or a run change fails it. Part
// of `make difffuzz`.
func TestCodedPreDedupDifferential(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(diffSeed(t, 211)))
	cols := []string{"a", "b", "c", "d", "e", "f"}
	pools := [][]relation.Value{
		{relation.Null(), relation.Text("@NULL@"), relation.Text("1"), relation.Text("x")},
		{relation.Null(), relation.Text("@"), relation.Text(""), relation.Text("ü"), relation.Text("y")},
		nil, // 40 strings
		{relation.Text("p"), relation.Text("q")},
		{relation.Null(), relation.Text("@NULL@"), relation.Text("日本"), relation.Text("r"), relation.Text("s")},
		nil, // 3000 strings
	}
	cell := func(ci int) relation.Value {
		switch ci {
		case 2:
			return relation.Text(fmt.Sprintf("c%d", rng.Intn(40)))
		case 5:
			return relation.Text(fmt.Sprintf("f%d", rng.Intn(3000)))
		}
		return pools[ci][rng.Intn(len(pools[ci]))]
	}
	attrs := []relation.Attribute{{Name: "rid", Kind: relation.KindInt}, {Name: "pk", Kind: relation.KindInt}, {Name: "flag", Kind: relation.KindInt}}
	for _, c := range cols {
		attrs = append(attrs, relation.Attribute{Name: c, Kind: relation.KindText})
	}
	schema, err := relation.NewSchema("pt", attrs...)
	if err != nil {
		t.Fatal(err)
	}
	const n = 6 * segRows
	perm := rng.Perm(4 * n)
	row := func(rid int) relation.Tuple {
		r := relation.Tuple{relation.Int(int64(rid)), relation.Int(int64(perm[rid])), relation.Int(int64(rng.Intn(4) - 1))}
		for ci := range cols {
			r = append(r, cell(ci))
		}
		if rid >= 3*segRows && rid < 4*segRows && rid%7 == 0 {
			r[3] = relation.Int(int64(rid % 3)) // planted: stored as the text "1" beside a's own "1"
		}
		return r
	}
	data := relation.New(schema)
	for rid := 0; rid < n; rid++ {
		data.Rows = append(data.Rows, row(rid))
	}
	db := NewDB()
	if err := db.LoadRelation(data); err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, `CREATE INDEX idx_pt_pk ON pt (pk)`)
	nextRID := n
	values := func(r relation.Tuple) string {
		vs := make([]string, len(r))
		for i, v := range r {
			vs[i] = v.SQL()
		}
		return "(" + strings.Join(vs, ", ") + ")"
	}
	insert := func(table string, k int) {
		for ; k > 0; k-- {
			mustExec(t, db, `INSERT INTO `+table+` VALUES `+values(row(nextRID)))
			nextRID++
		}
	}
	mustExec(t, db, `CREATE TABLE pq (rid INTEGER, pk INTEGER, flag INTEGER, a TEXT, b TEXT, c TEXT, d TEXT, e TEXT, f TEXT)`)
	insert("pq", 60) // fewer than reorderMinRows: it drives pc

	mustExec(t, db, `CREATE TABLE pc (cid INTEGER, la INTEGER, lb INTEGER, lc INTEGER, ld INTEGER, le INTEGER, lf INTEGER)`)
	for cid, on := range []string{"", "a", "bc", "d", "adef", "abcde", "abcdef", "f", "ae", "bd"} {
		flags := []string{fmt.Sprint(cid)}
		for _, c := range cols {
			flags = append(flags, fmt.Sprint(strings.Count(on, c)))
		}
		mustExec(t, db, `INSERT INTO pc VALUES (`+strings.Join(flags, ", ")+`)`)
	}
	mustExec(t, db, `CREATE TABLE pr (k INTEGER)`)
	for _, k := range []int{2, 2, 4, 5, 5, 9} {
		mustExec(t, db, `INSERT INTO pr VALUES (?)`, relation.Int(int64(k)))
	}

	macro := func(data, where string) string {
		outs := []string{"c.cid"}
		for _, c := range cols {
			outs = append(outs, fmt.Sprintf("CASE WHEN c.l%s > 0 THEN COALESCE(TOTEXT(t.%s), '@NULL@') ELSE '@' END AS p%s", c, c, c))
		}
		return "SELECT DISTINCT " + strings.Join(outs, ", ") + " FROM " + data + " t, pc c WHERE " + where
	}
	grouped := func(m string) string {
		return "SELECT m.cid, m.pa, m.pb FROM (" + m + ") m GROUP BY m.cid, m.pa, m.pb HAVING COUNT(*) > 1"
	}
	ranged := macro("pt", "t.pk >= ? AND t.flag >= 0")
	if plan, err := db.Explain(ranged); err != nil || !strings.Contains(plan, "range scan t via idx_pt_pk") || !strings.Contains(plan, "kernel filter") {
		t.Fatalf("the permuted key's range is not a batch level: %v\n%s", err, plan)
	}
	if plan, err := db.Explain(macro("pq", "t.flag >= 0")); err != nil || !strings.Contains(plan, "scan t (60 rows) [batch") ||
		strings.Index(plan, "scan t (") > strings.Index(plan, "scan c (") {
		t.Fatalf("the small table is not a batch level outside the pattern loop: %v\n%s", err, plan)
	}
	check := func(step string) {
		t.Helper()
		lo := relation.Int(int64(rng.Intn(4 * n)))
		repeats := db.Stats().CodeRepeats
		for _, q := range []struct {
			sql    string
			params []relation.Value
		}{
			{macro("pt", "t.flag >= 0"), nil},
			{grouped(macro("pt", "t.flag >= 0")), nil},
			{ranged, []relation.Value{lo}},
			{grouped(ranged), []relation.Value{lo}},
			{macro("pq", "t.flag >= 0"), nil},
			{grouped(macro("pq", "t.flag >= 0")), nil},
			{"SELECT o.k, (SELECT COUNT(*) FROM (" + macro("pt", "t.flag >= 0 AND c.cid = o.k") + ") m) FROM pr o", nil},
			{strings.Replace(macro("pt", "t.flag >= 0"), "TOTEXT(t.c)", "TOTEXT(t.flag)", 1), nil}, // an uncoded column in the key
		} {
			got, want := canonical(queryIn(t, db, Planned, q.sql, q.params...)), canonical(queryIn(t, db, Reference, q.sql, q.params...))
			if got != want {
				t.Fatalf("%s: %s %v\nPlanned   %.300s\nReference %.300s", step, q.sql, q.params, got, want)
			}
		}
		if db.Stats().CodeRepeats == repeats {
			t.Fatalf("%s: no repeat decided by code", step)
		}
	}
	check("loaded")
	mustExec(t, db, `UPDATE pt SET b = TOTEXT(rid), e = NULL WHERE rid >= ? AND rid < ?`, relation.Int(segRows+5), relation.Int(segRows+400))
	insert("pt", 70)
	check("updated")
	mustExec(t, db, `DELETE FROM pt WHERE rid >= ? AND rid < ?`, relation.Int(100), relation.Int(300))
	mustExec(t, db, `DELETE FROM pt WHERE rid >= ? AND rid < ?`, relation.Int(4*segRows-40), relation.Int(5*segRows-60))
	insert("pt", 300)
	check("compacted and merged")
	insert("pt", segRows-200)
	check("sealed a tail")
	tbl := mustTable(t, db, "pt")
	checkSegments(t, "the end", tbl, db.cur.Load().tds[tbl], nil)
}

// TestSegmentDictionaryBoundUnderChurn: 10 000 steps that UPDATE a few
// rows of a TEXT column to strings never seen before, or DELETE a few —
// now and then a run of 60 — and INSERT as many. Forks keep their
// dictionaries — an UPDATE appends, a DELETE compacts the codes only —
// so without re-coding a segment's dictionary would grow with the steps;
// every column keeps at most twice as many strings as its segment has
// rows, and the segments still hold the rows a mirror the test keeps
// does.
func TestSegmentDictionaryBoundUnderChurn(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(191))
	db := NewDB()
	mustExec(t, db, `CREATE TABLE dc (id INTEGER, s TEXT)`)
	nextID := 0
	var mirror []relation.Tuple
	insert := func(k int) {
		for ; k > 0; k-- {
			row := relation.Tuple{relation.Int(int64(nextID)), relation.Text(fmt.Sprintf("s%d", nextID%50))}
			mustExec(t, db, `INSERT INTO dc VALUES (?, ?)`, row[0], row[1])
			mirror = append(mirror, row)
			nextID++
		}
	}
	in := func(lo, w int64) func(relation.Tuple) bool {
		return func(r relation.Tuple) bool { return r[0].I >= lo && r[0].I < lo+w }
	}
	insert(3000)
	tbl := mustTable(t, db, "dc")
	most := 0.0
	for step := 0; step < 10_000; step++ {
		lo := relation.Int(int64(rng.Intn(nextID)))
		if rng.Intn(2) == 0 {
			u := relation.Text(fmt.Sprintf("u%d", step))
			mustExec(t, db, `UPDATE dc SET s = ? WHERE id >= ? AND id < ? + 4`, u, lo, lo)
			mirror = slices.Clone(mirror)
			for i, r := range mirror {
				if in(lo.I, 4)(r) {
					mirror[i] = relation.Tuple{r[0], u}
				}
			}
		} else {
			w := relation.Int(int64(3 + 57*(rng.Intn(10)/9)))
			k := len(mustQuery(t, db, `SELECT id FROM dc WHERE id >= ? AND id < ? + ?`, lo, lo, w).Rows)
			mustExec(t, db, `DELETE FROM dc WHERE id >= ? AND id < ? + ?`, lo, lo, w)
			mirror = slices.DeleteFunc(mirror, in(lo.I, w.I))
			insert(k)
		}
		mustQuery(t, db, `SELECT id FROM dc WHERE s <> '-'`)
		td := db.cur.Load().tds[tbl]
		for si, sg := range td.segs {
			_, m := td.span(si)
			if v := sg.cols[1]; len(v.dict) > 2*m {
				t.Fatalf("step %d: segment %d holds %d strings for %d rows", step, si, len(v.dict), m)
			} else {
				most = max(most, float64(len(v.dict))/float64(m))
			}
		}
		if step%500 == 499 {
			checkSegments(t, fmt.Sprintf("step %d", step), tbl, td, mirror)
		}
	}
	t.Logf("at most %.2f dictionary strings per row of a segment over 10 000 steps", most)
}

// TestColumnCacheBytesPerCell: built over 40 000 gen rows, the TEXT
// columns of the column cache cost at most 12 bytes a cell on average —
// a 2-byte code and its 2-byte posting plus a share of the dictionary,
// its permutation and the posting offsets (8.2; 5.8 without postings); a
// vector of values cost 40.
func TestColumnCacheBytesPerCell(t *testing.T) {
	t.Parallel()
	db := NewDB()
	if err := db.LoadRelation(gen.Dataset(gen.Config{Rows: 40_000, Noise: 5, Seed: 611})); err != nil {
		t.Fatal(err)
	}
	s := gen.Schema()
	var conds []string
	for _, a := range s.Attrs {
		conds = append(conds, a.Name+" <> '-'")
	}
	if n := len(mustQuery(t, db, `SELECT PN FROM `+s.Name+` WHERE `+strings.Join(conds, " AND ")).Rows); n != 40_000 {
		t.Fatalf("the scan kept %d rows", n)
	}
	td := db.cur.Load().tds[mustTable(t, db, s.Name)]
	var bytes, cells int64
	for _, sg := range td.segs {
		for ci := range sg.cols {
			if v := &sg.cols[ci]; s.Attrs[ci].Kind == relation.KindText {
				if v.codes == nil {
					t.Fatalf("a built TEXT column of gen data is not coded")
				}
				bytes, cells = bytes+v.bytes(), cells+int64(v.len())
			}
		}
	}
	if want := int64(len(s.Attrs)) * 40_000; cells != want {
		t.Fatalf("%d TEXT cells built, want %d", cells, want)
	}
	perCell := float64(bytes) / float64(cells)
	t.Logf("%d TEXT cells of %d columns: %.1f bytes a cell", cells, len(s.Attrs), perCell)
	if perCell > 12 {
		t.Errorf("built TEXT cells cost %.1f bytes on average, want at most 12", perCell)
	}
}
