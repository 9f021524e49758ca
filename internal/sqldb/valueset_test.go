package sqldb

import (
	"flag"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"ecfd/internal/relation"
)

// seedFlag reseeds the randomized kernel differentials (`make
// difffuzz`). 0 keeps every test on its own fixed seed, so plain
// `go test` runs stay reproducible.
var seedFlag = flag.Int64("seed", 0, "reseed the randomized kernel differentials (0 = each test's fixed seed)")

// diffSeed returns fixed, or the -seed flag offset by it so the tests
// still draw different sequences; the log line names the seed to rerun.
func diffSeed(t *testing.T, fixed int64) int64 {
	t.Helper()
	if *seedFlag == 0 {
		return fixed
	}
	t.Logf("rerun with -seed %d", *seedFlag)
	return *seedFlag + fixed
}

// TestValueSetProbeDifferential fuzzes the probe kernel's value-set
// path (probeInst.bindSets) against the per-row closure path and the
// Reference nested loop, which re-executes the subquery per pair and so
// shares no probe with them: a data table one row below and one at the
// candidate threshold, a pattern table whose flags leave zero, one or
// several key parts per-row, and a probe side of 0–80 rows — one time in
// four, of more than can be walked, which an index prefix may still
// narrow — drawn from the values where TEXT, the key encoding and
// Identical could disagree —
// NULL, NaN, ±0, integers beyond 2^53, the '@' / '@NULL@' marks — with
// and without an exact-cover index, under EXISTS and NOT EXISTS. Every
// statement runs a second time as the same prepared plan after the probe
// side changed: the sets belong to an execution, never to the plan. Some
// executions must decide whole sealed runs from their postings. The
// pinned subtest reads a segment's postings from an older epoch
// (valueSetPinnedReader).
func TestValueSetProbeDifferential(t *testing.T) {
	t.Parallel()
	t.Run("random", valueSetRandom)
	t.Run("pinned", valueSetPinnedReader)
}

func valueSetRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(diffSeed(t, 167)))
	big := int64(1) << 53
	texts := []relation.Value{relation.Null(), relation.Text("@"), relation.Text("@NULL@"),
		relation.Text("x"), relation.Text("y"), relation.Text("1"), relation.Text("NaN"), relation.Text("")}
	ints := []relation.Value{relation.Null(), relation.Int(0), relation.Int(1), relation.Int(2),
		relation.Int(-1), relation.Int(big), relation.Int(big + 1)}
	reals := []relation.Value{relation.Null(), relation.Float(math.NaN()), relation.Float(0),
		relation.Float(math.Copysign(0, -1)), relation.Float(1), relation.Float(1.5), relation.Float(float64(big))}
	pick := func(dom []relation.Value) relation.Value { return dom[rng.Intn(len(dom))] }

	db := NewDB()
	sizes := map[string]int{"below": probeSetMinCands - 1, "at": probeSetMinCands}
	for _, name := range []string{"below", "at"} {
		n := sizes[name]
		mustExec(t, db, fmt.Sprintf(`CREATE TABLE vt_%s (rid INTEGER, a TEXT, b TEXT, i INTEGER, r REAL)`, name))
		for rid := 0; rid < n; rid += 64 {
			var ph []string
			var args []relation.Value
			for k := rid; k < rid+64 && k < n; k++ {
				ph = append(ph, "(?, ?, ?, ?, ?)")
				args = append(args, relation.Int(int64(k)), pick(texts), pick(texts), pick(ints), pick(reals))
			}
			mustExec(t, db, fmt.Sprintf(`INSERT INTO vt_%s VALUES %s`, name, strings.Join(ph, ", ")), args...)
		}
	}
	// Pattern rows: an id, the CID and one flag per key part (> 0: the
	// part reads the data row; else it is the '@' blank).
	mustExec(t, db, `CREATE TABLE ct (pid INTEGER, cid INTEGER, la INTEGER, lb INTEGER, li INTEGER, lr INTEGER)`)
	const patterns = 7 // with a CID; the eighth's is NULL, which decides its entry before any probe
	for pid := 0; pid < patterns-1; pid++ {
		row := []relation.Value{relation.Int(int64(pid)), relation.Int(int64(pid % 4))}
		for j := 0; j < 4; j++ {
			row = append(row, relation.Int(int64(rng.Intn(3)/2))) // a third of the parts per-row
		}
		mustExec(t, db, `INSERT INTO ct VALUES (?, ?, ?, ?, ?, ?)`, row...)
	}
	mustExec(t, db, `INSERT INTO ct VALUES (6, 0, 0, 0, 0, 0), (7, NULL, 1, 0, 0, 0)`)

	blank := func(fl, col string) string {
		return fmt.Sprintf("CASE WHEN ct.%s > 0 THEN COALESCE(TOTEXT(vt.%s), '@NULL@') ELSE '@' END", fl, col)
	}
	// The probe shapes: key columns of pt and the matching conjunction.
	shapes := []struct {
		cols []string
		on   string
	}{
		{ // the detection shape: CID plus '@'-blanked text projections
			cols: []string{"g", "pa", "pb", "pi", "pr"},
			on: "pt.g = ct.cid AND pt.pa = " + blank("la", "a") + " AND pt.pb = " + blank("lb", "b") +
				" AND pt.pi = " + blank("li", "i") + " AND pt.pr = " + blank("lr", "r"),
		},
		{ // two plain numeric columns
			cols: []string{"g", "n", "x"},
			on:   "pt.g = ct.cid AND pt.n = vt.i AND pt.x = vt.r",
		},
		{ // one plain column, the set probe of the pattern-set tables: NaN matches nothing, itself included; +0 matches -0
			cols: []string{"g", "x"},
			on:   "pt.g = ct.cid AND pt.x = vt.r",
		},
		{ // INTEGER against REAL: 2^53 + 1 is not 2^53
			cols: []string{"g", "n"},
			on:   "pt.g = ct.cid AND pt.n = vt.r",
		},
		{ // CASE arms that are bare columns
			cols: []string{"g", "n", "pa"},
			on: "pt.g = ct.cid AND pt.n = CASE WHEN ct.li > 0 THEN vt.i ELSE 0 END" +
				" AND pt.pa = CASE WHEN ct.la > 0 THEN vt.a ELSE '@' END",
		},
		{ // a bare coded text column, whatever the pattern: the pinned trial's
			cols: []string{"g", "pa"},
			on:   "pt.g = ct.cid AND pt.pa = vt.a",
		},
	}
	mark := func(dom []relation.Value) relation.Value { // a blanked or rendered key cell
		switch v := pick(dom); {
		case rng.Intn(2) == 0:
			return relation.Text("@")
		case v.IsNull():
			return relation.Text("@NULL@")
		default:
			return relation.Text(v.String())
		}
	}
	fillProbeSide := func(rows int) {
		for k := 0; k < rows; k++ {
			g := relation.Int(int64(rng.Intn(4)))
			if rng.Intn(12) == 0 {
				g = relation.Null()
			}
			mustExec(t, db, `INSERT INTO pt VALUES (?, ?, ?, ?, ?, ?, ?)`,
				g, mark(texts), mark(texts), mark(ints), mark(reals), pick(ints), pick(reals))
		}
	}

	reachedSets, reachedPostings := 0, 0
	for trial := 0; trial < 32; trial++ {
		// Trial 0 is pinned to a shape that must read postings: EXISTS over
		// every pair of the `at` table, whose sealed segments' coded column
		// vt.a is the key, against one member per CID — an eighth of a run's
		// rows, where postings beat the bit test.
		pinned := trial == 0
		sh := shapes[rng.Intn(len(shapes))]
		if pinned {
			sh = shapes[len(shapes)-1]
		}
		mustExec(t, db, `DROP TABLE IF EXISTS pt`)
		mustExec(t, db, `CREATE TABLE pt (g INTEGER, pa TEXT, pb TEXT, pi TEXT, pr TEXT, n INTEGER, x REAL)`)
		if rng.Intn(3) > 0 {
			mustExec(t, db, fmt.Sprintf(`CREATE INDEX idx_pt ON pt (%s)`, strings.Join(sh.cols, ", ")))
		}
		switch {
		case pinned:
			for g := 0; g < 4; g++ {
				mustExec(t, db, `INSERT INTO pt VALUES (?, ?, '@', '@', '@', NULL, NULL)`,
					relation.Int(int64(g)), texts[1+rng.Intn(len(texts)-1)])
			}
		case rng.Intn(4) > 0:
			fillProbeSide(rng.Intn(81))
		default:
			fillProbeSide(probeSetRowsMax + 1 + rng.Intn(200)) // too many to walk: the index prefix or nothing
		}
		size := "below"
		if trial%2 == 0 {
			size = "at"
		}
		neg := ""
		if rng.Intn(2) == 0 && !pinned {
			neg = "NOT "
		}
		where := fmt.Sprintf("%sEXISTS (SELECT 1 FROM pt WHERE %s)", neg, sh.on)
		everyPair := rng.Intn(4) > 0 || pinned // else an earlier alternative takes some pairs first
		if !everyPair {
			where = fmt.Sprintf("(vt.rid < %d OR %s)", rng.Intn(sizes[size]), where)
		}
		q := fmt.Sprintf("SELECT vt.rid, ct.pid FROM vt_%s vt, ct WHERE %s", size, where)
		p, err := db.Prepare(q)
		if err != nil {
			t.Fatalf("trial %d: prepare %q: %v", trial, q, err)
		}
		for pass := 0; pass < 2; pass++ {
			before := db.Stats()
			res, err := p.Query()
			if err != nil {
				t.Fatalf("trial %d pass %d: %q: %v", trial, pass, q, err)
			}
			probed := db.Stats().ProbeRows - before.ProbeRows
			if db.Stats().PostingRows > before.PostingRows {
				reachedPostings++
			}
			if pairs := int64(sizes[size]) * patterns; size == "at" && probed < pairs/2 {
				reachedSets++
			} else if size == "below" && everyPair && probed != pairs {
				t.Fatalf("trial %d pass %d: %d of %d pairs probed exactly below the candidate threshold: %q",
					trial, pass, probed, pairs, q)
			}
			prepared := canonical(res)
			batch, row, nested := runThreeWays(t, db, q, false)
			if prepared != batch || batch != row || row != nested {
				t.Fatalf("trial %d pass %d: value-set divergence on %q\nprobe side: %s\nprepared %q\nbatch    %q\nrow      %q\nnested   %q",
					trial, pass, q, flat(mustQuery(t, db, `SELECT * FROM pt`)), prepared, batch, row, nested)
			}
			// Change the probe side under the prepared plan.
			mustExec(t, db, `DELETE FROM pt WHERE g = ?`, relation.Int(int64(rng.Intn(4))))
			fillProbeSide(rng.Intn(12))
		}
	}
	if reachedSets == 0 || reachedPostings == 0 {
		t.Fatalf("of the executions at the candidate threshold, %d answered from value sets, %d from postings", reachedSets, reachedPostings)
	}
}

// valueSetPinnedReader: a reader pinned on an epoch whose tail segment
// holds half a segment of rows keeps reading it — a COALESCE'd text key
// against a set holding the NULL code's '@NULL@' and a string, under
// EXISTS and NOT EXISTS — while a writer fills that segment past the
// reader's fence and seals it, building postings over rows the pinned
// epoch does not have. The pinned reader's view of the column is
// shorter than those postings and has none: every read answers
// what Reference answered before the writer began. Part of `make
// mvccstress`, under -race.
func valueSetPinnedReader(t *testing.T) {
	rng := rand.New(rand.NewSource(diffSeed(t, 229)))
	domain := []relation.Value{relation.Null(), relation.Text("x"), relation.Text("y"), relation.Text("@"), relation.Text("z")}
	schema, err := relation.NewSchema("vp",
		relation.Attribute{Name: "rid", Kind: relation.KindInt},
		relation.Attribute{Name: "a", Kind: relation.KindText})
	if err != nil {
		t.Fatal(err)
	}
	data := relation.New(schema)
	nextRID := 0
	row := func() []relation.Value {
		nextRID++
		return []relation.Value{relation.Int(int64(nextRID)), domain[rng.Intn(len(domain))]}
	}
	for len(data.Rows) < 4*segRows+segRows/2 {
		data.Rows = append(data.Rows, row())
	}
	db := NewDB()
	if err := db.LoadRelation(data); err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, `CREATE TABLE pc (cid INTEGER, la INTEGER)`)
	mustExec(t, db, `INSERT INTO pc VALUES (0, 1), (1, 1)`)
	mustExec(t, db, `CREATE TABLE pp (g INTEGER, pa TEXT)`)
	mustExec(t, db, `INSERT INTO pp VALUES (0, '@NULL@'), (0, 'x'), (1, 'z')`)
	blank := `CASE WHEN pc.la > 0 THEN COALESCE(TOTEXT(vt.a), '@NULL@') ELSE '@' END`
	var qs []*Prepared
	var want []string
	for _, neg := range []string{"", "NOT "} {
		q := `SELECT vt.rid, pc.cid FROM pc, vp vt WHERE ` + neg + `EXISTS (SELECT 1 FROM pp WHERE pp.g = pc.cid AND pp.pa = ` + blank + `)`
		p, err := db.Prepare(q)
		if err != nil {
			t.Fatal(err)
		}
		qs, want = append(qs, p), append(want, canonical(queryIn(t, db, Reference, q)))
	}
	snap := db.PinSnapshot()
	defer snap.Close()
	read := func() error {
		for i, p := range qs {
			res, err := p.QueryAt(snap)
			if err != nil {
				return err
			}
			if got := canonical(res); got != want[i] {
				return fmt.Errorf("pinned reader of query %d: %.200s, Reference before the writes %.200s", i, got, want[i])
			}
		}
		return nil
	}
	if err := read(); err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, 1)
	go func() {
		var err error
		for i := 0; i < 8 && err == nil; i++ {
			err = read()
		}
		errs <- err
	}()
	for step := 0; step < 4; step++ {
		for k := 0; k < segRows/4; k++ {
			mustExec(t, db, `INSERT INTO vp VALUES (?, ?)`, row()...)
		}
		for _, p := range qs {
			if _, err := p.Query(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
	if err := read(); err != nil {
		t.Fatal(err)
	}
	if v := db.cur.Load().tds[mustTable(t, db, "vp")].segs[4].cols[1]; v.post == nil || len(v.post.rows) <= segRows/2 {
		t.Fatalf("the pinned tail's postings cover no more than its %d rows", segRows/2)
	}
	for i, p := range qs {
		before := db.Stats().PostingRows
		if _, err := p.Query(); err != nil {
			t.Fatal(err)
		}
		if d := db.Stats().PostingRows - before; (d == 0) != (i == 1) {
			t.Fatalf("query %d (NOT EXISTS: %v) decided %d rows from postings", i, i == 1, d)
		}
	}
}
