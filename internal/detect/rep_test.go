package detect

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"ecfd/internal/core"
	"ecfd/internal/gen"
	"ecfd/internal/relation"
	"ecfd/internal/sqldb"
)

// The rep table holds, for a group outside Aux, the one blanked RHS its
// members share, and keysFromIns skips the (tuple, pattern) pairs whose
// whole projection is a rep row. These tests hold the invariant that
// makes the skip exact — every current member of a group outside Aux has
// its rep row's RHS — by the flags and violations it must leave: after
// every step they are byte-identical to the naive oracle's. Each case
// drives the state where a stale, missing or too loose rep row would
// show; -seed reseeds the random ones (`make difffuzz`).

// assertRepExact compares d's flags and its violation set with the naive
// oracle's over the current data, byte for byte.
func assertRepExact(t *testing.T, d *Detector, sigma []*core.ECFD, where string) {
	t.Helper()
	assertMatchesNaive(t, d, sigma, where)
	data, err := d.currentData()
	if err != nil {
		t.Fatal(err)
	}
	rids, err := d.RIDs()
	if err != nil {
		t.Fatal(err)
	}
	naive, err := core.NaiveDetect(data, sigma)
	if err != nil {
		t.Fatal(err)
	}
	vio, err := d.Violations()
	if err != nil {
		t.Fatal(err)
	}
	want := relation.New(vio.Schema)
	for i, rid := range rids {
		if !naive.SV[i] && !naive.MV[i] {
			continue
		}
		row := relation.Tuple{relation.Int(rid)}
		row = append(row, data.Rows[i]...)
		want.Rows = append(want.Rows, append(row, flagValue(naive.SV[i]), flagValue(naive.MV[i])))
	}
	var got, exp bytes.Buffer
	if err := vio.WriteCSV(&got); err != nil {
		t.Fatal(err)
	}
	if err := want.WriteCSV(&exp); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), exp.Bytes()) {
		t.Fatalf("%s: violations differ from the oracle's:\n got %s\nwant %s", where, got.String(), exp.String())
	}
}

func flagValue(b bool) relation.Value {
	if b {
		return relation.Int(1)
	}
	return relation.Int(0)
}

// repRows counts the rows of d's rep table.
func repRows(t *testing.T, d *Detector) int64 {
	t.Helper()
	var n int64
	if err := d.db.QueryRow("SELECT COUNT(*) FROM " + d.repTable).Scan(&n); err != nil {
		t.Fatal(err)
	}
	return n
}

// repFixture is a three-column instance under an FD A → B and a CFD
// ([A, C] → B, A ∈ {x, w}): every case below names its rows by (A, B, C).
type repFixture struct {
	t     *testing.T
	d     *Detector
	sigma []*core.ECFD
	rids  map[string][]int64 // the live RIDs of each (A, B) pair, in insertion order
	step  int
}

func newRepFixture(t *testing.T, rows ...[3]string) *repFixture {
	s := relation.MustSchema("rp",
		relation.Attribute{Name: "A", Kind: relation.KindText},
		relation.Attribute{Name: "B", Kind: relation.KindText},
		relation.Attribute{Name: "C", Kind: relation.KindText})
	sigma := []*core.ECFD{
		{Name: "fd", Schema: s, X: []string{"A"}, Y: []string{"B"},
			Tableau: []core.PatternTuple{{LHS: []core.Pattern{core.Any()}, RHS: []core.Pattern{core.Any()}}}},
		{Name: "cfd", Schema: s, X: []string{"A", "C"}, Y: []string{"B"},
			Tableau: []core.PatternTuple{{LHS: []core.Pattern{core.InStrings("x", "w"), core.Any()}, RHS: []core.Pattern{core.Any()}}}},
	}
	f := &repFixture{t: t, sigma: sigma, rids: map[string][]int64{}}
	f.d = newDetector(t, sigma, relation.New(s))
	f.apply(rows, nil, true)
	if _, err := f.d.BatchDetect(); err != nil {
		t.Fatal(err)
	}
	if n := repRows(t, f.d); n != 0 {
		t.Fatalf("BatchDetect left %d rep rows", n)
	}
	assertRepExact(t, f.d, sigma, "loaded")
	return f
}

// update inserts rows and deletes the oldest `del` live rows of each
// named (A, B) pair, in one ApplyUpdates, then checks against the oracle.
func (f *repFixture) update(rows [][3]string, del map[string]int) {
	f.t.Helper()
	var doomed []int64
	for pair, n := range del {
		doomed = append(doomed, f.rids[pair][:n]...)
		f.rids[pair] = f.rids[pair][n:]
	}
	f.apply(rows, doomed, false)
	f.step++
	assertRepExact(f.t, f.d, f.sigma, fmt.Sprintf("update %d", f.step))
}

// apply loads rows (load) or applies them and the deletion of del.
func (f *repFixture) apply(rows [][3]string, del []int64, load bool) {
	f.t.Helper()
	batch := relation.New(f.d.schema)
	for _, r := range rows {
		batch.MustInsert(relation.Tuple{relation.Text(r[0]), relation.Text(r[1]), relation.Text(r[2])})
	}
	var rids []int64
	var err error
	if load {
		rids, err = f.d.LoadData(batch)
	} else {
		rids, _, err = f.d.ApplyUpdates(batch, del)
	}
	if err != nil {
		f.t.Fatal(err)
	}
	for i, r := range rows {
		f.rids[r[0]+r[1]] = append(f.rids[r[0]+r[1]], rids[i])
	}
}

func rowsOf(a, b, c string, n int) [][3]string {
	out := make([][3]string, n)
	for i := range out {
		out[i] = [3]string{a, b, c}
	}
	return out
}

// TestRepInvariant drives each state the rep table can be wrong in, on
// the fixture and on the typed schema TestDialectCensus loads.
func TestRepInvariant(t *testing.T) {
	t.Run("emptied group keeps its rep row, then disagrees", func(t *testing.T) {
		f := newRepFixture(t, append(rowsOf("x", "b1", "c", 2), [3]string{"y", "b2", "c"})...)
		f.update(rowsOf("x", "b1", "c", 1), nil) // recomputed clean: rep (x, b1)
		if repRows(t, f.d) == 0 {
			t.Fatal("a clean group of three members got no rep row")
		}
		f.update(nil, map[string]int{"xb1": 3})  // the group empties; its rep row stays
		f.update(rowsOf("x", "b9", "c", 1), nil) // disagrees: a recomputed singleton
		f.update(rowsOf("x", "b1", "c", 1), nil) // the old RHS: the group violates
		f.update(rowsOf("x", "b1", "c", 1), nil) // into a violating group
	})
	t.Run("agreeing and disagreeing tuples in one batch", func(t *testing.T) {
		f := newRepFixture(t, rowsOf("z", "b1", "c", 2)...)
		f.update(rowsOf("z", "b1", "c", 1), nil) // rep (z, b1)
		f.update(rowsOf("z", "b1", "c", 1), nil) // agrees: skipped, still clean
		f.update([][3]string{{"z", "b1", "c"}, {"z", "b2", "c"}, {"z", "b1", "c"}}, nil)
		f.update(nil, map[string]int{"zb2": 1}) // clean again
		f.update([][3]string{{"z", "b1", "d"}, {"z", "b3", "d"}}, map[string]int{"zb1": 2})
	})
	t.Run("violating group made clean, then the old RHS", func(t *testing.T) {
		f := newRepFixture(t, rowsOf("w", "b1", "c", 2)...)
		f.update(rowsOf("w", "b1", "c", 1), nil)          // rep (w, b1)
		f.update(rowsOf("w", "b2", "c", 2), nil)          // violates: rep (w, b1) goes
		f.update(nil, map[string]int{"wb1": 3})           // clean again, too small for a rep row
		f.update(rowsOf("w", "b1", "c", 1), nil)          // the old RHS: violates
		f.update(nil, map[string]int{"wb2": 2, "wb1": 0}) // clean singleton
		f.update(rowsOf("w", "b2", "c", 1), nil)          // the RHS deleted last: violates
	})
	t.Run("InsertRaw, BatchDetect, updates", func(t *testing.T) {
		f := newRepFixture(t, rowsOf("x", "b1", "c", 3)...)
		f.update(rowsOf("x", "b1", "c", 1), nil) // rep (x, b1)
		raw := relation.New(f.d.schema)
		raw.MustInsert(relation.Tuple{relation.Text("x"), relation.Text("b2"), relation.Text("c")})
		if _, err := f.d.InsertRaw(raw); err != nil {
			t.Fatal(err)
		}
		if _, err := f.d.BatchDetect(); err != nil {
			t.Fatal(err)
		}
		if n := repRows(t, f.d); n != 0 {
			t.Fatalf("BatchDetect left %d rep rows", n)
		}
		assertRepExact(t, f.d, f.sigma, "after InsertRaw and BatchDetect")
		f.update(rowsOf("x", "b1", "c", 1), nil)
		f.update(nil, map[string]int{"xb1": 5})
		f.update(rowsOf("x", "b2", "c", 1), nil) // {b2, b2}: too small for a rep row
		f.update(rowsOf("x", "b1", "c", 1), nil)
	})
	t.Run("random", func(t *testing.T) {
		rng := rand.New(rand.NewSource(diffSeed(t, 47)))
		f := newRepFixture(t)
		for step := 0; step < 60; step++ {
			var ins [][3]string
			for i := rng.Intn(6); i > 0; i-- {
				ins = append(ins, [3]string{
					[]string{"x", "y", "w", "v"}[rng.Intn(4)],
					[]string{"b1", "b2"}[rng.Intn(2)],
					[]string{"c", "d"}[rng.Intn(2)]})
			}
			del := map[string]int{}
			for pair, rids := range f.rids {
				if len(rids) > 0 && rng.Intn(4) == 0 {
					del[pair] = 1 + rng.Intn(len(rids))
				}
			}
			f.update(ins, del)
		}
	})
	t.Run("typed", func(t *testing.T) {
		s := relation.MustSchema("meter",
			relation.Attribute{Name: "GRID", Kind: relation.KindInt},
			relation.Attribute{Name: "VOLT", Kind: relation.KindFloat},
			relation.Attribute{Name: "LIVE", Kind: relation.KindBool},
			relation.Attribute{Name: "ZONE", Kind: relation.KindText})
		sigma := []*core.ECFD{
			{Name: "fd", Schema: s, X: []string{"GRID", "ZONE"}, Y: []string{"VOLT"},
				Tableau: []core.PatternTuple{{LHS: []core.Pattern{core.Any(), core.Any()}, RHS: []core.Pattern{core.Any()}}}},
			{Name: "live", Schema: s, X: []string{"ZONE"}, YP: []string{"LIVE", "GRID"},
				Tableau: []core.PatternTuple{{LHS: []core.Pattern{core.NotInStrings("core")},
					RHS: []core.Pattern{core.InSet(relation.Bool(true)), core.NotInSet(relation.Int(9))}}}},
		}
		rng := rand.New(rand.NewSource(diffSeed(t, 53)))
		// A grid's volts follow from it but for one tuple in six, so most
		// (GRID, ZONE) groups are clean and some inserts disagree.
		tuple := func() relation.Tuple {
			grid := rng.Intn(4)
			volt := relation.Float(float64(110 * (1 + grid%2)))
			switch rng.Intn(12) {
			case 0, 1:
				volt = relation.Float(float64(110 * (2 - grid%2)))
			case 2:
				volt = relation.Null()
			}
			return relation.Tuple{relation.Int(int64(grid)), volt,
				relation.Bool(rng.Intn(5) != 0), relation.Text([]string{"core", "edge", "rim"}[rng.Intn(3)])}
		}
		inst := relation.New(s)
		for i := 0; i < 40; i++ {
			inst.MustInsert(tuple())
		}
		d := newDetector(t, sigma, inst)
		if _, err := d.BatchDetect(); err != nil {
			t.Fatal(err)
		}
		live, err := d.RIDs()
		if err != nil {
			t.Fatal(err)
		}
		var reps int64
		for step := 0; step < 40; step++ {
			batch := relation.New(s)
			for i := rng.Intn(5); i > 0; i-- {
				batch.MustInsert(tuple())
			}
			var del []int64
			for len(live) > 0 && rng.Intn(2) == 0 {
				i := rng.Intn(len(live))
				del = append(del, live[i])
				live = append(live[:i], live[i+1:]...)
			}
			rids, _, err := d.ApplyUpdates(batch, del)
			if err != nil {
				t.Fatal(err)
			}
			live = append(live, rids...)
			assertRepExact(t, d, sigma, fmt.Sprintf("typed update %d", step))
			reps = max(reps, repRows(t, d))
		}
		if reps == 0 {
			t.Error("no rep row was written: the typed case checks no skip")
		}
	})
}

// TestRepBounded states that rep stays within the groups it can serve:
// over 5 000 warm 8+8 updates at 40 000 rows it never holds more rows
// than there are groups of at least two member rows. Only a group of
// three or more gets a rep row, and nothing but a recompute removes one,
// so this is what bounds it: written for φ10's (AC, PN) pairs as well,
// rep outgrew those groups by the 5 000th update (3 790 rows for 3 783)
// and kept growing by about 200 rows per 1 000 updates; written for
// singletons, it would gain a row per inserted tuple. The flags at the
// end are the oracle's, and BatchDetect empties rep.
func TestRepBounded(t *testing.T) {
	const rows, updates = 40_000, 5_000
	w, cleanup := newApplyWorkload(t, rows)
	defer cleanup()
	d := w.d
	g := d.groupCols()
	countQ := fmt.Sprintf("SELECT COUNT(*) FROM (SELECT %s FROM (SELECT %s\n) m GROUP BY %s HAVING COUNT(*) > 1) g",
		g[0], d.macroRows(""), strings.Join(g, ", "))
	for i := 1; i <= updates; i++ {
		w.apply(t, 0, 1, 2, 3, 4, 5, 6, 7)
		if i%1000 != 0 {
			continue
		}
		var groups int64
		if err := d.db.QueryRow(countQ).Scan(&groups); err != nil {
			t.Fatal(err)
		}
		rep := repRows(t, d)
		t.Logf("%d updates: rep %d rows, %d groups of ≥ 2 rows", i, rep, groups)

		if rep == 0 || rep > groups {
			t.Fatalf("%d updates: rep holds %d rows for %d groups of at least two rows", i, rep, groups)
		}
	}
	assertMatchesNaive(t, d, gen.Constraints(), fmt.Sprintf("%d updates", updates))
	if _, err := d.BatchDetect(); err != nil {
		t.Fatal(err)
	}
	if n := repRows(t, d); n != 0 {
		t.Fatalf("BatchDetect left %d rep rows", n)
	}
}

// TestIncrementalProbesBounded states, in counters, that the incremental
// script's probes into rep and into the data table cost what ΔD touches
// and not what those tables hold. It starts from rep 96 % full: 2 000 warm
// 8+8 updates at 40 000 rows fill it to about 2 720 of its roughly 2 820
// rows (TestWorkLedger's warmUpdates). Over the next 20 updates, stepped:
//
//   - repDeleteAff scans at most 4·|keys| rows: the keys, and through
//     rep's index on its group key the one rep row of each. Without that
//     index it scanned rep once per key, |keys|·|rep| rows, about 22 000;
//   - keysFromDel seeks the data table's RID index at most once per staged
//     RID: its data level is entered once per (RID, pattern row), with the
//     same RID for every pattern row, and reuses the positions of its last
//     seek; without that it sought five times per RID, 40 per update.
func TestIncrementalProbesBounded(t *testing.T) {
	const rows, warm, updates = 40_000, 2_000, 20
	w, cleanup := newApplyWorkload(t, rows)
	defer cleanup()
	d := w.d
	oldest := []int{0, 1, 2, 3, 4, 5, 6, 7}
	for range warm {
		w.apply(t, oldest...)
	}
	if n := repRows(t, d); n < 2_600 {
		t.Fatalf("rep holds %d rows after %d updates; the bounds would hold for a small rep too", n, warm)
	}
	for u := range updates {
		del := slices.Clone(w.live[:len(oldest)])
		w.stepApply(t, gen.Updates(w.cfg, len(oldest), w.batch), del, func(q string, before, after sqldb.Stats) {
			switch q {
			case d.stmts.repDeleteAff:
				var keys int64
				if err := d.db.QueryRow("SELECT COUNT(*) FROM " + d.keysTable).Scan(&keys); err != nil {
					t.Fatal(err)
				}
				if n := after.RowsScanned - before.RowsScanned; n > 4*keys {
					t.Errorf("update %d: repDeleteAff scanned %d rows for %d keys", u, n, keys)
				}
			case d.stmts.keysFromDel:
				if n := after.IndexSeeks - before.IndexSeeks; n > int64(len(del)) {
					t.Errorf("update %d: keysFromDel made %d index seeks for %d staged RIDs", u, n, len(del))
				}
			}
		})
		w.batch++
	}
}
