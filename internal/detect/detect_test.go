package detect

import (
	"database/sql"
	"fmt"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"

	"ecfd/internal/core"
	"ecfd/internal/gen"
	"ecfd/internal/relation"
	"ecfd/internal/sqldb"
	"ecfd/internal/sqldriver"
)

var dsnSeq atomic.Int64

func openDB(t *testing.T) *sql.DB {
	db, _ := openDBIn(t, sqldb.Planned)
	return db
}

// openDBIn opens a fresh in-memory engine switched to mode, returning
// the handle and the engine behind it.
func openDBIn(t *testing.T, mode sqldb.Mode) (*sql.DB, *sqldb.DB) {
	t.Helper()
	dsn := fmt.Sprintf("detect_test_%d", dsnSeq.Add(1))
	eng := sqldriver.Engine(dsn)
	eng.SetMode(mode)
	db, err := sql.Open("ecfdmem", dsn)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db, eng
}

func newDetector(t *testing.T, sigma []*core.ECFD, inst *relation.Relation) *Detector {
	t.Helper()
	return newDetectorIn(t, sqldb.Planned, sigma, inst)
}

// newDetectorIn builds a loaded detector on a fresh engine in mode,
// with the engine bound as the benchmark binds it.
func newDetectorIn(t *testing.T, mode sqldb.Mode, sigma []*core.ECFD, inst *relation.Relation) *Detector {
	t.Helper()
	db, eng := openDBIn(t, mode)
	d, err := New(db, inst.Schema, sigma)
	if err != nil {
		t.Fatal(err)
	}
	d.BindEngine(eng)
	if err := d.Install(); err != nil {
		t.Fatal(err)
	}
	if _, err := d.LoadData(inst); err != nil {
		t.Fatal(err)
	}
	return d
}

// TestEncodingFig3 is the golden test for Fig. 3: φ1 and φ2 encode into
// enc rows (CID, CT_L, AC_R) = (1, 2, 3), (2, 1, 1), (3, 1, −1) — per
// the §V-A text: 1 ⇔ S, 2 ⇔ S̄, 3 ⇔ '_', negated for Yp — and set
// tables T_CT_L = {(1,NYC),(1,LI),(2,Albany),(2,Troy),(2,Colonie)},
// T_AC_R = {(2,518),(3,212),(3,718),(3,646),(3,347),(3,917)}.
func TestEncodingFig3(t *testing.T) {
	sigma := core.Split(core.Fig2Constraints())
	if len(sigma) != 3 {
		t.Fatalf("Σ splits into %d constraints, want 3", len(sigma))
	}
	schema := core.CustSchema()

	wantL := []int{CodeNotIn, CodeIn, CodeIn}
	wantR := []int{CodeWildcard, CodeIn, -CodeIn}
	wantSetL := [][]string{{"LI", "NYC"}, {"Albany", "Colonie", "Troy"}, {"NYC"}}
	wantSetR := [][]string{nil, {"518"}, {"212", "347", "646", "718", "917"}}

	for i, e := range sigma {
		enc := EncodeConstraint(e, schema)
		if enc.L["CT"] != wantL[i] {
			t.Errorf("CID %d: CT_L = %d, want %d", i+1, enc.L["CT"], wantL[i])
		}
		if enc.R["AC"] != wantR[i] {
			t.Errorf("CID %d: AC_R = %d, want %d", i+1, enc.R["AC"], wantR[i])
		}
		// All other attributes absent on both sides.
		for _, a := range schema.Attrs {
			if a.Name == "CT" || a.Name == "AC" {
				continue
			}
			if enc.L[a.Name] != CodeAbsent || enc.R[a.Name] != CodeAbsent {
				t.Errorf("CID %d: attribute %s should be absent", i+1, a.Name)
			}
		}
		var gotL []string
		for _, v := range enc.SetsL["CT"] {
			gotL = append(gotL, v.S)
		}
		if strings.Join(gotL, ",") != strings.Join(wantSetL[i], ",") {
			t.Errorf("CID %d: T_CT_L = %v, want %v", i+1, gotL, wantSetL[i])
		}
		var gotR []string
		for _, v := range enc.SetsR["AC"] {
			gotR = append(gotR, v.S)
		}
		if strings.Join(gotR, ",") != strings.Join(wantSetR[i], ",") {
			t.Errorf("CID %d: T_AC_R = %v, want %v", i+1, gotR, wantSetR[i])
		}
	}
}

// TestEncTableContents verifies the loaded enc relation row count and a
// spot value through SQL, mirroring Fig. 3 (top).
func TestEncTableContents(t *testing.T) {
	d := newDetector(t, core.Fig2Constraints(), core.Fig1Instance())
	var n int64
	if err := d.db.QueryRow("SELECT COUNT(*) FROM cust_enc").Scan(&n); err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Errorf("enc rows = %d, want 3 (one per pattern tuple)", n)
	}
	var ctl, acr int64
	if err := d.db.QueryRow("SELECT CT_L, AC_R FROM cust_enc WHERE CID = 1").Scan(&ctl, &acr); err != nil {
		t.Fatal(err)
	}
	if ctl != 2 || acr != 3 {
		t.Errorf("CID 1: (CT_L, AC_R) = (%d, %d), want (2, 3)", ctl, acr)
	}
	if err := d.db.QueryRow("SELECT COUNT(*) FROM cust_t_CT_l").Scan(&n); err != nil {
		t.Fatal(err)
	}
	if n != 6 { // {NYC, LI} + {Albany, Troy, Colonie} + {NYC}
		t.Errorf("T_CT_L rows = %d, want 6", n)
	}
	if err := d.db.QueryRow("SELECT COUNT(*) FROM cust_t_AC_r").Scan(&n); err != nil {
		t.Fatal(err)
	}
	if n != 6 { // {518} + {212, 718, 646, 347, 917}
		t.Errorf("T_AC_R rows = %d, want 6", n)
	}
}

// TestSQLGenFig4Shape checks the generated queries have the Fig. 4
// structure and that their size depends only on the schema, not on Σ.
func TestSQLGenFig4Shape(t *testing.T) {
	d := newDetector(t, core.Fig2Constraints(), core.Fig1Instance())
	qsvSel, qsvUpd, qmvIns, mvUpd := d.SQL()

	for _, frag := range []string{"EXISTS", "NOT EXISTS", "ABS(", "cust_enc"} {
		if !strings.Contains(qsvSel, frag) {
			t.Errorf("Qsv missing %q:\n%s", frag, qsvSel)
		}
	}
	for _, frag := range []string{"GROUP BY", "HAVING COUNT(*) > 1", "CASE WHEN", "'@'", "DISTINCT"} {
		if !strings.Contains(qmvIns, frag) {
			t.Errorf("Qmv missing %q:\n%s", frag, qmvIns)
		}
	}
	if !strings.Contains(qsvUpd, "SET SV = 1") || !strings.Contains(mvUpd, "SET MV = 1") {
		t.Error("update statements must set the SV/MV flags")
	}

	// Query text is a function of the schema only: a Σ with 10× the
	// pattern tuples yields byte-identical SQL.
	big := core.Fig2Constraints()
	for i := 0; i < 10; i++ {
		big = append(big, core.Fig2Constraints()...)
	}
	db2 := openDB(t)
	d2, err := New(db2, core.CustSchema(), big)
	if err != nil {
		t.Fatal(err)
	}
	s1, u1, m1, v1 := d2.SQL()
	if s1 != qsvSel || u1 != qsvUpd || m1 != qmvIns || v1 != mvUpd {
		t.Error("generated SQL must not depend on |Σ|")
	}
}

// TestBatchDetectExample22 reproduces Example 2.2 through the SQL
// pipeline: t1 and t4 are single-tuple violations; nothing else.
func TestBatchDetectExample22(t *testing.T) {
	d := newDetector(t, core.Fig2Constraints(), core.Fig1Instance())
	stats, err := d.BatchDetect()
	if err != nil {
		t.Fatal(err)
	}
	if stats.SV != 2 || stats.MV != 0 || stats.Total != 2 {
		t.Errorf("stats = %+v, want SV=2 MV=0 Total=2", stats)
	}
	vio, err := d.Violations()
	if err != nil {
		t.Fatal(err)
	}
	if vio.Len() != 2 {
		t.Fatalf("violations = %d rows", vio.Len())
	}
	// RIDs 1..6 were assigned in Fig. 1 order: t1 → RID 1, t4 → RID 4.
	if vio.Rows[0][0].I != 1 || vio.Rows[1][0].I != 4 {
		t.Errorf("violating RIDs = %v, %v; want 1 and 4", vio.Rows[0][0], vio.Rows[1][0])
	}
}

// TestBatchMatchesNaive is the central equivalence property: on random
// data and random eCFDs, the SQL BatchDetect flags exactly the rows the
// §II semantics (naive oracle) flags.
func TestBatchMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		inst, sigma := randomInstanceAndSigma(rng, 60)
		naive, err := core.NaiveDetect(inst, sigma)
		if err != nil {
			t.Fatal(err)
		}
		d := newDetector(t, sigma, inst)
		if _, err := d.BatchDetect(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		flags, err := d.FlagsByRID()
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < inst.Len(); i++ {
			got := flags[int64(i+1)]
			if got[0] != naive.SV[i] || got[1] != naive.MV[i] {
				t.Fatalf("trial %d row %d: SQL (SV=%v MV=%v) vs naive (SV=%v MV=%v)\nrow: %v\nsigma: %s",
					trial, i, got[0], got[1], naive.SV[i], naive.MV[i], inst.Rows[i], sigmaString(sigma))
			}
		}
	}
}

// TestIncrementalMatchesBatch: after random insert/delete batches,
// IncDetect's flags equal a from-scratch BatchDetect on the same data.
func TestIncrementalMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 12; trial++ {
		inst, sigma := randomInstanceAndSigma(rng, 50)
		d := newDetector(t, sigma, inst)
		if _, err := d.BatchDetect(); err != nil {
			t.Fatal(err)
		}

		for step := 0; step < 3; step++ {
			switch rng.Intn(3) {
			case 0:
				batch := randomRows(rng, inst.Schema, 1+rng.Intn(15))
				if _, _, err := d.InsertTuples(batch); err != nil {
					t.Fatalf("trial %d step %d insert: %v", trial, step, err)
				}
			case 1:
				rids, err := d.RIDs()
				if err != nil {
					t.Fatal(err)
				}
				if len(rids) == 0 {
					continue
				}
				k := 1 + rng.Intn(len(rids)/2+1)
				var doomed []int64
				for _, i := range rng.Perm(len(rids))[:k] {
					doomed = append(doomed, rids[i])
				}
				if _, err := d.DeleteTuples(doomed); err != nil {
					t.Fatalf("trial %d step %d delete: %v", trial, step, err)
				}
			default:
				// Combined update: delete and insert in one maintenance
				// step (the Fig. 7 workload).
				rids, err := d.RIDs()
				if err != nil {
					t.Fatal(err)
				}
				var doomed []int64
				if len(rids) > 0 {
					k := 1 + rng.Intn(len(rids)/2+1)
					for _, i := range rng.Perm(len(rids))[:k] {
						doomed = append(doomed, rids[i])
					}
				}
				batch := randomRows(rng, inst.Schema, 1+rng.Intn(15))
				if _, _, err := d.ApplyUpdates(batch, doomed); err != nil {
					t.Fatalf("trial %d step %d combined: %v", trial, step, err)
				}
			}

			incFlags, err := d.FlagsByRID()
			if err != nil {
				t.Fatal(err)
			}
			// Recompute from scratch on a second detector holding the
			// same rows.
			snap, err := d.currentData()
			if err != nil {
				t.Fatal(err)
			}
			d2 := newDetector(t, sigma, snap)
			if _, err := d2.BatchDetect(); err != nil {
				t.Fatal(err)
			}
			batchFlags, err := d2.FlagsByRID()
			if err != nil {
				t.Fatal(err)
			}
			if len(incFlags) != len(batchFlags) {
				t.Fatalf("trial %d step %d: row counts differ: %d vs %d", trial, step, len(incFlags), len(batchFlags))
			}
			// Match by position: both detectors enumerate rows in RID
			// order but with different RID values, so compare multisets
			// keyed by row order.
			incRids, _ := d.RIDs()
			batchRids, _ := d2.RIDs()
			for i := range incRids {
				if incFlags[incRids[i]] != batchFlags[batchRids[i]] {
					t.Fatalf("trial %d step %d row %d: inc %v vs batch %v", trial, step, i,
						incFlags[incRids[i]], batchFlags[batchRids[i]])
				}
			}
		}
	}
}

// currentData snapshots the data table back into a relation over the
// base schema, in RID order.
func (d *Detector) currentData() (*relation.Relation, error) {
	cols := make([]string, 0, d.schema.Width())
	for _, a := range d.schema.Attrs {
		cols = append(cols, a.Name)
	}
	q := fmt.Sprintf("SELECT %s FROM %s ORDER BY %s", strings.Join(cols, ", "), d.dataTable, ColRID)
	rows, err := d.db.Query(q)
	if err != nil {
		return nil, err
	}
	defer rows.Close()
	out := relation.New(d.schema)
	for rows.Next() {
		cells := make([]sql.NullString, d.schema.Width())
		ptrs := make([]any, len(cells))
		for i := range cells {
			ptrs[i] = &cells[i]
		}
		if err := rows.Scan(ptrs...); err != nil {
			return nil, err
		}
		tup := make(relation.Tuple, len(cells))
		for i, c := range cells {
			if !c.Valid {
				tup[i] = relation.Null()
				continue
			}
			v, err := relation.ParseLiteral(c.String, d.schema.Attrs[i].Kind)
			if err != nil {
				return nil, err
			}
			tup[i] = v
		}
		out.Rows = append(out.Rows, tup)
	}
	return out, rows.Err()
}

// --- random workload for the equivalence properties ---

// randomInstanceAndSigma builds a small random instance over a 4-column
// text schema plus 2–4 random eCFDs exercising every pattern form.
func randomInstanceAndSigma(rng *rand.Rand, rows int) (*relation.Relation, []*core.ECFD) {
	schema := relation.MustSchema("rnd",
		relation.Attribute{Name: "A", Kind: relation.KindText},
		relation.Attribute{Name: "B", Kind: relation.KindText},
		relation.Attribute{Name: "C", Kind: relation.KindText},
		relation.Attribute{Name: "D", Kind: relation.KindText},
	)
	inst := randomRows(rng, schema, rows)

	attrs := []string{"A", "B", "C", "D"}
	var sigma []*core.ECFD
	n := 2 + rng.Intn(3)
	for i := 0; i < n; i++ {
		perm := rng.Perm(len(attrs))
		x := []string{attrs[perm[0]]}
		y := []string{attrs[perm[1]]}
		var yp []string
		if rng.Intn(2) == 0 {
			yp = []string{attrs[perm[2]]}
		}
		e := &core.ECFD{Name: fmt.Sprintf("r%d", i+1), Schema: schema, X: x, Y: y, YP: yp}
		tuples := 1 + rng.Intn(3)
		for j := 0; j < tuples; j++ {
			tp := core.PatternTuple{
				LHS: []core.Pattern{randomPattern(rng)},
				RHS: []core.Pattern{randomPattern(rng)},
			}
			if len(yp) > 0 {
				tp.RHS = append(tp.RHS, randomPattern(rng))
			}
			e.Tableau = append(e.Tableau, tp)
		}
		sigma = append(sigma, e)
	}
	return inst, sigma
}

// The value pool is tiny so FD groups and pattern hits are frequent.
var pool = []string{"u", "v", "w", "x", "y", "z"}

func randomRows(rng *rand.Rand, schema *relation.Schema, n int) *relation.Relation {
	out := relation.New(schema)
	for i := 0; i < n; i++ {
		t := make(relation.Tuple, schema.Width())
		for j := range t {
			t[j] = relation.Text(pool[rng.Intn(len(pool))])
		}
		out.Rows = append(out.Rows, t)
	}
	return out
}

func randomPattern(rng *rand.Rand) core.Pattern {
	switch rng.Intn(3) {
	case 0:
		return core.Any()
	case 1:
		return core.InStrings(randomSubset(rng)...)
	default:
		return core.NotInStrings(randomSubset(rng)...)
	}
}

func randomSubset(rng *rand.Rand) []string {
	k := 1 + rng.Intn(3)
	out := make([]string, 0, k)
	for _, i := range rng.Perm(len(pool))[:k] {
		out = append(out, pool[i])
	}
	return out
}

func sigmaString(sigma []*core.ECFD) string {
	var b strings.Builder
	for _, e := range sigma {
		b.WriteString(e.String())
	}
	return b.String()
}

func TestNewValidation(t *testing.T) {
	db := openDB(t)
	schema := core.CustSchema()
	if _, err := New(db, schema, nil); err == nil {
		t.Error("empty Σ must fail")
	}
	other := relation.MustSchema("other", relation.Attribute{Name: "X", Kind: relation.KindText},
		relation.Attribute{Name: "Y", Kind: relation.KindText})
	mismatched := &core.ECFD{Name: "m", Schema: other, X: []string{"X"}, Y: []string{"Y"},
		Tableau: []core.PatternTuple{{LHS: []core.Pattern{core.Any()}, RHS: []core.Pattern{core.Any()}}}}
	if _, err := New(db, schema, []*core.ECFD{mismatched}); err == nil {
		t.Error("schema mismatch must fail")
	}
	reserved := relation.MustSchema("r", relation.Attribute{Name: "SV", Kind: relation.KindText},
		relation.Attribute{Name: "B", Kind: relation.KindText})
	e := &core.ECFD{Name: "x", Schema: reserved, X: []string{"SV"}, Y: []string{"B"},
		Tableau: []core.PatternTuple{{LHS: []core.Pattern{core.Any()}, RHS: []core.Pattern{core.Any()}}}}
	if _, err := New(db, reserved, []*core.ECFD{e}); err == nil {
		t.Error("reserved column collision must fail")
	}
}

func TestLoadDataMismatch(t *testing.T) {
	d := newDetector(t, core.Fig2Constraints(), core.Fig1Instance())
	wrong := relation.New(relation.MustSchema("cust", relation.Attribute{Name: "Z", Kind: relation.KindText}))
	if _, err := d.LoadData(wrong); err == nil {
		t.Error("width mismatch must fail")
	}
}

func TestDeleteNothing(t *testing.T) {
	d := newDetector(t, core.Fig2Constraints(), core.Fig1Instance())
	if _, err := d.BatchDetect(); err != nil {
		t.Fatal(err)
	}
	st, err := d.DeleteTuples(nil)
	if err != nil || st.Applied != 0 {
		t.Errorf("empty delete: %+v, %v", st, err)
	}
}

// TestAppliedCountsRows: IncStats.Applied is the tuples inserted plus the
// rows deleted — what the data table gained and lost. A RID named twice,
// or naming no row, removes nothing and counts nothing.
func TestAppliedCountsRows(t *testing.T) {
	d, cleanup := newBenchDetector(t, 100, 7)
	defer cleanup()
	if _, err := d.BatchDetect(); err != nil {
		t.Fatal(err)
	}
	size := func() int64 {
		var n int64
		if err := d.db.QueryRow("SELECT COUNT(*) FROM " + d.dataTable).Scan(&n); err != nil {
			t.Fatal(err)
		}
		return n
	}
	cfg := gen.Config{Rows: 100, Noise: 5, Seed: 7}
	for i, c := range []struct {
		ins           int
		del           []int64
		applied, grow int64
	}{
		{0, []int64{5, 5, 999999, -3}, 1, -1},
		{2, []int64{8, 8}, 3, 1},
		{0, []int64{5, 8}, 0, 0}, // both gone already
		{1, nil, 1, 1},
	} {
		var batch *relation.Relation
		if c.ins > 0 {
			batch = gen.Updates(cfg, c.ins, int64(i))
		}
		before := size()
		_, st, err := d.ApplyUpdates(batch, c.del)
		if err != nil {
			t.Fatal(err)
		}
		if got := size() - before; st.Applied != c.applied || got != c.grow {
			t.Errorf("ApplyUpdates(%d tuples, %v): Applied %d, table grew by %d; want %d and %d", c.ins, c.del, st.Applied, got, c.applied, c.grow)
		}
	}
	before := size()
	st, err := d.DeleteTuples([]int64{7, 7})
	if err != nil {
		t.Fatal(err)
	}
	if st.Applied != 1 || size() != before-1 {
		t.Errorf("DeleteTuples(7, 7): Applied %d, %d rows removed; want 1 and 1", st.Applied, before-size())
	}
	assertMatchesNaive(t, d, d.sigma, "after the updates")
}

// TestIncrementalRepairExample walks the paper's running example:
// start clean, insert the two dirty tuples, watch violations appear;
// delete them, watch violations disappear.
func TestIncrementalRepairExample(t *testing.T) {
	inst := core.Fig1Instance()
	clean := relation.New(inst.Schema)
	for i, row := range inst.Rows {
		if i == 0 || i == 3 { // t1 and t4 are dirty
			continue
		}
		clean.Rows = append(clean.Rows, row.Clone())
	}
	d := newDetector(t, core.Fig2Constraints(), clean)
	if st, err := d.BatchDetect(); err != nil || st.Total != 0 {
		t.Fatalf("clean base: %+v, %v", st, err)
	}

	dirty := relation.New(inst.Schema)
	dirty.Rows = append(dirty.Rows, inst.Rows[0].Clone(), inst.Rows[3].Clone())
	rids, _, err := d.InsertTuples(dirty)
	if err != nil {
		t.Fatal(err)
	}
	sv, mv, total, err := d.Counts()
	if err != nil {
		t.Fatal(err)
	}
	if sv != 2 || mv != 0 || total != 2 {
		t.Errorf("after insert: SV=%d MV=%d total=%d, want 2/0/2", sv, mv, total)
	}

	if _, err := d.DeleteTuples(rids); err != nil {
		t.Fatal(err)
	}
	if _, _, total, _ := d.Counts(); total != 0 {
		t.Errorf("after delete: %d violations, want 0", total)
	}
}

// TestFDViolationsThroughSQL exercises the MV path: two Ithaca tuples
// with different area codes violate φ1's embedded FD.
func TestFDViolationsThroughSQL(t *testing.T) {
	schema := core.CustSchema()
	inst := relation.New(schema)
	mk := func(ac, ct string) relation.Tuple {
		return relation.Tuple{relation.Text(ac), relation.Text("1"), relation.Text("n"),
			relation.Text("st"), relation.Text(ct), relation.Text("z")}
	}
	inst.MustInsert(mk("111", "Ithaca"))
	inst.MustInsert(mk("222", "Ithaca"))
	inst.MustInsert(mk("333", "Buffalo"))
	d := newDetector(t, core.Fig2Constraints(), inst)
	st, err := d.BatchDetect()
	if err != nil {
		t.Fatal(err)
	}
	if st.MV != 2 || st.SV != 0 {
		t.Errorf("stats %+v, want MV=2 SV=0", st)
	}
	// Aux(D) must hold exactly one pattern: (CID=1, CT=Ithaca).
	var n int64
	if err := d.db.QueryRow("SELECT COUNT(*) FROM cust_aux").Scan(&n); err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("Aux rows = %d, want 1", n)
	}
	var cid int64
	var ctp string
	if err := d.db.QueryRow("SELECT CID, CT_P FROM cust_aux").Scan(&cid, &ctp); err != nil {
		t.Fatal(err)
	}
	if cid != 1 || ctp != "Ithaca" {
		t.Errorf("Aux pattern = (%d, %s), want (1, Ithaca)", cid, ctp)
	}
}

// recordingExecer records statement texts and argument counts.
type recordingExecer struct {
	texts []string
	nargs []int
}

func (r *recordingExecer) Exec(q string, args ...any) (sql.Result, error) {
	r.texts = append(r.texts, q)
	r.nargs = append(r.nargs, len(args))
	return nil, nil
}

func (r *recordingExecer) Prepare(string) (*sql.Stmt, error) {
	return nil, fmt.Errorf("not prepared in this test")
}

func (r *recordingExecer) QueryRow(string, ...any) *sql.Row { return nil }

// TestLoadDelRidsTextIndependentOfRIDs: staging ΔD⁻ binds the RIDs as
// parameters, so two updates of the same size share one statement text
// (one plan-cache entry) whatever they delete, and a long list splits
// into insertBatch-wide statements.
func TestLoadDelRidsTextIndependentOfRIDs(t *testing.T) {
	d, err := New(openDB(t), core.CustSchema(), core.Fig2Constraints())
	if err != nil {
		t.Fatal(err)
	}
	var a, b recordingExecer
	if err := d.loadDelRids(&a, []int64{17, 18, 19}); err != nil {
		t.Fatal(err)
	}
	if err := d.loadDelRids(&b, []int64{40001, 7, 7}); err != nil {
		t.Fatal(err)
	}
	if len(a.texts) != 2 || strings.Join(a.texts, ";") != strings.Join(b.texts, ";") {
		t.Fatalf("statement texts depend on the RIDs:\n%q\n%q", a.texts, b.texts)
	}
	if a.nargs[1] != 3 || strings.Count(a.texts[1], "?") != 3 {
		t.Fatalf("RIDs not bound as parameters: %q with %d args", a.texts[1], a.nargs[1])
	}
	var long recordingExecer
	if err := d.loadDelRids(&long, make([]int64, insertBatch+5)); err != nil {
		t.Fatal(err)
	}
	if len(long.texts) != 3 || long.nargs[1] != insertBatch || long.nargs[2] != 5 {
		t.Fatalf("long list not chunked: %d statements, args %v", len(long.texts), long.nargs)
	}
}
