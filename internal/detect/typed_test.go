package detect

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"ecfd/internal/core"
	"ecfd/internal/gen"
	"ecfd/internal/relation"
	"ecfd/internal/sqldb"
)

// intSchema exercises the '@'-blanking machinery over non-text
// attributes: the Qmv macro and the Aux probes must agree on the
// TOTEXT rendering of INTEGER and REAL values.
func intSchema() *relation.Schema {
	return relation.MustSchema("meter",
		relation.Attribute{Name: "GRID", Kind: relation.KindInt},
		relation.Attribute{Name: "NODE", Kind: relation.KindInt},
		relation.Attribute{Name: "VOLT", Kind: relation.KindFloat},
		relation.Attribute{Name: "ZONE", Kind: relation.KindText},
	)
}

func intSigma(s *relation.Schema) []*core.ECFD {
	return []*core.ECFD{
		{
			// Node determines voltage within a grid (embedded FD over
			// integer LHS).
			Name: "fd", Schema: s, X: []string{"GRID", "NODE"}, Y: []string{"VOLT"},
			Tableau: []core.PatternTuple{{
				LHS: []core.Pattern{core.Any(), core.Any()},
				RHS: []core.Pattern{core.Any()},
			}},
		},
		{
			// Grid 1 runs at 110 or 220 volts.
			Name: "volts", Schema: s, X: []string{"GRID"}, YP: []string{"VOLT"},
			Tableau: []core.PatternTuple{{
				LHS: []core.Pattern{core.InSet(relation.Int(1))},
				RHS: []core.Pattern{core.InSet(relation.Float(110), relation.Float(220))},
			}},
		},
		{
			// Zones outside the core are on grids other than 9.
			Name: "zones", Schema: s, X: []string{"ZONE"}, YP: []string{"GRID"},
			Tableau: []core.PatternTuple{{
				LHS: []core.Pattern{core.NotInStrings("core")},
				RHS: []core.Pattern{core.NotInSet(relation.Int(9))},
			}},
		},
	}
}

func TestTypedAttributesBatch(t *testing.T) {
	s := intSchema()
	sigma := intSigma(s)
	inst := relation.New(s)
	row := func(grid, node int64, volt float64, zone string) relation.Tuple {
		return relation.Tuple{relation.Int(grid), relation.Int(node), relation.Float(volt), relation.Text(zone)}
	}
	inst.MustInsert(row(1, 10, 110, "core")) // clean
	inst.MustInsert(row(1, 10, 220, "core")) // FD conflict with row 0 (same grid+node)
	inst.MustInsert(row(1, 11, 400, "core")) // volts pattern violation (SV)
	inst.MustInsert(row(9, 12, 110, "edge")) // zones violation (SV): edge on grid 9
	inst.MustInsert(row(2, 13, 110, "edge")) // clean

	naive, err := core.NaiveDetect(inst, sigma)
	if err != nil {
		t.Fatal(err)
	}
	d := newDetector(t, sigma, inst)
	if _, err := d.BatchDetect(); err != nil {
		t.Fatal(err)
	}
	flags, err := d.FlagsByRID()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < inst.Len(); i++ {
		got := flags[int64(i+1)]
		if got[0] != naive.SV[i] || got[1] != naive.MV[i] {
			t.Errorf("row %d: SQL (SV=%v MV=%v) vs naive (SV=%v MV=%v)",
				i, got[0], got[1], naive.SV[i], naive.MV[i])
		}
	}
	if !flags[1][1] || !flags[2][1] {
		t.Error("integer-keyed FD group must be flagged MV")
	}
	if !flags[3][0] || !flags[4][0] {
		t.Error("pattern violations over numeric RHS must be flagged SV")
	}
}

// TestTypedAttributesIncremental maintains flags over the INTEGER / REAL
// schema: first the smallest conflict and its repair, then a randomized
// insert/delete sequence on a table above the engine's 4096-candidate
// threshold — where the touched-keys and Aux probes answer from value
// sets whose members are TOTEXT renderings of numbers, two per-row key
// parts for the (GRID, NODE) → VOLT groups, NULL LHS cells included —
// each step against the naive oracle. The nan cases put NaN readings in
// VOLT and add an embedded FD keyed on it behind a complement set: SQL's
// `=` never matches NaN (so it is in no pattern set and outside every
// complement), while grouping — the oracle's and the macro's TOTEXT
// keys alike — puts the NaN readings in one group.
func TestTypedAttributesIncremental(t *testing.T) {
	s := intSchema()
	for _, c := range []struct {
		name string
		mode sqldb.Mode
		nan  bool
	}{
		{"planned", sqldb.Planned, false},
		{"nan/planned", sqldb.Planned, true},
		{"nan/reference", sqldb.Reference, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			sigma := intSigma(s)
			if c.nan {
				sigma = append(sigma, &core.ECFD{
					// Off the 110 V standard, a reading's voltage names its zone.
					Name: "byvolt", Schema: s, X: []string{"VOLT"}, Y: []string{"ZONE"},
					Tableau: []core.PatternTuple{{
						LHS: []core.Pattern{core.NotInSet(relation.Float(110))},
						RHS: []core.Pattern{core.Any()},
					}},
				})
			}
			typedIncremental(t, s, sigma, c.mode, c.nan)
		})
	}
}

// TestNaNPatternConstantRefused: a NaN inside a pattern set would be a
// member by the oracle's search and of nothing by SQL's `=`, so Σ is
// refused before either detector sees it.
func TestNaNPatternConstantRefused(t *testing.T) {
	s := intSchema()
	sigma := []*core.ECFD{{
		Name: "nan", Schema: s, X: []string{"GRID"}, YP: []string{"VOLT"},
		Tableau: []core.PatternTuple{{
			LHS: []core.Pattern{core.Any()},
			RHS: []core.Pattern{core.InSet(relation.Float(110), relation.Float(math.NaN()))},
		}},
	}}
	if _, err := New(openDB(t), s, sigma); err == nil || !strings.Contains(err.Error(), "NaN") {
		t.Fatalf("New accepted a NaN pattern constant: %v", err)
	}
	if _, err := core.NaiveDetect(relation.New(s), sigma); err == nil {
		t.Fatal("the oracle accepted a NaN pattern constant")
	}
}

func typedIncremental(t *testing.T, s *relation.Schema, sigma []*core.ECFD, mode sqldb.Mode, nan bool) {
	inst := relation.New(s)
	inst.MustInsert(relation.Tuple{relation.Int(1), relation.Int(10), relation.Float(110), relation.Text("core")})
	d := newDetectorIn(t, mode, sigma, inst)
	if st, err := d.BatchDetect(); err != nil || st.Total != 0 {
		t.Fatalf("clean base: %+v %v", st, err)
	}

	// Insert a conflicting reading: same (GRID, NODE), new voltage.
	batch := relation.New(s)
	batch.MustInsert(relation.Tuple{relation.Int(1), relation.Int(10), relation.Float(220), relation.Text("core")})
	rids, _, err := d.InsertTuples(batch)
	if err != nil {
		t.Fatal(err)
	}
	if sv, mv, total, _ := d.Counts(); sv != 0 || mv != 2 || total != 2 {
		t.Errorf("after conflicting insert: SV=%d MV=%d total=%d, want 0/2/2", sv, mv, total)
	}

	// Remove it again: the group heals.
	if _, err := d.DeleteTuples(rids); err != nil {
		t.Fatal(err)
	}
	if _, _, total, _ := d.Counts(); total != 0 {
		t.Errorf("after delete: %d violations, want 0", total)
	}

	rng := rand.New(rand.NewSource(179))
	volts := []float64{110, 220, 110.5}
	reading := func() relation.Tuple {
		grid, node := int64(1+rng.Intn(3)), int64(rng.Intn(500))
		row := relation.Tuple{relation.Int(grid), relation.Int(node),
			relation.Float(volts[(grid+node)%3]), relation.Text([]string{"core", "edge"}[rng.Intn(2)])}
		if rng.Intn(20) == 0 {
			row[2] = relation.Float(volts[rng.Intn(3)]) // a reading off its node's voltage
		}
		if nan && rng.Intn(12) == 0 {
			row[2] = relation.Float(math.NaN())
		}
		if rng.Intn(25) == 0 {
			row[0] = relation.Int(9)
		}
		for j := range row {
			if rng.Intn(30) == 0 {
				row[j] = relation.Null()
			}
		}
		return row
	}
	readings := func(n int) *relation.Relation {
		r := relation.New(s)
		for i := 0; i < n; i++ {
			r.MustInsert(reading())
		}
		return r
	}
	if _, _, err := d.InsertTuples(readings(4600)); err != nil {
		t.Fatal(err)
	}
	assertMatchesNaive(t, d, sigma, "after the bulk insert")
	for step := 0; step < 6; step++ {
		live, err := d.RIDs()
		if err != nil {
			t.Fatal(err)
		}
		doomed := gen.DeleteSample(rng, live, 1+rng.Intn(10))
		if _, _, err := d.ApplyUpdates(readings(1+rng.Intn(10)), doomed); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		assertMatchesNaive(t, d, sigma, fmt.Sprintf("step %d", step))
	}
}

// TestReservedNullMarkRefused: the Qmv macro renders NULL as nullMark, so
// a TEXT cell holding that string would group with NULL. Two Boston
// customers differing only in AC, one NULL and one nullMark, violate φ1's
// CT → AC for the oracle (MV on both) and, were they admitted, for nobody
// through SQL. Every entry point a batch comes through refuses one, naming
// the cell, before anything is staged: the table keeps its row, and the
// next batch takes the next RID.
func TestReservedNullMarkRefused(t *testing.T) {
	sigma := core.Fig2Constraints()
	cust := func(ac relation.Value) relation.Tuple {
		return relation.Tuple{ac, relation.Text("5550000"), relation.Text("Ann"), relation.Text("1 Main St"), relation.Text("Boston"), relation.Text("02101")}
	}
	batch := relation.New(core.CustSchema())
	batch.Rows = append(batch.Rows, cust(relation.Null()), cust(relation.Text(nullMark)))
	if naive, err := core.NaiveDetect(batch, sigma); err != nil || !naive.MV[0] || !naive.MV[1] {
		t.Fatalf("the oracle flags %+v (%v), want MV on both rows", naive, err)
	}
	for _, c := range []struct {
		name string
		call func(d *Detector) error
	}{
		{"LoadData", func(d *Detector) error { _, err := d.LoadData(batch); return err }},
		{"InsertRaw", func(d *Detector) error { _, err := d.InsertRaw(batch); return err }},
		{"ApplyUpdates", func(d *Detector) error { _, _, err := d.ApplyUpdates(batch, []int64{1}); return err }},
		{"Check", func(d *Detector) error { _, err := d.Check(batch); return err }},
	} {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			base := relation.New(core.CustSchema())
			base.Rows = append(base.Rows, cust(relation.Text("617")))
			d := newDetector(t, sigma, base)
			if _, err := d.BatchDetect(); err != nil {
				t.Fatal(err)
			}
			var rv *ReservedValueError
			if err := c.call(d); !errors.As(err, &rv) || rv.Row != 2 || rv.Attr != "AC" {
				t.Fatalf("%s answered %v, want a ReservedValueError for row 2, AC", c.name, err)
			}
			clean := relation.New(core.CustSchema())
			clean.Rows = append(clean.Rows, cust(relation.Text("617")))
			rids, _, err := d.ApplyUpdates(clean, nil)
			if err != nil {
				t.Fatal(err)
			}
			if all, err := d.RIDs(); err != nil || !slices.Equal(all, []int64{1, 2}) || !slices.Equal(rids, []int64{2}) {
				t.Fatalf("after the refusal and one clean row: RIDs %v (new %v), %v; want [1 2]", all, rids, err)
			}
			assertMatchesNaive(t, d, sigma, "after the refusal")
		})
	}
}

// TestNullXGroupsThroughSQL: rows with NULL in the FD LHS group
// together (the nullMark sentinel), matching the naive oracle.
func TestNullXGroupsThroughSQL(t *testing.T) {
	s := relation.MustSchema("n",
		relation.Attribute{Name: "A", Kind: relation.KindText},
		relation.Attribute{Name: "B", Kind: relation.KindText},
	)
	fd := (&core.FD{Schema: s, X: []string{"A"}, Y: []string{"B"}}).AsECFD()
	fd.Name = "fd"
	inst := relation.New(s)
	inst.MustInsert(relation.Tuple{relation.Null(), relation.Text("x")})
	inst.MustInsert(relation.Tuple{relation.Null(), relation.Text("y")})
	inst.MustInsert(relation.Tuple{relation.Text("k"), relation.Text("x")})

	naive, err := core.NaiveDetect(inst, []*core.ECFD{fd})
	if err != nil {
		t.Fatal(err)
	}
	d := newDetector(t, []*core.ECFD{fd}, inst)
	if _, err := d.BatchDetect(); err != nil {
		t.Fatal(err)
	}
	flags, err := d.FlagsByRID()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < inst.Len(); i++ {
		got := flags[int64(i+1)]
		if got[1] != naive.MV[i] {
			t.Errorf("row %d: SQL MV=%v vs naive MV=%v", i, got[1], naive.MV[i])
		}
	}
	if !flags[1][1] || !flags[2][1] || flags[3][1] {
		t.Errorf("NULL-keyed group must be MV, k-group clean: %v", flags)
	}
}

// TestSeparatorInTextKeepsGroupsApart: two rows whose LHS cells differ,
// but whose joined cells are the same bytes once a cell holds 0x1f (the
// separator keys were once joined with) and a kind tag, are two groups of
// A, B → C. While text keys were not length-prefixed, both the oracle and
// the SQL detector made them one group with two C values: a phantom MV
// violation.
func TestSeparatorInTextKeepsGroupsApart(t *testing.T) {
	s := relation.MustSchema("sep",
		relation.Attribute{Name: "A", Kind: relation.KindText},
		relation.Attribute{Name: "B", Kind: relation.KindText},
		relation.Attribute{Name: "C", Kind: relation.KindText},
	)
	fd := (&core.FD{Schema: s, X: []string{"A", "B"}, Y: []string{"C"}}).AsECFD()
	fd.Name = "fd"
	sigma := []*core.ECFD{fd}
	inst := relation.New(s)
	inst.MustInsert(relation.Tuple{relation.Text("a\x1f\x00tb"), relation.Text("c"), relation.Text("x")})
	second := relation.New(s)
	second.MustInsert(relation.Tuple{relation.Text("a"), relation.Text("b\x1f\x00tc"), relation.Text("y")})

	both := relation.New(s)
	both.Rows = append(slices.Clone(inst.Rows), second.Rows...)
	if naive, err := core.NaiveDetect(both, sigma); err != nil || naive.MV[0] || naive.MV[1] {
		t.Fatalf("the oracle flags MV %v (%v), want no violation", naive.MV, err)
	}
	d := newDetector(t, sigma, both)
	if _, err := d.BatchDetect(); err != nil {
		t.Fatal(err)
	}
	assertMatchesNaive(t, d, sigma, "BatchDetect")
	if flags, err := d.FlagsByRID(); err != nil || flags[1][1] || flags[2][1] {
		t.Fatalf("BatchDetect flags %v (%v), want no MV", flags, err)
	}

	d = newDetector(t, sigma, inst)
	if _, err := d.BatchDetect(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := d.ApplyUpdates(second, nil); err != nil {
		t.Fatal(err)
	}
	assertMatchesNaive(t, d, sigma, "ApplyUpdates")
}
