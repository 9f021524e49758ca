package ecfd

import (
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"
)

// TestPublicAPIEndToEnd drives the whole stack through the public
// surface only: parse constraints, naive-check the Fig. 1 instance,
// run SQL detection, then the static analyses.
func TestPublicAPIEndToEnd(t *testing.T) {
	schema := CustSchema()
	sigma := Fig2Constraints()
	inst := Fig1Instance()

	// Naive detection (Example 2.2).
	v, err := Detect(inst, sigma)
	if err != nil {
		t.Fatal(err)
	}
	if v.Count() != 2 {
		t.Fatalf("naive: %d violations, want 2", v.Count())
	}

	// SQL detection through database/sql.
	db, err := OpenMemory("public_api_test")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	defer CloseMemory("public_api_test")

	d, err := NewDetector(db, schema, sigma)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Install(); err != nil {
		t.Fatal(err)
	}
	if _, err := d.LoadData(inst); err != nil {
		t.Fatal(err)
	}
	st, err := d.BatchDetect()
	if err != nil {
		t.Fatal(err)
	}
	if st.Total != 2 || st.SV != 2 {
		t.Fatalf("SQL: %+v, want 2 single-tuple violations", st)
	}

	// Static analyses.
	ok, witness, err := Satisfiable(schema, sigma)
	if err != nil || !ok {
		t.Fatalf("Σ must be satisfiable: %v", err)
	}
	if len(witness) != schema.Width() {
		t.Fatal("witness width")
	}
	implied, _, err := Implies(schema, sigma, sigma[0])
	if err != nil || !implied {
		t.Fatalf("Σ ⊨ φ1 must hold: %v", err)
	}
	res, err := MaxSS(schema, sigma, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Subset) != res.Total {
		t.Errorf("MaxSS on satisfiable Σ: %d of %d", len(res.Subset), res.Total)
	}
}

func TestPublicParseSpec(t *testing.T) {
	spec, err := ParseSpec(`
table t (A text, B text)
ecfd e on t: [A] -> [B] { ({x} || {y}) }
`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Constraints) != 1 {
		t.Fatal("constraint count")
	}
	inst := NewRelation(spec.Schemas["t"])
	inst.MustInsert(Tuple{Text("x"), Text("z")})
	v, err := Detect(inst, spec.Constraints)
	if err != nil {
		t.Fatal(err)
	}
	if !v.SV[0] {
		t.Error("x/z must violate e")
	}
}

// TestQuickstartSpecIsFig2: the Σ examples/quickstart reads from its
// spec file finds exactly the violations Fig2Constraints finds on the
// Fig. 1 instance.
func TestQuickstartSpecIsFig2(t *testing.T) {
	src, err := os.ReadFile("examples/quickstart/fig2.ecfd")
	if err != nil {
		t.Fatal(err)
	}
	spec, err := ParseSpec(string(src), nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Detect(Fig1Instance(), spec.Constraints)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Detect(Fig1Instance(), Fig2Constraints())
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got.SV, want.SV) || !slices.Equal(got.MV, want.MV) || want.Count() != 2 {
		t.Errorf("fig2.ecfd flags SV %v MV %v, Fig2Constraints SV %v MV %v", got.SV, got.MV, want.SV, want.MV)
	}
}

func TestPublicPatternHelpers(t *testing.T) {
	p := In(Int(1), Int(2))
	if !p.Matches(Int(2)) || p.Matches(Int(3)) {
		t.Error("In pattern broken")
	}
	if !Any().Matches(Null()) {
		t.Error("Any must match NULL")
	}
	q := NotInStrings("a")
	if q.Matches(Text("a")) || !q.Matches(Text("b")) {
		t.Error("NotIn pattern broken")
	}
	if c, ok := ConstPattern(Text("v")).IsConst(); !ok || c.S != "v" {
		t.Error("ConstPattern broken")
	}
}

func TestSplitConstraints(t *testing.T) {
	if got := len(SplitConstraints(Fig2Constraints())); got != 3 {
		t.Errorf("split = %d, want 3", got)
	}
}

func TestImpliesCounterexampleSurface(t *testing.T) {
	schema := CustSchema()
	sigma := Fig2Constraints()
	phi := &ECFD{
		Name: "not-implied", Schema: schema, X: []string{"CT"}, YP: []string{"AC"},
		Tableau: []PatternTuple{{
			LHS: []Pattern{InStrings("Utica")},
			RHS: []Pattern{InStrings("315")},
		}},
	}
	ok, cx, err := Implies(schema, sigma, phi)
	if err != nil {
		t.Fatal(err)
	}
	if ok || len(cx) == 0 {
		t.Fatalf("expected a counterexample, got ok=%v cx=%v", ok, cx)
	}
	inst := NewRelation(schema)
	for _, tup := range cx {
		inst.Rows = append(inst.Rows, tup)
	}
	if sat, _ := Satisfies(inst, sigma); !sat {
		t.Error("counterexample must satisfy Σ")
	}
	if sat, _ := Satisfies(inst, []*ECFD{phi}); sat {
		t.Error("counterexample must violate φ")
	}
}

func TestReadCSVPublic(t *testing.T) {
	s := MustSchema("t",
		Attribute{Name: "A", Kind: KindText},
		Attribute{Name: "N", Kind: KindInt})
	rel, err := ReadCSV(strings.NewReader("A,N\nx,3\ny,4\n"), s)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 2 || rel.Rows[1][1].I != 4 {
		t.Errorf("rows: %v", rel.Rows)
	}
	if _, err := NewSchema(""); err == nil {
		t.Error("NewSchema must validate")
	}
}

func TestParseConstraintsPublic(t *testing.T) {
	es, err := ParseConstraints(`ecfd e on cust: [CT] -> [AC] { (_ || _) }`,
		map[string]*Schema{"cust": CustSchema()})
	if err != nil || len(es) != 1 {
		t.Fatalf("%v %v", es, err)
	}
}

func TestValueConstructorsPublic(t *testing.T) {
	if Int(3).I != 3 || Float(2.5).F != 2.5 || !Bool(true).Truth() ||
		Text("x").S != "x" || !Null().IsNull() {
		t.Error("value constructors broken")
	}
}

// TestDiscoverRepairRoundTrip closes the full data-quality loop through
// the public API: corrupt data → discover constraints on a clean
// sample → detect violations in the dirty data → repair → re-detect.
func TestDiscoverRepairRoundTrip(t *testing.T) {
	schema := CustSchema()
	sigma := Fig2Constraints()
	dirty := Fig1Instance()

	res, err := Repair(dirty, sigma, RepairOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Remaining != 0 {
		t.Fatalf("repair left %d violations", res.Remaining)
	}
	if ok, _ := Satisfies(res.Repaired, sigma); !ok {
		t.Fatal("repaired instance must satisfy Σ")
	}

	// Discovery over the repaired data yields constraints the repaired
	// data satisfies.
	found, err := Discover(res.Repaired, DiscoverOptions{MinSupport: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(found) == 0 {
		t.Fatal("expected discovered constraints")
	}
	v, err := Detect(res.Repaired, found)
	if err != nil {
		t.Fatal(err)
	}
	if v.Count() != 0 {
		t.Errorf("discovered constraints must hold on their sample: %d violations", v.Count())
	}
	_ = schema
}

// TestStatsOfLooksUp: StatsOf reads the engine open under a name and
// opens none itself — not for a name nobody opened, not for a DSN whose
// options do not parse.
func TestStatsOfLooksUp(t *testing.T) {
	for _, name := range []string{"stats_of_nobody", "stats_of_bad?fsync=bogus"} {
		for range 2 { // a lookup that registered an engine would find it the second time
			if _, ok := StatsOf(name); ok {
				t.Fatalf("StatsOf(%q) found an engine nobody opened", name)
			}
		}
	}
	const name = "stats_of_open"
	db, err := OpenMemory(name)
	if err != nil {
		t.Fatal(err)
	}
	defer CloseMemory(name)
	defer db.Close()
	if _, err := db.Exec(`CREATE TABLE s (a INTEGER)`); err != nil {
		t.Fatal(err)
	}
	if st, ok := StatsOf(name); !ok || st.EpochSeq < 2 {
		t.Fatalf("StatsOf(%q) = %+v, %v after a CREATE TABLE", name, st, ok)
	}
}

func TestEngineBulkLoad(t *testing.T) {
	name := fmt.Sprintf("bulk_%d", 1)
	defer CloseMemory(name)
	eng := Engine(name)
	inst := Fig1Instance()
	if err := eng.LoadRelation(inst); err != nil {
		t.Fatal(err)
	}
	db, err := OpenMemory(name)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	var n int64
	if err := db.QueryRow(`SELECT COUNT(*) FROM cust`).Scan(&n); err != nil {
		t.Fatal(err)
	}
	if n != 6 {
		t.Errorf("bulk load: %d rows", n)
	}
}
