package detect

import (
	"testing"

	"ecfd/internal/core"
	"ecfd/internal/relation"
)

// TestEncodingSizeLinearInSigma is the paper's Remark (2) of §V-A:
// the encoding relations grow linearly with the size of Σ.
func TestEncodingSizeLinearInSigma(t *testing.T) {
	base := core.Fig2Constraints()
	var big []*core.ECFD
	for i := 0; i < 10; i++ {
		for _, e := range base {
			c := e.Clone()
			big = append(big, c)
		}
	}
	d := newDetector(t, big, core.Fig1Instance())
	var encRows, setRows int64
	if err := d.db.QueryRow("SELECT COUNT(*) FROM cust_enc").Scan(&encRows); err != nil {
		t.Fatal(err)
	}
	if err := d.db.QueryRow("SELECT COUNT(*) FROM cust_t_CT_l").Scan(&setRows); err != nil {
		t.Fatal(err)
	}
	if encRows != 30 { // 10 × 3 pattern tuples
		t.Errorf("enc rows = %d, want 30", encRows)
	}
	if setRows != 60 { // 10 × 6 CT constants
		t.Errorf("T_CT_L rows = %d, want 60", setRows)
	}
}

// TestIncrementalStatementSetFixed: the paper's §V-B remark — the
// incremental algorithm uses a fixed number of SQL statements no
// matter how many eCFDs or pattern tuples are in Σ. The statement
// *texts* depend only on the schema.
func TestIncrementalStatementSetFixed(t *testing.T) {
	small := newDetector(t, core.Fig2Constraints(), core.Fig1Instance())
	var big []*core.ECFD
	for i := 0; i < 7; i++ {
		big = append(big, core.Fig2Constraints()...)
	}
	large := newDetector(t, big, core.Fig1Instance())

	a, b := small.stmts, large.stmts
	pairs := [][2]string{
		{a.qsvSelect, b.qsvSelect}, {a.qsvUpdate, b.qsvUpdate},
		{a.qmvInsert, b.qmvInsert}, {a.mvUpdate, b.mvUpdate},
		{a.resetFlags, b.resetFlags}, {a.keysFromIns, b.keysFromIns},
		{a.keysFromDel, b.keysFromDel}, {a.auxDeleteAff, b.auxDeleteAff},
		{a.auxSaveOld, b.auxSaveOld}, {a.auxNewComp, b.auxNewComp},
		{a.repDeleteAff, b.repDeleteAff}, {a.stageRecomp, b.stageRecomp},
		{a.auxRecompute, b.auxRecompute}, {a.repRecompute, b.repRecompute},
		{a.mvSetNew, b.mvSetNew},
		{a.mvSetOld, b.mvSetOld}, {a.mvClear, b.mvClear},
		{a.svOnIns, b.svOnIns}, {a.mergeIns, b.mergeIns},
		{a.deleteRows, b.deleteRows},
		{a.checkSVRIDs, b.checkSVRIDs}, {a.checkMVRIDs, b.checkMVRIDs},
	}
	for i, p := range pairs {
		if p[0] != p[1] {
			t.Errorf("statement %d differs with |Σ|", i)
		}
		if p[0] == "" {
			t.Errorf("statement %d is empty", i)
		}
	}
	// The maintenance script itself: the same texts in the same order,
	// and no more of them than the paper's §V-B steps take.
	sa, sb := small.IncrementalSQL(), large.IncrementalSQL()
	if len(sa) > 19 || len(sa) != len(sb) {
		t.Fatalf("incremental script: %d statements (%d with the larger Σ), want at most 19", len(sa), len(sb))
	}
	for i := range sa {
		if sa[i] != sb[i] {
			t.Errorf("incremental script statement %d differs with |Σ|", i)
		}
	}
}

// TestWiderSchemaWiderQueries sanity-checks the complement: the
// statement set *does* depend on the schema (one probe pair per
// attribute).
func TestWiderSchemaWiderQueries(t *testing.T) {
	narrow := relation.MustSchema("w",
		relation.Attribute{Name: "A", Kind: relation.KindText},
		relation.Attribute{Name: "B", Kind: relation.KindText})
	wide := relation.MustSchema("w",
		relation.Attribute{Name: "A", Kind: relation.KindText},
		relation.Attribute{Name: "B", Kind: relation.KindText},
		relation.Attribute{Name: "C", Kind: relation.KindText})
	mk := func(s *relation.Schema) *Detector {
		e := &core.ECFD{Name: "e", Schema: s, X: []string{"A"}, Y: []string{"B"},
			Tableau: []core.PatternTuple{{LHS: []core.Pattern{core.Any()}, RHS: []core.Pattern{core.Any()}}}}
		d, err := New(openDB(t), s, []*core.ECFD{e})
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	if len(mk(narrow).stmts.qsvUpdate) >= len(mk(wide).stmts.qsvUpdate) {
		t.Error("wider schemas must yield wider (not equal) detection SQL")
	}
}
