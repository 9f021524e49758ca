package detect

import (
	"bytes"
	"fmt"
	"testing"

	"ecfd/internal/gen"
	"ecfd/internal/relation"
)

// TestCheckAgainstAppliedOracle pins the advisory Check verdict to the
// ground truth of actually applying each candidate:
//
//   - SV must match the applied insert's SV flag exactly (SV is a
//     per-tuple property, so the staged form answers it losslessly);
//   - MV=true must imply the applied insert gets MV=true (soundness —
//     Check never cries wolf);
//   - a resubmitted copy of a currently MV-flagged row must come back
//     MV=true (completeness against the current Aux);
//   - Check must not disturb the detector state at all.
func TestCheckAgainstAppliedOracle(t *testing.T) {
	const rows = 2_000
	d, cleanup := newBenchDetector(t, rows, 11)
	defer cleanup()
	if _, err := d.BatchDetect(); err != nil {
		t.Fatal(err)
	}
	before, err := d.FlagsByRID()
	if err != nil {
		t.Fatal(err)
	}
	beforeCSV := violationCSV(t, d)

	// Candidates: fresh generated updates (mix of clean and violating
	// tuples) plus copies of existing rows, indexed by their source RID
	// so flagged copies anchor the completeness assertion.
	cand := gen.Updates(gen.Config{Rows: rows, Noise: 5, Seed: 11}, 24, 1_000_000)
	copySrc := make(map[int]int64) // candidate index -> source RID
	data, err := d.ViolationsVia(d.db)
	if err != nil {
		t.Fatal(err)
	}
	if len(data.Rows) < 4 {
		t.Fatal("workload has too few violations; test is vacuous")
	}
	for _, vrow := range data.Rows[:4] {
		rid := vrow[0].I
		copySrc[cand.Len()] = rid
		cand.Rows = append(cand.Rows, vrow[1:1+d.schema.Width()])
	}

	got, err := d.Check(cand)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != cand.Len() {
		t.Fatalf("Check returned %d results for %d tuples", len(got), cand.Len())
	}

	// Check is advisory: flags, Aux and the violation set are untouched.
	after, err := d.FlagsByRID()
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(before) {
		t.Fatalf("Check changed the row count: %d -> %d", len(before), len(after))
	}
	for rid, w := range before {
		if after[rid] != w {
			t.Fatalf("Check changed flags of RID %d: %v -> %v", rid, w, after[rid])
		}
	}
	if !bytes.Equal(beforeCSV, violationCSV(t, d)) {
		t.Fatal("Check changed the violation set")
	}

	// Completeness against Aux: copies of MV-flagged rows must be MV.
	for i, rid := range copySrc {
		if before[rid][1] && !got[i].MV {
			t.Errorf("candidate %d copies MV-flagged RID %d but Check.MV = false", i, rid)
		}
	}

	// Ground truth per candidate: apply it, read its flags, revert.
	one := relation.New(cand.Schema)
	one.Rows = []relation.Tuple{nil}
	for i, row := range cand.Rows {
		one.Rows[0] = row
		rids, _, err := d.ApplyUpdates(one, nil)
		if err != nil {
			t.Fatal(err)
		}
		flags, err := d.FlagsByRID()
		if err != nil {
			t.Fatal(err)
		}
		applied := flags[rids[0]]
		if got[i].SV != applied[0] {
			t.Errorf("candidate %d: Check.SV = %v, applied SV = %v (row %v)",
				i, got[i].SV, applied[0], row)
		}
		if got[i].MV && !applied[1] {
			t.Errorf("candidate %d: Check.MV = true but applied MV = false (row %v)", i, row)
		}
		if _, err := d.DeleteTuples(rids); err != nil {
			t.Fatal(err)
		}
	}

	// The apply/revert cycles must have restored the original state, or
	// the oracle itself proved nothing.
	if !bytes.Equal(beforeCSV, violationCSV(t, d)) {
		t.Fatal("apply/revert oracle did not restore the violation set")
	}
}

// TestCheckEmptyAndMismatch covers the trivial shapes.
func TestCheckEmptyAndMismatch(t *testing.T) {
	d, cleanup := newBenchDetector(t, 100, 1)
	defer cleanup()
	if _, err := d.BatchDetect(); err != nil {
		t.Fatal(err)
	}
	empty := relation.New(gen.Schema())
	res, err := d.Check(empty)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 {
		t.Fatalf("empty batch returned %d results", len(res))
	}
	wrong := relation.New(relation.MustSchema("other",
		relation.Attribute{Name: "A", Kind: relation.KindText}))
	wrong.Rows = append(wrong.Rows, relation.Tuple{relation.Text("x")})
	if _, err := d.Check(wrong); err == nil {
		t.Fatal("schema mismatch not rejected")
	}
}

// TestCheckStatementsFixed: the check statements obey the same
// fixedness contract as the rest of the set — their texts depend on the
// schema only, never on |Σ|.
func TestCheckStatementsFixed(t *testing.T) {
	d, cleanup := newBenchDetector(t, 10, 1)
	defer cleanup()
	for _, q := range []string{d.stmts.checkSVRIDs, d.stmts.checkMVRIDs} {
		if q == "" {
			t.Fatal("check statement is empty")
		}
		if want := fmt.Sprintf("FROM %s t", d.insTable); !bytes.Contains([]byte(q), []byte(want)) {
			t.Errorf("check statement does not read the staging table: %s", q)
		}
	}
}

// checkWorkload is the check route's unit of work: one warm detector on
// 10 000 rows and a batch of 8 generated candidates.
func checkWorkload(t testing.TB) (*Detector, *relation.Relation, func()) {
	t.Helper()
	const rows = 10_000
	d, cleanup := newBenchDetector(t, rows, 7)
	if _, err := d.BatchDetect(); err != nil {
		cleanup()
		t.Fatal(err)
	}
	return d, gen.Updates(gen.Config{Rows: rows, Noise: 5, Seed: 7}, 8, 1_000_000), cleanup
}

// TestCheckSteadyStateWork states the check route's per-request overhead
// in counts, which no host drift moves: once warm, a Check lays out no
// join-plan instance — every select of its statements finds an idle one
// (sqldb.Stats.SchedBuilds) — renders no statement text, and stays under
// 300 allocations (585 when every execution rebuilt its schedules).
func TestCheckSteadyStateWork(t *testing.T) {
	d, cand, cleanup := checkWorkload(t)
	eng := engOf(d)
	defer cleanup()
	check := func() {
		if _, err := d.Check(cand); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		check()
	}
	before, texts := eng.Stats(), len(d.insertTexts)
	for i := 0; i < 200; i++ {
		check()
	}
	after := eng.Stats()
	if after.SchedBuilds != before.SchedBuilds {
		t.Errorf("200 warm checks laid out %d instances, want 0", after.SchedBuilds-before.SchedBuilds)
	}
	if after.SchedReuses == before.SchedReuses {
		t.Error("200 warm checks reused no instance: the counter is not wired")
	}
	if len(d.insertTexts) != texts {
		t.Errorf("warm checks rendered %d new statement texts", len(d.insertTexts)-texts)
	}
	if allocs := testing.AllocsPerRun(200, check); allocs > 300 {
		t.Errorf("%.0f allocations per check, want at most 300", allocs)
	} else {
		t.Logf("%.0f allocations per check", allocs)
	}
}

// TestInsertTextCachedAndBounded: one text per (table, row count), and a
// client walking through batch sizes cannot grow the cache without bound.
func TestInsertTextCachedAndBounded(t *testing.T) {
	d, cleanup := newBenchDetector(t, 10, 1)
	defer cleanup()
	a, b := d.insertText(d.insTable, 3, 2), d.insertText(d.insTable, 3, 2)
	if a != "INSERT INTO "+d.insTable+" VALUES (?, ?), (?, ?), (?, ?)" || a != b {
		t.Fatalf("insertText = %q, then %q", a, b)
	}
	if other := d.insertText(d.delTable, 3, 2); other == a {
		t.Fatal("texts of two tables collide")
	}
	for n := 1; n <= 3*maxInsertTexts; n++ {
		d.insertText(d.insTable, n, 2)
	}
	if len(d.insertTexts) > maxInsertTexts {
		t.Fatalf("cache holds %d texts, bound is %d", len(d.insertTexts), maxInsertTexts)
	}
}

func BenchmarkCheck8On10k(b *testing.B) {
	d, cand, cleanup := checkWorkload(b)
	defer cleanup()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Check(cand); err != nil {
			b.Fatal(err)
		}
	}
}
