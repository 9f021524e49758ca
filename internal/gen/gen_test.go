package gen

import (
	"math"
	"math/rand"
	"testing"

	"ecfd/internal/core"
)

func TestConstraintsValidate(t *testing.T) {
	sigma := Constraints()
	if len(sigma) != 10 {
		t.Fatalf("Σ has %d eCFDs, want 10 (§VI)", len(sigma))
	}
	for _, e := range sigma {
		if err := e.Validate(); err != nil {
			t.Errorf("%s: %v", e.Name, err)
		}
	}
	// Σ includes the Fig. 2 constraints: φ1 with the NotIn row and the
	// capital-district row, φ2 with the NYC disjunction.
	phi1 := sigma[0]
	if phi1.Tableau[0].LHS[0].Op != core.NotIn {
		t.Error("φ1 first pattern must be the S̄ row of Fig. 2")
	}
	phi2 := sigma[1]
	if len(phi2.Tableau[0].RHS[0].Set) != 5 {
		t.Error("φ2 must carry the five NYC area codes")
	}
}

func TestConstraintsAreSatisfiableByCleanData(t *testing.T) {
	inst := Dataset(Config{Rows: 2000, Noise: 0, Seed: 42})
	v, err := core.NaiveDetect(inst, Constraints())
	if err != nil {
		t.Fatal(err)
	}
	if n := v.Count(); n != 0 {
		t.Fatalf("clean dataset has %d violations; per-constraint: %v", n, v.PerConstraint)
	}
}

func TestNoiseProducesBoundedViolations(t *testing.T) {
	const rows = 4000
	inst := Dataset(Config{Rows: rows, Noise: 5, Seed: 42})
	v, err := core.NaiveDetect(inst, Constraints())
	if err != nil {
		t.Fatal(err)
	}
	total := v.Count()
	if total == 0 {
		t.Fatal("5% noise must produce violations")
	}
	// Corruptions are 5% of rows; every corruption should flag at
	// least the corrupted tuple, and FD blast radii are bounded, so the
	// violation set stays in the same order of magnitude.
	if total < rows*3/100 {
		t.Errorf("violations = %d, suspiciously few for 5%% noise on %d rows", total, rows)
	}
	if total > rows*25/100 {
		t.Errorf("violations = %d, mass-flagging detected (blast radius too large)", total)
	}
	if v.CountSV() == 0 || v.CountMV() == 0 {
		t.Errorf("noise must produce both SV (%d) and MV (%d) violations", v.CountSV(), v.CountMV())
	}
}

func TestNoiseMonotonicity(t *testing.T) {
	counts := make([]int, 0, 3)
	for _, noise := range []float64{1, 4, 9} {
		inst := Dataset(Config{Rows: 3000, Noise: noise, Seed: 7})
		v, err := core.NaiveDetect(inst, Constraints())
		if err != nil {
			t.Fatal(err)
		}
		counts = append(counts, v.Count())
	}
	if !(counts[0] < counts[1] && counts[1] < counts[2]) {
		t.Errorf("violation counts must grow with noise: %v", counts)
	}
}

func TestDeterminism(t *testing.T) {
	a := Dataset(Config{Rows: 500, Noise: 5, Seed: 9})
	b := Dataset(Config{Rows: 500, Noise: 5, Seed: 9})
	for i := range a.Rows {
		if !a.Rows[i].Equal(b.Rows[i]) {
			t.Fatalf("row %d differs across equal seeds", i)
		}
	}
	c := Dataset(Config{Rows: 500, Noise: 5, Seed: 10})
	same := true
	for i := range a.Rows {
		if !a.Rows[i].Equal(c.Rows[i]) {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds must produce different data")
	}
}

func TestConstraintsScaled(t *testing.T) {
	for _, size := range []int{50, 200} {
		sigma := ConstraintsScaled(size, 3)
		if got := len(sigma[0].Tableau); got != size {
			t.Fatalf("scaled tableau has %d rows, want %d", got, size)
		}
		for _, e := range sigma {
			if err := e.Validate(); err != nil {
				t.Fatal(err)
			}
		}
		// Clean data stays clean under the scaled tableau.
		inst := Dataset(Config{Rows: 1500, Noise: 0, Seed: 5})
		v, err := core.NaiveDetect(inst, sigma)
		if err != nil {
			t.Fatal(err)
		}
		if n := v.Count(); n != 0 {
			t.Errorf("|Tp|=%d: clean data has %d violations: %v", size, n, v.PerConstraint)
		}
	}
	// No-op when the requested size is below the current tableau.
	sigma := ConstraintsScaled(1, 3)
	if len(sigma[0].Tableau) != 2 {
		t.Error("scaling below the base size must keep the base tableau")
	}
}

func TestUpdatesIndependentOfBase(t *testing.T) {
	cfg := Config{Rows: 1000, Noise: 5, Seed: 11}
	base := Dataset(cfg)
	up1 := Updates(cfg, 300, 0)
	up2 := Updates(cfg, 300, 1)
	if up1.Len() != 300 || up2.Len() != 300 {
		t.Fatal("update sizes wrong")
	}
	// Batches use disjoint PN ranges: merging must not create new
	// (AC, PN) collisions with differing addresses (φ10 stays clean on
	// clean data).
	merged := base.Clone()
	clean := Dataset(Config{Rows: 1000, Noise: 0, Seed: 11})
	cleanUp := Updates(Config{Rows: 1000, Noise: 0, Seed: 11}, 300, 0)
	merged = clean.Clone()
	merged.Rows = append(merged.Rows, cleanUp.Rows...)
	v, err := core.NaiveDetect(merged, Constraints())
	if err != nil {
		t.Fatal(err)
	}
	if n := v.Count(); n != 0 {
		t.Errorf("clean base + clean batch must stay clean, got %d violations: %v", n, v.PerConstraint)
	}
	_ = base
	_ = up1
	_ = up2
}

func TestDeleteSample(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	rids := []int64{1, 2, 3, 4, 5}
	got := DeleteSample(rng, rids, 3)
	if len(got) != 3 {
		t.Fatalf("sample size %d", len(got))
	}
	seen := map[int64]bool{}
	for _, r := range got {
		if seen[r] {
			t.Error("duplicate rid in sample")
		}
		seen[r] = true
	}
	if got := DeleteSample(rng, rids, 99); len(got) != 5 {
		t.Error("oversized sample must clamp")
	}
}

func TestSchemaShape(t *testing.T) {
	s := Schema()
	if s.Width() != 9 || s.Name != "cust" {
		t.Errorf("schema = %s", s)
	}
	for _, a := range []string{"AC", "PN", "NM", "STR", "CT", "ZIP", "ITEM", "TYPE", "PRICE"} {
		if !s.Has(a) {
			t.Errorf("missing attribute %s", a)
		}
	}
}

// TestConfigValidate: Validate refuses exactly what Dataset cannot honour
// — a negative row count, a noise percentage outside [0, 100] or NaN —
// and every configuration it accepts generates.
func TestConfigValidate(t *testing.T) {
	for _, c := range []struct {
		cfg Config
		ok  bool
	}{
		{Config{Rows: 10, Noise: 0}, true},
		{Config{Rows: 10, Noise: 100}, true},
		{Config{Rows: 0, Noise: 5}, true},
		{Config{Rows: 10, Noise: 150}, false},
		{Config{Rows: 10, Noise: -0.5}, false},
		{Config{Rows: 10, Noise: math.NaN()}, false},
		{Config{Rows: -1, Noise: 5}, false},
	} {
		if err := c.cfg.Validate(); (err == nil) != c.ok {
			t.Errorf("%+v: Validate = %v", c.cfg, err)
		} else if c.ok && len(Dataset(c.cfg).Rows) != c.cfg.Rows {
			t.Errorf("%+v: Dataset did not generate %d rows", c.cfg, c.cfg.Rows)
		}
	}
}
