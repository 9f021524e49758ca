package core

import (
	"flag"
	"fmt"
	"math/rand"
	"testing"

	"ecfd/internal/relation"
)

// definitionalDetect flags the rows of inst straight from the §II
// definitions, in O(|D|²·|Tp|) and with nothing NaiveDetect's grouping
// could share a bug with — no keys, maps, marks, grouping or sort:
//
//   - t violates (φ, tp) by itself iff t[X] ≍ tp[X] and t[Y, Yp] does
//     not match tp[Y, Yp];
//   - t and u violate (φ, tp) together iff both match tp[X], they agree
//     on X and differ on Y, cell by cell under relation.Identical, where
//     NULL is NULL as the detector's grouping treats it.
func definitionalDetect(inst *relation.Relation, sigma []*ECFD) (sv, mv []bool) {
	n := inst.Len()
	sv, mv = make([]bool, n), make([]bool, n)
	match := make([]bool, n)
	for _, e := range sigma {
		x, y := attrIndexes(e.Schema, e.X), attrIndexes(e.Schema, e.Y)
		for pi := range e.Tableau {
			for i, t := range inst.Rows {
				match[i] = e.MatchesLHS(t, pi)
				if match[i] && !e.MatchesRHS(t, pi) {
					sv[i] = true
				}
			}
			for i, t := range inst.Rows {
				for j := i + 1; match[i] && j < n; j++ {
					u := inst.Rows[j]
					if match[j] && agreeOn(t, u, x) && !agreeOn(t, u, y) {
						mv[i], mv[j] = true, true
					}
				}
			}
		}
	}
	return sv, mv
}

// agreeOn reports t[idx] = u[idx], cell by cell.
func agreeOn(t, u relation.Tuple, idx []int) bool {
	for _, k := range idx {
		if !relation.Identical(t[k], u[k]) {
			return false
		}
	}
	return true
}

// seedFlag reseeds TestNaiveDetectMatchesDefinition (`make difffuzz`);
// 0 keeps its fixed seed.
var seedFlag = flag.Int64("seed", 0, "reseed the definitional oracle check (0 = its fixed seed)")

// adversarial are the cell values of the random instances: the
// detector's blank and NULL marks, a separator and a NUL byte, the
// empty string, and the two halves of keys that collided before text
// keys were length-prefixed — ('a\x1f\x00tb', 'c') against
// ('a', 'b\x1f\x00tc').
var adversarial = []string{"u", "v", "@", "@NULL@", "\x1f", "\x00", "", "a\x1f\x00tb", "c", "a", "b\x1f\x00tc"}

// randomCell draws a value, NULL about one time in six.
func randomCell(rng *rand.Rand) relation.Value {
	if rng.Intn(6) == 0 {
		return relation.Null()
	}
	return relation.Text(adversarial[rng.Intn(len(adversarial))])
}

// randomDefPattern draws a wildcard, an In or a NotIn cell over the
// adversarial values.
func randomDefPattern(rng *rand.Rand) Pattern {
	set := make([]string, 1+rng.Intn(3))
	for i := range set {
		set[i] = adversarial[rng.Intn(len(adversarial))]
	}
	switch rng.Intn(3) {
	case 0:
		return Any()
	case 1:
		return InStrings(set...)
	default:
		return NotInStrings(set...)
	}
}

// randomDefInstance builds rows over a four-column text schema and Σ:
// 2–4 random eCFDs with one or two LHS attributes, zero to two Y and at
// most one Yp attribute, plus the wildcard FD AB → C that the colliding
// pair, appended last, would violate if its keys met.
func randomDefInstance(rng *rand.Rand, rows int) (*relation.Relation, []*ECFD) {
	s := relation.MustSchema("def",
		relation.Attribute{Name: "A", Kind: relation.KindText},
		relation.Attribute{Name: "B", Kind: relation.KindText},
		relation.Attribute{Name: "C", Kind: relation.KindText},
		relation.Attribute{Name: "D", Kind: relation.KindText},
	)
	inst := relation.New(s)
	for i := 0; i < rows; i++ {
		inst.Rows = append(inst.Rows, relation.Tuple{randomCell(rng), randomCell(rng), randomCell(rng), randomCell(rng)})
	}
	inst.Rows = append(inst.Rows,
		relation.Tuple{relation.Text("a\x1f\x00tb"), relation.Text("c"), relation.Text("u"), relation.Null()},
		relation.Tuple{relation.Text("a"), relation.Text("b\x1f\x00tc"), relation.Text("v"), relation.Null()})

	attrs := []string{"A", "B", "C", "D"}
	sigma := []*ECFD{{Name: "collide", Schema: s, X: []string{"A", "B"}, Y: []string{"C"},
		Tableau: []PatternTuple{{LHS: []Pattern{Any(), Any()}, RHS: []Pattern{Any()}}}}}
	for i := 0; i < 2+rng.Intn(3); i++ {
		lhs, rhs := rng.Perm(len(attrs)), rng.Perm(len(attrs))
		e := &ECFD{Name: fmt.Sprintf("r%d", i+1), Schema: s}
		for _, k := range lhs[:1+rng.Intn(2)] {
			e.X = append(e.X, attrs[k])
		}
		ny := rng.Intn(3)
		for _, k := range rhs[:ny] {
			e.Y = append(e.Y, attrs[k])
		}
		if ny == 0 || rng.Intn(2) == 0 {
			e.YP = []string{attrs[rhs[ny]]}
		}
		for j := 0; j < 1+rng.Intn(3); j++ {
			var tp PatternTuple
			for range e.X {
				tp.LHS = append(tp.LHS, randomDefPattern(rng))
			}
			for range e.RHS() {
				tp.RHS = append(tp.RHS, randomDefPattern(rng))
			}
			e.Tableau = append(e.Tableau, tp)
		}
		sigma = append(sigma, e)
	}
	return inst, sigma
}

// TestNaiveDetectMatchesDefinition checks the oracle every detector leg
// is compared with against the definitional checker, on seeded
// instances of up to 2 000 rows with NULLs in X and Y and adversarial
// strings. NaiveDetect groups through relation.KeyOf as the engine
// does; this is the check that shares none of that.
func TestNaiveDetectMatchesDefinition(t *testing.T) {
	seed := int64(881)
	if *seedFlag != 0 {
		seed = *seedFlag
		t.Logf("rerun with -seed %d", seed)
	}
	rng := rand.New(rand.NewSource(seed))
	var svs, mvs int
	for trial, rows := range []int{0, 1, 2, 5, 20, 60, 200, 500, 2_000} {
		inst, sigma := randomDefInstance(rng, rows)
		sv, mv := definitionalDetect(inst, sigma)
		naive, err := NaiveDetect(inst, sigma)
		if err != nil {
			t.Fatal(err)
		}
		for i, row := range inst.Rows {
			if naive.SV[i] != sv[i] || naive.MV[i] != mv[i] {
				t.Fatalf("trial %d (%d rows), row %d %q: NaiveDetect (SV=%v MV=%v), definition (SV=%v MV=%v)\nsigma: %v",
					trial, inst.Len(), i, row, naive.SV[i], naive.MV[i], sv[i], mv[i], sigma)
			}
		}
		svs += countTrue(sv)
		mvs += countTrue(mv)
	}
	if svs == 0 || mvs == 0 {
		t.Fatalf("vacuous: %d SV and %d MV flags over every trial", svs, mvs)
	}
}
