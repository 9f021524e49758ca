// Package repair implements a heuristic data repair for eCFD
// violations — the paper's first future-work topic (§VIII: "develop
// algorithms for eliminating eCFD violations and repairing data",
// following the cost-based value-modification line of Bohannon et al.
// and Cong et al. for CFDs). Finding a minimal repair is NP-hard
// already for FDs, so this is a bounded-round greedy cleaner:
//
//   - single-tuple violations (SV) are repaired by rewriting one
//     failing RHS cell to the cheapest admissible value — for an ∈S
//     pattern the most frequent S-member in the column, for an ∉S
//     pattern the most frequent column value outside S (or a fresh
//     value when none exists);
//   - embedded-FD violations (MV) are repaired group-wise by majority:
//     every tuple in a violating group adopts the group's most common
//     RHS combination.
//
// Rounds repeat until the violation set is empty or MaxRounds is hit
// (pattern and FD repairs can interact); the result reports every cell
// change and the violations remaining, if any. Repairs restore
// consistency — they do not promise to recover ground truth, exactly as
// in the repair literature.
package repair

import (
	"fmt"
	"sort"

	"ecfd/internal/core"
	"ecfd/internal/relation"
)

// Options bounds the repair loop.
type Options struct {
	// MaxRounds caps detect→repair iterations (default 5).
	MaxRounds int
}

// Change records one repaired cell.
type Change struct {
	Row       int
	Attribute string
	Old, New  relation.Value
	// Constraint names the pattern constraint (name#index) that
	// triggered the change.
	Constraint string
}

// Result reports a repair run. Remaining is 0 when the repaired
// instance satisfies Σ.
type Result struct {
	Repaired  *relation.Relation
	Changes   []Change
	Rounds    int
	Remaining int
}

// Repair returns a repaired copy of the instance; the input is not
// modified.
func Repair(inst *relation.Relation, sigma []*core.ECFD, opts Options) (*Result, error) {
	if opts.MaxRounds <= 0 {
		opts.MaxRounds = 5
	}
	for _, e := range sigma {
		if err := e.Validate(); err != nil {
			return nil, err
		}
	}
	work := inst.Clone()
	split := core.Split(sigma)
	res := &Result{Repaired: work}
	// cellChanges counts rewrites per cell across rounds; a cell hit
	// twice is flip-flopping between two constraints and triggers the
	// LHS-move conflict resolution in repairFDs.
	cellChanges := make(map[[2]int]int)

	for round := 1; round <= opts.MaxRounds; round++ {
		res.Rounds = round
		changed := 0
		changed += repairPatterns(work, split, res)
		changed += repairFDs(work, split, res, cellChanges)
		v, err := core.NaiveDetect(work, split)
		if err != nil {
			return nil, err
		}
		res.Remaining = v.Count()
		if res.Remaining == 0 || changed == 0 {
			break
		}
	}
	return res, nil
}

// columnFrequency counts value occurrences in a column, keyed by
// Value.Key.
func columnFrequency(inst *relation.Relation, col int) (map[string]int, map[string]relation.Value) {
	freq := make(map[string]int)
	vals := make(map[string]relation.Value)
	for _, row := range inst.Rows {
		v := row[col]
		if v.IsNull() {
			continue
		}
		k := v.Key()
		freq[k]++
		vals[k] = v
	}
	return freq, vals
}

// repairPatterns fixes single-tuple violations in place and returns the
// number of cells rewritten.
func repairPatterns(inst *relation.Relation, split []*core.ECFD, res *Result) int {
	schema := inst.Schema
	changed := 0
	freqCache := map[int]map[string]int{}
	valCache := map[int]map[string]relation.Value{}
	colFreq := func(col int) (map[string]int, map[string]relation.Value) {
		if f, ok := freqCache[col]; ok {
			return f, valCache[col]
		}
		f, v := columnFrequency(inst, col)
		freqCache[col], valCache[col] = f, v
		return f, v
	}

	for ci, e := range split {
		rhs := e.RHS()
		for ri, row := range inst.Rows {
			if !e.MatchesLHS(row, 0) || e.MatchesRHS(row, 0) {
				continue
			}
			// Find the first failing RHS cell and rewrite it.
			for j, attr := range rhs {
				col := schema.Index(attr)
				pat := e.Tableau[0].RHS[j]
				if pat.Matches(row[col]) {
					continue
				}
				newVal, ok := admissibleValue(pat, col, colFreq)
				if !ok {
					break // nothing admissible; leave for reporting
				}
				res.Changes = append(res.Changes, Change{
					Row: ri, Attribute: attr, Old: row[col], New: newVal,
					Constraint: e.Name,
				})
				row[col] = newVal
				changed++
				// Invalidate the column's frequency cache.
				delete(freqCache, col)
				delete(valCache, col)
				break
			}
		}
		_ = ci
	}
	return changed
}

// admissibleValue picks the cheapest value matching the pattern:
// the most frequent admissible value already in the column, falling
// back to the pattern set (In) or a fresh value (NotIn).
func admissibleValue(pat core.Pattern, col int,
	colFreq func(int) (map[string]int, map[string]relation.Value)) (relation.Value, bool) {
	freq, vals := colFreq(col)
	var keys []string
	for k := range freq {
		keys = append(keys, k)
	}
	// Highest frequency first; ties resolved deterministically by key.
	sort.Slice(keys, func(i, j int) bool {
		if freq[keys[i]] != freq[keys[j]] {
			return freq[keys[i]] > freq[keys[j]]
		}
		return keys[i] < keys[j]
	})
	for _, k := range keys {
		if pat.Matches(vals[k]) {
			return vals[k], true
		}
	}
	switch pat.Op {
	case core.In:
		return pat.Set[0], true
	case core.NotIn:
		// A fresh value distinct from the excluded set.
		for i := 0; ; i++ {
			cand := relation.Text(fmt.Sprintf("repaired%d", i))
			if pat.Matches(cand) {
				return cand, true
			}
		}
	default:
		return relation.Null(), false
	}
}

// repairFDs resolves embedded-FD violations by majority vote within
// each violating group. When a cell has already flip-flopped (two
// constraints pulling a tuple's RHS in opposite directions), the tuple
// is instead *moved* out of the group: its LHS attributes are rewritten
// to those of a clean group whose RHS agrees with the tuple — the
// attribute-choice step of cost-based repair.
func repairFDs(inst *relation.Relation, split []*core.ECFD, res *Result, cellChanges map[[2]int]int) int {
	schema := inst.Schema
	changed := 0
	for _, e := range split {
		if len(e.Y) == 0 {
			continue
		}
		xIdx := indexes(schema, e.X)
		yIdx := indexes(schema, e.Y)

		type members struct {
			rows []int
			// yCombo frequency, keyed by the joint Y key
			count map[string]int
		}
		groups := map[string]*members{}
		var groupKeys []string
		for ri, row := range inst.Rows {
			if !e.MatchesLHS(row, 0) {
				continue
			}
			gk := jointKey(row, xIdx)
			g := groups[gk]
			if g == nil {
				g = &members{count: map[string]int{}}
				groups[gk] = g
				groupKeys = append(groupKeys, gk)
			}
			g.rows = append(g.rows, ri)
			g.count[jointKey(row, yIdx)]++
		}
		sort.Strings(groupKeys)

		// cleanHome finds a single-combo group whose RHS equals yk; its
		// first row donates LHS values for a move.
		cleanHome := func(yk string) relation.Tuple {
			for _, gk := range groupKeys {
				g := groups[gk]
				if len(g.count) == 1 && g.count[yk] > 0 {
					return inst.Rows[g.rows[0]]
				}
			}
			return nil
		}

		for _, gk := range groupKeys {
			g := groups[gk]
			if len(g.count) <= 1 {
				continue
			}
			// Majority combination wins; ties broken deterministically.
			var combos []string
			for k := range g.count {
				combos = append(combos, k)
			}
			sort.Slice(combos, func(i, j int) bool {
				if g.count[combos[i]] != g.count[combos[j]] {
					return g.count[combos[i]] > g.count[combos[j]]
				}
				return combos[i] < combos[j]
			})
			best := combos[0]
			// Find a representative row carrying the majority combo.
			var donor relation.Tuple
			for _, ri := range g.rows {
				if jointKey(inst.Rows[ri], yIdx) == best {
					donor = inst.Rows[ri]
					break
				}
			}
			for _, ri := range g.rows {
				row := inst.Rows[ri]
				yk := jointKey(row, yIdx)
				if yk == best {
					continue
				}
				flipFlop := false
				for _, yi := range yIdx {
					if !valueEq(row[yi], donor[yi]) && cellChanges[[2]int{ri, yi}] >= 2 {
						flipFlop = true
						break
					}
				}
				if flipFlop {
					// Move the tuple to a clean group agreeing with its
					// RHS instead of rewriting the contested cells again.
					home := cleanHome(yk)
					if home == nil {
						continue // no compatible home; leave for reporting
					}
					for _, xi := range xIdx {
						if valueEq(row[xi], home[xi]) {
							continue
						}
						res.Changes = append(res.Changes, Change{
							Row: ri, Attribute: schema.Attrs[xi].Name,
							Old: row[xi], New: home[xi], Constraint: e.Name,
						})
						row[xi] = home[xi]
						cellChanges[[2]int{ri, xi}]++
						changed++
					}
					continue
				}
				for _, yi := range yIdx {
					if valueEq(row[yi], donor[yi]) {
						continue
					}
					res.Changes = append(res.Changes, Change{
						Row: ri, Attribute: schema.Attrs[yi].Name,
						Old: row[yi], New: donor[yi], Constraint: e.Name,
					})
					row[yi] = donor[yi]
					cellChanges[[2]int{ri, yi}]++
					changed++
				}
			}
		}
	}
	return changed
}

func indexes(s *relation.Schema, attrs []string) []int {
	out := make([]int, len(attrs))
	for i, a := range attrs {
		out[i] = s.Index(a)
	}
	return out
}

func jointKey(t relation.Tuple, idx []int) string {
	var buf []byte
	for _, i := range idx {
		buf = relation.AppendKey(buf, t[i])
	}
	return string(buf)
}

func valueEq(a, b relation.Value) bool {
	if a.IsNull() || b.IsNull() {
		return a.IsNull() && b.IsNull()
	}
	return relation.Equal(a, b)
}
