package main

import (
	"fmt"
	"strings"

	"ecfd/internal/core"
	"ecfd/internal/gen"
	"ecfd/internal/relation"
)

// The oracle is internal/core's naive detector: it evaluates Σ from
// the paper's §II semantics, with no SQL. Every workload compares what
// the system returned with it before its operations count as done.

// liveRow is one tuple of the benchmark's mirror of the data table.
type liveRow struct {
	rid int64
	t   relation.Tuple
}

// mirrorOf pairs a freshly loaded instance with the RIDs 1..n that
// LoadData assigns on a new detector.
func mirrorOf(data *relation.Relation) []liveRow {
	out := make([]liveRow, len(data.Rows))
	for i, t := range data.Rows {
		out[i] = liveRow{rid: int64(i + 1), t: t}
	}
	return out
}

// violation is one line of the violation set.
type violation struct {
	rid    int64
	sv, mv bool
}

// renderViolations is the canonical text both sides are compared in:
// one "rid,sv,mv" line per violating tuple, ascending RID.
func renderViolations(vs []violation) string {
	var b strings.Builder
	for _, v := range vs {
		fmt.Fprintf(&b, "%d,%d,%d\n", v.rid, b2i(v.sv), b2i(v.mv))
	}
	return b.String()
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// expectViolations runs the naive detector over the mirror (ascending
// RID) and returns the violation set it implies.
func expectViolations(live []liveRow, sigma []*core.ECFD) ([]violation, error) {
	inst := relation.New(gen.Schema())
	inst.Rows = make([]relation.Tuple, len(live))
	for i, r := range live {
		inst.Rows[i] = r.t
	}
	v, err := core.NaiveDetect(inst, sigma)
	if err != nil {
		return nil, err
	}
	var out []violation
	for i, r := range live {
		if v.SV[i] || v.MV[i] {
			out = append(out, violation{rid: r.rid, sv: v.SV[i], mv: v.MV[i]})
		}
	}
	return out, nil
}

// violationsOf reads (RID, SV, MV) out of Detector.Violations(), whose
// columns are RID, the data columns, SV, MV.
func violationsOf(rel *relation.Relation) []violation {
	out := make([]violation, len(rel.Rows))
	w := rel.Schema.Width()
	for i, t := range rel.Rows {
		out[i] = violation{rid: t[0].I, sv: t[w-2].I == 1, mv: t[w-1].I == 1}
	}
	return out
}

// verdict is the advisory answer for one candidate tuple.
type verdict struct{ sv, mv bool }

// checkOracle answers Detector.Check's contract from the semantics: SV
// is the tuple's own single-tuple violation; MV is membership in a
// group of D that violates an embedded FD *now* — the candidate
// matches a pattern's LHS and shares t[X] with a group holding more
// than one distinct t[Y].
type checkOracle struct {
	sigma []*core.ECFD // split, one pattern tuple each
	xIdx  [][]int
	bad   []map[string]bool // per constraint: t[X] keys of violating groups
}

func newCheckOracle(data *relation.Relation, sigma []*core.ECFD) *checkOracle {
	o := &checkOracle{sigma: core.Split(sigma)}
	for _, e := range o.sigma {
		xIdx, yIdx := attrIndexes(data.Schema, e.X), attrIndexes(data.Schema, e.Y)
		o.xIdx = append(o.xIdx, xIdx)
		bad := make(map[string]bool)
		if len(e.Y) > 0 {
			firstY := make(map[string]string)
			for _, t := range data.Rows {
				if !e.MatchesLHS(t, 0) {
					continue
				}
				xk, yk := keyAt(t, xIdx), keyAt(t, yIdx)
				if y, seen := firstY[xk]; !seen {
					firstY[xk] = yk
				} else if y != yk {
					bad[xk] = true
				}
			}
		}
		o.bad = append(o.bad, bad)
	}
	return o
}

func (o *checkOracle) check(t relation.Tuple) verdict {
	var v verdict
	for i, e := range o.sigma {
		if !e.MatchesLHS(t, 0) {
			continue
		}
		if !e.MatchesRHS(t, 0) {
			v.sv = true
		}
		if o.bad[i][keyAt(t, o.xIdx[i])] {
			v.mv = true
		}
	}
	return v
}

func attrIndexes(s *relation.Schema, attrs []string) []int {
	out := make([]int, len(attrs))
	for i, a := range attrs {
		out[i] = s.Index(a)
	}
	return out
}

func keyAt(t relation.Tuple, idx []int) string {
	vs := make([]relation.Value, len(idx))
	for i, j := range idx {
		vs[i] = t[j]
	}
	return relation.KeyOf(vs)
}
