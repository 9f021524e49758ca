// Package core implements the paper's §II: the syntax and semantics of
// extended conditional functional dependencies (eCFDs), the classic CFD
// special case, a textual constraint language, and a naive in-memory
// violation oracle used to cross-check the SQL-based detectors.
package core

import (
	"fmt"
	"sort"
	"strings"

	"ecfd/internal/relation"
)

// PatternOp distinguishes the three forms a pattern cell can take:
// the unnamed variable '_', a finite set S (t[A] ∈ S, "disjunction"),
// or a complement set S̄ (t[A] ∉ S, "inequality").
type PatternOp uint8

const (
	// Wildcard matches any domain value ('_' in the paper).
	Wildcard PatternOp = iota
	// In matches values inside the finite set S.
	In
	// NotIn matches values outside the finite set S.
	NotIn
)

func (op PatternOp) String() string {
	switch op {
	case Wildcard:
		return "_"
	case In:
		return "in"
	case NotIn:
		return "not-in"
	default:
		return fmt.Sprintf("PatternOp(%d)", uint8(op))
	}
}

// Pattern is one cell tp[A] of a pattern tuple: an operator plus, for
// In/NotIn, a finite non-empty set of constants.
type Pattern struct {
	Op  PatternOp
	Set []relation.Value // sorted, deduplicated; nil for Wildcard
}

// Any returns the wildcard pattern '_'.
func Any() Pattern { return Pattern{Op: Wildcard} }

// InSet returns the pattern t[A] ∈ {vs...}.
func InSet(vs ...relation.Value) Pattern { return Pattern{Op: In, Set: normalizeSet(vs)} }

// NotInSet returns the pattern t[A] ∉ {vs...}.
func NotInSet(vs ...relation.Value) Pattern { return Pattern{Op: NotIn, Set: normalizeSet(vs)} }

// Const returns the singleton pattern t[A] ∈ {v} — the only non-wildcard
// form a classic CFD allows (paper Remark (2)).
func Const(v relation.Value) Pattern { return InSet(v) }

// InStrings and NotInStrings are text-set conveniences.
func InStrings(ss ...string) Pattern { return InSet(texts(ss)...) }

// NotInStrings returns t[A] ∉ {ss...} over text values.
func NotInStrings(ss ...string) Pattern { return NotInSet(texts(ss)...) }

func texts(ss []string) []relation.Value {
	vs := make([]relation.Value, len(ss))
	for i, s := range ss {
		vs[i] = relation.Text(s)
	}
	return vs
}

func normalizeSet(vs []relation.Value) []relation.Value {
	out := make([]relation.Value, 0, len(vs))
	out = append(out, vs...)
	sort.Slice(out, func(i, j int) bool { return relation.Compare(out[i], out[j]) < 0 })
	dedup := out[:0]
	for i, v := range out {
		if i == 0 || relation.Compare(out[i-1], v) != 0 {
			dedup = append(dedup, v)
		}
	}
	return dedup
}

// Matches reports whether value v matches this pattern cell: the ≍
// relation of the paper restricted to one attribute. NULL matches only
// the wildcard (a missing value cannot be asserted in or out of a set).
func (p Pattern) Matches(v relation.Value) bool {
	switch p.Op {
	case Wildcard:
		return true
	case In:
		if v.IsNull() {
			return false
		}
		return p.contains(v)
	case NotIn:
		if v.IsNull() {
			return false
		}
		return !p.contains(v)
	default:
		return false
	}
}

func (p Pattern) contains(v relation.Value) bool {
	// Set is sorted by relation.Compare; binary search.
	lo, hi := 0, len(p.Set)
	for lo < hi {
		mid := (lo + hi) / 2
		switch relation.Compare(p.Set[mid], v) {
		case -1:
			lo = mid + 1
		case 1:
			hi = mid
		default:
			return true
		}
	}
	return false
}

// Validate checks the well-formedness rules of §II: In/NotIn sets must
// be finite, non-empty sets of non-NULL, non-NaN constants; when the
// attribute has a finite domain the set must be a subset of it.
func (p Pattern) Validate(attr relation.Attribute) error {
	switch p.Op {
	case Wildcard:
		if p.Set != nil {
			return fmt.Errorf("core: wildcard pattern for %s must not carry a set", attr.Name)
		}
		return nil
	case In, NotIn:
		if len(p.Set) == 0 {
			return fmt.Errorf("core: %s pattern for %s needs a non-empty set", p.Op, attr.Name)
		}
		for _, v := range p.Set {
			if v.IsNull() {
				return fmt.Errorf("core: %s pattern for %s contains NULL", p.Op, attr.Name)
			}
			if v.K == relation.KindFloat && v.F != v.F {
				// contains searches by Compare, where NaN is self-equal; the
				// SQL detectors test VAL = t.A, where it equals nothing.
				return fmt.Errorf("core: %s pattern for %s contains NaN, which no value equals", p.Op, attr.Name)
			}
			if attr.Finite() && !containsValue(attr.Domain, v) {
				return fmt.Errorf("core: %s pattern for %s: %s outside finite domain", p.Op, attr.Name, v)
			}
		}
		return nil
	default:
		return fmt.Errorf("core: unknown pattern op %d", uint8(p.Op))
	}
}

func containsValue(dom []relation.Value, v relation.Value) bool {
	for _, d := range dom {
		if relation.Equal(d, v) {
			return true
		}
	}
	return false
}

// Equal reports structural equality of two patterns.
func (p Pattern) Equal(q Pattern) bool {
	if p.Op != q.Op || len(p.Set) != len(q.Set) {
		return false
	}
	for i := range p.Set {
		if relation.Compare(p.Set[i], q.Set[i]) != 0 {
			return false
		}
	}
	return true
}

// IsConst reports whether p is a singleton In set, returning the value.
func (p Pattern) IsConst() (relation.Value, bool) {
	if p.Op == In && len(p.Set) == 1 {
		return p.Set[0], true
	}
	return relation.Null(), false
}

// String renders the cell in the constraint-language syntax:
// '_', '{a, b}' or '!{a, b}'.
func (p Pattern) String() string {
	switch p.Op {
	case Wildcard:
		return "_"
	case In:
		return setString(p.Set)
	case NotIn:
		return "!" + setString(p.Set)
	default:
		return "?"
	}
}

func setString(vs []relation.Value) string {
	var b strings.Builder
	b.WriteByte('{')
	for i, v := range vs {
		if i > 0 {
			b.WriteString(", ")
		}
		if v.K == relation.KindText {
			b.WriteString(quoteIfNeeded(v.S))
		} else {
			b.WriteString(v.String())
		}
	}
	b.WriteByte('}')
	return b.String()
}

// quoteIfNeeded wraps a text constant in single quotes when it contains
// characters that would confuse the constraint-language lexer.
func quoteIfNeeded(s string) string {
	if s == "" {
		return "''"
	}
	plain := true
	for _, r := range s {
		if !(r == '.' || r == '-' || r == '@' ||
			(r >= '0' && r <= '9') || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z')) {
			plain = false
			break
		}
	}
	if plain && s != "_" {
		// A bare numeric token would re-parse as a number, not text.
		if _, err := relation.ParseLiteral(s, relation.KindFloat); err != nil || s == "" {
			return s
		}
	}
	return "'" + strings.ReplaceAll(s, "'", "\\'") + "'"
}
