package core

import (
	"math"
	"testing"
	"testing/quick"

	"ecfd/internal/relation"
)

func TestPatternMatches(t *testing.T) {
	in := InStrings("a", "b", "c")
	notIn := NotInStrings("a", "b")
	cases := []struct {
		p    Pattern
		v    relation.Value
		want bool
	}{
		{Any(), relation.Text("anything"), true},
		{Any(), relation.Null(), true},
		{in, relation.Text("a"), true},
		{in, relation.Text("c"), true},
		{in, relation.Text("z"), false},
		{in, relation.Null(), false},
		{notIn, relation.Text("a"), false},
		{notIn, relation.Text("z"), true},
		{notIn, relation.Null(), false},
	}
	for _, c := range cases {
		if got := c.p.Matches(c.v); got != c.want {
			t.Errorf("%v.Matches(%v) = %v, want %v", c.p, c.v, got, c.want)
		}
	}
}

func TestPatternComplementProperty(t *testing.T) {
	// For non-NULL v: NotInSet(S) matches v iff InSet(S) does not.
	f := func(set []int64, probe int64) bool {
		if len(set) == 0 {
			return true
		}
		vs := make([]relation.Value, len(set))
		for i, x := range set {
			vs[i] = relation.Int(x)
		}
		v := relation.Int(probe)
		return InSet(vs...).Matches(v) != NotInSet(vs...).Matches(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPatternSetNormalization(t *testing.T) {
	p := InStrings("b", "a", "b", "a")
	if len(p.Set) != 2 {
		t.Fatalf("set must deduplicate: %v", p.Set)
	}
	if p.Set[0].S != "a" || p.Set[1].S != "b" {
		t.Errorf("set must sort: %v", p.Set)
	}
	q := InStrings("a", "b")
	if !p.Equal(q) {
		t.Error("normalized sets must be Equal")
	}
	if p.Equal(InStrings("a")) || p.Equal(NotInStrings("a", "b")) || p.Equal(Any()) {
		t.Error("Equal must distinguish op and set")
	}
}

func TestPatternBinarySearchLargeSet(t *testing.T) {
	vs := make([]relation.Value, 1000)
	for i := range vs {
		vs[i] = relation.Int(int64(i * 2))
	}
	p := InSet(vs...)
	for i := 0; i < 2000; i++ {
		want := i%2 == 0
		if got := p.Matches(relation.Int(int64(i))); got != want {
			t.Fatalf("Matches(%d) = %v, want %v", i, got, want)
		}
	}
}

func TestPatternValidate(t *testing.T) {
	inf := relation.Attribute{Name: "A", Kind: relation.KindText}
	fin := relation.Attribute{Name: "B", Kind: relation.KindText,
		Domain: []relation.Value{relation.Text("x"), relation.Text("y")}}

	if err := Any().Validate(inf); err != nil {
		t.Errorf("wildcard: %v", err)
	}
	if err := (Pattern{Op: Wildcard, Set: []relation.Value{relation.Text("x")}}).Validate(inf); err == nil {
		t.Error("wildcard with set must fail")
	}
	if err := (Pattern{Op: In}).Validate(inf); err == nil {
		t.Error("empty In set must fail")
	}
	if err := InSet(relation.Null()).Validate(inf); err == nil {
		t.Error("NULL in set must fail")
	}
	if err := NotInSet(relation.Float(1), relation.Float(math.NaN())).Validate(inf); err == nil {
		t.Error("set with NaN must be invalid")
	}
	if err := InStrings("x").Validate(fin); err != nil {
		t.Errorf("in-domain set: %v", err)
	}
	if err := InStrings("z").Validate(fin); err == nil {
		t.Error("out-of-domain constant must fail for finite domains")
	}
	if err := (Pattern{Op: PatternOp(99)}).Validate(inf); err == nil {
		t.Error("unknown op must fail")
	}
}

func TestPatternIsConst(t *testing.T) {
	if v, ok := Const(relation.Text("x")).IsConst(); !ok || v.S != "x" {
		t.Error("Const must be IsConst")
	}
	if _, ok := InStrings("x", "y").IsConst(); ok {
		t.Error("two-element set is not const")
	}
	if _, ok := Any().IsConst(); ok {
		t.Error("wildcard is not const")
	}
}

func TestPatternString(t *testing.T) {
	cases := []struct {
		p    Pattern
		want string
	}{
		{Any(), "_"},
		{InStrings("NYC", "LI"), "{LI, NYC}"},
		{NotInStrings("NYC"), "!{NYC}"},
		{InSet(relation.Int(518)), "{518}"},
		{InStrings("5th Ave."), "{'5th Ave.'}"},
		{InStrings("123"), "{'123'}"}, // numeric-looking text must quote
	}
	for _, c := range cases {
		if got := c.p.String(); got != c.want {
			t.Errorf("String(%v) = %q, want %q", c.p.Op, got, c.want)
		}
	}
}
