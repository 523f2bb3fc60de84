package event

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestOpParseAndString(t *testing.T) {
	ops := []Op{OpEq, OpNe, OpLt, OpLe, OpGt, OpGe, OpPrefix, OpSuffix, OpContains, OpExists}
	for _, op := range ops {
		parsed, err := ParseOp(op.String())
		if err != nil || parsed != op {
			t.Errorf("ParseOp(%q) = %v, %v", op.String(), parsed, err)
		}
	}
	if _, err := ParseOp("~~"); err == nil {
		t.Error("ParseOp accepted garbage")
	}
	if op, err := ParseOp("=="); err != nil || op != OpEq {
		t.Error("ParseOp(==) failed")
	}
}

func TestConstraintMatchValue(t *testing.T) {
	cases := []struct {
		c    Constraint
		v    Value
		want bool
	}{
		{Constraint{"x", OpEq, Int(5)}, Int(5), true},
		{Constraint{"x", OpEq, Int(5)}, Float(5), true}, // numeric cross-type
		{Constraint{"x", OpEq, Int(5)}, Int(6), false},
		{Constraint{"x", OpEq, Str("a")}, Str("a"), true},
		{Constraint{"x", OpEq, Str("a")}, Int(1), false},
		{Constraint{"x", OpNe, Int(5)}, Int(6), true},
		{Constraint{"x", OpNe, Int(5)}, Int(5), false},
		{Constraint{"x", OpNe, Int(5)}, Str("a"), false}, // incomparable kinds
		{Constraint{"x", OpLt, Int(10)}, Int(9), true},
		{Constraint{"x", OpLt, Int(10)}, Int(10), false},
		{Constraint{"x", OpLe, Int(10)}, Int(10), true},
		{Constraint{"x", OpGt, Float(1.5)}, Int(2), true},
		{Constraint{"x", OpGe, Int(3)}, Int(3), true},
		{Constraint{"x", OpGt, Str("m")}, Str("n"), true},
		{Constraint{"x", OpLt, Str("m")}, Str("n"), false},
		{Constraint{"x", OpPrefix, Str("ab")}, Str("abc"), true},
		{Constraint{"x", OpPrefix, Str("ab")}, Str("ba"), false},
		{Constraint{"x", OpSuffix, Str("bc")}, Str("abc"), true},
		{Constraint{"x", OpContains, Str("b")}, Str("abc"), true},
		{Constraint{"x", OpContains, Str("z")}, Str("abc"), false},
		{Constraint{"x", OpContains, Str("b")}, Bytes([]byte("abc")), true},
		{Constraint{"x", OpPrefix, Str("ab")}, Int(1), false},
		{Constraint{"x", OpExists, Value{}}, Int(1), true},
		{Constraint{"x", OpLt, Int(5)}, Str("a"), false}, // type mismatch
	}
	for _, c := range cases {
		if got := c.c.MatchValue(c.v); got != c.want {
			t.Errorf("%v match %v = %v, want %v", c.c, c.v, got, c.want)
		}
	}
}

func TestFilterMatches(t *testing.T) {
	f := NewFilter().
		WhereType("reading").
		Where("value", OpGt, Int(100)).
		Where("unit", OpEq, Str("bpm"))

	match := NewTyped("reading").SetFloat("value", 150).SetStr("unit", "bpm")
	if !f.Matches(match) {
		t.Error("matching event rejected")
	}
	low := NewTyped("reading").SetFloat("value", 50).SetStr("unit", "bpm")
	if f.Matches(low) {
		t.Error("low value matched")
	}
	missing := NewTyped("reading").SetFloat("value", 150)
	if f.Matches(missing) {
		t.Error("event missing unit matched")
	}
	wrongType := NewTyped("alarm").SetFloat("value", 150).SetStr("unit", "bpm")
	if f.Matches(wrongType) {
		t.Error("wrong type matched")
	}
}

func TestEmptyFilterMatchesEverything(t *testing.T) {
	f := NewFilter()
	if !f.Matches(New()) || !f.Matches(NewTyped("x").SetInt("y", 1)) {
		t.Error("empty filter did not match")
	}
}

func TestExistsConstraint(t *testing.T) {
	f := NewFilter().Where("v", OpExists, Value{})
	if !f.Matches(New().SetInt("v", 0)) {
		t.Error("exists rejected present attribute")
	}
	if f.Matches(New().SetInt("w", 0)) {
		t.Error("exists matched absent attribute")
	}
}

func TestFilterEqualAndClone(t *testing.T) {
	f := NewFilter().WhereType("a").Where("v", OpGt, Int(5))
	g := NewFilter().Where("v", OpGt, Int(5)).WhereType("a") // different insert order
	if !f.Equal(g) {
		t.Error("order-insensitive equality broken (normalization)")
	}
	cp := f.Clone()
	if !cp.Equal(f) {
		t.Error("clone unequal")
	}
	cp.Where("extra", OpExists, Value{})
	if cp.Equal(f) {
		t.Error("clone mutation affected equality")
	}
	h := NewFilter().WhereType("b")
	if f.Equal(h) {
		t.Error("different filters equal")
	}
	var nilF *Filter
	if f.Equal(nilF) {
		t.Error("filter equals nil")
	}
}

func TestFilterValidate(t *testing.T) {
	good := NewFilter().WhereType("x")
	if err := good.Validate(); err != nil {
		t.Errorf("good filter rejected: %v", err)
	}
	bad := NewFilter().Where("", OpEq, Int(1))
	if err := bad.Validate(); err == nil {
		t.Error("empty name accepted")
	}
	badOp := NewFilter().Where("x", opInvalid, Int(1))
	if err := badOp.Validate(); err == nil {
		t.Error("invalid op accepted")
	}
	badVal := NewFilter().Where("x", OpEq, Value{})
	if err := badVal.Validate(); err == nil {
		t.Error("invalid value accepted")
	}
	// NaN is no bound for an ordered operator; as an equality operand
	// it is merely unsatisfiable.
	for _, op := range []Op{OpLt, OpLe, OpGt, OpGe} {
		nan := NewFilter().Where("x", op, Float(math.NaN()))
		if err := nan.Validate(); !errors.Is(err, ErrBadFilter) {
			t.Errorf("NaN bound on %s: got %v, want ErrBadFilter", op, err)
		}
	}
	if err := NewFilter().Where("x", OpEq, Float(math.NaN())).Validate(); err != nil {
		t.Errorf("NaN equality operand rejected: %v", err)
	}
}

func TestFilterStringRendering(t *testing.T) {
	if NewFilter().String() != "filter{*}" {
		t.Error("empty filter rendering")
	}
	s := NewFilter().Where("v", OpGe, Int(3)).String()
	if s != "filter{v >= 3}" {
		t.Errorf("rendering = %q", s)
	}
}

// Property: for numeric constraints, MatchValue agrees with direct
// arithmetic on the operands.
func TestNumericConstraintProperty(t *testing.T) {
	err := quick.Check(func(bound, val int64) bool {
		lt := (&Constraint{"x", OpLt, Int(bound)}).MatchValue(Int(val)) == (val < bound)
		le := (&Constraint{"x", OpLe, Int(bound)}).MatchValue(Int(val)) == (val <= bound)
		gt := (&Constraint{"x", OpGt, Int(bound)}).MatchValue(Int(val)) == (val > bound)
		ge := (&Constraint{"x", OpGe, Int(bound)}).MatchValue(Int(val)) == (val >= bound)
		eq := (&Constraint{"x", OpEq, Int(bound)}).MatchValue(Int(val)) == (val == bound)
		ne := (&Constraint{"x", OpNe, Int(bound)}).MatchValue(Int(val)) == (val != bound)
		return lt && le && gt && ge && eq && ne
	}, nil)
	if err != nil {
		t.Error(err)
	}
}
