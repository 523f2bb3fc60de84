package event

import (
	"math/rand"
	"testing"
)

func TestCoversConstraintBasics(t *testing.T) {
	cases := []struct {
		a, b Constraint
		want bool
	}{
		// exists covers everything on the same name.
		{Constraint{"x", OpExists, Value{}}, Constraint{"x", OpEq, Int(1)}, true},
		{Constraint{"x", OpEq, Int(1)}, Constraint{"x", OpExists, Value{}}, false},
		// different names never cover.
		{Constraint{"x", OpExists, Value{}}, Constraint{"y", OpEq, Int(1)}, false},
		// eq covers identical eq only.
		{Constraint{"x", OpEq, Int(1)}, Constraint{"x", OpEq, Int(1)}, true},
		{Constraint{"x", OpEq, Int(1)}, Constraint{"x", OpEq, Int(2)}, false},
		{Constraint{"x", OpEq, Int(1)}, Constraint{"x", OpEq, Float(1)}, true}, // numeric equality
		// ranges.
		{Constraint{"x", OpLt, Int(10)}, Constraint{"x", OpLt, Int(5)}, true},
		{Constraint{"x", OpLt, Int(5)}, Constraint{"x", OpLt, Int(10)}, false},
		{Constraint{"x", OpLe, Int(10)}, Constraint{"x", OpLt, Int(10)}, true},
		{Constraint{"x", OpLt, Int(10)}, Constraint{"x", OpLe, Int(10)}, false},
		{Constraint{"x", OpGt, Int(5)}, Constraint{"x", OpGt, Int(10)}, true},
		{Constraint{"x", OpGe, Int(5)}, Constraint{"x", OpGe, Int(5)}, true},
		{Constraint{"x", OpLt, Int(10)}, Constraint{"x", OpEq, Int(5)}, true},
		{Constraint{"x", OpLt, Int(10)}, Constraint{"x", OpEq, Int(15)}, false},
		{Constraint{"x", OpGt, Int(10)}, Constraint{"x", OpLt, Int(20)}, false}, // opposite directions
		// strings.
		{Constraint{"x", OpPrefix, Str("ab")}, Constraint{"x", OpPrefix, Str("abc")}, true},
		{Constraint{"x", OpPrefix, Str("abc")}, Constraint{"x", OpPrefix, Str("ab")}, false},
		{Constraint{"x", OpPrefix, Str("ab")}, Constraint{"x", OpEq, Str("abx")}, true},
		{Constraint{"x", OpSuffix, Str("yz")}, Constraint{"x", OpEq, Str("xyz")}, true},
		{Constraint{"x", OpSuffix, Str("yz")}, Constraint{"x", OpSuffix, Str("xyz")}, true},
		{Constraint{"x", OpContains, Str("b")}, Constraint{"x", OpEq, Str("abc")}, true},
		{Constraint{"x", OpContains, Str("q")}, Constraint{"x", OpEq, Str("abc")}, false},
		// ne.
		{Constraint{"x", OpNe, Int(1)}, Constraint{"x", OpNe, Int(1)}, true},
		{Constraint{"x", OpNe, Int(1)}, Constraint{"x", OpEq, Int(2)}, true},
		{Constraint{"x", OpNe, Int(1)}, Constraint{"x", OpEq, Int(1)}, false},
		// string ranges via compare.
		{Constraint{"x", OpLt, Str("m")}, Constraint{"x", OpEq, Str("a")}, true},
		{Constraint{"x", OpLt, Str("m")}, Constraint{"x", OpEq, Str("z")}, false},
		{Constraint{"x", OpLt, Str("m")}, Constraint{"x", OpLt, Str("f")}, true},
	}
	for _, c := range cases {
		if got := coversConstraint(c.a, c.b); got != c.want {
			t.Errorf("Covers(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestFilterCovers(t *testing.T) {
	broad := NewFilter().WhereType("reading")
	narrow := NewFilter().WhereType("reading").Where("value", OpGt, Int(100))
	if !broad.Covers(narrow) {
		t.Error("broad does not cover narrow")
	}
	if narrow.Covers(broad) {
		t.Error("narrow covers broad")
	}
	empty := NewFilter()
	if !empty.Covers(narrow) || !empty.Covers(broad) {
		t.Error("empty filter must cover everything")
	}
	if narrow.Covers(empty) {
		t.Error("narrow covers empty")
	}
}

// Soundness property: whenever Covers(a, b) is true, every randomly
// generated event matching b also matches a. The relation is allowed to
// be conservative (false negatives), never unsound.
func TestCoversSoundnessProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	ops := []Op{OpEq, OpNe, OpLt, OpLe, OpGt, OpGe, OpPrefix, OpSuffix, OpContains, OpExists}
	names := []string{"a", "b"}
	strs := []string{"", "a", "ab", "abc", "b", "ba", "xaby"}

	randomValue := func() Value {
		switch rng.Intn(3) {
		case 0:
			return Int(int64(rng.Intn(10)))
		case 1:
			return Float(float64(rng.Intn(20)) / 2)
		default:
			return Str(strs[rng.Intn(len(strs))])
		}
	}
	randomConstraint := func() Constraint {
		c := Constraint{
			Name: names[rng.Intn(len(names))],
			Op:   ops[rng.Intn(len(ops))],
		}
		if c.Op != OpExists {
			c.Value = randomValue()
		}
		return c
	}

	for iter := 0; iter < 6000; iter++ {
		f1 := NewFilter(randomConstraint())
		f2 := NewFilter(randomConstraint(), randomConstraint())
		if !f1.Covers(f2) {
			continue
		}
		// Sample events and check implication.
		for s := 0; s < 60; s++ {
			e := New()
			for _, n := range names {
				if rng.Intn(4) > 0 {
					e.Set(n, randomValue())
				}
			}
			if f2.Matches(e) && !f1.Matches(e) {
				t.Fatalf("unsound covering: %v covers %v but event %v matches only the covered filter",
					f1, f2, e)
			}
		}
	}
}
