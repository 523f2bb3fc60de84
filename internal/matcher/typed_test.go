package matcher

import (
	"errors"
	"slices"
	"testing"

	"github.com/amuse/smc/internal/event"
	"github.com/amuse/smc/internal/ident"
)

func typedFilter(path string, cs ...event.Constraint) *event.Filter {
	f := event.NewFilter().WhereType(path)
	for _, c := range cs {
		f.Where(c.Name, c.Op, c.Value)
	}
	return f
}

func TestTypedBasicMatch(t *testing.T) {
	m := newTypedMatcher()
	sub := ident.New(1)
	if err := m.Subscribe(sub, typedFilter("alarm")); err != nil {
		t.Fatal(err)
	}
	if got := match(m, event.NewTyped("alarm")); !idsEqual(got, []ident.ID{sub}) {
		t.Errorf("Match = %v", got)
	}
	if got := match(m, event.NewTyped("reading")); len(got) != 0 {
		t.Errorf("wrong type matched: %v", got)
	}
	if got := match(m, event.New()); len(got) != 0 {
		t.Errorf("untyped event matched: %v", got)
	}
}

func TestTypedSubtypePolymorphism(t *testing.T) {
	m := newTypedMatcher()
	parent, child, sibling := ident.New(1), ident.New(2), ident.New(3)
	if err := m.Subscribe(parent, typedFilter("reading")); err != nil {
		t.Fatal(err)
	}
	if err := m.Subscribe(child, typedFilter("reading/heart-rate")); err != nil {
		t.Fatal(err)
	}
	if err := m.Subscribe(sibling, typedFilter("reading/spo2")); err != nil {
		t.Fatal(err)
	}

	// A heart-rate reading reaches the parent and the exact subtype,
	// not the sibling.
	got := match(m, event.NewTyped("reading/heart-rate"))
	if !idsEqual(got, []ident.ID{parent, child}) {
		t.Errorf("Match(reading/heart-rate) = %v", got)
	}
	// A plain reading reaches only the parent.
	got = match(m, event.NewTyped("reading"))
	if !idsEqual(got, []ident.ID{parent}) {
		t.Errorf("Match(reading) = %v", got)
	}
	// A deeper subtype still reaches both ancestors.
	got = match(m, event.NewTyped("reading/heart-rate/resting"))
	if !idsEqual(got, []ident.ID{parent, child}) {
		t.Errorf("Match(reading/heart-rate/resting) = %v", got)
	}
}

func TestTypedContentGuards(t *testing.T) {
	m := newTypedMatcher()
	sub := ident.New(1)
	f := typedFilter("reading/heart-rate",
		event.Constraint{Name: "value", Op: event.OpGt, Value: event.Int(180)})
	if err := m.Subscribe(sub, f); err != nil {
		t.Fatal(err)
	}
	if got := match(m, event.NewTyped("reading/heart-rate").SetFloat("value", 195)); !idsEqual(got, []ident.ID{sub}) {
		t.Errorf("guarded match failed: %v", got)
	}
	if got := match(m, event.NewTyped("reading/heart-rate").SetFloat("value", 70)); len(got) != 0 {
		t.Errorf("guard ignored: %v", got)
	}
	if got := match(m, event.NewTyped("reading/heart-rate")); len(got) != 0 {
		t.Errorf("missing guarded attribute matched: %v", got)
	}
}

func TestTypedRejectsUntypedSubscription(t *testing.T) {
	m := newTypedMatcher()
	err := m.Subscribe(ident.New(1), event.NewFilter().Where("value", event.OpGt, event.Int(1)))
	if !errors.Is(err, errUntypedSubscription) {
		t.Errorf("err = %v", err)
	}
	if err := m.Subscribe(ident.New(1), nil); !errors.Is(err, errNilFilter) {
		t.Errorf("nil err = %v", err)
	}
}

func TestTypedUnsubscribe(t *testing.T) {
	m := newTypedMatcher()
	sub := ident.New(1)
	f := typedFilter("a/b")
	if err := m.Subscribe(sub, f); err != nil {
		t.Fatal(err)
	}
	if err := m.Subscribe(sub, f.Clone()); err != nil {
		t.Fatal(err) // idempotent
	}
	if m.SubscriptionCount() != 1 {
		t.Fatalf("count = %d", m.SubscriptionCount())
	}
	if err := m.Unsubscribe(sub, f); err != nil {
		t.Fatal(err)
	}
	if got := match(m, event.NewTyped("a/b")); len(got) != 0 {
		t.Errorf("match after unsubscribe: %v", got)
	}
	if err := m.Unsubscribe(sub, f); err == nil {
		t.Error("double unsubscribe succeeded")
	}
}

func TestTypedUnsubscribeAll(t *testing.T) {
	m := newTypedMatcher()
	a, b := ident.New(1), ident.New(2)
	for _, path := range []string{"x", "x/y", "z"} {
		if err := m.Subscribe(a, typedFilter(path)); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Subscribe(b, typedFilter("x")); err != nil {
		t.Fatal(err)
	}
	m.UnsubscribeAll(a)
	if m.SubscriptionCount() != 1 {
		t.Errorf("count = %d", m.SubscriptionCount())
	}
	if got := match(m, event.NewTyped("x/y")); !idsEqual(got, []ident.ID{b}) {
		t.Errorf("Match = %v", got)
	}
}

func TestTypedViaNewAndBusCompatible(t *testing.T) {
	m, err := New(KindTyped)
	if err != nil {
		t.Fatal(err)
	}
	if m.Name() != "typed" {
		t.Errorf("name = %s", m.Name())
	}
	// The typed engine agrees with the content engines on workloads
	// whose filters pin a flat type.
	fastM := NewFast()
	filters := []*event.Filter{
		typedFilter("alarm"),
		typedFilter("reading", event.Constraint{Name: "value", Op: event.OpGe, Value: event.Int(10)}),
	}
	for i, f := range filters {
		id := ident.New(uint64(100 + i))
		if err := m.Subscribe(id, f); err != nil {
			t.Fatal(err)
		}
		if err := fastM.Subscribe(id, f); err != nil {
			t.Fatal(err)
		}
	}
	events := []*event.Event{
		event.NewTyped("alarm"),
		event.NewTyped("reading").SetInt("value", 5),
		event.NewTyped("reading").SetInt("value", 15),
		event.NewTyped("other"),
	}
	for _, e := range events {
		if a, b := match(m, e), match(fastM, e); !idsEqual(a, b) {
			t.Errorf("typed=%v fast=%v for %s", a, b, e)
		}
	}
}

func TestTypedPathNormalisation(t *testing.T) {
	m := newTypedMatcher()
	sub := ident.New(1)
	if err := m.Subscribe(sub, typedFilter("a//b/")); err != nil {
		t.Fatal(err)
	}
	if got := match(m, event.NewTyped("a/b")); !idsEqual(got, []ident.ID{sub}) {
		t.Errorf("normalised path mismatch: %v", got)
	}
}

// TestRepeatedTypeEquality: a filter may pin "type" more than once, and
// every engine must read the constraints as a conjunction. The typed
// engine files the first as its path and keeps the rest as guards.
func TestRepeatedTypeEquality(t *testing.T) {
	cases := []struct {
		f    *event.Filter
		hits []string
	}{
		{typedFilter("a", event.Constraint{Name: event.AttrType, Op: event.OpEq, Value: event.Str("b")}), nil},
		{typedFilter("b", event.Constraint{Name: event.AttrType, Op: event.OpEq, Value: event.Str("a")}), nil},
		{typedFilter("a", event.Constraint{Name: event.AttrType, Op: event.OpEq, Value: event.Str("a")}), []string{"a"}},
		{typedFilter("a", event.Constraint{Name: event.AttrType, Op: event.OpNe, Value: event.Str("b")}), []string{"a"}},
	}
	allThree(t, func(t *testing.T, m Matcher) {
		for i, c := range cases {
			sub := ident.New(uint64(i + 1))
			if err := m.Subscribe(sub, c.f); err != nil {
				t.Fatalf("%s: %v", c.f, err)
			}
			for _, typ := range []string{"a", "b", "c"} {
				got := match(m, event.NewTyped(typ))
				if want := slices.Contains(c.hits, typ); len(got) != 0 != want {
					t.Errorf("%s, event type %q: matched %v, want match=%v", c.f, typ, got, want)
				}
			}
			m.UnsubscribeAll(sub)
		}
	})
}
