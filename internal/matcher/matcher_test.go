package matcher

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"github.com/amuse/smc/internal/event"
	"github.com/amuse/smc/internal/ident"
)

// both runs a subtest against each engine.
func both(t *testing.T, fn func(t *testing.T, m Matcher)) {
	t.Helper()
	for _, kind := range []Kind{KindSiena, KindFast} {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			m, err := New(kind)
			if err != nil {
				t.Fatalf("New(%s): %v", kind, err)
			}
			fn(t, m)
		})
	}
}

// match runs the one read entry point on a fresh scratch.
func match(m Matcher, e *event.Event) []ident.ID { return m.MatchAppendScratch(e, nil, NewScratch()) }

func idsEqual(a, b []ident.ID) bool {
	if len(a) != len(b) {
		return false
	}
	as := append([]ident.ID(nil), a...)
	bs := append([]ident.ID(nil), b...)
	sort.Slice(as, func(i, j int) bool { return as[i] < as[j] })
	sort.Slice(bs, func(i, j int) bool { return bs[i] < bs[j] })
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	return true
}

func TestNewUnknownKind(t *testing.T) {
	if _, err := New(Kind("nope")); err == nil {
		t.Error("unknown kind accepted")
	}
}

func TestBasicMatch(t *testing.T) {
	both(t, func(t *testing.T, m Matcher) {
		sub := ident.New(1)
		f := event.NewFilter().WhereType("alarm").Where("value", event.OpGt, event.Int(100))
		if err := m.Subscribe(sub, f); err != nil {
			t.Fatalf("subscribe: %v", err)
		}
		hit := event.NewTyped("alarm").SetInt("value", 150)
		if got := match(m, hit); !idsEqual(got, []ident.ID{sub}) {
			t.Errorf("Match(hit) = %v", got)
		}
		miss := event.NewTyped("alarm").SetInt("value", 50)
		if got := match(m, miss); len(got) != 0 {
			t.Errorf("Match(miss) = %v", got)
		}
		wrong := event.NewTyped("reading").SetInt("value", 150)
		if got := match(m, wrong); len(got) != 0 {
			t.Errorf("Match(wrong type) = %v", got)
		}
	})
}

func TestEmptyFilterMatchesAll(t *testing.T) {
	both(t, func(t *testing.T, m Matcher) {
		sub := ident.New(9)
		if err := m.Subscribe(sub, event.NewFilter()); err != nil {
			t.Fatal(err)
		}
		if got := match(m, event.New()); !idsEqual(got, []ident.ID{sub}) {
			t.Errorf("empty filter missed empty event: %v", got)
		}
		if got := match(m, event.NewTyped("x").SetInt("v", 1)); !idsEqual(got, []ident.ID{sub}) {
			t.Errorf("empty filter missed typed event: %v", got)
		}
	})
}

func TestDistinctSubscribersDeduplicated(t *testing.T) {
	both(t, func(t *testing.T, m Matcher) {
		sub := ident.New(2)
		f1 := event.NewFilter().WhereType("alarm")
		f2 := event.NewFilter().Where("value", event.OpExists, event.Value{})
		if err := m.Subscribe(sub, f1); err != nil {
			t.Fatal(err)
		}
		if err := m.Subscribe(sub, f2); err != nil {
			t.Fatal(err)
		}
		e := event.NewTyped("alarm").SetInt("value", 1)
		if got := match(m, e); !idsEqual(got, []ident.ID{sub}) {
			t.Errorf("Match = %v, want single dedup'd subscriber", got)
		}
	})
}

func TestSubscribeIdempotent(t *testing.T) {
	allThree(t, func(t *testing.T, m Matcher) {
		sub := ident.New(3)
		f := event.NewFilter().WhereType("x")
		if err := m.Subscribe(sub, f); err != nil {
			t.Fatal(err)
		}
		if err := m.Subscribe(sub, f.Clone()); err != nil {
			t.Fatal(err)
		}
		if n := m.SubscriptionCount(); n != 1 {
			t.Errorf("count = %d, want 1", n)
		}
	})
}

func TestUnsubscribe(t *testing.T) {
	allThree(t, func(t *testing.T, m Matcher) {
		sub := ident.New(4)
		f := event.NewFilter().WhereType("x")
		if err := m.Subscribe(sub, f); err != nil {
			t.Fatal(err)
		}
		if err := m.Unsubscribe(sub, f.Clone()); err != nil {
			t.Fatalf("unsubscribe: %v", err)
		}
		if got := match(m, event.NewTyped("x")); len(got) != 0 {
			t.Errorf("match after unsubscribe: %v", got)
		}
		if err := m.Unsubscribe(sub, f); !errors.Is(err, ErrNoSuchSubscription) {
			t.Errorf("double unsubscribe: %v", err)
		}
		if n := m.SubscriptionCount(); n != 0 {
			t.Errorf("count = %d", n)
		}
	})
}

func TestUnsubscribeAll(t *testing.T) {
	allThree(t, func(t *testing.T, m Matcher) {
		a, b := ident.New(5), ident.New(6)
		for i := 0; i < 5; i++ {
			f := event.NewFilter().WhereType("kv").Where("k", event.OpEq, event.Int(int64(i)))
			if err := m.Subscribe(a, f); err != nil {
				t.Fatal(err)
			}
		}
		fb := event.NewFilter().WhereType("kv").Where("k", event.OpEq, event.Int(2))
		if err := m.Subscribe(b, fb); err != nil {
			t.Fatal(err)
		}
		m.UnsubscribeAll(a)
		if n := m.SubscriptionCount(); n != 1 {
			t.Errorf("count after UnsubscribeAll = %d, want 1", n)
		}
		m.UnsubscribeAll(a) // nothing left: a no-op
		got := match(m, event.NewTyped("kv").SetInt("k", 2))
		if !idsEqual(got, []ident.ID{b}) {
			t.Errorf("Match = %v, want only b", got)
		}
	})
}

func TestNilAndInvalidFilters(t *testing.T) {
	allThree(t, func(t *testing.T, m Matcher) {
		if err := m.Subscribe(ident.New(7), nil); err == nil {
			t.Error("nil filter accepted")
		}
		bad := event.NewFilter().Where("", event.OpEq, event.Int(1))
		if err := m.Subscribe(ident.New(7), bad); err == nil {
			t.Error("invalid filter accepted")
		}
		if err := m.Unsubscribe(ident.New(7), nil); err == nil {
			t.Error("nil unsubscribe accepted")
		}
	})
}

func TestStringAndRangeOperators(t *testing.T) {
	both(t, func(t *testing.T, m Matcher) {
		subs := map[string]*event.Filter{
			"prefix":   event.NewFilter().Where("s", event.OpPrefix, event.Str("ab")),
			"suffix":   event.NewFilter().Where("s", event.OpSuffix, event.Str("yz")),
			"contains": event.NewFilter().Where("s", event.OpContains, event.Str("mid")),
			"ne":       event.NewFilter().Where("s", event.OpNe, event.Str("skip")),
			"range":    event.NewFilter().Where("v", event.OpGe, event.Float(1.5)).Where("v", event.OpLt, event.Int(10)),
		}
		ids := map[string]ident.ID{}
		next := uint64(100)
		for name, f := range subs {
			id := ident.New(next)
			next++
			ids[name] = id
			if err := m.Subscribe(id, f); err != nil {
				t.Fatalf("subscribe %s: %v", name, err)
			}
		}

		got := match(m, event.New().SetStr("s", "ab-mid-yz").SetFloat("v", 5))
		want := []ident.ID{ids["prefix"], ids["suffix"], ids["contains"], ids["ne"], ids["range"]}
		if !idsEqual(got, want) {
			t.Errorf("Match = %v, want %v", got, want)
		}

		got = match(m, event.New().SetStr("s", "skip").SetFloat("v", 10))
		if len(got) != 0 {
			t.Errorf("Match(skip,10) = %v, want none", got)
		}
	})
}

func TestBytesEqualityViaLinearPath(t *testing.T) {
	both(t, func(t *testing.T, m Matcher) {
		sub := ident.New(11)
		f := event.NewFilter().Where("raw", event.OpEq, event.Bytes([]byte{1, 2}))
		if err := m.Subscribe(sub, f); err != nil {
			t.Fatal(err)
		}
		if got := match(m, event.New().SetBytes("raw", []byte{1, 2})); !idsEqual(got, []ident.ID{sub}) {
			t.Errorf("bytes eq missed: %v", got)
		}
		if got := match(m, event.New().SetBytes("raw", []byte{1, 3})); len(got) != 0 {
			t.Errorf("bytes mismatch matched: %v", got)
		}
	})
}

// randomWorkload builds a deterministic random set of filters and
// events exercising all operators and value kinds.
type randomWorkload struct {
	subs    []ident.ID
	filters []*event.Filter
	events  []*event.Event
	// rejected filters must be refused by every engine.
	rejected []*event.Filter
}

func makeWorkload(seed int64, nFilters, nEvents int) randomWorkload {
	rng := rand.New(rand.NewSource(seed))
	names := []string{"type", "value", "unit", "seq", "flag", "raw"}
	ops := []event.Op{
		event.OpEq, event.OpNe, event.OpLt, event.OpLe, event.OpGt,
		event.OpGe, event.OpPrefix, event.OpSuffix, event.OpContains,
		event.OpExists,
	}
	strs := []string{"alarm", "reading", "alpha", "beta", "albatross", "readout"}

	randomValue := func() event.Value {
		switch rng.Intn(5) {
		case 0:
			return event.Int(int64(rng.Intn(20) - 10))
		case 1:
			return event.Float(float64(rng.Intn(40))/2 - 10)
		case 2:
			return event.Str(strs[rng.Intn(len(strs))])
		case 3:
			return event.Bool(rng.Intn(2) == 0)
		default:
			return event.Bytes([]byte(strs[rng.Intn(len(strs))]))
		}
	}

	var w randomWorkload
	for i := 0; i < nFilters; i++ {
		f := event.NewFilter()
		for c := 0; c < 1+rng.Intn(3); c++ {
			name := names[rng.Intn(len(names))]
			op := ops[rng.Intn(len(ops))]
			if op == event.OpExists {
				f.Where(name, op, event.Value{})
			} else {
				f.Where(name, op, randomValue())
			}
		}
		w.filters = append(w.filters, f)
		w.subs = append(w.subs, ident.New(uint64(1000+i)))
	}
	for i := 0; i < nEvents; i++ {
		e := event.New()
		for a := 0; a < rng.Intn(5); a++ {
			e.Set(names[rng.Intn(len(names))], randomValue())
		}
		w.events = append(w.events, e)
	}
	return w
}

// partitionWorkload is the table of cases FastMatcher's access-predicate
// partitioning could get wrong where the random workloads rarely tread.
// Subscribers are one per filter except where a case says otherwise.
func partitionWorkload() randomWorkload {
	var w randomWorkload
	next := uint64(5000)
	add := func(f *event.Filter) {
		next++
		w.filters = append(w.filters, f)
		w.subs = append(w.subs, ident.New(next))
	}
	eq := func(name string, v event.Value) *event.Filter {
		return event.NewFilter().Where(name, event.OpEq, v)
	}

	// Int and float bounds of one magnitude are the same access
	// predicate; a bool is not the number 1.
	add(eq("x", event.Int(1)))
	add(eq("x", event.Float(1)))
	add(eq("x", event.Float(1.5)))
	add(eq("x", event.Bool(true)))
	add(eq("x", event.Int(1)).Where("y", event.OpEq, event.Float(2)))
	// Two equality constraints on one attribute: satisfiable across
	// int/float, satisfiable as a plain duplicate, and never.
	add(eq("x", event.Int(1)).Where("x", event.OpEq, event.Float(1)))
	add(eq("x", event.Int(1)).Where("x", event.OpEq, event.Int(1)))
	add(eq("kind", event.Str("a")).Where("kind", event.OpEq, event.Str("b")))
	// No equality constraint at all: the root partition.
	add(event.NewFilter().Where("value", event.OpGt, event.Int(3)))
	add(event.NewFilter().Where("value", event.OpLe, event.Float(3)).Where("flag", event.OpExists, event.Value{}))
	add(event.NewFilter().Where("kind", event.OpPrefix, event.Str("a")))
	add(event.NewFilter().Where("x", event.OpNe, event.Int(1)))
	// Equality on bounds the index cannot hash — bytes, NaN — is no
	// access predicate either.
	add(eq("raw", event.Bytes([]byte("a"))))
	add(eq("x", event.Float(math.NaN())))
	add(eq("x", event.Float(math.NaN())).Where("kind", event.OpEq, event.Str("a")))
	// NaN as a range bound orders with nothing — it would sit in the
	// sorted range index among the "value" bounds above and break
	// their binary search — so no engine installs it.
	w.rejected = append(w.rejected,
		event.NewFilter().Where("value", event.OpLt, event.Float(math.NaN())),
		eq("kind", event.Str("a")).Where("value", event.OpGe, event.Float(math.NaN())))
	// Single-constraint filters match on the partition hit alone.
	add(eq("kind", event.Str("a")))
	add(eq("kind", event.Str("b")))
	add(event.NewFilter())
	// One event hits 20 partitions, each holding a filter that matches
	// on the hit, one that counts and matches, and one that counts and
	// does not.
	for i := 0; i < 20; i++ {
		name := fmt.Sprintf("a%02d", i)
		add(eq(name, event.Int(int64(i))))
		add(eq(name, event.Int(int64(i))).Where("value", event.OpGe, event.Int(int64(i))))
		add(eq(name, event.Int(int64(i))).Where("value", event.OpLt, event.Int(int64(i))))
	}
	// The same filter installed by many subscribers.
	for i := 0; i < 40; i++ {
		add(eq("kind", event.Str("a")).Where("value", event.OpGe, event.Int(5)))
	}
	// One subscriber with filters in two partitions is reported once.
	add(eq("kind", event.Str("a")).Where("value", event.OpGe, event.Int(0)))
	add(eq("x", event.Int(1)).Where("value", event.OpGe, event.Int(0)))
	w.subs[len(w.subs)-1] = w.subs[len(w.subs)-2]

	wide := event.New().SetInt("value", 10)
	for i := 0; i < 20; i++ {
		wide.SetInt(fmt.Sprintf("a%02d", i), int64(i))
	}
	w.events = []*event.Event{
		event.New(),
		event.New().SetInt("x", 1),
		event.New().SetFloat("x", 1),
		event.New().SetFloat("x", 1.5),
		event.New().Set("x", event.Bool(true)),
		event.New().SetFloat("x", math.NaN()),
		event.New().SetInt("x", 1).SetInt("y", 2),
		event.New().SetInt("x", 2).SetFloat("y", 2),
		event.New().SetStr("kind", "a"),
		event.New().SetStr("kind", "b").SetInt("value", 5),
		event.New().SetStr("kind", "a").SetInt("value", 5).SetInt("x", 1),
		event.New().SetStr("kind", "a").SetFloat("value", 4.5).Set("flag", event.Bool(false)),
		event.New().SetStr("kind", "ab").SetInt("value", 3),
		event.New().SetBytes("raw", []byte("a")),
		event.New().SetBytes("raw", []byte("b")).SetInt("value", 2).SetStr("flag", ""),
		wide,
		wide.Clone().SetInt("value", 0).SetInt("a07", 8),
	}
	return w
}

// TestEngineEquivalence is the core differential property: both
// matching engines must produce identical results for any workload —
// the paper's two buses differ in mechanism, not semantics.
func TestEngineEquivalence(t *testing.T) {
	workloads := []randomWorkload{partitionWorkload()}
	for seed := int64(0); seed < 8; seed++ {
		workloads = append(workloads, makeWorkload(seed, 60, 200))
	}
	for wi, w := range workloads {
		siena, fast := newSiena(), NewFast()
		for i, f := range w.filters {
			if err := siena.Subscribe(w.subs[i], f); err != nil {
				t.Fatalf("siena subscribe: %v", err)
			}
			if err := fast.Subscribe(w.subs[i], f); err != nil {
				t.Fatalf("fast subscribe: %v", err)
			}
		}
		for _, f := range w.rejected {
			for _, m := range []Matcher{siena, fast, newTypedMatcher()} {
				if err := m.Subscribe(ident.New(1), f); !errors.Is(err, event.ErrBadFilter) {
					t.Fatalf("workload %d: %T subscribe %s: got %v, want ErrBadFilter", wi, m, f, err)
				}
			}
		}
		for i, e := range w.events {
			gs, gf := match(siena, e), match(fast, e)
			if !idsEqual(gs, gf) {
				// Identify the disagreeing filter by brute force.
				for j, f := range w.filters {
					want := f.Matches(e)
					t.Logf("filter %d (%s) direct=%v", j, f, want)
				}
				t.Fatalf("workload %d event %d (%s): siena=%v fast=%v", wi, i, e, gs, gf)
			}
			// Both must agree with direct evaluation.
			var want []ident.ID
			seen := map[ident.ID]bool{}
			for j, f := range w.filters {
				if f.Matches(e) && !seen[w.subs[j]] {
					seen[w.subs[j]] = true
					want = append(want, w.subs[j])
				}
			}
			if !idsEqual(gf, want) {
				t.Fatalf("workload %d event %d (%s): engines=%v direct=%v", wi, i, e, gf, want)
			}
		}
	}
}

// TestEngineEquivalenceUnderChurn interleaves subscribes, unsubscribes
// and matches, over the random filters and the partition table
// together; it ends by emptying the matcher — every partition must go
// with its last filter — and filling it again.
func TestEngineEquivalenceUnderChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	w, pw := makeWorkload(42, 40, 1), partitionWorkload()
	w.filters = append(w.filters, pw.filters...)
	w.subs = append(w.subs, pw.subs...)
	siena, fast := newSiena(), NewFast()
	installed := map[int]bool{}

	subscribe := func(i int) {
		t.Helper()
		if err := siena.Subscribe(w.subs[i], w.filters[i]); err != nil {
			t.Fatal(err)
		}
		if err := fast.Subscribe(w.subs[i], w.filters[i]); err != nil {
			t.Fatal(err)
		}
		installed[i] = true
	}
	unsubscribe := func(i int) {
		t.Helper()
		if err := siena.Unsubscribe(w.subs[i], w.filters[i]); err != nil {
			t.Fatal(err)
		}
		if err := fast.Unsubscribe(w.subs[i], w.filters[i]); err != nil {
			t.Fatal(err)
		}
		installed[i] = false
	}
	check := func(step int, events []*event.Event) {
		t.Helper()
		if siena.SubscriptionCount() != fast.SubscriptionCount() {
			t.Fatalf("count divergence: %d vs %d", siena.SubscriptionCount(), fast.SubscriptionCount())
		}
		for _, e := range events {
			if gs, gf := match(siena, e), match(fast, e); !idsEqual(gs, gf) {
				t.Fatalf("step %d: siena=%v fast=%v for %s", step, gs, gf, e)
			}
		}
	}

	for step := 0; step < 2400; step++ {
		i := rng.Intn(len(w.filters))
		switch {
		case !installed[i]:
			subscribe(i)
		case rng.Intn(2) == 0:
			unsubscribe(i)
		default:
			fast.UnsubscribeAll(w.subs[i])
			siena.UnsubscribeAll(w.subs[i])
			for j := range w.subs {
				if w.subs[j] == w.subs[i] {
					installed[j] = false
				}
			}
		}
		check(step, append(makeWorkload(int64(step), 0, 3).events, pw.events[step%len(pw.events)]))
	}

	for i := range w.filters {
		if installed[i] {
			unsubscribe(i)
		}
	}
	check(-1, pw.events)
	if idx := fast.snap.Load(); len(idx.parts) != 0 || idx.root != nil || len(idx.empties) != 0 {
		t.Fatalf("empty matcher kept partitions: parts=%d root=%v empties=%d", len(idx.parts), idx.root, len(idx.empties))
	}
	for i := range w.filters {
		subscribe(i)
	}
	check(-2, pw.events)
}

func TestConcurrentMatchAndSubscribe(t *testing.T) {
	both(t, func(t *testing.T, m Matcher) {
		done := make(chan struct{})
		go func() {
			defer close(done)
			for i := 0; i < 200; i++ {
				f := event.NewFilter().Where("k", event.OpEq, event.Int(int64(i%10)))
				_ = m.Subscribe(ident.New(uint64(i%7+1)), f)
				if i%3 == 0 {
					_ = m.Unsubscribe(ident.New(uint64(i%7+1)), f)
				}
			}
		}()
		for i := 0; i < 200; i++ {
			match(m, event.New().SetInt("k", int64(i%10)))
		}
		<-done
	})
}

func TestNames(t *testing.T) {
	allThree(t, func(t *testing.T, m Matcher) {
		if m.Name() != t.Name()[len("TestNames/"):] {
			t.Errorf("engine named %q", m.Name())
		}
	})
}

func ExampleNew() {
	m, _ := New(KindFast)
	_ = m.Subscribe(ident.New(1), event.NewFilter().WhereType("alarm"))
	matches := m.MatchAppendScratch(event.NewTyped("alarm"), nil, NewScratch())
	fmt.Println(len(matches))
	// Output: 1
}
