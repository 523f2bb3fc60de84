package matcher

import (
	"fmt"
	"testing"

	"github.com/amuse/smc/internal/event"
	"github.com/amuse/smc/internal/ident"
)

// The Siena matcher's per-match translation allocations ARE the §V
// overhead the paper measures the dedicated matcher against, so the
// inline-event refactor must leave them untouched (ROADMAP: do not
// "optimise" them away without splitting flavours). seedMatchAppend
// reproduces the seed's match path exactly — the event translated
// through a fresh map via closure iteration, the memo and seen maps,
// the same poset evaluation — and the test below asserts that the
// refactored MatchAppendScratch allocates exactly as much.

// seedTranslateEvent is a frozen copy of the seed's translateEvent.
// It must stay an out-of-line function returning the map, exactly like
// the original: inlining the body into the caller would let escape
// analysis stack-allocate the map and understate the seed's
// allocations.
//
//go:noinline
func seedTranslateEvent(e *event.Event) sienaNotification {
	n := make(sienaNotification, e.Len())
	e.Range(func(name string, v event.Value) bool {
		n[string(append([]byte(nil), name...))] = translateValue(v)
		return true
	})
	return n
}

// seedMatchAppend is a frozen copy of the seed's per-match path. The
// seed guarded the poset with an RWMutex where the snapshot rewrite
// loads an atomic pointer; neither allocates, so the allocation pin
// below still compares exactly the translation/memo/dedup work.
func seedMatchAppend(m *sienaMatcher, e *event.Event, dst []ident.ID) []ident.ID {
	nodes := m.snap.Load().nodes

	notif := seedTranslateEvent(e)
	memo := make(map[*sienaNode]bool, len(nodes))
	var eval func(n *sienaNode) bool
	eval = func(n *sienaNode) bool {
		if r, ok := memo[n]; ok {
			return r
		}
		memo[n] = false
		for _, p := range n.parents {
			if !eval(p) {
				return false
			}
		}
		r := matchFilter(n.filter, notif)
		memo[n] = r
		return r
	}
	seen := make(map[ident.ID]bool, 8)
	for _, n := range nodes {
		if eval(n) && !seen[n.sub] {
			seen[n.sub] = true
			dst = append(dst, n.sub)
		}
	}
	return dst
}

// sienaAllocWorkload builds a matcher with n installed filters and a
// representative small event (the §V reading shape).
func sienaAllocWorkload(t testing.TB, n int) (*sienaMatcher, *event.Event) {
	t.Helper()
	m := newSiena()
	for i := 0; i < n; i++ {
		f := event.NewFilter().WhereType("reading").
			Where("value", event.OpGt, event.Int(int64(i%50)))
		if err := m.Subscribe(ident.New(uint64(i+1)), f); err != nil {
			t.Fatal(err)
		}
	}
	e := event.NewTyped("reading").
		SetStr("kind", "heart-rate").
		SetFloat("value", 42).
		SetStr("unit", "bpm").
		SetInt("seq", 9)
	e.Sender = ident.New(0x77)
	return m, e
}

// TestSienaTranslationAllocsPinned asserts that the refactored Siena
// matcher performs exactly the same number of per-match allocations as
// the seed implementation, preserving §V overhead comparability.
func TestSienaTranslationAllocsPinned(t *testing.T) {
	for _, subs := range []int{10, 100} {
		t.Run(fmt.Sprintf("subs=%d", subs), func(t *testing.T) {
			m, e := sienaAllocWorkload(t, subs)
			dst, sc := make([]ident.ID, 0, subs), NewScratch()

			seedAllocs := testing.AllocsPerRun(200, func() {
				dst = seedMatchAppend(m, e, dst[:0])
			})
			nowAllocs := testing.AllocsPerRun(200, func() {
				dst = m.MatchAppendScratch(e, dst[:0], sc)
			})
			if seedAllocs != nowAllocs {
				t.Fatalf("Siena per-match allocations changed: seed %.1f, now %.1f — "+
					"the §V translation overhead must be preserved verbatim",
					seedAllocs, nowAllocs)
			}
			if seedAllocs == 0 {
				t.Fatal("seed reference performed no allocations; workload is not representative")
			}

			// Same verdicts, same subscribers.
			a := seedMatchAppend(m, e, nil)
			b := m.MatchAppendScratch(e, nil, sc)
			if len(a) != len(b) {
				t.Fatalf("verdicts diverge: seed %d matches, now %d", len(a), len(b))
			}
		})
	}
}
