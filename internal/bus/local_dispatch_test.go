package bus

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/amuse/smc/internal/event"
	"github.com/amuse/smc/internal/matcher"
)

// kindBus is a started two-shard bus over the given matcher kind.
func kindBus(t *testing.T, kind matcher.Kind) *Bus {
	t.Helper()
	m, err := matcher.New(kind)
	if err != nil {
		t.Fatal(err)
	}
	return newRigOver(t, m, WithShards(2)).bus
}

// awaitStats polls the bus's counters until done accepts them. Matched
// is bumped before an event's handlers run and DeliveredLocal after, so
// a caller that wants a finished dispatch waits on DeliveredLocal.
func awaitStats(t *testing.T, b *Bus, done func(Stats) bool) Stats {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := b.Stats()
		if done(st) {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("bus never reached the awaited counters: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestLocalDispatchCallsMatchingHandlers pins the local delivery rule
// under all three matchers: of one service's handlers an event calls
// exactly those whose filters it satisfies, once each — two handlers
// with equal filters are two calls — and Stats.DeliveredLocal counts
// those calls, not the services they belong to.
func TestLocalDispatchCallsMatchingHandlers(t *testing.T) {
	for _, kind := range []matcher.Kind{matcher.KindFast, matcher.KindSiena, matcher.KindTyped} {
		t.Run(string(kind), func(t *testing.T) {
			b := kindBus(t, kind)
			svc, pub := b.Local("svc"), b.Local("pub")
			reading := func() *event.Filter { return event.NewFilter().WhereType("reading") }
			filters := []*event.Filter{
				reading().Where("kind", event.OpEq, event.Str("hr")),
				reading().Where("kind", event.OpEq, event.Str("hr")), // equal to the first
				reading().Where("kind", event.OpEq, event.Str("spo2")),
				reading().Where("value", event.OpGe, event.Int(100)),
				reading(),
				event.NewFilter().WhereType("alarm"),
			}
			calls := make([]atomic.Int64, len(filters))
			removes := make([]func() error, len(filters))
			for i, f := range filters {
				i := i
				var err error
				if removes[i], err = svc.Handle(f, func(*event.Event) { calls[i].Add(1) }); err != nil {
					t.Fatal(err)
				}
			}
			var published, delivered uint64
			expect := func(e *event.Event, want ...int64) {
				t.Helper()
				before := make([]int64, len(calls))
				for i := range calls {
					before[i] = calls[i].Load()
				}
				if err := pub.Publish(e); err != nil {
					t.Fatal(err)
				}
				published++
				for _, n := range want {
					delivered += uint64(n)
				}
				// One local delivery per handler called, not per service.
				awaitStats(t, b, func(st Stats) bool {
					return st.Matched+st.NoMatch == published && st.DeliveredLocal == delivered
				})
				for i := range calls {
					if got := calls[i].Load() - before[i]; got != want[i] {
						t.Errorf("%s: handler %d (%s) called %d times, want %d", e, i, filters[i], got, want[i])
					}
				}
			}
			hr := event.NewTyped("reading").SetStr("kind", "hr").SetInt("value", 120)
			expect(hr, 1, 1, 0, 1, 1, 0)
			expect(event.NewTyped("reading").SetStr("kind", "spo2").SetInt("value", 50), 0, 0, 1, 0, 1, 0)
			expect(event.NewTyped("alarm").SetStr("kind", "hr"), 0, 0, 0, 0, 0, 1)
			expect(event.NewTyped("other"), 0, 0, 0, 0, 0, 0)

			// Removing one of two handlers with equal filters leaves the
			// other one working, whichever was installed first.
			if err := removes[1](); err != nil {
				t.Fatal(err)
			}
			expect(hr, 1, 0, 0, 1, 1, 0)
			if err := removes[0](); err != nil {
				t.Fatal(err)
			}
			expect(hr, 0, 0, 0, 1, 1, 0)
			if err := removes[0](); !errors.Is(err, matcher.ErrNoSuchSubscription) {
				t.Fatalf("second removal of one handler: %v, want ErrNoSuchSubscription", err)
			}
			if st := b.Stats(); st.Matched != 5 || st.NoMatch != 1 {
				t.Fatalf("Matched/NoMatch = %d/%d, want 5/1", st.Matched, st.NoMatch)
			}
		})
	}
}

// TestLocalUnsubscribeRacesPublish churns two alternating subscriptions
// of one service against a flood of both kinds of event. A hit computed
// against a subscription that is gone by dispatch time must resolve to
// nothing — never to the handler installed since, which wants the other
// kind — while a handler that stays installed throughout sees every
// event exactly once.
func TestLocalUnsubscribeRacesPublish(t *testing.T) {
	for _, kind := range []matcher.Kind{matcher.KindFast, matcher.KindSiena, matcher.KindTyped} {
		t.Run(string(kind), func(t *testing.T) {
			b := kindBus(t, kind)
			svc := b.Local("svc")
			types := [2]string{"race/even", "race/odd"}
			var steady [2]atomic.Int64
			for p := range types {
				p := p
				if err := svc.Subscribe(event.NewFilter().WhereType(types[p]), func(*event.Event) { steady[p].Add(1) }); err != nil {
					t.Fatal(err)
				}
			}

			const perPub = 1500
			var churned atomic.Int64
			stop := make(chan struct{})
			var churn sync.WaitGroup
			churn.Add(1)
			go func() {
				defer churn.Done()
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					// The steady handlers' filters plus a guard every event
					// passes, so the churned handler is never the only one
					// its filter's type reaches.
					want := types[i%2]
					f := event.NewFilter().WhereType(want).Where("n", event.OpGe, event.Int(0))
					remove, err := svc.Handle(f, func(e *event.Event) {
						churned.Add(1)
						if got := e.Type(); got != want {
							t.Errorf("handler subscribed to %q called with %q", want, got)
						}
					})
					if err != nil {
						t.Error(err)
						return
					}
					runtime.Gosched()
					if err := remove(); err != nil {
						t.Error(err)
						return
					}
				}
			}()

			var pubs sync.WaitGroup
			for p := range types {
				pubs.Add(1)
				go func(p int) {
					defer pubs.Done()
					pub := b.Local("pub-" + types[p])
					for i := 0; i < perPub; i++ {
						if err := pub.Publish(event.NewTyped(types[p]).SetInt("n", int64(i))); err != nil {
							t.Error(err)
							return
						}
					}
				}(p)
			}
			pubs.Wait()
			close(stop)
			churn.Wait()

			awaitStats(t, b, func(st Stats) bool {
				return st.Matched == 2*perPub && st.DeliveredLocal == uint64(2*perPub+churned.Load())
			})
			for p := range types {
				if got := steady[p].Load(); got != perPub {
					t.Errorf("steady %s handler called %d times for %d events", types[p], got, perPub)
				}
			}
			if churned.Load() > 2*perPub {
				t.Errorf("churned handlers called %d times for %d events", churned.Load(), 2*perPub)
			}
			t.Logf("churned handlers took %d of %d events", churned.Load(), 2*perPub)
		})
	}
}

// TestLocalAfterCloseKeepsServiceNumbersUnique: Close leaves the handlers
// of its local services in the caller's matcher, so a service registered
// afterwards must not be handed a number one of them still subscribes
// under.
func TestLocalAfterCloseKeepsServiceNumbersUnique(t *testing.T) {
	b := kindBus(t, matcher.KindFast)
	before := b.Local("before")
	if err := before.Subscribe(event.NewFilter().WhereType("x"), func(*event.Event) {}); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if after := b.Local("after"); after.ID() == before.ID() {
		t.Fatalf("service registered after Close reuses identity %v", after.ID())
	}
	if again := b.Local("before"); again != before {
		t.Fatal("Local(name) after Close no longer returns the registered service")
	}
}
