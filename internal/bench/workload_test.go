package bench

import (
	"testing"

	"github.com/amuse/smc/internal/ident"
	"github.com/amuse/smc/internal/matcher"
)

func TestWorkloadDeterministic(t *testing.T) {
	a := NewWorkload(DefaultMix(), 5)
	b := NewWorkload(DefaultMix(), 5)
	for i := 0; i < 500; i++ {
		ea, ca := a.Next()
		eb, cb := b.Next()
		if ca != cb || !ea.Equal(eb) {
			t.Fatalf("divergence at %d: %s vs %s", i, ea, eb)
		}
	}
}

func TestWorkloadMixApproximatelyRespected(t *testing.T) {
	w := NewWorkload(DefaultMix(), 9)
	counts := map[TrafficClass]int{}
	const n = 5000
	for i := 0; i < n; i++ {
		_, c := w.Next()
		counts[c]++
	}
	// Readings dominate (90/100 weight): expect 80–95%.
	if frac := float64(counts[ClassReading]) / n; frac < 0.8 || frac > 0.95 {
		t.Errorf("readings fraction = %.2f", frac)
	}
	for _, c := range []TrafficClass{ClassAlarm, ClassMembership, ClassControl} {
		if counts[c] == 0 {
			t.Errorf("class %s never generated", c)
		}
	}
}

func TestWorkloadEventsAreValidAndMatchable(t *testing.T) {
	w := NewWorkload(DefaultMix(), 11)
	m := matcher.NewFast()
	for i, f := range StandardSubscriptions() {
		if err := m.Subscribe(ident.New(uint64(100+i)), f); err != nil {
			t.Fatal(err)
		}
	}
	matched, sc := 0, matcher.NewScratch()
	for i := 0; i < 1000; i++ {
		e, _ := w.Next()
		if err := e.Validate(); err != nil {
			t.Fatalf("invalid event: %v", err)
		}
		if len(m.MatchAppendScratch(e, nil, sc)) > 0 {
			matched++
		}
	}
	// Most of the stream (readings + high alarms + membership) is
	// consumed by the standard subscriptions.
	if matched < 850 {
		t.Errorf("only %d/1000 events matched", matched)
	}
}

func TestTrafficClassStrings(t *testing.T) {
	for _, c := range []TrafficClass{ClassReading, ClassAlarm, ClassMembership, ClassControl} {
		if c.String() == "unknown" {
			t.Errorf("class %d renders unknown", c)
		}
	}
	if TrafficClass(0).String() != "unknown" {
		t.Error("zero class not unknown")
	}
}
