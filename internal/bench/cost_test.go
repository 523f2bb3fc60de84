package bench

import (
	"sync"
	"testing"
	"time"

	"github.com/amuse/smc/internal/bootstrap"
	"github.com/amuse/smc/internal/bus"
	"github.com/amuse/smc/internal/event"
	"github.com/amuse/smc/internal/ident"
	"github.com/amuse/smc/internal/matcher"
	"github.com/amuse/smc/internal/netsim"
	"github.com/amuse/smc/internal/reliable"
)

// TestCostModelSlowsProcessing: the ingest cost is charged once per
// event on the shard worker, so five publishes from one service take at
// least five ingest costs to reach a subscriber.
func TestCostModelSlowsProcessing(t *testing.T) {
	n := netsim.New(netsim.Perfect, netsim.WithSeed(21))
	defer n.Close()
	tr, err := n.Attach(ident.New(benchBusAddr))
	if err != nil {
		t.Fatal(err)
	}
	m := costMatcher{Matcher: matcher.NewFast(), cost: Cost{IngestPerEvent: 20 * time.Millisecond}}
	b := bus.New(reliable.New(tr, reliable.Config{}), m, bootstrap.NewRegistry())
	b.Start()
	defer b.Close()

	svc := b.Local("timer")
	var mu sync.Mutex
	var stamps []time.Time
	err = svc.Subscribe(event.NewFilter().WhereType("t"), func(*event.Event) {
		mu.Lock()
		stamps = append(stamps, time.Now())
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	for i := 0; i < 5; i++ {
		if err := svc.Publish(event.NewTyped("t")); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		mu.Lock()
		got := len(stamps)
		mu.Unlock()
		if got == 5 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(stamps) != 5 {
		t.Fatalf("delivered %d", len(stamps))
	}
	if d := stamps[4].Sub(start); d < 90*time.Millisecond {
		t.Errorf("5 events with 20ms ingest cost took %v, want ≥ ~100ms", d)
	}
}
