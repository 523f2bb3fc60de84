package bus

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/amuse/smc/internal/bootstrap"
	"github.com/amuse/smc/internal/event"
	"github.com/amuse/smc/internal/ident"
	"github.com/amuse/smc/internal/matcher"
	"github.com/amuse/smc/internal/netsim"
	"github.com/amuse/smc/internal/reliable"
)

// TestBusHotPath is a functional smoke of the sharded dispatch
// pipeline sized for `go test -race -cpu 1,2`: GOMAXPROCS concurrent
// publishers flood pooled events through subscribe/unsubscribe churn
// while local subscribers count deliveries. It verifies the lock-free
// matcher snapshots, per-worker scratch, and sharded counters under
// the race detector, and that the fold-on-read Stats stay coherent
// once the bus quiesces.
func TestBusHotPath(t *testing.T) {
	n := netsim.New(netsim.Perfect, netsim.WithSeed(5))
	defer n.Close()
	tr, err := n.Attach(ident.New(busID))
	if err != nil {
		t.Fatal(err)
	}
	bus := New(reliable.New(tr, testCfg()), matcher.NewFast(), bootstrap.NewRegistry(),
		WithShards(runtime.GOMAXPROCS(0)), WithQueueDepth(1024))
	bus.Start()
	defer bus.Close()

	const fan = 4
	filter := event.NewFilter().WhereType("smoke")
	var delivered atomic.Uint64
	for i := 0; i < fan; i++ {
		svc := bus.Local(fmt.Sprintf("sub-%d", i))
		if err := svc.Subscribe(filter, func(*event.Event) { delivered.Add(1) }); err != nil {
			t.Fatal(err)
		}
	}

	// Churn a disjoint subscription concurrently with dispatch so the
	// matcher's copy-on-write writers race real traffic.
	churnDone := make(chan struct{})
	go func() {
		defer close(churnDone)
		churn := bus.Local("churner")
		f := event.NewFilter().WhereType("other")
		for i := 0; i < 200; i++ {
			remove, err := churn.Handle(f, func(*event.Event) {})
			if err != nil {
				t.Error(err)
				return
			}
			if err := remove(); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	const perPub = 500
	pubs := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	for p := 0; p < pubs; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			svc := bus.Local(fmt.Sprintf("pub-%d", p))
			for i := 0; i < perPub; i++ {
				e := event.Acquire().SetStr(event.AttrType, "smoke").SetInt("k", int64(i))
				if err := svc.Publish(e); err != nil {
					e.Release()
					t.Error(err)
					return
				}
			}
		}(p)
	}
	wg.Wait()
	<-churnDone

	want := uint64(pubs * perPub * fan)
	deadline := time.Now().Add(30 * time.Second)
	for delivered.Load() < want {
		if time.Now().After(deadline) {
			t.Fatalf("delivered %d of %d events", delivered.Load(), want)
		}
		runtime.Gosched()
	}

	// Quiesced: the folded per-shard counters must account for every
	// publish exactly.
	st := bus.Stats()
	if st.Published != uint64(pubs*perPub) {
		t.Fatalf("Published = %d, want %d", st.Published, pubs*perPub)
	}
	if st.Matched != uint64(pubs*perPub) {
		t.Fatalf("Matched = %d, want %d (every event had subscribers)", st.Matched, pubs*perPub)
	}
	if st.DeliveredLocal != want {
		t.Fatalf("DeliveredLocal = %d, want %d", st.DeliveredLocal, want)
	}
	if st.NoMatch != 0 {
		t.Fatalf("NoMatch = %d, want 0", st.NoMatch)
	}
}
