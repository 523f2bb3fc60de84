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

// BenchmarkBusHotPath measures the publish→match→deliver pipeline with
// the cost model off and no network in the timed path: GOMAXPROCS
// concurrent publishers flood the bus and the fan-out is either local
// services (pure dispatch) or member proxies (the enqueue side of
// remote delivery). ns/op is per published event; the events/sec
// metric is the published-event throughput of the whole pipeline.
func BenchmarkBusHotPath(b *testing.B) {
	for _, delivery := range []string{"local", "member"} {
		for _, fan := range []int{1, 8} {
			for _, shards := range shardCounts() {
				name := fmt.Sprintf("delivery=%s/fanout=%d/shards=%d", delivery, fan, shards)
				b.Run(name, func(b *testing.B) {
					benchHotPath(b, delivery, fan, WithShards(shards))
				})
			}
		}
	}
}

// shardCounts returns the shard sweep 1, 4, GOMAXPROCS, deduplicated.
func shardCounts() []int {
	counts := []int{1}
	for _, n := range []int{4, runtime.GOMAXPROCS(0)} {
		dup := false
		for _, have := range counts {
			dup = dup || have == n
		}
		if !dup {
			counts = append(counts, n)
		}
	}
	return counts
}

func benchHotPath(b *testing.B, delivery string, fan int, opts ...Option) {
	_, flood := newHotPath(b, delivery, fan, 0, opts...)
	b.ReportAllocs()
	b.ResetTimer()
	flood(b.N)
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/sec")
}

// newHotPath builds the benchmark's bus and fan-out and returns it with its
// unit of work: flood(n) publishes n pooled events from GOMAXPROCS
// publishers and returns once every one has been fully dispatched.
// durables adds that many attached durable consumers to a member
// fan-out (the bus needs a log), fed by the appending shards.
func newHotPath(tb testing.TB, delivery string, fan, durables int, opts ...Option) (bus *Bus, flood func(n int)) {
	n := netsim.New(netsim.Perfect, netsim.WithSeed(11))
	tb.Cleanup(func() { n.Close() })
	tr, err := n.Attach(ident.New(busID))
	if err != nil {
		tb.Fatal(err)
	}
	opts = append([]Option{WithQueueDepth(8192)}, opts...)
	bus = New(reliable.New(tr, testCfg()), matcher.NewFast(), bootstrap.NewRegistry(), opts...)
	bus.Start()
	tb.Cleanup(func() { bus.Close() })

	filter := event.NewFilter().WhereType("bench")
	var delivered atomic.Uint64
	switch delivery {
	case "local":
		for i := 0; i < fan; i++ {
			svc := bus.Local(fmt.Sprintf("sub-%d", i))
			if err := svc.Subscribe(filter, func(*event.Event) {
				delivered.Add(1)
			}); err != nil {
				tb.Fatal(err)
			}
		}
	case "member":
		// Members are never attached to the network: their proxies'
		// delivery workers idle in redelivery backoff while the timed
		// path measures match+enqueue. Progress is tracked through the
		// EnqueuedRemote counter instead of the handler count.
		for i := 0; i < fan; i++ {
			id := ident.New(uint64(0x200 + i))
			if err := bus.AddMember(id, "generic", fmt.Sprintf("sub-%d", i)); err != nil {
				tb.Fatal(err)
			}
			if err := bus.match.Subscribe(id, filter); err != nil {
				tb.Fatal(err)
			}
		}
		for i := 0; i < durables; i++ {
			attachDurableSink(tb, bus, ident.New(uint64(0x300+i)), filter)
		}
		fan += durables // EnqueuedRemote counts durable hand-offs too
	default:
		tb.Fatalf("unknown delivery %q", delivery)
	}
	dispatched := func() uint64 {
		if delivery == "local" {
			return delivered.Load()
		}
		return bus.Stats().EnqueuedRemote
	}

	pubs := runtime.GOMAXPROCS(0)
	svcs := make([]*LocalService, pubs)
	for p := range svcs {
		svcs[p] = bus.Local(fmt.Sprintf("pub-%d", p))
	}

	return bus, func(n int) {
		want := dispatched() + uint64(n)*uint64(fan)
		var wg sync.WaitGroup
		for p := 0; p < pubs; p++ {
			quota := n / pubs
			if p < n%pubs {
				quota++
			}
			wg.Add(1)
			go func(svc *LocalService, quota int) {
				defer wg.Done()
				for i := 0; i < quota; i++ {
					// The pooled-event lifecycle: the bus releases the
					// event once dispatch completes and the struct
					// recycles, so a small (≤ InlineAttrs-attribute)
					// publish allocates nothing in steady state.
					e := event.Acquire().SetStr(event.AttrType, "bench").SetInt("k", int64(i))
					if err := svc.Publish(e); err != nil {
						e.Release()
						tb.Error(err)
						return
					}
				}
			}(svcs[p], quota)
		}
		wg.Wait()

		// Wait until every published event has been fully dispatched.
		deadline := time.Now().Add(60 * time.Second)
		for dispatched() < want {
			if time.Now().After(deadline) {
				tb.Fatalf("dispatched %d events short of %d", want-dispatched(), uint64(n)*uint64(fan))
			}
			runtime.Gosched()
		}
	}
}
