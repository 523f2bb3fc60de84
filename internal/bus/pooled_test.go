package bus

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"github.com/amuse/smc/internal/event"
	"github.com/amuse/smc/internal/proxy"
	"github.com/amuse/smc/internal/wire"
)

// TestBusHotPathZeroAlloc pins the publish pipeline at no allocation
// per published event in steady state — the inline attribute storage
// removed the map, the recycled-event lifecycle the Event struct, and
// the durable log encodes into pooled scratch — on every shape
// BenchmarkBusHotPath and BenchmarkDurablePublish report allocs/op for,
// measured as they measure it: whole-process mallocs over a flood,
// divided by the events published.
func TestBusHotPathZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; exact-alloc check runs un-instrumented")
	}
	if testing.Short() {
		t.Skip("allocation pin")
	}
	for _, tc := range []struct {
		delivery    string
		fan, shards int // shards 0: the bus default, as BenchmarkDurablePublish runs
		log         string
		durables    int // attached durable consumers: the in-lock hand-off
	}{
		{"local", 1, 1, "off", 0},
		{"local", 8, 1, "off", 0},
		{"member", 8, 1, "off", 0},
		{"member", 8, 0, "off", 0},
		{"member", 8, 0, "on", 0},
		{"member", 8, 0, "disk", 0},
		{"member", 8, 0, "sync", 0},
		{"member", 8, 0, "on", 1},
	} {
		name := fmt.Sprintf("delivery=%s/fanout=%d/shards=%d/log=%s", tc.delivery, tc.fan, tc.shards, tc.log)
		if tc.durables > 0 {
			name += fmt.Sprintf("/durables=%d", tc.durables)
		}
		t.Run(name, func(t *testing.T) {
			opts := durableLogOpts(t, tc.log)
			if tc.shards > 0 {
				opts = append(opts, WithShards(tc.shards))
			}
			if tc.durables > 0 {
				// High water (32 768) above what the durable proxy's
				// goroutine falls behind the flood by, so the consumer stays
				// attached — fed by the appending shards — throughout; the
				// warm-up still fills the member queues to their bound.
				opts = append(opts, withProxyConfig(proxy.Config{QueueCap: 1 << 16}))
			}
			bus, flood := newHotPath(t, tc.delivery, tc.fan, tc.durables, opts...)
			// Warm the event pools, fill the member proxies' queues and
			// take the log past its retention bound (65 536 events), so
			// the measured flood recycles instead of growing.
			flood(70000)

			const n = 50000
			var before, after runtime.MemStats
			walked := bus.ctl().enqueuedRemote.Load() // walker deliveries
			runtime.ReadMemStats(&before)
			flood(n)
			runtime.ReadMemStats(&after)
			if walked = bus.ctl().enqueuedRemote.Load() - walked; walked > 0 {
				// Parked and caught up by its walker: the hand-off was
				// measured on fewer events than published.
				t.Logf("%d of %d durable deliveries came from the walker", walked, n)
			}
			// Whole allocations per event, as allocs/op rounds: a GC
			// emptying the sync.Pools mid-run costs a few hundred
			// mallocs, one allocation on the path costs n.
			if mallocs := after.Mallocs - before.Mallocs; mallocs >= n {
				t.Fatalf("pooled publish allocates %.2f objects/event, want 0", float64(mallocs)/n)
			}
		})
	}
}

// TestPooledEventThroughMemberPath drives pooled events through the
// full remote branch — publish → match → proxy retain → wire encode →
// release → recycle — and checks every delivered payload, so an event
// recycled before its proxy finished encoding (a refcount bug) shows
// up as payload corruption.
func TestPooledEventThroughMemberPath(t *testing.T) {
	r := newRig(t)
	ch := r.member(t, 0x42, "generic")
	subscribe(t, ch, event.NewFilter().WhereType("pooled"))
	waitForSubs(t, r.bus, 1)

	svc := r.bus.Local("pub")
	const n = 100
	done := make(chan error, 1)
	go func() {
		for i := 0; i < n; {
			pkt, err := ch.Recv()
			if err != nil {
				done <- err
				return
			}
			events, err := packetEvents(pkt)
			pkt.Release()
			if err != nil {
				done <- err
				return
			}
			for _, e := range events {
				if v, ok := e.Get("k"); !ok {
					done <- fmt.Errorf("delivery %d: attribute missing (recycled too early?)", i)
					return
				} else if iv, _ := v.Int(); iv != int64(i) {
					done <- fmt.Errorf("delivery %d: k = %d (event corrupted by recycling)", i, iv)
					return
				}
				if e.Type() != "pooled" {
					done <- fmt.Errorf("delivery %d: type = %q", i, e.Type())
					return
				}
				i++
			}
		}
		done <- nil
	}()

	for i := 0; i < n; i++ {
		e := event.Acquire().
			SetStr(event.AttrType, "pooled").
			SetInt("k", int64(i)).
			SetStr("pad", "abcdefghikjlmnop")
		if err := svc.Publish(e); err != nil {
			e.Release()
			t.Fatal(err)
		}
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("timed out waiting for member deliveries")
	}
}

// TestPooledEventSharedFanout fans one pooled event out to a local
// subscriber and two member proxies at once: the refcount must keep
// the event alive until the slowest consumer encoded it.
func TestPooledEventSharedFanout(t *testing.T) {
	r := newRig(t)
	chA := r.member(t, 0x51, "generic")
	chB := r.member(t, 0x52, "generic")
	subscribe(t, chA, event.NewFilter().WhereType("fan"))
	subscribe(t, chB, event.NewFilter().WhereType("fan"))
	waitForSubs(t, r.bus, 2)
	var local atomic.Uint64
	if err := r.bus.Local("sub").Subscribe(event.NewFilter().WhereType("fan"), func(e *event.Event) {
		if v, ok := e.Get("k"); ok {
			if iv, _ := v.Int(); iv >= 0 {
				local.Add(1)
			}
		}
	}); err != nil {
		t.Fatal(err)
	}

	svc := r.bus.Local("pub")
	const n = 50
	recv := func(ch interface {
		Recv() (*wire.Packet, error)
	}, errs chan<- error) {
		for i := 0; i < n; {
			pkt, err := ch.Recv()
			if err != nil {
				errs <- err
				return
			}
			events, err := packetEvents(pkt)
			pkt.Release()
			if err != nil {
				errs <- err
				return
			}
			for _, e := range events {
				if v, ok := e.Get("k"); !ok {
					errs <- fmt.Errorf("delivery %d: missing attr", i)
					return
				} else if iv, _ := v.Int(); iv != int64(i) {
					errs <- fmt.Errorf("delivery %d: k = %d", i, iv)
					return
				}
				i++
			}
		}
		errs <- nil
	}
	errs := make(chan error, 2)
	go recv(chA, errs)
	go recv(chB, errs)

	for i := 0; i < n; i++ {
		e := event.Acquire().SetStr(event.AttrType, "fan").SetInt("k", int64(i))
		if err := svc.Publish(e); err != nil {
			e.Release()
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		select {
		case err := <-errs:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(15 * time.Second):
			t.Fatal("timed out waiting for fan-out deliveries")
		}
	}
	if got := local.Load(); got != n {
		t.Fatalf("local handler saw %d events, want %d", got, n)
	}
}
