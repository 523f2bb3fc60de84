package client_test

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"github.com/amuse/smc/internal/bus"
	"github.com/amuse/smc/internal/client"
	"github.com/amuse/smc/internal/event"
	"github.com/amuse/smc/internal/ident"
	"github.com/amuse/smc/internal/matcher"
	"github.com/amuse/smc/internal/netsim"
	"github.com/amuse/smc/internal/reliable"
	"github.com/amuse/smc/internal/wire"
)

// batchRig is a bus with batching enabled on its member proxies, over
// a configurable link profile, with direct access to each client's
// reliable channel so tests can assert on batch counters.
type batchRig struct {
	net *netsim.Network
	bus *bus.Bus
}

func newBatchRig(t *testing.T, p netsim.Profile, seed int64, busOpts ...bus.Option) *batchRig {
	t.Helper()
	n := netsim.New(p, netsim.WithSeed(seed))
	tr, err := n.Attach(ident.New(busID))
	if err != nil {
		t.Fatal(err)
	}
	b := bus.New(reliable.New(tr, relCfg()), matcher.NewFast(), newRegistry(), busOpts...)
	b.Start()
	t.Cleanup(func() {
		b.Close()
		n.Close()
	})
	return &batchRig{net: n, bus: b}
}

func (r *batchRig) client(t *testing.T, id uint64, opts ...client.Option) (*client.Client, *reliable.Channel) {
	t.Helper()
	tr, err := r.net.Attach(ident.New(id))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.bus.AddMember(ident.New(id), "generic", "dev"); err != nil {
		t.Fatal(err)
	}
	ch := reliable.New(tr, relCfg())
	c := client.New(ch, ident.New(busID), opts...)
	t.Cleanup(func() { c.Close() })
	return c, ch
}

// drainOrdered receives n events and checks the per-publisher FIFO
// contract: the "n" attribute (and the client-stamped Seq) must arrive
// strictly ascending, batched or not. It counts what it has received in
// drained and returns rather than fails, so it can run concurrently
// with publishing.
func drainOrdered(sub *client.Client, n int, drained *atomic.Int64) error {
	next := int64(0)
	for next < int64(n) {
		e, err := sub.NextEvent(20 * time.Second)
		if err != nil {
			return fmt.Errorf("after %d/%d events: %w", next, n, err)
		}
		v, ok := e.Get("n")
		got, _ := v.Int()
		if !ok || got != next {
			return fmt.Errorf("event %d: n = %d (ok=%v), want %d", next, got, ok, next)
		}
		if e.Seq != uint64(next+1) {
			return fmt.Errorf("event %d: seq = %d, want %d", next, e.Seq, next+1)
		}
		e.Release()
		next++
		drained.Store(next)
	}
	return nil
}

// publishBurst publishes n events asynchronously and waits for every
// acknowledgement. The subscriber's inbox holds 256 events and sheds
// what does not fit, so the burst never runs more than 200 ahead of
// what drainOrdered has taken out: with the drainer keeping up the
// barrier never closes and the burst is n back-to-back publishes; on a
// loaded host it holds the publisher instead of losing events.
func publishBurst(t *testing.T, pub *client.Client, n int, drained *atomic.Int64) {
	t.Helper()
	comps := make([]*reliable.Completion, 0, n)
	for i := 0; i < n; i++ {
		for int64(i)-drained.Load() >= 200 {
			time.Sleep(100 * time.Microsecond)
		}
		comp, err := pub.PublishAsync(event.NewTyped("x").SetInt("n", int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		comps = append(comps, comp)
	}
	for i, comp := range comps {
		if err := comp.Wait(); err != nil {
			t.Fatalf("publish %d: %v", i, err)
		}
		comp.Recycle()
	}
}

// TestBatchingEndToEnd drives the full member→bus→member path with
// batching enabled at both ends, across link profiles (including the
// loss/duplication/reorder torture profile) and both flush triggers:
// "burst" publishes asynchronously so batches fill and flush on size,
// "trickle" publishes synchronously so every batch is cut by the flush
// deadline instead.
func TestBatchingEndToEnd(t *testing.T) {
	const events = 300
	profiles := []netsim.Profile{netsim.Perfect, netsim.Torture}
	modes := []string{"burst", "trickle"}
	for _, p := range profiles {
		for _, mode := range modes {
			t.Run(fmt.Sprintf("%s/%s", p.Name, mode), func(t *testing.T) {
				n := events
				if mode == "trickle" {
					n = 40 // sync publishes pay a deadline flush each
				}
				r := newBatchRig(t, p, 99, bus.WithBatching(16, 0, 0))
				pub, pubCh := r.client(t, 1,
					client.WithPublishBatching(16, 0, 500*time.Microsecond))
				sub, _ := r.client(t, 2)
				if err := sub.Subscribe(event.NewFilter().WhereType("x")); err != nil {
					t.Fatal(err)
				}

				var drained atomic.Int64
				done := make(chan error, 1)
				go func() { done <- drainOrdered(sub, n, &drained) }()
				if mode == "burst" {
					publishBurst(t, pub, n, &drained)
				} else {
					for i := 0; i < n; i++ {
						if err := pub.Publish(event.NewTyped("x").SetInt("n", int64(i))); err != nil {
							t.Fatalf("publish %d: %v", i, err)
						}
					}
				}
				if err := <-done; err != nil {
					t.Fatal(err)
				}

				// The publisher's channel must actually have sent
				// batches — flush-on-size in burst mode, flush-on-
				// deadline in trickle mode (every publish becomes a
				// deadline-cut one-frame batch).
				if got := pubCh.Stats().BatchesSent; got == 0 {
					t.Errorf("publisher sent no batches (stats %+v)", pubCh.Stats())
				}
				if got := pub.Stats().Published; got != uint64(n) {
					t.Errorf("Published = %d, want %d", got, n)
				}
			})
		}
	}
}

// TestProxyBatchDeliveryUnderTorture loads the bus→member direction:
// a slow lossy link makes the subscriber's proxy queue build up, so
// the proxy's gatherBatch coalesces deliveries into batch packets that
// then survive loss, duplication and reordering.
func TestProxyBatchDeliveryUnderTorture(t *testing.T) {
	const events = 300
	r := newBatchRig(t, netsim.Torture, 7, bus.WithBatching(16, 0, 0))
	pub, _ := r.client(t, 1)
	sub, _ := r.client(t, 2)
	if err := sub.Subscribe(event.NewFilter().WhereType("x")); err != nil {
		t.Fatal(err)
	}
	var drained atomic.Int64
	done := make(chan error, 1)
	go func() { done <- drainOrdered(sub, events, &drained) }()
	publishBurst(t, pub, events, &drained)
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	// Delivered counts *acknowledged* events; the subscriber has seen
	// all 300 but the acks for the last batches may still be crossing
	// the lossy link. Poll for convergence.
	deadline := time.Now().Add(10 * time.Second)
	var st = r.bus.MemberProxy(ident.New(2)).Stats()
	for st.Delivered < uint64(events) && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
		st = r.bus.MemberProxy(ident.New(2)).Stats()
	}
	if st.Batches == 0 {
		t.Errorf("subscriber proxy coalesced no batches (stats %+v)", st)
	}
	if st.Delivered != uint64(events) {
		t.Errorf("Delivered = %d, want %d", st.Delivered, events)
	}
}

// TestBatchingRawDataOrdering checks the FIFO-break path: raw device
// data flushing the pending publish batch so it cannot overtake events
// accepted earlier.
func TestBatchingRawDataOrdering(t *testing.T) {
	r := newBatchRig(t, netsim.Perfect, 3, bus.WithBatching(16, 0, 0))
	pub, _ := r.client(t, 1, client.WithPublishBatching(16, 0, 50*time.Millisecond))
	sub, _ := r.client(t, 2)
	if err := sub.Subscribe(event.NewFilter().WhereType("x")); err != nil {
		t.Fatal(err)
	}
	// Two batched events, then raw data (generic proxy decodes it as an
	// event): the long flush delay means only the raw publish's
	// implicit flush can have pushed the batch out first.
	for i := 0; i < 2; i++ {
		if _, err := pub.PublishAsync(event.NewTyped("x").SetInt("n", int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	raw := event.NewTyped("x").SetInt("n", 2)
	raw.Sender = pub.ID()
	if err := pub.PublishRaw(wire.EncodeEvent(raw)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		e, err := sub.NextEvent(5 * time.Second)
		if err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
		v, _ := e.Get("n")
		if got, _ := v.Int(); got != int64(i) {
			t.Fatalf("event %d: n = %d (raw data overtook the batch)", i, got)
		}
		e.Release()
	}
}
