package bus

import (
	"errors"
	"sync"
	"testing"
	"time"

	"github.com/amuse/smc/internal/event"
	"github.com/amuse/smc/internal/ident"
	"github.com/amuse/smc/internal/proxy"
	"github.com/amuse/smc/internal/wire"
)

func TestWithProxyConfigApplies(t *testing.T) {
	// Uncoalesced, so past the proxy's eight in-flight deliveries the
	// queue absorbs the backlog and the tiny cap is observable.
	cfg := proxy.Config{QueueCap: 2, RedeliveryInterval: time.Hour, BatchEvents: 1}
	r := newRig(t, withProxyConfig(cfg))
	pub := r.member(t, 1, "generic")

	// An unreachable member: its queue should respect the tiny cap.
	ghost := ident.New(0xDEAD)
	if err := r.bus.AddMember(ghost, "generic", "ghost"); err != nil {
		t.Fatal(err)
	}
	if err := r.bus.match.Subscribe(ghost, event.NewFilter().WhereType("x")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		publish(t, pub, event.NewTyped("x").SetInt("n", int64(i)))
	}
	deadline := time.Now().Add(2 * time.Second)
	var dropped uint64
	for time.Now().Before(deadline) {
		if px := r.bus.MemberProxy(ghost); px != nil {
			dropped = px.Stats().DroppedOldest
			if dropped > 0 && px.QueueLen() <= 2 {
				return
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("tiny queue cap not honoured (dropped=%d)", dropped)
}

func TestWithQueueDepthBoundsBacklog(t *testing.T) {
	// Depth 1 behind a handler that blocks the shard worker: a burst
	// overflows into errBusy (surfaced as Stats.Dropped for remote
	// publishes, as TryPublish's error for local ones).
	r := newRig(t, WithQueueDepth(1))
	unblock := make(chan struct{})
	t.Cleanup(func() { close(unblock) }) // before the bus closes
	svc := r.bus.Local("burster")
	if err := svc.Subscribe(event.NewFilter().WhereType("t"), func(*event.Event) { <-unblock }); err != nil {
		t.Fatal(err)
	}
	var busy int
	for i := 0; i < 20; i++ {
		if err := svc.TryPublish(event.NewTyped("t")); errors.Is(err, errBusy) {
			busy++
		} else if err != nil {
			t.Fatal(err)
		}
	}
	if busy == 0 {
		t.Error("no backpressure with queue depth 1")
	}
}

// TestLocalPublishWaitsForRoom: on a full shard queue Publish waits
// instead of refusing. It completes once the queue drains, or returns
// errClosed when the bus closes first.
func TestLocalPublishWaitsForRoom(t *testing.T) {
	for _, closeBus := range []bool{false, true} {
		t.Run(map[bool]string{false: "drain", true: "close"}[closeBus], func(t *testing.T) {
			r := newRig(t, WithShards(1), WithQueueDepth(1))
			hold := make(chan struct{})
			release := sync.OnceFunc(func() { close(hold) })
			t.Cleanup(release) // before the bus closes
			entered, got := make(chan struct{}, 1), make(chan *event.Event, 1)
			svc := r.bus.Local("svc")
			if err := svc.Subscribe(event.NewFilter().WhereType("hold"), func(*event.Event) {
				entered <- struct{}{}
				<-hold
			}); err != nil {
				t.Fatal(err)
			}
			if err := svc.Subscribe(event.NewFilter().WhereType("t"), func(e *event.Event) { got <- e }); err != nil {
				t.Fatal(err)
			}
			if err := svc.TryPublish(event.NewTyped("hold")); err != nil {
				t.Fatal(err)
			}
			<-entered
			for svc.TryPublish(event.NewTyped("fill")) == nil {
			}

			done := make(chan error, 1)
			go func() { done <- svc.Publish(event.NewTyped("t")) }()
			select {
			case err := <-done:
				t.Fatalf("Publish on a full queue returned %v", err)
			case <-time.After(50 * time.Millisecond):
			}
			if closeBus {
				closed := make(chan error, 1)
				go func() { closed <- r.bus.Close() }()
				if err := <-done; !errors.Is(err, errClosed) {
					t.Errorf("Publish after Close = %v, want ErrClosed", err)
				}
				release()
				if err := <-closed; err != nil {
					t.Fatal(err)
				}
				return
			}
			release()
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			select {
			case <-got:
			case <-time.After(5 * time.Second):
				t.Fatal("the waiting publish was never delivered")
			}
		})
	}
}

func TestLocalServiceName(t *testing.T) {
	r := newRig(t)
	ls := r.bus.Local("monitoring")
	if ls.name != "monitoring" {
		t.Errorf("name = %q", ls.name)
	}
}

func TestBadPacketsCounted(t *testing.T) {
	r := newRig(t)
	m := r.member(t, 1, "generic")
	// A bus endpoint should never receive discovery traffic; it is
	// counted as bad.
	if err := m.SendUnreliable(ident.New(busID), wire.PktHeartbeat, nil); err != nil {
		t.Fatal(err)
	}
	// Garbage event payload from a member.
	if err := m.Send(ident.New(busID), wire.PktEvent, []byte("junk")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if r.bus.Stats().BadPackets >= 2 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Errorf("BadPackets = %d, want ≥ 2", r.bus.Stats().BadPackets)
}

func TestUnsubscribeUnknownFilterIgnored(t *testing.T) {
	r := newRig(t)
	m := r.member(t, 1, "generic")
	f := event.NewFilter().WhereType("never-installed")
	if err := m.Send(ident.New(busID), wire.PktUnsubscribe, wire.EncodeFilter(f)); err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond)
	if st := r.bus.Stats(); st.Unsubscriptions != 0 {
		t.Errorf("phantom unsubscription recorded: %+v", st)
	}
}

// withProxyConfig overrides proxy queue/redelivery tuning. It replaces
// the whole proxy configuration, so give it before WithBatching.
func withProxyConfig(cfg proxy.Config) Option {
	return func(b *Bus) { b.proxyCfg = cfg }
}
