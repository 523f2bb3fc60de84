package proxy

import (
	"fmt"
	"testing"
	"time"

	"github.com/amuse/smc/internal/event"
	"github.com/amuse/smc/internal/ident"
	"github.com/amuse/smc/internal/netsim"
	"github.com/amuse/smc/internal/reliable"
	"github.com/amuse/smc/internal/wire"
)

// pipelineRig wires a proxy to a real reliable channel pair over a
// simulated network, with the member's receiving channel exposed.
type pipelineRig struct {
	net    *netsim.Network
	sender *reliable.Channel
	member *reliable.Channel
	px     *Proxy
}

func newPipelineRig(t *testing.T, p netsim.Profile, seed int64, cfg Config) *pipelineRig {
	t.Helper()
	n := netsim.New(p, netsim.WithSeed(seed))
	ta, err := n.Attach(ident.New(1))
	if err != nil {
		t.Fatal(err)
	}
	tb, err := n.Attach(ident.New(2))
	if err != nil {
		t.Fatal(err)
	}
	rcfg := reliable.Config{
		RetryTimeout:    15 * time.Millisecond,
		MaxRetryTimeout: 60 * time.Millisecond,
		MaxRetries:      3,
		Window:          8,
	}
	sender, member := reliable.New(ta, rcfg), reliable.New(tb, rcfg)
	px := New(ident.New(2), &GenericDevice{}, sender, nil, cfg)
	px.Start()
	t.Cleanup(func() {
		px.Purge()
		sender.Close()
		member.Close()
		n.Close()
	})
	return &pipelineRig{net: n, sender: sender, member: member, px: px}
}

func pingEvent(n int64) *event.Event {
	e := event.NewTyped("ping").SetInt("n", n)
	e.Sender, e.Seq = ident.New(7), uint64(n)
	e.Stamp = time.Unix(1234, 0) // fixed: redelivery must be byte-identical
	return e
}

// recvPings collects ping numbers from the member's channel until want
// have arrived or the timeout lapses. A coalesced packet yields all its
// pings, so the result can run past want.
func recvPings(t *testing.T, ch *reliable.Channel, want int, timeout time.Duration) []int64 {
	t.Helper()
	var got []int64
	deadline := time.Now().Add(timeout)
	for len(got) < want && time.Now().Before(deadline) {
		pkt, err := ch.RecvTimeout(time.Until(deadline))
		if err != nil {
			break
		}
		if pkt.Type != wire.PktEvent {
			continue
		}
		batched := pkt.Flags&wire.FlagBatch != 0
		for _, d := range (recordedSend{pkt.Type, batched, pkt.Payload}).unpack(t) {
			got = append(got, d.n)
		}
	}
	return got
}

// TestPipelinedDeliveryFIFO: the async loop must deliver a burst in
// enqueue order while keeping several sends in flight.
func TestPipelinedDeliveryFIFO(t *testing.T) {
	r := newPipelineRig(t, netsim.Profile{Name: "lat", Latency: 2 * time.Millisecond}, 1,
		Config{QueueCap: 64, RedeliveryInterval: 20 * time.Millisecond, Pipeline: 8})
	const count = 24
	start := time.Now()
	for i := 1; i <= count; i++ {
		r.px.Enqueue(pingEvent(int64(i)))
	}
	got := recvPings(t, r.member, count, 5*time.Second)
	elapsed := time.Since(start)
	if len(got) != count {
		t.Fatalf("delivered %d/%d", len(got), count)
	}
	for i, n := range got {
		if n != int64(i+1) {
			t.Fatalf("position %d = %d (order violated): %v", i, n, got)
		}
	}
	// Serial delivery would cost ≥ count × RTT = 24 × 4 ms = 96 ms.
	if elapsed > 80*time.Millisecond {
		t.Errorf("burst took %v; pipelining seems inactive", elapsed)
	}
	// The stat trails the trailing in-flight acknowledgements.
	waitFor(t, 2*time.Second, func() bool {
		return r.px.Stats().Delivered == count
	})
}

// TestPipelinedRedeliveryExactlyOnce reproduces the homecare scenario
// through the real stack minus the bus: the member walks out of range
// mid-stream, the channel gives up, the proxy redelivers after the
// member returns — every ping must arrive exactly once, in order.
func TestPipelinedRedeliveryExactlyOnce(t *testing.T) {
	r := newPipelineRig(t, netsim.WiFi, 2,
		Config{QueueCap: 64, RedeliveryInterval: 25 * time.Millisecond, Pipeline: 8})

	for i := 1; i <= 3; i++ {
		r.px.Enqueue(pingEvent(int64(i)))
	}
	if got := recvPings(t, r.member, 3, 5*time.Second); len(got) != 3 {
		t.Fatalf("pre-gap delivery: %v", got)
	}

	// Member out of range: enqueues pile up, the channel gives up
	// repeatedly, the proxy keeps retrying.
	r.net.Isolate(ident.New(2))
	for i := 4; i <= 9; i++ {
		r.px.Enqueue(pingEvent(int64(i)))
	}
	time.Sleep(300 * time.Millisecond) // several give-up/redeliver cycles
	r.net.Restore(ident.New(2))

	got := recvPings(t, r.member, 6, 10*time.Second)
	if fmt.Sprint(got) != "[4 5 6 7 8 9]" {
		t.Fatalf("post-gap delivery = %v, want [4 5 6 7 8 9]", got)
	}
	// Nothing else may trickle in (at-most-once).
	if extra := recvPings(t, r.member, 1, 200*time.Millisecond); len(extra) != 0 {
		t.Errorf("duplicate delivery: %v", extra)
	}
	if st := r.px.Stats(); st.Redeliveries == 0 {
		t.Errorf("no redeliveries despite the gap (stats %+v)", st)
	}
}

// TestPipelinedPurgeDiscards: purging mid-flight must stop the loop
// promptly and discard the backlog.
func TestPipelinedPurgeDiscards(t *testing.T) {
	r := newPipelineRig(t, netsim.Perfect, 3,
		Config{QueueCap: 64, RedeliveryInterval: time.Hour, Pipeline: 4})
	r.net.Isolate(ident.New(2))
	for i := 1; i <= 10; i++ {
		r.px.Enqueue(pingEvent(int64(i)))
	}
	time.Sleep(30 * time.Millisecond)
	done := make(chan struct{})
	go func() {
		r.px.Purge()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Purge hung on an in-flight pipeline")
	}
	if st := r.px.Stats(); st.Delivered != 0 {
		t.Errorf("delivered = %d after purge of an isolated member", st.Delivered)
	}
}
