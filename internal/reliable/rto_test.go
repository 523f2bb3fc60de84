package reliable

import (
	"sync"
	"testing"
	"time"

	"github.com/amuse/smc/internal/ident"
	"github.com/amuse/smc/internal/netsim"
	"github.com/amuse/smc/internal/transport"
	"github.com/amuse/smc/internal/wire"
)

// switchPair joins a sender (ID 1) and a receiver (ID 2) over an
// in-memory switch whose delivery hook the caller may set. The
// receiver's packets are drained and released in the background.
func switchPair(t *testing.T, cfg Config) (*transport.Switch, *Channel, *Channel) {
	t.Helper()
	sw, a, b := switchChannels(t, cfg, cfg)
	go drain(b)
	return sw, a, b
}

// switchChannels is switchPair with a configuration per side, leaving
// the receiver's packets to the caller.
func switchChannels(t *testing.T, cfgA, cfgB Config) (*transport.Switch, *Channel, *Channel) {
	t.Helper()
	sw := transport.NewSwitch()
	ta, err := sw.Attach(ident.New(1))
	if err != nil {
		t.Fatal(err)
	}
	tb, err := sw.Attach(ident.New(2))
	if err != nil {
		t.Fatal(err)
	}
	a, b := New(ta, cfgA), New(tb, cfgB)
	t.Cleanup(func() {
		a.Close()
		b.Close()
		sw.Close()
	})
	return sw, a, b
}

func drain(c *Channel) {
	for {
		pkt, err := c.Recv()
		if err != nil {
			return
		}
		pkt.Release()
	}
}

// settled waits until the channel has finished applying the ack that
// resolved a send to dst: a completion resolves inside applyAck, before
// the ack's estimator bookkeeping, all under the destination's lock.
func settled(c *Channel, dst ident.ID) {
	c.mu.Lock()
	ds := c.dests[dst]
	c.mu.Unlock()
	if ds != nil {
		ds.mu.Lock()
		_ = ds.inflight
		ds.mu.Unlock()
	}
}

// TestRTOSlowLinkNoRetransmitStorm: over a ZigBee link a full window
// takes longer to serialise than the default 50 ms first timeout, so a
// fixed timer fires go-back-N rounds at packets that are only queued.
// The measured RTO covers the queueing delay and lets them arrive.
func TestRTOSlowLinkNoRetransmitStorm(t *testing.T) {
	if testing.Short() {
		t.Skip("streams 40 KB over a 20 KB/s link")
	}
	a, b := pair(t, netsim.ZigBee, 39, Config{})
	go drain(b)
	const count = 200
	payload := make([]byte, 200)
	start := time.Now()
	comps := make([]*Completion, count)
	for i := range comps {
		payload[0] = byte(i)
		comps[i] = a.SendAsync(b.LocalID(), wire.PktEvent, payload)
	}
	for i, c := range comps {
		if err := c.Wait(); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	st := a.Stats()
	t.Logf("%d sends in %v: %d retransmits, %d fast retransmits, %d RTT samples, RTO %d µs",
		count, time.Since(start).Round(time.Millisecond), st.Retransmits, st.FastRetransmits, st.RTTSamples, st.MaxRTOMicros)
	if n := st.Retransmits + st.FastRetransmits; n > 10 {
		t.Errorf("%d retransmissions for %d sends over a 1%%-loss link, want ≤ 10", n, count)
	}
}

// TestRTOFastLinkRetransmitsSooner: on a lossless 2 ms link the
// measured RTO falls below the default, and a lost tail packet — no
// later packet reaches the receiver, so no selective ack shows the
// hole — is resent on it instead of after RetryTimeout.
func TestRTOFastLinkRetransmitsSooner(t *testing.T) {
	sw, a, b := switchPair(t, Config{})
	senderID := a.LocalID()
	var (
		mu        sync.Mutex
		armed     bool
		droppedAt time.Time
		resentAt  time.Time
	)
	sw.SetDeliveryHook(func(from, to ident.ID, data []byte) (bool, time.Duration) {
		mu.Lock()
		defer mu.Unlock()
		if from == senderID && armed {
			if droppedAt.IsZero() {
				droppedAt = time.Now()
				return true, 0
			}
			if resentAt.IsZero() {
				resentAt = time.Now()
			}
		}
		return false, 2 * time.Millisecond
	})
	for i := 0; i < 50; i++ {
		if err := a.Send(b.LocalID(), wire.PktEvent, []byte{byte(i)}); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	settled(a, b.LocalID())
	st := a.Stats()
	rto := time.Duration(st.MaxRTOMicros) * time.Microsecond
	if rto < minRTO || rto >= defaultConfig().RetryTimeout {
		t.Fatalf("RTO after %d samples = %v, want in [%v, %v)", st.RTTSamples, rto, minRTO, defaultConfig().RetryTimeout)
	}

	mu.Lock()
	armed = true
	mu.Unlock()
	if err := a.Send(b.LocalID(), wire.PktEvent, []byte("tail")); err != nil {
		t.Fatalf("tail send: %v", err)
	}
	mu.Lock()
	gap := resentAt.Sub(droppedAt)
	mu.Unlock()
	if gap <= 0 || gap > 30*time.Millisecond {
		t.Errorf("lost tail resent after %v at RTO %v, want within 30ms", gap, rto)
	}
}

// TestKarnResentPacketGivesNoSample: when a packet's ack is lost and a
// timer round resends it, the ack that finally arrives may answer
// either transmission, so it must not feed the estimator.
func TestKarnResentPacketGivesNoSample(t *testing.T) {
	sw, a, b := switchPair(t, Config{RetryTimeout: 20 * time.Millisecond})
	if err := a.Send(b.LocalID(), wire.PktEvent, []byte("timed")); err != nil {
		t.Fatal(err)
	}
	settled(a, b.LocalID())
	if n := a.Stats().RTTSamples; n != 1 {
		t.Fatalf("RTTSamples = %d after one clean round trip, want 1", n)
	}

	var once sync.Once
	receiverID := b.LocalID()
	sw.SetDeliveryHook(func(from, to ident.ID, data []byte) (bool, time.Duration) {
		drop := false
		if from == receiverID {
			once.Do(func() { drop = true }) // lose the first ack
		}
		return drop, 0
	})
	if err := a.Send(b.LocalID(), wire.PktEvent, []byte("resent")); err != nil {
		t.Fatal(err)
	}
	settled(a, b.LocalID())
	st := a.Stats()
	if st.Retransmits == 0 {
		t.Fatal("the lost ack drew no timer round")
	}
	if st.RTTSamples != 1 {
		t.Errorf("RTTSamples = %d, want 1: the resent packet's ack was timed", st.RTTSamples)
	}
}

// TestRTOBackoffRemeasuresSlowerLink: a destination measured onto the
// RTO floor whose link then slows past it has every packet still in
// flight when its first deadline fires, so no ack can be timed. The
// timer round's doubled RTO must stand until the next sample, or the
// RTO stays on the floor and every packet is resent for good.
func TestRTOBackoffRemeasuresSlowerLink(t *testing.T) {
	sw, a, b := switchPair(t, Config{})
	senderID := a.LocalID()
	var mu sync.Mutex
	delay := time.Millisecond
	sw.SetDeliveryHook(func(from, to ident.ID, data []byte) (bool, time.Duration) {
		mu.Lock()
		defer mu.Unlock()
		if from == senderID {
			return false, delay
		}
		return false, 0
	})
	for i := 0; i < 20; i++ {
		if err := a.Send(b.LocalID(), wire.PktEvent, []byte{byte(i)}); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	settled(a, b.LocalID())
	const slow = 30 * time.Millisecond
	if rto := time.Duration(a.Stats().MaxRTOMicros) * time.Microsecond; rto >= slow {
		t.Fatalf("RTO on a 1 ms link = %v, want below %v", rto, slow)
	}

	mu.Lock()
	delay = slow
	mu.Unlock()
	before := a.Stats()
	for i := 0; i < 10; i++ {
		if err := a.Send(b.LocalID(), wire.PktEvent, []byte{byte(i)}); err != nil {
			t.Fatalf("slow send %d: %v", i, err)
		}
	}
	settled(a, b.LocalID())
	st := a.Stats()
	t.Logf("10 sends at %v: %d retransmits, %d new samples, RTO %d µs",
		slow, st.Retransmits-before.Retransmits, st.RTTSamples-before.RTTSamples, st.MaxRTOMicros)
	if st.RTTSamples == before.RTTSamples {
		t.Errorf("no round trip timed after the link slowed to %v", slow)
	}
	if rto := time.Duration(st.MaxRTOMicros) * time.Microsecond; rto <= slow {
		t.Errorf("RTO = %v after the link slowed to %v, want above it", rto, slow)
	}
}
