package reliable

import (
	"testing"
	"time"

	"github.com/amuse/smc/internal/ident"
	"github.com/amuse/smc/internal/netsim"
	"github.com/amuse/smc/internal/wire"
)

// TestSendAsyncCompletionDropped: a sender that drops its completions
// still gets the full ARQ treatment — every packet arrives exactly once
// and in order over a lossy link — and the outcome stays observable in
// Stats.
func TestSendAsyncCompletionDropped(t *testing.T) {
	n := netsim.New(netsim.Profile{
		Name:    "ff-lossy",
		Latency: 200 * time.Microsecond,
		Loss:    0.1,
	}, netsim.WithSeed(23))
	defer n.Close()
	ta, err := n.Attach(ident.New(1))
	if err != nil {
		t.Fatal(err)
	}
	tb, err := n.Attach(ident.New(2))
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{RetryTimeout: 10 * time.Millisecond, MaxRetries: 30, Window: 8}
	a, b := New(ta, cfg), New(tb, cfg)
	defer a.Close()
	defer b.Close()

	const count = 40
	for i := 0; i < count; i++ {
		a.SendAsync(tb.LocalID(), wire.PktEvent, []byte{byte(i)})
	}
	for i := 0; i < count; i++ {
		pkt, err := b.RecvTimeout(10 * time.Second)
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		if pkt.Seq != uint64(i+1) || pkt.Payload[0] != byte(i) {
			t.Fatalf("recv %d: got seq=%d payload=%d", i, pkt.Seq, pkt.Payload[0])
		}
		pkt.Release()
	}

	// All acknowledged, observable only through Stats.
	deadline := time.Now().Add(5 * time.Second)
	for a.Stats().Acked < count {
		if time.Now().After(deadline) {
			t.Fatalf("acked %d of %d", a.Stats().Acked, count)
		}
		time.Sleep(5 * time.Millisecond)
	}

	if err := a.SendAsync(ident.Broadcast, wire.PktEvent, nil).Wait(); err == nil {
		t.Fatal("reliable broadcast should fail immediately")
	}
}

// TestCompletionRecycle: Recycle after Wait is safe, double Recycle is
// a no-op, and recycling an unresolved completion leaves it usable.
func TestCompletionRecycle(t *testing.T) {
	n := netsim.New(netsim.Perfect, netsim.WithSeed(29))
	defer n.Close()
	ta, _ := n.Attach(ident.New(1))
	tb, _ := n.Attach(ident.New(2))
	cfg := Config{RetryTimeout: 10 * time.Millisecond, MaxRetries: 10, Window: 4}
	a, b := New(ta, cfg), New(tb, cfg)
	defer a.Close()
	defer b.Close()
	go func() {
		for {
			pkt, err := b.Recv()
			if err != nil {
				return
			}
			pkt.Release()
		}
	}()

	for i := 0; i < 64; i++ {
		comp := a.SendAsync(tb.LocalID(), wire.PktEvent, []byte("recycle"))
		if err := comp.Wait(); err != nil {
			t.Fatal(err)
		}
		comp.Recycle()
		comp.Recycle() // second recycle of the same handle: no-op
	}

	// Recycling an unresolved completion must not corrupt it: isolate
	// the destination so the send stays in flight, try to recycle,
	// then let it resolve.
	n.Isolate(tb.LocalID())
	comp := a.SendAsync(tb.LocalID(), wire.PktEvent, []byte("pending"))
	comp.Recycle() // no-op: unresolved
	n.Restore(tb.LocalID())
	if err := comp.Wait(); err != nil {
		t.Fatalf("send after restore: %v", err)
	}
	comp.Recycle()
}
