package reliable

import (
	"fmt"
	"testing"
	"time"

	"github.com/amuse/smc/internal/ident"
	"github.com/amuse/smc/internal/transport"
	"github.com/amuse/smc/internal/wire"
)

// waitPoolDrained polls until the channel's packet pool counters
// converge (acquired == recycled) or the deadline passes, returning
// the final gap.
func waitPoolDrained(c *Channel, d time.Duration) (acquired, recycled uint64) {
	deadline := time.Now().Add(d)
	for {
		st := c.Stats()
		if st.PacketsAcquired == st.PacketsRecycled || time.Now().After(deadline) {
			return st.PacketsAcquired, st.PacketsRecycled
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestPacketPoolRecycles pins the pooled inbound lifecycle: when the
// consumer releases every received packet, the receiver's pool
// counters converge — every acquired packet went back.
func TestPacketPoolRecycles(t *testing.T) {
	sw := transport.NewSwitch()
	defer sw.Close()
	ta, err := sw.Attach(ident.New(1))
	if err != nil {
		t.Fatal(err)
	}
	tb, err := sw.Attach(ident.New(2))
	if err != nil {
		t.Fatal(err)
	}
	a := New(ta, Config{RetryTimeout: 20 * time.Millisecond})
	b := New(tb, Config{RetryTimeout: 20 * time.Millisecond})
	defer a.Close()
	defer b.Close()

	const n = 200
	done := make(chan error, 1)
	go func() {
		for i := 0; i < n; i++ {
			pkt, err := b.Recv()
			if err != nil {
				done <- err
				return
			}
			if string(pkt.Payload) != fmt.Sprintf("payload-%d", pkt.Seq-1) {
				done <- fmt.Errorf("payload mismatch at seq %d", pkt.Seq)
				pkt.Release()
				return
			}
			pkt.Release()
		}
		done <- nil
	}()
	for i := 0; i < n; i++ {
		if err := a.Send(b.LocalID(), wire.PktEvent, []byte(fmt.Sprintf("payload-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	acq, rec := waitPoolDrained(b, 2*time.Second)
	if acq == 0 {
		t.Fatal("receiver pool acquired nothing; pooled decode not in the receive path")
	}
	if acq != rec {
		t.Fatalf("receiver pool leak: acquired %d, recycled %d", acq, rec)
	}
	// The sender's pool handles inbound acks, all released internally.
	if acq, rec := waitPoolDrained(a, 2*time.Second); acq != rec {
		t.Fatalf("sender pool leak on acks: acquired %d, recycled %d", acq, rec)
	}
}

// TestPacketPoolLeakDetection pins the observability contract: a
// consumer that drops packets without Release shows up as a lasting
// acquired/recycled gap of exactly the dropped count.
func TestPacketPoolLeakDetection(t *testing.T) {
	sw := transport.NewSwitch()
	defer sw.Close()
	ta, err := sw.Attach(ident.New(1))
	if err != nil {
		t.Fatal(err)
	}
	tb, err := sw.Attach(ident.New(2))
	if err != nil {
		t.Fatal(err)
	}
	a := New(ta, Config{RetryTimeout: 20 * time.Millisecond})
	b := New(tb, Config{RetryTimeout: 20 * time.Millisecond})
	defer a.Close()
	defer b.Close()

	const n = 50
	received := make(chan struct{})
	go func() {
		defer close(received)
		for i := 0; i < n; i++ {
			if _, err := b.Recv(); err != nil {
				return
			}
			// Leak deliberately: no Release.
		}
	}()
	for i := 0; i < n; i++ {
		if err := a.Send(b.LocalID(), wire.PktEvent, []byte("leak-me")); err != nil {
			t.Fatal(err)
		}
	}
	<-received

	// Settle, then confirm the gap persists and equals the leak.
	time.Sleep(100 * time.Millisecond)
	st := b.Stats()
	if got := st.PacketsAcquired - st.PacketsRecycled; got != n {
		t.Fatalf("leak gap = %d (acquired %d, recycled %d), want %d",
			got, st.PacketsAcquired, st.PacketsRecycled, n)
	}
}

// TestReliableInboxOverflowCounted: a receiver nobody reads from fills
// its QueueDepth. A packet the full inbox sheds is counted and goes
// back to the pool, but it is not acknowledged: the sender retransmits
// it, so once the reader catches up it gets every packet exactly once
// and in order, and every send completes.
func TestReliableInboxOverflowCounted(t *testing.T) {
	sw := transport.NewSwitch()
	defer sw.Close()
	ta, err := sw.Attach(ident.New(1))
	if err != nil {
		t.Fatal(err)
	}
	tb, err := sw.Attach(ident.New(2))
	if err != nil {
		t.Fatal(err)
	}
	a := New(ta, Config{RetryTimeout: 20 * time.Millisecond})
	b := New(tb, Config{RetryTimeout: 20 * time.Millisecond, QueueDepth: 4})
	defer a.Close()

	const n = 12
	comps := make([]*Completion, n)
	for i := range comps {
		comps[i] = a.SendAsync(b.LocalID(), wire.PktEvent, []byte(fmt.Sprint(i)))
	}
	time.Sleep(100 * time.Millisecond) // nobody reads for a while
	for i := 0; i < n; i++ {
		pkt, err := b.RecvTimeout(5 * time.Second)
		if err != nil {
			t.Fatalf("after %d of %d packets: %v", i, n, err)
		}
		if got := string(pkt.Payload); got != fmt.Sprint(i) {
			t.Fatalf("packet %d carries %q", i, got)
		}
		pkt.Release()
	}
	for i, c := range comps {
		if err := c.Wait(); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	if pkt, err := b.RecvTimeout(100 * time.Millisecond); err == nil {
		t.Fatalf("extra packet %q", pkt.Payload)
	}
	if st := b.Stats(); st.InboxDropped == 0 || st.Received != n {
		t.Fatalf("InboxDropped = %d, Received = %d; want ≥ 1, %d", st.InboxDropped, st.Received, n)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if acq, rec := waitPoolDrained(b, time.Second); acq != rec {
		t.Errorf("pool: acquired %d, recycled %d", acq, rec)
	}
}
