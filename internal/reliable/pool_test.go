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
// its QueueDepth; every further packet has already been acknowledged
// to the sender, so shedding it is a loss on this hop — it must be
// counted, and the shed packets must go back to the pool.
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

	const n, depth = 10, 4
	for i := 0; i < n; i++ {
		if err := a.Send(b.LocalID(), wire.PktEvent, []byte("nobody-reads-this")); err != nil {
			t.Fatal(err) // acknowledged all the same
		}
	}
	if st := b.Stats(); st.Received != n || st.InboxDropped != n-depth {
		t.Fatalf("Received = %d, InboxDropped = %d; want %d, %d", st.Received, st.InboxDropped, n, n-depth)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	queued := 0
	for pkt, err := b.Recv(); err == nil; pkt, err = b.Recv() {
		pkt.Release()
		queued++
	}
	st := b.Stats()
	if queued != depth || st.PacketsAcquired != st.PacketsRecycled {
		t.Errorf("drained %d after Close (want %d); acquired %d, recycled %d",
			queued, depth, st.PacketsAcquired, st.PacketsRecycled)
	}
}
