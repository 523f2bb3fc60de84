package reliable

import (
	"errors"
	"testing"
	"time"

	"github.com/amuse/smc/internal/event"
	"github.com/amuse/smc/internal/ident"
	"github.com/amuse/smc/internal/netsim"
	"github.com/amuse/smc/internal/wire"
)

func testBatchEvents(t *testing.T, n int) ([]*event.Event, []byte) {
	t.Helper()
	events := make([]*event.Event, n)
	payload := wire.AppendBatchHeader(nil)
	for i := range events {
		e := event.New()
		e.Sender = ident.New(uint64(100 + i))
		e.Seq = uint64(i + 1)
		e.Stamp = time.Unix(1700000000, int64(i))
		e.SetInt("n", int64(i))
		e.SetStr("k", "batched")
		events[i] = e
		payload = wire.AppendBatchEvent(payload, e)
	}
	return events, payload
}

func recvBatch(t *testing.T, c *Channel, want []*event.Event) {
	t.Helper()
	pkt, err := c.RecvTimeout(5 * time.Second)
	if err != nil {
		t.Fatalf("recv: %v", err)
	}
	defer pkt.Release()
	if pkt.Type != wire.PktEvent || pkt.Flags&wire.FlagBatch == 0 {
		t.Fatalf("got %s, want batch event packet", pkt)
	}
	r, err := wire.NewBatchReader(pkt.Payload)
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	for r.More() {
		frame, err := r.Next()
		if err != nil {
			t.Fatal(err)
		}
		e, err := wire.DecodeEvent(frame)
		if err != nil {
			t.Fatal(err)
		}
		if i >= len(want) || !e.Equal(want[i]) {
			t.Fatalf("frame %d mismatch", i)
		}
		i++
	}
	if i != len(want) {
		t.Fatalf("got %d frames, want %d", i, len(want))
	}
}

// TestBatchSendDeliversAndPiggybacksAck: a reliable batch arrives as
// one FlagBatch packet whose frames decode back to the sent events,
// and its prologue carries the sender's cumulative ack for the
// reverse-direction stream — applied by the receiver as if a PktAck
// had arrived.
func TestBatchSendDeliversAndPiggybacksAck(t *testing.T) {
	a, b := pair(t, netsim.Perfect, 31, fastCfg())

	// Prime the reverse stream so a holds receiver state for b: the
	// next batch a sends can then piggyback an ack for it.
	if err := b.Send(a.LocalID(), wire.PktEvent, []byte("prime")); err != nil {
		t.Fatalf("prime send: %v", err)
	}
	if pkt, err := a.RecvTimeout(time.Second); err != nil {
		t.Fatalf("prime recv: %v", err)
	} else {
		pkt.Release()
	}

	events, payload := testBatchEvents(t, 3)
	if err := a.SendBatchAsync(b.LocalID(), wire.PktEvent, payload).Wait(); err != nil {
		t.Fatalf("batch send: %v", err)
	}
	recvBatch(t, b, events)

	if st := a.Stats(); st.BatchesSent != 1 {
		t.Errorf("sender BatchesSent = %d, want 1", st.BatchesSent)
	}
	if st := b.Stats(); st.PiggybackAcks == 0 {
		t.Error("receiver applied no piggybacked acks")
	}
}

// TestBatchResumeAfterGiveUp: a batch failed by the retry budget is
// resumed — original sequence number, no duplicate delivery — when the
// caller re-sends the same frames, even though the re-encoded prologue
// (zeroed ack) differs from the stashed bytes whose ack was stamped at
// transmit time. This is the redelivery-loop contract extended to
// batches.
func TestBatchResumeAfterGiveUp(t *testing.T) {
	cfg := fastCfg()
	cfg.MaxRetries = 2
	n := netsim.New(netsim.Perfect, netsim.WithSeed(32))
	ta, err := n.Attach(ident.New(1))
	if err != nil {
		t.Fatal(err)
	}
	tb, err := n.Attach(ident.New(2))
	if err != nil {
		t.Fatal(err)
	}
	a, b := New(ta, cfg), New(tb, cfg)
	t.Cleanup(func() { a.Close(); b.Close(); n.Close() })

	// Prime both directions so the batch prologue actually gets an ack
	// stamped (differing from the fresh re-encode's zero prologue).
	if err := b.Send(a.LocalID(), wire.PktEvent, []byte("prime")); err != nil {
		t.Fatal(err)
	}
	if pkt, err := a.RecvTimeout(time.Second); err != nil {
		t.Fatal(err)
	} else {
		pkt.Release()
	}

	n.Partition(a.LocalID(), b.LocalID())
	events, payload := testBatchEvents(t, 4)
	if err := a.SendBatchAsync(b.LocalID(), wire.PktEvent, payload).Wait(); !errors.Is(err, ErrGaveUp) {
		t.Fatalf("partitioned batch send: %v, want ErrGaveUp", err)
	}
	n.Heal(a.LocalID(), b.LocalID())

	// Redeliver: same events, freshly framed (zero prologue).
	_, again := testBatchEvents(t, 4)
	if err := a.SendBatchAsync(b.LocalID(), wire.PktEvent, again).Wait(); err != nil {
		t.Fatalf("redelivered batch: %v", err)
	}
	recvBatch(t, b, events)

	st := a.Stats()
	if st.Resumed != 1 {
		t.Errorf("Resumed = %d, want 1 (stash match must ignore the ack prologue)", st.Resumed)
	}
	if st.StreamResets != 0 {
		t.Errorf("StreamResets = %d, want 0", st.StreamResets)
	}

	// And exactly one batch arrives: no duplicate delivery.
	if pkt, err := b.RecvTimeout(100 * time.Millisecond); err == nil {
		t.Fatalf("unexpected extra packet %s", pkt)
	}
}

// TestDurableBatchSendDeliversAndPiggybacksAck: a batch may carry
// durable deliveries instead of bare events — the packet keeps its
// PktEventDurable type alongside FlagBatch, every frame is the
// unchanged cursor-prefixed payload, and the prologue's piggybacked ack
// is honoured exactly as on a PktEvent batch.
func TestDurableBatchSendDeliversAndPiggybacksAck(t *testing.T) {
	a, b := pair(t, netsim.Perfect, 33, fastCfg())
	if err := b.Send(a.LocalID(), wire.PktEvent, []byte("prime")); err != nil {
		t.Fatalf("prime send: %v", err)
	}
	if pkt, err := a.RecvTimeout(time.Second); err != nil {
		t.Fatalf("prime recv: %v", err)
	} else {
		pkt.Release()
	}

	events, _ := testBatchEvents(t, 3)
	payload := wire.AppendBatchHeader(nil)
	for i, e := range events {
		payload = wire.AppendBatchFrame(payload, wire.AppendDurableEvent(nil, uint64(40+i), e))
	}
	if err := a.SendBatchAsync(b.LocalID(), wire.PktEventDurable, payload).Wait(); err != nil {
		t.Fatalf("batch send: %v", err)
	}
	pkt, err := b.RecvTimeout(5 * time.Second)
	if err != nil {
		t.Fatalf("recv: %v", err)
	}
	defer pkt.Release()
	if pkt.Type != wire.PktEventDurable || pkt.Flags&wire.FlagBatch == 0 {
		t.Fatalf("got %s, want a durable batch packet", pkt)
	}
	r, err := wire.NewBatchReader(pkt.Payload)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range events {
		cursor, frame, err := r.NextDurable()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		e, err := wire.DecodeEvent(frame)
		if err != nil {
			t.Fatalf("frame %d decode: %v", i, err)
		}
		if cursor != uint64(40+i) || !e.Equal(want) {
			t.Fatalf("frame %d: cursor %d, event %s", i, cursor, e)
		}
	}
	if r.More() {
		t.Fatal("extra frames")
	}
	if st := b.Stats(); st.PiggybackAcks == 0 {
		t.Error("receiver applied no piggybacked ack from a durable batch")
	}
}
