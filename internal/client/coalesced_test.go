package client_test

import (
	"testing"
	"time"

	"github.com/amuse/smc/internal/client"
	"github.com/amuse/smc/internal/event"
	"github.com/amuse/smc/internal/ident"
	"github.com/amuse/smc/internal/netsim"
	"github.com/amuse/smc/internal/reliable"
	"github.com/amuse/smc/internal/wire"
)

// scriptedBus is a bare reliable channel standing in for the bus, so a
// test controls exactly which packets — and which batches — a client
// receives.
func scriptedBus(t *testing.T, opts ...client.Option) (*reliable.Channel, *client.Client) {
	t.Helper()
	n := netsim.New(netsim.Perfect, netsim.WithSeed(72))
	busTr, err := n.Attach(ident.New(busID))
	if err != nil {
		t.Fatal(err)
	}
	cliTr, err := n.Attach(ident.New(1))
	if err != nil {
		t.Fatal(err)
	}
	bus := reliable.New(busTr, relCfg())
	c := client.New(reliable.New(cliTr, relCfg()), ident.New(busID), opts...)
	t.Cleanup(func() {
		c.Close()
		bus.Close()
		n.Close()
	})
	return bus, c
}

func numbered(n int64) *event.Event {
	e := event.NewTyped("x").SetInt("n", n)
	e.Sender, e.Seq = ident.New(7), uint64(n)
	return e
}

func durableBatch(cursors ...uint64) []byte {
	buf := wire.AppendBatchHeader(nil)
	for _, c := range cursors {
		buf = wire.AppendBatchFrame(buf, wire.AppendDurableEvent(nil, c, numbered(int64(c))))
	}
	return buf
}

// TestDurableBatchUnpack: a coalesced run of durable deliveries goes
// through exactly the single-delivery path frame by frame — cursors
// surface on the events, the floor advances, a redelivered frame at or
// below the floor is dropped and counted, and a plain single delivery
// still follows on the same stream.
func TestDurableBatchUnpack(t *testing.T) {
	bus, c := scriptedBus(t, client.WithDurable("roamer", client.DurablePosition{}))
	to := ident.New(1)
	send := func(ptype wire.PacketType, batch bool, payload []byte) {
		t.Helper()
		var comp *reliable.Completion
		if batch {
			comp = bus.SendBatchAsync(to, ptype, payload)
		} else {
			comp = bus.SendAsync(to, ptype, payload)
		}
		if err := comp.Wait(); err != nil {
			t.Fatalf("send %s: %v", ptype, err)
		}
	}
	send(wire.PktDurableAck, false, wire.AppendDurableAck(nil, wire.DurableAck{Epoch: 9, From: 4}))
	send(wire.PktEventDurable, true, durableBatch(5, 6, 7))
	send(wire.PktEventDurable, true, durableBatch(7, 8)) // 7 again: splice overlap
	send(wire.PktEventDurable, false, wire.AppendDurableEvent(nil, 9, numbered(9)))

	for want := uint64(5); want <= 9; want++ {
		e, err := c.NextEvent(5 * time.Second)
		if err != nil {
			t.Fatalf("cursor %d: %v", want, err)
		}
		v, _ := e.Get("n")
		if n, _ := v.Int(); e.Cursor != want || n != int64(want) {
			t.Fatalf("got cursor %d n=%d, want %d (dup, loss or reorder)", e.Cursor, n, want)
		}
		e.Release()
	}
	if e, err := c.NextEvent(100 * time.Millisecond); err == nil {
		t.Fatalf("extra delivery: cursor %d", e.Cursor)
	}
	st := c.Stats()
	if st.DurableReceived != 5 || st.DurableDeduped != 1 || st.EventsReceived != 5 || st.InboxDropped != 0 {
		t.Errorf("stats = %+v", st)
	}
	if pos := c.DurablePosition(); pos.Epoch != 9 || pos.Cursor != 9 {
		t.Errorf("position = %+v, want epoch 9 cursor 9", pos)
	}
}

// TestInboxOverflowIsCounted: a live event shed because nobody drains
// Events() is counted in InboxDropped — on the single-event and the
// batch path alike — and EventsReceived keeps counting every decoded
// event, dropped or not.
func TestInboxOverflowIsCounted(t *testing.T) {
	bus, c := scriptedBus(t)
	to := ident.New(1)
	const inbox = 256 // client inbox capacity
	const batches, perBatch, singles = 20, 16, 10

	n := int64(0)
	for b := 0; b < batches; b++ {
		buf := wire.AppendBatchHeader(nil)
		for k := 0; k < perBatch; k++ {
			n++
			buf = wire.AppendBatchEvent(buf, numbered(n))
		}
		if err := bus.SendBatchAsync(to, wire.PktEvent, buf).Wait(); err != nil {
			t.Fatal(err)
		}
	}
	for k := 0; k < singles; k++ {
		n++
		if err := bus.Send(to, wire.PktEvent, wire.EncodeEvent(numbered(n))); err != nil {
			t.Fatal(err)
		}
	}
	total := uint64(n)
	deadline := time.Now().Add(5 * time.Second)
	for c.Stats().EventsReceived < total {
		if time.Now().After(deadline) {
			t.Fatalf("received %d/%d", c.Stats().EventsReceived, total)
		}
		time.Sleep(time.Millisecond)
	}
	deadline = time.Now().Add(time.Second)
	for c.Stats().InboxDropped < total-inbox && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if st := c.Stats(); st.EventsReceived != total || st.InboxDropped != total-inbox {
		t.Fatalf("stats = %+v, want %d received, %d dropped", st, total, total-inbox)
	}
	// What did fit is the oldest 256, in order.
	for want := int64(1); want <= inbox; want++ {
		e, err := c.NextEvent(time.Second)
		if err != nil {
			t.Fatalf("event %d: %v", want, err)
		}
		if v, _ := e.Get("n"); !v.Equal(event.Int(want)) {
			t.Fatalf("event %d carries n=%s", want, v)
		}
		e.Release()
	}
}

// TestDataOverflowIsCounted: raw payloads nobody drains from Data() are
// shed newest-first and counted in DataDropped; the oldest 256 wait in
// order, and nothing else is shed.
func TestDataOverflowIsCounted(t *testing.T) {
	bus, c := scriptedBus(t)
	to := ident.New(1)
	const capacity, total = 256, 300 // capacity: the Data() channel's
	for i := 0; i < total; i++ {
		if err := bus.Send(to, wire.PktData, []byte{byte(i >> 8), byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for st := c.Stats(); st.DataReceived < total || st.DataDropped < total-capacity; st = c.Stats() {
		if time.Now().After(deadline) {
			t.Fatalf("stats = %+v, want %d received", st, total)
		}
		time.Sleep(time.Millisecond)
	}
	if st := c.Stats(); st.DataDropped != total-capacity || st.InboxDropped != 0 || st.EventsReceived != 0 {
		t.Fatalf("stats = %+v, want %d shed from Data() and nothing else", st, total-capacity)
	}
	for want := 0; want < capacity; want++ {
		select {
		case raw := <-c.Data():
			if got := int(raw[0])<<8 | int(raw[1]); got != want {
				t.Fatalf("payload %d where %d was due", got, want)
			}
		case <-time.After(time.Second):
			t.Fatalf("payload %d missing", want)
		}
	}
}

// TestDurableConsumerBlocksReceiveLoop: a durable consumer that stops
// reading fills Events() and then blocks the client's receive loop —
// nothing is shed — and once it drains it sees every event exactly
// once, in cursor order.
func TestDurableConsumerBlocksReceiveLoop(t *testing.T) {
	bus, c := scriptedBus(t, client.WithDurable("slow", client.DurablePosition{}))
	to := ident.New(1)
	const inbox, batches, perBatch = 256, 25, 16 // inbox: the Events() capacity
	const total = batches * perBatch
	cursor := uint64(0)
	for b := 0; b < batches; b++ {
		cs := make([]uint64, perBatch)
		for k := range cs {
			cursor++
			cs[k] = cursor
		}
		if err := bus.SendBatchAsync(to, wire.PktEventDurable, durableBatch(cs...)).Wait(); err != nil {
			t.Fatal(err)
		}
	}
	// The receive loop parks on the delivery after the inbox's last
	// slot: counted, not shed, and nothing behind it is decoded.
	deadline := time.Now().Add(5 * time.Second)
	for c.Stats().DurableReceived < inbox+1 {
		if time.Now().After(deadline) {
			t.Fatalf("received %d, want the inbox filled", c.Stats().DurableReceived)
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond) // a loop that did not block would move on
	if st := c.Stats(); st.DurableReceived != inbox+1 || st.InboxDropped != 0 || st.DurableDeduped != 0 {
		t.Fatalf("stats = %+v: the receive loop should block on delivery %d", st, inbox+1)
	}
	for want := uint64(1); want <= total; want++ {
		e, err := c.NextEvent(5 * time.Second)
		if err != nil {
			t.Fatalf("cursor %d: %v", want, err)
		}
		if e.Cursor != want {
			t.Fatalf("cursor %d where %d was due (dup, loss or reorder)", e.Cursor, want)
		}
		e.Release()
	}
	if e, err := c.NextEvent(100 * time.Millisecond); err == nil {
		t.Fatalf("extra delivery: cursor %d", e.Cursor)
	}
	if st := c.Stats(); st.DurableReceived != total || st.InboxDropped != 0 || st.DurableDeduped != 0 {
		t.Errorf("stats = %+v, want %d received, nothing shed", st, total)
	}
}
