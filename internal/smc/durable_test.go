package smc_test

import (
	"math/rand"
	"testing"
	"time"

	"github.com/amuse/smc/internal/client"
	"github.com/amuse/smc/internal/event"
	"github.com/amuse/smc/internal/netsim"
	"github.com/amuse/smc/internal/smc"
	"github.com/amuse/smc/internal/store"
)

// durableCellConfig is a cell with a memory-backed durable log.
func durableCellConfig() smc.Config {
	cfg := defaultCellConfig()
	cfg.Durable = &store.Config{}
	return cfg
}

// readingFilter matches the test publisher's events.
func readingFilter() *event.Filter {
	return event.NewFilter().WhereType("reading")
}

// publishReadings publishes events n = [from, to) as type "reading",
// pipelined in windows small enough to never overrun the reliable
// channel's send backlog, and waits for the bus to acknowledge each
// window.
func publishReadings(t *testing.T, dev *smc.Device, from, to int) {
	t.Helper()
	const window = 256
	comps := make([]interface{ Wait() error }, 0, window)
	flush := func(base int) {
		for i, comp := range comps {
			if err := comp.Wait(); err != nil {
				t.Fatalf("publish %d not acked: %v", base+i, err)
			}
		}
		comps = comps[:0]
	}
	for i := from; i < to; i++ {
		e := event.New()
		e.Set(event.AttrType, event.Str("reading"))
		e.SetInt("n", int64(i))
		comp, err := dev.Client.PublishAsync(e)
		if err != nil {
			t.Fatalf("publish %d: %v", i, err)
		}
		comps = append(comps, comp)
		if len(comps) == window {
			flush(i + 1 - window)
		}
	}
	flush(to - len(comps))
}

// collectReadings consumes exactly n readings, asserting each carries
// a durable cursor, and returns the "n" attribute values in delivery
// order plus the cursor of the last event consumed — the position an
// at-least-once application persists.
func collectReadings(t *testing.T, c *client.Client, n int, timeout time.Duration) ([]int64, uint64) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	out := make([]int64, 0, n)
	var last uint64
	for len(out) < n {
		e, err := c.NextEvent(time.Until(deadline))
		if err != nil {
			t.Fatalf("after %d/%d readings: %v", len(out), n, err)
		}
		if e.Cursor == 0 {
			t.Fatalf("durable delivery without cursor: %v", e)
		}
		v, ok := e.Get("n")
		if !ok {
			t.Fatalf("reading without n: %v", e)
		}
		i, _ := v.Int()
		out = append(out, i)
		last = e.Cursor
		e.Release()
	}
	return out, last
}

// assertSequence checks out == [from, from+len(out)).
func assertSequence(t *testing.T, out []int64, from int) {
	t.Helper()
	for i, v := range out {
		if v != int64(from+i) {
			t.Fatalf("delivery %d: n=%d, want %d (dup, loss or reorder)", i, v, from+i)
		}
	}
}

// TestDurableRejoinReplaysMissedEvents is the acceptance scenario: a
// durable member disconnects, misses well over 1000 published events,
// rejoins with its saved position — at a different network identity —
// and receives every missed event exactly once, in order, spliced
// into live traffic. The replay is a bulk read of the log into the
// member's proxy, so it crosses the wire coalesced (PktEventDurable
// batches): the cursor floor, the dedup counter and the exactly-once
// order must be what they are for one delivery per packet.
func TestDurableRejoinReplaysMissedEvents(t *testing.T) {
	net := netsim.New(netsim.Perfect, netsim.WithSeed(11))
	defer net.Close()
	cell := newTestCell(t, net, durableCellConfig())

	pub, err := smc.JoinCell(attach(t, net, 0x20001), smc.DeviceConfig{
		Type: "generic", Name: "publisher", Secret: testSecret,
	})
	if err != nil {
		t.Fatalf("join publisher: %v", err)
	}
	defer pub.Close()

	sub, err := smc.JoinCell(attach(t, net, 0x20002), smc.DeviceConfig{
		Type: "generic", Name: "roamer", Secret: testSecret,
		Durable: "ward-roamer",
	})
	if err != nil {
		t.Fatalf("join subscriber: %v", err)
	}
	if err := sub.Client.Subscribe(readingFilter()); err != nil {
		t.Fatalf("subscribe: %v", err)
	}

	// Phase 1: live delivery through the walker.
	publishReadings(t, pub, 0, 50)
	got, _ := collectReadings(t, sub.Client, 50, 10*time.Second)
	assertSequence(t, got, 0)

	// Disconnect, remembering the resume position.
	pos := sub.Client.DurablePosition()
	if pos.Epoch == 0 || pos.Cursor == 0 {
		t.Fatalf("no durable position after deliveries: %+v", pos)
	}
	if err := sub.Leave(); err != nil {
		t.Fatalf("leave: %v", err)
	}

	// Phase 2: miss >1000 events while away.
	publishReadings(t, pub, 50, 1150)

	// Phase 3: rejoin — roaming to a new network identity — and
	// receive the whole gap exactly once, in order.
	sub2, err := smc.JoinCell(attach(t, net, 0x20003), smc.DeviceConfig{
		Type: "generic", Name: "roamer", Secret: testSecret,
		Durable: "ward-roamer", DurablePosition: pos,
	})
	if err != nil {
		t.Fatalf("rejoin: %v", err)
	}
	defer sub2.Leave()
	got, last := collectReadings(t, sub2.Client, 1100, 60*time.Second)
	assertSequence(t, got, 50)
	if px := cell.Bus.MemberProxy(sub2.Client.ID()); px == nil {
		t.Fatal("no proxy for the rejoined member")
	} else if st := px.Stats(); st.Batches == 0 || st.BatchedEvents < 500 {
		t.Errorf("replay of 1100 events was not coalesced: proxy %+v", st)
	}
	if busCh, _ := cell.ChannelStats(); busCh.BatchesSent == 0 {
		t.Errorf("bus channel sent no batch packets: %+v", busCh)
	}
	if pos2 := sub2.Client.DurablePosition(); pos2.Epoch != pos.Epoch || pos2.Cursor != last {
		t.Errorf("position after replay = %+v, want epoch %d cursor %d", pos2, pos.Epoch, last)
	}

	// Phase 4: splice into live — new publishes arrive on the same
	// stream, still in order, no gap and no repeat at the boundary.
	publishReadings(t, pub, 1150, 1200)
	got, _ = collectReadings(t, sub2.Client, 50, 10*time.Second)
	assertSequence(t, got, 1150)

	if st := sub2.Client.Stats(); st.DurableReceived != 1150 || st.DurableDeduped != 0 {
		t.Fatalf("DurableReceived=%d DurableDeduped=%d, want exactly 1150 and 0", st.DurableReceived, st.DurableDeduped)
	}
}

// TestDurableSpliceBoundaryPin pins the splice-boundary contract: a
// consumer that rejoins with position X gets X+1 first — the boundary
// event X is never double-delivered, even though the filters were
// already installed server-side before the rejoin.
func TestDurableSpliceBoundaryPin(t *testing.T) {
	net := netsim.New(netsim.Perfect, netsim.WithSeed(13))
	defer net.Close()
	newTestCell(t, net, durableCellConfig())

	pub, err := smc.JoinCell(attach(t, net, 0x21001), smc.DeviceConfig{
		Type: "generic", Name: "publisher", Secret: testSecret,
	})
	if err != nil {
		t.Fatalf("join publisher: %v", err)
	}
	defer pub.Close()

	sub, err := smc.JoinCell(attach(t, net, 0x21002), smc.DeviceConfig{
		Type: "generic", Name: "boundary", Secret: testSecret,
		Durable: "boundary",
	})
	if err != nil {
		t.Fatalf("join subscriber: %v", err)
	}
	if err := sub.Client.Subscribe(readingFilter()); err != nil {
		t.Fatalf("subscribe: %v", err)
	}
	publishReadings(t, pub, 0, 10)
	got, _ := collectReadings(t, sub.Client, 10, 10*time.Second)
	assertSequence(t, got, 0)
	pos := sub.Client.DurablePosition()
	if err := sub.Leave(); err != nil {
		t.Fatalf("leave: %v", err)
	}

	// Nothing published while away: the first delivery after rejoin
	// must be the next live event, not a replay of the boundary.
	sub2, err := smc.JoinCell(attach(t, net, 0x21003), smc.DeviceConfig{
		Type: "generic", Name: "boundary", Secret: testSecret,
		Durable: "boundary", DurablePosition: pos,
	})
	if err != nil {
		t.Fatalf("rejoin: %v", err)
	}
	defer sub2.Leave()
	publishReadings(t, pub, 10, 12)
	got, _ = collectReadings(t, sub2.Client, 2, 10*time.Second)
	assertSequence(t, got, 10)
	if st := sub2.Client.Stats(); st.DurableDeduped != 0 {
		// The bus resumed exactly past the boundary — the client-side
		// floor should not have had to drop anything.
		t.Fatalf("client floor dropped %d redeliveries on a clean resume", st.DurableDeduped)
	}
}

// TestDurableEpochMismatchReplaysFromOldest pins the stale-cursor
// contract: a position from another log incarnation (wrong epoch, high
// cursor) must not black-hole the consumer — the bus acks with the
// live epoch and replays from the oldest retained event, and the
// client resets its floor accordingly.
func TestDurableEpochMismatchReplaysFromOldest(t *testing.T) {
	net := netsim.New(netsim.Perfect, netsim.WithSeed(17))
	defer net.Close()
	newTestCell(t, net, durableCellConfig())

	pub, err := smc.JoinCell(attach(t, net, 0x22001), smc.DeviceConfig{
		Type: "generic", Name: "publisher", Secret: testSecret,
	})
	if err != nil {
		t.Fatalf("join publisher: %v", err)
	}
	defer pub.Close()
	publishReadings(t, pub, 0, 100)

	stale := client.DurablePosition{Epoch: 0xDEAD, Cursor: 1 << 40}
	sub, err := smc.JoinCell(attach(t, net, 0x22002), smc.DeviceConfig{
		Type: "generic", Name: "restorer", Secret: testSecret,
		Durable: "restorer", DurablePosition: stale,
	})
	if err != nil {
		t.Fatalf("join: %v", err)
	}
	defer sub.Leave()
	if err := sub.Client.Subscribe(readingFilter()); err != nil {
		t.Fatalf("subscribe: %v", err)
	}
	got, _ := collectReadings(t, sub.Client, 100, 30*time.Second)
	assertSequence(t, got, 0)
	if pos := sub.Client.DurablePosition(); pos.Epoch == stale.Epoch {
		t.Fatal("client kept the stale epoch after the bus ack")
	}
}

// TestDurablePublisherDedup pins publish idempotence across sender
// restarts: a publisher that re-sends events with the same dedup IDs
// after a restart produces no redeliveries — the log drops the
// duplicate appends, so durable consumers see each logical event once.
func TestDurablePublisherDedup(t *testing.T) {
	net := netsim.New(netsim.Perfect, netsim.WithSeed(19))
	defer net.Close()
	newTestCell(t, net, durableCellConfig())

	publish := func(dev *smc.Device, from, to int) {
		t.Helper()
		for i := from; i < to; i++ {
			e := event.New()
			e.Set(event.AttrType, event.Str("reading"))
			e.SetInt("n", int64(i))
			e.SetInt(store.AttrDedup, int64(i))
			if err := dev.Client.Publish(e); err != nil {
				t.Fatalf("publish %d: %v", i, err)
			}
		}
	}

	sub, err := smc.JoinCell(attach(t, net, 0x23001), smc.DeviceConfig{
		Type: "generic", Name: "watcher", Secret: testSecret,
		Durable: "watcher",
	})
	if err != nil {
		t.Fatalf("join subscriber: %v", err)
	}
	defer sub.Leave()
	if err := sub.Client.Subscribe(readingFilter()); err != nil {
		t.Fatalf("subscribe: %v", err)
	}

	pub, err := smc.JoinCell(attach(t, net, 0x23002), smc.DeviceConfig{
		Type: "generic", Name: "sender", Secret: testSecret,
	})
	if err != nil {
		t.Fatalf("join publisher: %v", err)
	}
	publish(pub, 0, 30)
	if err := pub.Leave(); err != nil {
		t.Fatalf("publisher leave: %v", err)
	}

	// The publisher restarts (fresh identity, fresh sequence numbers)
	// and conservatively re-sends the tail it is not sure was
	// accepted, then continues.
	pub2, err := smc.JoinCell(attach(t, net, 0x23002), smc.DeviceConfig{
		Type: "generic", Name: "sender", Secret: testSecret,
	})
	if err != nil {
		t.Fatalf("publisher rejoin: %v", err)
	}
	defer pub2.Leave()
	publish(pub2, 20, 50) // 20..29 are redundant re-sends

	got, _ := collectReadings(t, sub.Client, 50, 30*time.Second)
	assertSequence(t, got, 0)
	// Quiesce: no 51st delivery hiding behind the 50.
	if e, err := sub.Client.NextEvent(300 * time.Millisecond); err == nil {
		t.Fatalf("unexpected extra delivery: %v", e)
	}
}

// TestDurableReplayVsLiveOracle is the randomized oracle: a publisher
// streams readings while a durable consumer connects, disconnects (by
// leave or by silent close) and rejoins at random points, sometimes
// resuming from a deliberately stale position. Whatever the schedule,
// the consumer's merged history must be every reading exactly once, in
// order.
func TestDurableReplayVsLiveOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("randomized oracle is not short")
	}
	rng := rand.New(rand.NewSource(23))
	net := netsim.New(netsim.Perfect, netsim.WithSeed(23))
	defer net.Close()
	newTestCell(t, net, durableCellConfig())

	pub, err := smc.JoinCell(attach(t, net, 0x24001), smc.DeviceConfig{
		Type: "generic", Name: "publisher", Secret: testSecret,
	})
	if err != nil {
		t.Fatalf("join publisher: %v", err)
	}
	defer pub.Close()

	const total = 600
	published := 0
	next := 0 // next reading value the oracle expects
	var history []int64

	var dev *smc.Device
	var pos client.DurablePosition
	id := uint64(0x24100)
	join := func() {
		t.Helper()
		id++
		d, err := smc.JoinCell(attach(t, net, id), smc.DeviceConfig{
			Type: "generic", Name: "oracle", Secret: testSecret,
			Durable: "oracle", DurablePosition: pos,
		})
		if err != nil {
			t.Fatalf("oracle join: %v", err)
		}
		if err := d.Client.Subscribe(readingFilter()); err != nil {
			t.Fatalf("oracle subscribe: %v", err)
		}
		dev = d
	}
	join()

	for published < total {
		burst := 20 + rng.Intn(60)
		if published+burst > total {
			burst = total - published
		}
		publishReadings(t, pub, published, published+burst)
		published += burst

		// Consume a random amount of what is now owed, then maybe
		// bounce the connection.
		owe := published - next
		take := rng.Intn(owe + 1)
		if take > 0 {
			got, last := collectReadings(t, dev.Client, take, 30*time.Second)
			history = append(history, got...)
			next += take
			// An at-least-once application persists the cursor of the
			// last event it processed — not the client's floor, which
			// may be ahead of it by whatever is still buffered in the
			// inbox and would be skipped on resume.
			pos.Cursor = last
		}
		pos.Epoch = dev.Client.DurablePosition().Epoch
		if rng.Intn(2) == 0 {
			if rng.Intn(2) == 0 {
				if err := dev.Leave(); err != nil {
					t.Fatalf("oracle leave: %v", err)
				}
			} else {
				// Silent close: the old membership lingers until the
				// lease lapses; the rejoin takes the binding over.
				if err := dev.Close(); err != nil {
					t.Fatalf("oracle close: %v", err)
				}
			}
			join()
		}
	}
	// Quiesce: everything published must arrive exactly once.
	if owe := published - next; owe > 0 {
		got, _ := collectReadings(t, dev.Client, owe, 60*time.Second)
		history = append(history, got...)
	}
	assertSequence(t, history, 0)
	if len(history) != total {
		t.Fatalf("history %d readings, want %d", len(history), total)
	}
	if e, err := dev.Client.NextEvent(300 * time.Millisecond); err == nil {
		t.Fatalf("delivery past quiesce: %v", e)
	}
	_ = dev.Leave()
}
