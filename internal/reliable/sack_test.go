package reliable

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sync"
	"testing"
	"time"

	"github.com/amuse/smc/internal/ident"
	"github.com/amuse/smc/internal/transport"
	"github.com/amuse/smc/internal/wire"
)

// header reads the type and sequence number of a marshalled packet.
func header(data []byte) (wire.PacketType, uint64) {
	return wire.PacketType(data[3]), binary.BigEndian.Uint64(data[12:20])
}

// dropTransmissions makes the switch drop the first n transmissions of
// each listed sequence number from one sender, and counts every
// transmission of every sequence number it sees from it.
func dropTransmissions(sw *transport.Switch, from ident.ID, n int, seqs ...uint64) func(seq uint64) int {
	var mu sync.Mutex
	seen := make(map[uint64]int)
	drop := make(map[uint64]bool)
	for _, s := range seqs {
		drop[s] = true
	}
	sw.SetDeliveryHook(func(src, to ident.ID, data []byte) (bool, time.Duration) {
		if src != from {
			return false, 0
		}
		_, seq := header(data)
		mu.Lock()
		defer mu.Unlock()
		seen[seq]++
		return drop[seq] && seen[seq] <= n, 0
	})
	return func(seq uint64) int {
		mu.Lock()
		defer mu.Unlock()
		return seen[seq]
	}
}

// sendAll sends count one-byte payloads 0, 1, … asynchronously and
// waits for every completion.
func sendAll(t *testing.T, a *Channel, dst ident.ID, count int) {
	t.Helper()
	comps := make([]*Completion, count)
	for i := range comps {
		comps[i] = a.SendAsync(dst, wire.PktEvent, []byte{byte(i)})
	}
	for i, c := range comps {
		if err := c.Wait(); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
}

// collect reads a channel's deliveries in the background and returns
// a function yielding the first payload byte of each, in order.
func collect(c *Channel) func() []byte {
	var mu sync.Mutex
	var got []byte
	go func() {
		for {
			pkt, err := c.Recv()
			if err != nil {
				return
			}
			mu.Lock()
			got = append(got, pkt.Payload[0])
			mu.Unlock()
			pkt.Release()
		}
	}()
	return func() []byte {
		mu.Lock()
		defer mu.Unlock()
		return append([]byte(nil), got...)
	}
}

// inOrder reports the first position at which got is not 0, 1, …,
// count-1, or -1 when it is exactly that.
func inOrder(got []byte, count int) int {
	for i := 0; i < count; i++ {
		if i >= len(got) || got[i] != byte(i) {
			return i
		}
	}
	if len(got) != count {
		return count
	}
	return -1
}

// waitFor polls cond for up to two seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(2 * time.Second); !cond(); {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSackHoleResentBeforeTimer: with a window of three, a lost second
// packet draws only two duplicate acks, so duplicate-ack counting
// would leave it to the retransmit timer. The first selective ack
// shows the hole, and it is resent at once.
func TestSackHoleResentBeforeTimer(t *testing.T) {
	cfg := Config{RetryTimeout: time.Second, Window: 3}
	sw, a, b := switchPair(t, cfg)
	dropTransmissions(sw, a.LocalID(), 1, 2)
	start := time.Now()
	sendAll(t, a, b.LocalID(), 8)
	elapsed := time.Since(start)
	st := a.Stats()
	if st.FastRetransmits != 1 || st.Retransmits != 0 {
		t.Errorf("hole repaired by %d hole resends and %d timer resends, want 1 and 0",
			st.FastRetransmits, st.Retransmits)
	}
	if elapsed > cfg.RetryTimeout/4 {
		t.Errorf("8 sends with one hole took %v, want well under the %v RTO", elapsed, cfg.RetryTimeout)
	}
}

// TestTimerRoundResendsOnlyHoles: packets 1 and 4 of 8 are lost, and so
// are their first resends, so the selective acks stop and the
// retransmit timer fires. Its round resends exactly the two packets the
// receiver lacks, not the six it holds.
func TestTimerRoundResendsOnlyHoles(t *testing.T) {
	sw, a, b := switchPair(t, Config{RetryTimeout: 300 * time.Millisecond})
	seen := dropTransmissions(sw, a.LocalID(), 2, 1, 4)
	sendAll(t, a, b.LocalID(), 8)
	for seq := uint64(1); seq <= 8; seq++ {
		want := 1
		if seq == 1 || seq == 4 {
			want = 3 // lost, hole resend lost, timer round
		}
		if n := seen(seq); n != want {
			t.Errorf("seq %d transmitted %d times, want %d", seq, n, want)
		}
	}
	if st := a.Stats(); st.Retransmits != 2 || st.FastRetransmits != 2 {
		t.Errorf("%d timer resends and %d hole resends, want 2 and 2", st.Retransmits, st.FastRetransmits)
	}
}

// TestShedHeldPacketRecovered: a receiver whose inbox is full sheds a
// packet it had reported held in a selective ack. The sender must not
// go on taking it for held: every packet is still delivered once and
// in order, with neither a stream reset nor a give-up.
func TestShedHeldPacketRecovered(t *testing.T) {
	sw, a, b := switchChannels(t, Config{}, Config{QueueDepth: 2})
	const count = 6
	var (
		mu           sync.Mutex
		lost         int
		reportedHeld bool
	)
	sw.SetDeliveryHook(func(from, to ident.ID, data []byte) (bool, time.Duration) {
		typ, seq := header(data)
		mu.Lock()
		defer mu.Unlock()
		if from == a.LocalID() && seq == 1 && lost < 2 {
			// Lose seq 1 and its hole resend: every later packet is
			// held before the timer round repairs the hole.
			lost++
			return true, 0
		}
		if from == b.LocalID() && typ == wire.PktAck && data[4]&wire.FlagSack != 0 {
			// Seq 3 is bit 3-cum-2 of the bitmap.
			if bits := binary.BigEndian.Uint64(data[wire.HeaderLen:]); seq < 2 && bits&(1<<(1-seq)) != 0 {
				reportedHeld = true
			}
		}
		return false, 0
	})
	comps := make([]*Completion, count)
	for i := range comps {
		comps[i] = a.SendAsync(b.LocalID(), wire.PktEvent, []byte{byte(i)})
	}
	// Seq 1's timer resend releases 1 and 2 into the two-deep inbox,
	// and the inbox refuses 3.
	waitFor(t, "the receiver to shed a packet", func() bool { return b.Stats().InboxDropped > 0 })
	got := collect(b)
	for i, c := range comps {
		if err := c.Wait(); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	mu.Lock()
	held := reportedHeld
	mu.Unlock()
	if !held {
		t.Error("the receiver never reported seq 3 held")
	}
	waitFor(t, "every delivery", func() bool { return len(got()) >= count })
	if i := inOrder(got(), count); i >= 0 {
		t.Errorf("delivered %v, want 0..%d once each in order (first fault at %d)", got(), count-1, i)
	}
	st := a.Stats()
	if st.StreamResets != 0 {
		t.Errorf("%d stream resets, want 0", st.StreamResets)
	}
	t.Logf("%d hole resends, %d timer resends, %d shed by the receiver",
		st.FastRetransmits, st.Retransmits, b.Stats().InboxDropped)
}

// TestHoleResentOncePerLoss: a hole is resent when an ack first shows
// it, not again when later acks show it. An ack that waits for the
// window base shows that the receiver does not hold it, whatever an
// earlier selective ack said (its inbox shed the packet), so the base
// is then resent at once as a hole below a held packet, not after two
// timer rounds. The receiver hears nothing here; the acks are applied
// by hand.
func TestHoleResentOncePerLoss(t *testing.T) {
	sw, a, b := switchPair(t, Config{RetryTimeout: time.Second})
	seen := dropTransmissions(sw, a.LocalID(), 1<<30, 1, 2, 3, 4, 5)
	for i := 0; i < 5; i++ {
		a.SendAsync(b.LocalID(), wire.PktEvent, []byte{byte(i)})
	}
	// Taking the destination's lock after the awaited transmission
	// waits out the resend loop that made it.
	sent := func(seq uint64, n int) {
		t.Helper()
		waitFor(t, fmt.Sprintf("transmission %d of seq %d", n, seq), func() bool { return seen(seq) >= n })
		settled(a, b.LocalID())
	}
	sent(5, 1)
	a.applyAck(b.LocalID(), 0, 0, 0b11) // holds 2 and 3: 1 is a hole
	sent(1, 2)
	a.applyAck(b.LocalID(), 0, 0, 0b1011) // holds 2, 3 and 5: 4 is a new hole
	sent(4, 2)
	a.applyAck(b.LocalID(), 0, 1, 0b101) // took 1, shed 2, holds 3 and 5
	sent(2, 2)
	for seq, want := range map[uint64]int{1: 2, 2: 2, 3: 1, 4: 2, 5: 1} {
		if n := seen(seq); n != want {
			t.Errorf("seq %d transmitted %d times, want %d", seq, n, want)
		}
	}
	if n := a.Stats().Retransmits; n != 0 {
		t.Errorf("%d timer resends, want 0", n)
	}
}

// TestReorderBufferOverflowCounted: with a window wider than the
// receiver's reorder buffer, a lost first packet leaves more packets
// out of order than the buffer holds. The ones it cannot park are
// dropped and counted, and retransmission still delivers everything
// once and in order.
func TestReorderBufferOverflowCounted(t *testing.T) {
	sw, a, b := switchChannels(t, Config{Window: 128}, Config{})
	got := collect(b)
	// Seq 1's hole resend is lost too, so every later packet has
	// arrived before the timer round repairs the hole.
	dropTransmissions(sw, a.LocalID(), 2, 1)
	const count = 100
	sendAll(t, a, b.LocalID(), count)
	waitFor(t, "every delivery", func() bool { return len(got()) >= count })
	if i := inOrder(got(), count); i >= 0 {
		t.Errorf("delivered %v, want 0..%d once each in order (first fault at %d)", got(), count-1, i)
	}
	if n := b.Stats().ReorderDropped; n == 0 {
		t.Errorf("ReorderDropped = 0 after %d packets arrived behind a hole, want > 0", count-1-reorderDepth)
	}
}

// TestAckWithoutHoldsIsSeedEncoding: with nothing in the reorder
// buffer, an ack is the plain cumulative ack of the seed format —
// FlagCumAck and no payload — byte for byte.
func TestAckWithoutHoldsIsSeedEncoding(t *testing.T) {
	sw, a, b := switchPair(t, Config{})
	var (
		mu  sync.Mutex
		ack []byte
	)
	sw.SetDeliveryHook(func(from, to ident.ID, data []byte) (bool, time.Duration) {
		if typ, _ := header(data); typ == wire.PktAck {
			mu.Lock()
			ack = append([]byte(nil), data...)
			mu.Unlock()
		}
		return false, 0
	})
	if err := a.Send(b.LocalID(), wire.PktEvent, []byte("x")); err != nil {
		t.Fatal(err)
	}
	want := []byte{'S', 'M', 1, byte(wire.PktAck), wire.FlagCumAck, 0, 0, 0, 0, 0, 0, 2}
	want = binary.BigEndian.AppendUint64(want, 1) // cumulative seq
	want = binary.BigEndian.AppendUint32(want, 0) // payload length
	want = binary.BigEndian.AppendUint32(want, crc32.ChecksumIEEE(want))
	mu.Lock()
	defer mu.Unlock()
	if string(ack) != string(want) {
		t.Errorf("ack bytes\n got % x\nwant % x", ack, want)
	}
}
