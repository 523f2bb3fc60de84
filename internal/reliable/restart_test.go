package reliable

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"time"

	"github.com/amuse/smc/internal/ident"
	"github.com/amuse/smc/internal/transport"
)

// TestReceiverRestartMidWindow kills a receiver's process identity in
// the middle of a send window and restarts it (a fresh Channel on the
// same transport ID — the chaos harness's kill-restart action seen
// from the reliable layer). The restarted receiver has no memory of
// the stream, so its acks regress below the sender's window base; the
// sender must detect the unfillable gap, restart the stream under a
// fresh epoch, and deliver the in-flight tail to the new incarnation
// exactly once, in order — no give-up, no explicit Forget required.
func TestReceiverRestartMidWindow(t *testing.T) {
	sw := transport.NewSwitch()
	defer sw.Close()

	senderTr, err := sw.Attach(ident.New(1))
	if err != nil {
		t.Fatal(err)
	}
	recvID := ident.New(2)
	recvTr, err := sw.Attach(recvID)
	if err != nil {
		t.Fatal(err)
	}

	cfg := Config{
		RetryTimeout:    10 * time.Millisecond,
		MaxRetryTimeout: 40 * time.Millisecond,
		MaxRetries:      6,
		Window:          16,
	}
	sender := New(senderTr, cfg)
	defer sender.Close()
	recv := New(recvTr, cfg)

	// Phase 1: a healthy prefix of the window, fully acknowledged.
	const prefix = 8
	for i := 0; i < prefix; i++ {
		if err := sender.Send(recvID, 100, []byte{byte(i)}); err != nil {
			t.Fatalf("prefix send %d: %v", i, err)
		}
		pkt, err := recv.RecvTimeout(2 * time.Second)
		if err != nil {
			t.Fatalf("prefix recv %d: %v", i, err)
		}
		if got := pkt.Payload[0]; got != byte(i) {
			t.Fatalf("prefix recv %d: payload %d", i, got)
		}
		pkt.Release()
	}

	// Phase 2: partition the receiver, then fill the rest of the
	// window. These sends are transmitted but never acknowledged.
	sw.SetDeliveryHook(func(from, to ident.ID, data []byte) (bool, time.Duration) {
		return to == recvID, 0
	})
	comps := make([]*Completion, 0, prefix)
	for i := prefix; i < 2*prefix; i++ {
		comps = append(comps, sender.SendAsync(recvID, 100, []byte{byte(i)}))
	}

	// Phase 3: the receiver process dies mid-window and restarts under
	// the same identity — close the old channel (and transport), attach
	// a fresh endpoint on the same ID, heal the partition.
	if err := recv.Close(); err != nil {
		t.Fatalf("receiver close: %v", err)
	}
	recvTr2, err := sw.Attach(recvID)
	if err != nil {
		t.Fatalf("re-attach: %v", err)
	}
	recv2 := New(recvTr2, cfg)
	defer recv2.Close()
	sw.SetDeliveryHook(nil)

	// The restarted receiver has no memory of sequences 1..prefix, so
	// the in-flight tail (seqs prefix+1..) parks behind a gap only a
	// stream reset can fill. The sender must detect the regressed acks
	// and converge: every in-flight send delivered, none failed.
	for i, comp := range comps {
		if err := comp.Wait(); err != nil {
			t.Fatalf("in-flight send %d: want recovery, got %v", i, err)
		}
		comp.Recycle()
	}
	st := sender.Stats()
	if st.Failures != 0 {
		t.Fatalf("failures = %d, want 0 (stream should reset, not give up)", st.Failures)
	}
	if st.StreamResets == 0 {
		t.Fatal("no stream reset recorded despite receiver restart")
	}

	// The tail continues on the same stream — still exactly once, in
	// order, with no stale old-epoch packets mixed in.
	const tail = 12
	for i := 0; i < tail; i++ {
		if err := sender.Send(recvID, 100, []byte{0x40 + byte(i)}); err != nil {
			t.Fatalf("post-restart send %d: %v", i, err)
		}
	}

	seen := make(map[byte]int)
	var order []byte
	for len(order) < prefix+tail {
		pkt, err := recv2.RecvTimeout(2 * time.Second)
		if err != nil {
			t.Fatalf("after %d post-restart deliveries: %v", len(order), err)
		}
		b := pkt.Payload[0]
		pkt.Release()
		seen[b]++
		order = append(order, b)
	}
	want := make([]byte, 0, prefix+tail)
	for i := prefix; i < 2*prefix; i++ {
		want = append(want, byte(i))
	}
	for i := 0; i < tail; i++ {
		want = append(want, 0x40+byte(i))
	}
	for i, b := range order {
		if b != want[i] {
			t.Fatalf("post-restart FIFO violated at %d: got %v want %v", i, order, want)
		}
	}
	for b, n := range seen {
		if n != 1 {
			t.Fatalf("payload %#x delivered %d times", b, n)
		}
	}
	// And nothing further arrives (no duplicate stragglers).
	if pkt, err := recv2.RecvTimeout(150 * time.Millisecond); err == nil {
		t.Fatalf("unexpected extra delivery %v", pkt.Payload)
	}
}

// TestSenderRestartStaleReceiver is the inverse restart: the sender's
// process identity dies and comes back on the same transport ID while
// the receiver keeps cumulative state for the previous incarnation.
// Without detection the receiver silently drops the fresh stream's low
// sequence numbers as duplicates while its stale cumulative ack
// settles them as delivered — a success-reporting blackhole. The new
// incarnation must notice acks covering sequences it never sent, reset
// its stream, and get every payload delivered for real.
func TestSenderRestartStaleReceiver(t *testing.T) {
	sw := transport.NewSwitch()
	defer sw.Close()

	senderID := ident.New(1)
	senderTr, err := sw.Attach(senderID)
	if err != nil {
		t.Fatal(err)
	}
	recvID := ident.New(2)
	recvTr, err := sw.Attach(recvID)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		RetryTimeout:    10 * time.Millisecond,
		MaxRetryTimeout: 40 * time.Millisecond,
		MaxRetries:      6,
		Window:          8,
	}
	sender := New(senderTr, cfg)
	recv := New(recvTr, cfg)
	defer recv.Close()

	// Incarnation one delivers a healthy prefix, advancing the
	// receiver's cumulative state well past the next incarnation's
	// opening sequence numbers.
	const prefix = 5
	for i := 0; i < prefix; i++ {
		if err := sender.Send(recvID, 100, []byte{byte(i)}); err != nil {
			t.Fatalf("incarnation-one send %d: %v", i, err)
		}
		pkt, err := recv.RecvTimeout(2 * time.Second)
		if err != nil {
			t.Fatalf("incarnation-one recv %d: %v", i, err)
		}
		pkt.Release()
	}

	// The sender process dies and restarts under the same identity.
	if err := sender.Close(); err != nil {
		t.Fatal(err)
	}
	senderTr2, err := sw.Attach(senderID)
	if err != nil {
		t.Fatal(err)
	}
	sender2 := New(senderTr2, cfg)
	defer sender2.Close()

	// Incarnation two's sends start over at seq 1 — straight into the
	// receiver's stale dup-drop range. Each must nonetheless be
	// delivered (not just falsely acked) within the retry budget.
	const n = 6
	for i := 0; i < n; i++ {
		if err := sender2.Send(recvID, 100, []byte{0x80 + byte(i)}); err != nil {
			t.Fatalf("incarnation-two send %d: %v", i, err)
		}
	}
	got := make([]byte, 0, n)
	for len(got) < n {
		pkt, err := recv.RecvTimeout(2 * time.Second)
		if err != nil {
			t.Fatalf("after %d incarnation-two deliveries: %v (stale-state blackhole?)", len(got), err)
		}
		got = append(got, pkt.Payload[0])
		pkt.Release()
	}
	for i, b := range got {
		if b != 0x80+byte(i) {
			t.Fatalf("incarnation-two delivery order %v", got)
		}
	}
	if pkt, err := recv.RecvTimeout(150 * time.Millisecond); err == nil {
		t.Fatalf("duplicate delivery %v", pkt.Payload)
	}
	if st := sender2.Stats(); st.StreamResets == 0 {
		t.Fatal("incarnation two never reset its stream")
	}
}

// TestSenderRestartStaleReceiverAdvancedEpoch hardens the same restart
// against receiver state parked on a later epoch than the fresh
// incarnation has ever used: the receiver drops the epoch-0 data as
// stale, but must answer with its actual position so the sender can
// adopt the epoch, reset past it, and converge.
func TestSenderRestartStaleReceiverAdvancedEpoch(t *testing.T) {
	sw := transport.NewSwitch()
	defer sw.Close()

	senderID := ident.New(1)
	senderTr, err := sw.Attach(senderID)
	if err != nil {
		t.Fatal(err)
	}
	recvID := ident.New(2)
	recvTr, err := sw.Attach(recvID)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		RetryTimeout:    5 * time.Millisecond,
		MaxRetryTimeout: 20 * time.Millisecond,
		MaxRetries:      3,
		Window:          8,
	}
	sender := New(senderTr, cfg)
	recv := New(recvTr, cfg)
	defer recv.Close()

	// Drive incarnation one through two give-up/divergent-resend
	// cycles so its outbound epoch advances, then deliver for real so
	// the receiver's state adopts the later epoch with cum > 0.
	for cycle := 0; cycle < 2; cycle++ {
		sw.SetDeliveryHook(func(from, to ident.ID, data []byte) (bool, time.Duration) {
			return to == recvID, 0
		})
		comp := sender.SendAsync(recvID, 100, []byte{0x10 + byte(cycle)})
		if err := comp.Wait(); !errors.Is(err, ErrGaveUp) {
			t.Fatalf("cycle %d: want ErrGaveUp, got %v", cycle, err)
		}
		comp.Recycle()
		sw.SetDeliveryHook(nil)
		// A divergent payload abandons the stash and bumps the epoch.
		if err := sender.Send(recvID, 100, []byte{0x20 + byte(cycle)}); err != nil {
			t.Fatalf("cycle %d divergent send: %v", cycle, err)
		}
		pkt, err := recv.RecvTimeout(2 * time.Second)
		if err != nil {
			t.Fatalf("cycle %d recv: %v", cycle, err)
		}
		pkt.Release()
	}
	if st := sender.Stats(); st.StreamResets < 2 {
		t.Fatalf("setup did not advance the epoch: %+v", st)
	}

	// Restart the sender identity; its fresh stream reopens at epoch 0
	// against receiver state parked on a later epoch.
	if err := sender.Close(); err != nil {
		t.Fatal(err)
	}
	senderTr2, err := sw.Attach(senderID)
	if err != nil {
		t.Fatal(err)
	}
	sender2 := New(senderTr2, cfg)
	defer sender2.Close()

	const n = 4
	for i := 0; i < n; i++ {
		if err := sender2.Send(recvID, 100, []byte{0x80 + byte(i)}); err != nil {
			t.Fatalf("incarnation-two send %d: %v", i, err)
		}
	}
	got := make([]byte, 0, n)
	for len(got) < n {
		pkt, err := recv.RecvTimeout(2 * time.Second)
		if err != nil {
			t.Fatalf("after %d deliveries: %v (stale-epoch blackhole?)", len(got), err)
		}
		got = append(got, pkt.Payload[0])
		pkt.Release()
	}
	for i, b := range got {
		if b != 0x80+byte(i) {
			t.Fatalf("delivery order %v", got)
		}
	}
	if pkt, err := recv.RecvTimeout(150 * time.Millisecond); err == nil {
		t.Fatalf("duplicate delivery %v", pkt.Payload)
	}
}

// TestReceiverRestartResumeNoDuplicate drives the resume stash across
// a receiver restart: sends that failed with ErrGaveUp while the
// receiver was down are retried by the application with identical
// payloads after Forget. Within the new stream each payload must be
// delivered exactly once — the resume path must not combine with the
// epoch reset to double-deliver.
func TestReceiverRestartResumeNoDuplicate(t *testing.T) {
	sw := transport.NewSwitch()
	defer sw.Close()

	senderTr, err := sw.Attach(ident.New(1))
	if err != nil {
		t.Fatal(err)
	}
	recvID := ident.New(2)
	recvTr, err := sw.Attach(recvID)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		RetryTimeout:    10 * time.Millisecond,
		MaxRetryTimeout: 40 * time.Millisecond,
		MaxRetries:      3,
		Window:          8,
	}
	sender := New(senderTr, cfg)
	defer sender.Close()
	recv := New(recvTr, cfg)

	// Black hole from the start: every send fails.
	sw.SetDeliveryHook(func(from, to ident.ID, data []byte) (bool, time.Duration) {
		return to == recvID, 0
	})
	const n = 6
	for i := 0; i < n; i++ {
		comp := sender.SendAsync(recvID, 100, []byte{byte(i)})
		if err := comp.Wait(); !errors.Is(err, ErrGaveUp) {
			t.Fatalf("send %d: want ErrGaveUp, got %v", i, err)
		}
		comp.Recycle()
	}

	// Receiver identity restarts; sender forgets it (dropping the
	// stash — a restarted receiver has no stream to resume into).
	if err := recv.Close(); err != nil {
		t.Fatal(err)
	}
	recvTr2, err := sw.Attach(recvID)
	if err != nil {
		t.Fatal(err)
	}
	recv2 := New(recvTr2, cfg)
	defer recv2.Close()
	sw.SetDeliveryHook(nil)
	sender.Forget(recvID)

	// Application-level retry with identical payloads. The stash is
	// gone, so these are fresh sequences under the post-Forget epoch.
	for i := 0; i < n; i++ {
		if err := sender.Send(recvID, 100, []byte{byte(i)}); err != nil {
			t.Fatalf("retry send %d: %v", i, err)
		}
	}
	got := make([]byte, 0, n)
	for len(got) < n {
		pkt, err := recv2.RecvTimeout(2 * time.Second)
		if err != nil {
			t.Fatalf("after %d deliveries: %v", len(got), err)
		}
		got = append(got, pkt.Payload[0])
		pkt.Release()
	}
	for i, b := range got {
		if b != byte(i) {
			t.Fatalf("delivery order %v", got)
		}
	}
	if pkt, err := recv2.RecvTimeout(150 * time.Millisecond); err == nil {
		t.Fatalf("duplicate delivery %v", pkt.Payload)
	}
	if st := sender.Stats(); st.Resumed != 0 {
		t.Fatalf("resume stash used across Forget: %+v", st)
	}
}

// TestDrainWaitsForAcks pins the graceful-shutdown surface: Drain
// returns only after every queued send has resolved, and reports
// errDrainTimeout when the destination never acknowledges.
func TestDrainWaitsForAcks(t *testing.T) {
	sw := transport.NewSwitch()
	defer sw.Close()
	senderTr, err := sw.Attach(ident.New(1))
	if err != nil {
		t.Fatal(err)
	}
	recvID := ident.New(2)
	recvTr, err := sw.Attach(recvID)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		RetryTimeout:    10 * time.Millisecond,
		MaxRetryTimeout: 40 * time.Millisecond,
		MaxRetries:      3,
		Window:          4,
	}
	sender := New(senderTr, cfg)
	defer sender.Close()
	recv := New(recvTr, cfg)
	defer recv.Close()

	// Delay delivery so sends are pending when Drain starts.
	sw.SetDeliveryHook(func(from, to ident.ID, data []byte) (bool, time.Duration) {
		if to == recvID {
			return false, 30 * time.Millisecond
		}
		return false, 0
	})
	comps := make([]*Completion, 0, 4)
	for i := 0; i < 4; i++ {
		comps = append(comps, sender.SendAsync(recvID, 100, []byte{byte(i)}))
	}
	if sender.pending() == 0 {
		t.Fatal("sends resolved before drain could observe them")
	}
	if err := sender.Drain(5 * time.Second); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if got := sender.pending(); got != 0 {
		t.Fatalf("pending after drain = %d", got)
	}
	for _, c := range comps {
		if err := c.Wait(); err != nil {
			t.Fatalf("send failed despite drain success: %v", err)
		}
		c.Recycle()
	}
	for i := 0; i < 4; i++ {
		pkt, err := recv.RecvTimeout(time.Second)
		if err != nil {
			t.Fatal(err)
		}
		pkt.Release()
	}

	// Black-holed destination: Drain must give up with errDrainTimeout
	// once it is clear the queue cannot empty in time.
	sw.SetDeliveryHook(func(from, to ident.ID, data []byte) (bool, time.Duration) {
		return to == recvID, 0
	})
	comp := sender.SendAsync(recvID, 100, []byte{0xFF})
	err = sender.Drain(20 * time.Millisecond)
	if err != nil && !errors.Is(err, errDrainTimeout) {
		t.Fatalf("want errDrainTimeout, got %v", err)
	}
	// err == nil is also acceptable here if the retry budget failed the
	// send before the drain deadline; either way the queue must empty
	// once the budget lapses.
	_ = comp.Wait()
	comp.Recycle()
	if err := sender.Drain(5 * time.Second); err != nil {
		t.Fatalf("drain after give-up: %v", err)
	}
}

// TestStaleAcksAheadOfRetransmitRoundDoNotResetStream pins the false
// stream reset the benchmark verifier caught on a reordering link
// (gapAcks=4 attempts=1): regressed acks that arrive while no
// retransmission round is outstanding are reordered stragglers of
// packets long settled, not evidence of a restarted receiver. They must
// not be banked, or the first straggler after the next timer round
// resets a healthy stream and re-sends a window the receiver has
// already delivered — under a new epoch, so it is delivered twice.
func TestStaleAcksAheadOfRetransmitRoundDoNotResetStream(t *testing.T) {
	sw := transport.NewSwitch()
	defer sw.Close()
	senderID, recvID := ident.New(1), ident.New(2)
	senderTr, err := sw.Attach(senderID)
	if err != nil {
		t.Fatal(err)
	}
	recvTr, err := sw.Attach(recvID)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		RetryTimeout:    200 * time.Millisecond,
		MaxRetryTimeout: 200 * time.Millisecond,
		MaxRetries:      8,
		Window:          16,
	}
	sender, recv := New(senderTr, cfg), New(recvTr, cfg)
	defer sender.Close()
	defer recv.Close()

	expect := func(want byte) {
		t.Helper()
		pkt, err := recv.RecvTimeout(2 * time.Second)
		if err != nil {
			t.Fatalf("recv %d: %v", want, err)
		}
		if got := pkt.Payload[0]; got != want {
			t.Fatalf("recv payload %d, want %d", got, want)
		}
		pkt.Release()
	}

	// A healthy, fully acknowledged prefix: the window base moves to 6.
	for i := byte(1); i <= 5; i++ {
		if err := sender.Send(recvID, 100, []byte{i}); err != nil {
			t.Fatalf("prefix send %d: %v", i, err)
		}
		expect(i)
	}

	// Two more packets reach the receiver, but their acks are lost.
	sw.SetDeliveryHook(func(from, to ident.ID, data []byte) (bool, time.Duration) {
		return from == recvID && to == senderID, 0
	})
	c6 := sender.SendAsync(recvID, 100, []byte{6})
	c7 := sender.SendAsync(recvID, 100, []byte{7})
	expect(6)
	expect(7)

	// Reordered stragglers — acks for packets settled long ago — trickle
	// in before any retransmission round.
	for i := 0; i < 4; i++ {
		sender.applyAck(recvID, 0, 2, 0)
	}
	if st := sender.Stats(); st.Retransmits != 0 {
		t.Skipf("box too slow: a retransmission round fired before the stale acks (%+v)", st)
	}

	// One timer round goes by, then one more straggler.
	deadline := time.Now().Add(5 * time.Second)
	for sender.Stats().Retransmits < 2 {
		if time.Now().After(deadline) {
			t.Fatal("no retransmission round")
		}
		time.Sleep(time.Millisecond)
	}
	sender.applyAck(recvID, 0, 2, 0)

	// The link heals: the next round's acks get through.
	sw.SetDeliveryHook(nil)
	if err := c6.Wait(); err != nil {
		t.Fatalf("send 6: %v", err)
	}
	if err := c7.Wait(); err != nil {
		t.Fatalf("send 7: %v", err)
	}
	if st := sender.Stats(); st.StreamResets != 0 {
		t.Fatalf("healthy stream was reset: %+v", st)
	}
	if pkt, err := recv.RecvTimeout(150 * time.Millisecond); err == nil {
		t.Fatalf("duplicate delivery of %v after a false reset", pkt.Payload)
	}
}

// TestForgottenStreamStragglerRefused holds one packet of a sender's
// stream in the network while the receiver forgets the sender and the
// sender's process is replaced by a fresh one under the same ID, then
// lets the packet through. The fresh sender opens at the epoch its
// predecessor used, so the straggler must be refused on the strength
// of the floor Forget left, not taken for the new stream's: the new
// session's packets arrive exactly once and in order, none of the old
// one's among them.
func TestForgottenStreamStragglerRefused(t *testing.T) {
	sw := transport.NewSwitch()
	defer sw.Close()
	senderID, recvID := ident.New(1), ident.New(2)
	senderTr, err := sw.Attach(senderID)
	if err != nil {
		t.Fatal(err)
	}
	recvTr, err := sw.Attach(recvID)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{RetryTimeout: 10 * time.Millisecond, MaxRetryTimeout: 40 * time.Millisecond, MaxRetries: 50, Window: 8}
	sender := New(senderTr, cfg)
	recv := New(recvTr, cfg)
	defer recv.Close()

	for _, p := range []string{"o0", "o1"} {
		if err := sender.Send(recvID, 100, []byte(p)); err != nil {
			t.Fatal(err)
		}
		pkt, err := recv.RecvTimeout(2 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		pkt.Release()
	}

	// Hold the first transmission of the old stream's seq 3 and drop
	// its retransmissions.
	held := make(chan []byte, 1)
	sw.SetDeliveryHook(func(from, to ident.ID, data []byte) (bool, time.Duration) {
		if from != senderID || to != recvID || !bytes.Contains(data, []byte("o2")) {
			return false, 0
		}
		select {
		case held <- bytes.Clone(data):
		default:
		}
		return true, 0
	})
	comp := sender.SendAsync(recvID, 100, []byte("o2"))
	straggler := <-held

	// The receiver purges the sender; the sender's process dies.
	recv.Forget(senderID)
	if err := sender.Close(); err != nil {
		t.Fatal(err)
	}
	_ = comp.Wait()
	sw.SetDeliveryHook(nil)

	// A fresh process attaches under the same ID, and the held packet
	// arrives from it.
	senderTr2, err := sw.Attach(senderID)
	if err != nil {
		t.Fatal(err)
	}
	if err := senderTr2.Send(recvID, straggler); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(time.Millisecond) {
		if st := recv.Stats(); st.StaleEpoch+st.Buffered > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the straggler never reached the receiver")
		}
	}
	sender2 := New(senderTr2, cfg)
	defer sender2.Close()

	want := []string{"n0", "n1", "n2", "n3", "n4"}
	for _, p := range want {
		if err := sender2.Send(recvID, 100, []byte(p)); err != nil {
			t.Fatalf("new session send %s: %v", p, err)
		}
	}
	var got []string
	for len(got) < len(want) {
		pkt, err := recv.RecvTimeout(2 * time.Second)
		if err != nil {
			t.Fatalf("after %v: %v", got, err)
		}
		got = append(got, string(pkt.Payload))
		pkt.Release()
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("delivered %v, want %v", got, want)
	}
	if pkt, err := recv.RecvTimeout(100 * time.Millisecond); err == nil {
		t.Fatalf("extra delivery %q", pkt.Payload)
	}
	if st := recv.Stats(); st.StaleEpoch == 0 {
		t.Errorf("straggler not counted in StaleEpoch: %+v", st)
	}
}
