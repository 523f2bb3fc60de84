package reliable

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/amuse/smc/internal/ident"
	"github.com/amuse/smc/internal/netsim"
	"github.com/amuse/smc/internal/transport"
	"github.com/amuse/smc/internal/wire"
)

// pair builds two channels joined by the given profile.
func pair(t *testing.T, p netsim.Profile, seed int64, cfg Config) (*Channel, *Channel) {
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
	a, b := New(ta, cfg), New(tb, cfg)
	t.Cleanup(func() {
		a.Close()
		b.Close()
		n.Close()
	})
	return a, b
}

func fastCfg() Config {
	return Config{
		RetryTimeout:    20 * time.Millisecond,
		MaxRetryTimeout: 100 * time.Millisecond,
		MaxRetries:      24,
		QueueDepth:      4096,
	}
}

func TestReliableDeliveryPerfectLink(t *testing.T) {
	a, b := pair(t, netsim.Perfect, 1, fastCfg())
	if err := a.Send(b.LocalID(), wire.PktEvent, []byte("payload")); err != nil {
		t.Fatalf("send: %v", err)
	}
	pkt, err := b.RecvTimeout(time.Second)
	if err != nil {
		t.Fatalf("recv: %v", err)
	}
	if pkt.Type != wire.PktEvent || string(pkt.Payload) != "payload" || pkt.Sender != a.LocalID() {
		t.Errorf("got %s payload %q", pkt, pkt.Payload)
	}
	st := a.Stats()
	if st.Acked != 1 || st.Retransmits != 0 {
		t.Errorf("sender stats = %+v", st)
	}
}

func TestReliableDeliveryUnderHeavyLoss(t *testing.T) {
	// 40% loss in both directions: retransmission must still get
	// every packet through, exactly once, in order.
	a, b := pair(t, netsim.Lossy(0.4), 2, fastCfg())
	const count = 60

	var recvErr error
	got := make([][]byte, 0, count)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for len(got) < count {
			pkt, err := b.RecvTimeout(10 * time.Second)
			if err != nil {
				recvErr = err
				return
			}
			got = append(got, pkt.Payload)
		}
	}()

	for i := 0; i < count; i++ {
		if err := a.Send(b.LocalID(), wire.PktEvent, []byte{byte(i)}); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	<-done
	if recvErr != nil {
		t.Fatalf("recv: %v", recvErr)
	}
	for i, p := range got {
		if len(p) != 1 || p[0] != byte(i) {
			t.Fatalf("packet %d out of order or duplicated: % x", i, p)
		}
	}
	st := a.Stats()
	if st.Retransmits == 0 {
		t.Error("no retransmissions under 40% loss — loss model inert?")
	}
	bst := b.Stats()
	if bst.Received != count {
		t.Errorf("receiver accepted %d, want %d", bst.Received, count)
	}
}

func TestDuplicateSuppressionUnderDuplication(t *testing.T) {
	p := netsim.Profile{Name: "dup", Duplicate: 0.9}
	a, b := pair(t, p, 3, fastCfg())
	const count = 40
	for i := 0; i < count; i++ {
		if err := a.Send(b.LocalID(), wire.PktEvent, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	received := 0
	for received < count {
		pkt, err := b.RecvTimeout(2 * time.Second)
		if err != nil {
			t.Fatalf("recv after %d: %v", received, err)
		}
		if pkt.Payload[0] != byte(received) {
			t.Fatalf("got %d, want %d (dup or reorder leaked)", pkt.Payload[0], received)
		}
		received++
	}
	// No extra deliveries.
	if _, err := b.RecvTimeout(100 * time.Millisecond); err == nil {
		t.Error("duplicate delivered")
	}
	if b.Stats().DupsDropped == 0 {
		t.Error("no duplicates dropped despite 90% duplication")
	}
}

func TestGiveUpWhenPeerUnreachable(t *testing.T) {
	n := netsim.New(netsim.Perfect, netsim.WithSeed(4))
	defer n.Close()
	ta, _ := n.Attach(ident.New(1))
	a := New(ta, Config{RetryTimeout: 10 * time.Millisecond, MaxRetries: 2})
	defer a.Close()

	start := time.Now()
	err := a.Send(ident.New(99), wire.PktEvent, []byte("void"))
	if !errors.Is(err, ErrGaveUp) {
		t.Fatalf("err = %v, want ErrGaveUp", err)
	}
	// Backoff: 10 + 20 + 40 = 70 ms minimum.
	if d := time.Since(start); d < 60*time.Millisecond {
		t.Errorf("gave up after %v, expected exponential backoff", d)
	}
	if a.Stats().Failures != 1 {
		t.Errorf("failures = %d", a.Stats().Failures)
	}
}

func TestStopAndWaitPreservesFIFOPerDestination(t *testing.T) {
	a, b := pair(t, netsim.Lossy(0.2), 5, fastCfg())
	const count = 30

	var wg sync.WaitGroup
	wg.Add(1)
	var order []byte
	go func() {
		defer wg.Done()
		for len(order) < count {
			pkt, err := b.RecvTimeout(10 * time.Second)
			if err != nil {
				return
			}
			order = append(order, pkt.Payload[0])
		}
	}()
	for i := 0; i < count; i++ {
		if err := a.Send(b.LocalID(), wire.PktEvent, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	if len(order) != count {
		t.Fatalf("received %d", len(order))
	}
	for i := 1; i < len(order); i++ {
		if order[i] <= order[i-1] {
			t.Fatalf("FIFO violated: %v", order)
		}
	}
}

func TestConcurrentSendersToOneReceiver(t *testing.T) {
	n := netsim.New(netsim.Lossy(0.1), netsim.WithSeed(6))
	defer n.Close()
	tb, _ := n.Attach(ident.New(100))
	b := New(tb, fastCfg())
	defer b.Close()

	const senders, per = 5, 20
	chans := make([]*Channel, senders)
	for i := range chans {
		tr, err := n.Attach(ident.New(uint64(i + 1)))
		if err != nil {
			t.Fatal(err)
		}
		chans[i] = New(tr, fastCfg())
		defer chans[i].Close()
	}

	var wg sync.WaitGroup
	for i, c := range chans {
		wg.Add(1)
		go func(i int, c *Channel) {
			defer wg.Done()
			for k := 0; k < per; k++ {
				if err := c.Send(b.LocalID(), wire.PktEvent, []byte{byte(i), byte(k)}); err != nil {
					t.Errorf("sender %d: %v", i, err)
					return
				}
			}
		}(i, c)
	}

	perSender := make(map[ident.ID][]byte)
	for received := 0; received < senders*per; received++ {
		pkt, err := b.RecvTimeout(10 * time.Second)
		if err != nil {
			t.Fatalf("recv %d: %v", received, err)
		}
		perSender[pkt.Sender] = append(perSender[pkt.Sender], pkt.Payload[1])
	}
	wg.Wait()

	for id, seq := range perSender {
		if len(seq) != per {
			t.Errorf("sender %s delivered %d", id, len(seq))
		}
		for k := 1; k < len(seq); k++ {
			if seq[k] != seq[k-1]+1 {
				t.Errorf("sender %s out of order: %v", id, seq)
				break
			}
		}
	}
}

func TestUnreliableBroadcast(t *testing.T) {
	n := netsim.New(netsim.Perfect, netsim.WithSeed(7))
	defer n.Close()
	var chans []*Channel
	for i := 1; i <= 3; i++ {
		tr, _ := n.Attach(ident.New(uint64(i)))
		c := New(tr, fastCfg())
		defer c.Close()
		chans = append(chans, c)
	}
	if err := chans[0].SendUnreliable(ident.Broadcast, wire.PktBeacon, []byte("hi")); err != nil {
		t.Fatal(err)
	}
	for _, c := range chans[1:] {
		pkt, err := c.RecvTimeout(time.Second)
		if err != nil {
			t.Fatalf("recv: %v", err)
		}
		if pkt.Type != wire.PktBeacon || pkt.Flags&wire.FlagNoAck == 0 {
			t.Errorf("pkt = %s", pkt)
		}
	}
}

func TestReliableBroadcastRejected(t *testing.T) {
	a, _ := pair(t, netsim.Perfect, 8, fastCfg())
	if err := a.Send(ident.Broadcast, wire.PktEvent, nil); err == nil {
		t.Error("reliable broadcast accepted")
	}
}

func TestForgetResetsStream(t *testing.T) {
	a, b := pair(t, netsim.Perfect, 9, fastCfg())
	for i := 0; i < 3; i++ {
		if err := a.Send(b.LocalID(), wire.PktEvent, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		if _, err := b.RecvTimeout(time.Second); err != nil {
			t.Fatal(err)
		}
	}
	// Simulate the member being purged and a new device reusing the
	// ID: both sides forget.
	a.Forget(b.LocalID())
	b.Forget(a.LocalID())
	// The sender's seq restarts at 1; without Forget the receiver
	// would drop it as a duplicate.
	if err := a.Send(b.LocalID(), wire.PktEvent, []byte("fresh")); err != nil {
		t.Fatal(err)
	}
	pkt, err := b.RecvTimeout(time.Second)
	if err != nil {
		t.Fatalf("post-forget recv: %v", err)
	}
	if string(pkt.Payload) != "fresh" {
		t.Errorf("payload = %q", pkt.Payload)
	}
}

func TestCloseUnblocksSendAndRecv(t *testing.T) {
	n := netsim.New(netsim.Perfect, netsim.WithSeed(10))
	defer n.Close()
	ta, _ := n.Attach(ident.New(1))
	a := New(ta, Config{RetryTimeout: time.Hour, MaxRetries: 100})

	sendDone := make(chan error, 1)
	go func() {
		sendDone <- a.Send(ident.New(99), wire.PktEvent, nil)
	}()
	recvDone := make(chan error, 1)
	go func() {
		_, err := a.Recv()
		recvDone <- err
	}()
	time.Sleep(30 * time.Millisecond)
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	for i, ch := range []chan error{sendDone, recvDone} {
		select {
		case err := <-ch:
			if !errors.Is(err, ErrClosed) {
				t.Errorf("op %d err = %v", i, err)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("op %d did not unblock on close", i)
		}
	}
	if err := a.Send(ident.New(5), wire.PktEvent, nil); !errors.Is(err, ErrClosed) {
		t.Errorf("send after close: %v", err)
	}
	if err := a.SendUnreliable(ident.New(5), wire.PktBeacon, nil); !errors.Is(err, ErrClosed) {
		t.Errorf("unreliable send after close: %v", err)
	}
}

func TestCorruptedDatagramsIgnored(t *testing.T) {
	n := netsim.New(netsim.Perfect, netsim.WithSeed(11))
	defer n.Close()
	raw, _ := n.Attach(ident.New(50))
	tb, _ := n.Attach(ident.New(2))
	b := New(tb, fastCfg())
	defer b.Close()

	// Inject garbage straight onto the transport.
	if err := raw.Send(tb.LocalID(), []byte("not a packet")); err != nil {
		t.Fatal(err)
	}
	if _, err := b.RecvTimeout(80 * time.Millisecond); !errors.Is(err, transport.ErrTimeout) {
		t.Errorf("garbage surfaced: %v", err)
	}
}

func TestStaleAckCounted(t *testing.T) {
	n := netsim.New(netsim.Perfect, netsim.WithSeed(12))
	defer n.Close()
	raw, _ := n.Attach(ident.New(50))
	tb, _ := n.Attach(ident.New(2))
	b := New(tb, fastCfg())
	defer b.Close()

	ack := &wire.Packet{Type: wire.PktAck, Sender: ident.New(50), Seq: 999}
	buf, _ := ack.MarshalBytes()
	if err := raw.Send(tb.LocalID(), buf); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(time.Second)
	for time.Now().Before(deadline) {
		if b.Stats().StaleAcks == 1 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Error("stale ack not counted")
}

// Property: under arbitrary loss+duplication, N sends yield exactly N
// in-order deliveries (the §II-C contract) as long as the retry budget
// is never exhausted.
func TestDeliverySemanticsProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("property test skipped in -short")
	}
	for seed := int64(0); seed < 5; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			p := netsim.Profile{Name: "chaos", Loss: 0.3, Duplicate: 0.3}
			a, b := pair(t, p, seed, Config{
				RetryTimeout:    15 * time.Millisecond,
				MaxRetryTimeout: 80 * time.Millisecond,
				MaxRetries:      30,
			})
			const count = 40
			done := make(chan []byte, 1)
			go func() {
				var got []byte
				for len(got) < count {
					pkt, err := b.RecvTimeout(20 * time.Second)
					if err != nil {
						break
					}
					got = append(got, pkt.Payload[0])
				}
				done <- got
			}()
			for i := 0; i < count; i++ {
				if err := a.Send(b.LocalID(), wire.PktEvent, []byte{byte(i)}); err != nil {
					t.Fatalf("send %d: %v", i, err)
				}
			}
			got := <-done
			if len(got) != count {
				t.Fatalf("delivered %d, want %d", len(got), count)
			}
			for i := range got {
				if got[i] != byte(i) {
					t.Fatalf("position %d = %d (order/dup violation)", i, got[i])
				}
			}
		})
	}
}

// TestGiveUpHorizonHeldForMeasuredDestination: a destination whose
// round trips have been timed retransmits sooner than RetryTimeout, but
// a black hole must still take as long to fail as the fixed schedule
// did: 20+40+40+40 ms for three rounds from a 20 ms timeout capped at
// 40 ms.
func TestGiveUpHorizonHeldForMeasuredDestination(t *testing.T) {
	sw := transport.NewSwitch()
	defer sw.Close()
	ta, _ := sw.Attach(ident.New(1))
	recvID := ident.New(2)
	tb, _ := sw.Attach(recvID)
	cfg := Config{RetryTimeout: 20 * time.Millisecond, MaxRetryTimeout: 40 * time.Millisecond, MaxRetries: 3}
	a, b := New(ta, cfg), New(tb, cfg)
	defer a.Close()
	defer b.Close()
	for i := 0; i < 20; i++ {
		if err := a.Send(recvID, wire.PktEvent, []byte{byte(i)}); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
		pkt, err := b.RecvTimeout(time.Second)
		if err != nil {
			t.Fatal(err)
		}
		pkt.Release()
	}
	sw.SetDeliveryHook(func(from, to ident.ID, data []byte) (bool, time.Duration) {
		return to == recvID, 0
	})
	before := a.Stats().Retransmits
	const horizon = 140 * time.Millisecond
	start := time.Now()
	err := a.Send(recvID, wire.PktEvent, []byte("lost"))
	elapsed := time.Since(start)
	if !errors.Is(err, ErrGaveUp) {
		t.Fatalf("send into a black hole: %v, want ErrGaveUp", err)
	}
	if elapsed < horizon {
		t.Errorf("gave up after %v, want ≥ %v", elapsed, horizon)
	}
	st := a.Stats()
	if n := st.Retransmits - before; n < uint64(cfg.MaxRetries) {
		t.Errorf("%d retransmit rounds before giving up, want ≥ %d", n, cfg.MaxRetries)
	}
	// The rounds' backoff ends with the give-up: the next stream starts
	// from the measured RTO (the floor on this switch), not from the
	// backed-off cap.
	if rto := time.Duration(st.MaxRTOMicros) * time.Microsecond; rto >= cfg.MaxRetryTimeout {
		t.Errorf("RTO after giving up = %v, want the measured one below %v", rto, cfg.MaxRetryTimeout)
	}
}
