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

// tortureCfg gives the retransmission machinery enough budget to
// survive the netsim.Torture profile.
func tortureCfg(window int) Config {
	return Config{
		RetryTimeout:    15 * time.Millisecond,
		MaxRetryTimeout: 100 * time.Millisecond,
		MaxRetries:      40,
		Window:          window,
		QueueDepth:      8192,
	}
}

// TestTortureFIFOAtMostOnce drives concurrent senders through loss,
// duplication and reordering at every window size and asserts the
// §II-C contract end to end: every packet delivered exactly once, in
// per-sender order.
func TestTortureFIFOAtMostOnce(t *testing.T) {
	perSender := 60
	if testing.Short() {
		perSender = 25
	}
	for _, window := range []int{1, 4, 16} {
		window := window
		t.Run(fmt.Sprintf("window=%d", window), func(t *testing.T) {
			t.Parallel()
			const senders = 2
			n := netsim.New(netsim.Torture, netsim.WithSeed(int64(100+window)))
			defer n.Close()

			rt, err := n.Attach(ident.New(999))
			if err != nil {
				t.Fatal(err)
			}
			recv := New(rt, tortureCfg(window))
			defer recv.Close()

			chans := make([]*Channel, senders)
			for i := range chans {
				tr, err := n.Attach(ident.New(uint64(i + 1)))
				if err != nil {
					t.Fatal(err)
				}
				chans[i] = New(tr, tortureCfg(window))
				defer chans[i].Close()
			}

			// Collect deliveries until every stream is complete.
			got := make(map[ident.ID][]byte)
			recvDone := make(chan error, 1)
			go func() {
				for count := 0; count < senders*perSender; count++ {
					pkt, err := recv.RecvTimeout(30 * time.Second)
					if err != nil {
						recvDone <- fmt.Errorf("after %d deliveries: %w", count, err)
						return
					}
					got[pkt.Sender] = append(got[pkt.Sender], pkt.Payload[0])
				}
				recvDone <- nil
			}()

			// Each sender pipelines its stream with SendAsync, keeping
			// up to 2×window completions outstanding.
			var wg sync.WaitGroup
			errs := make(chan error, senders)
			for i, c := range chans {
				wg.Add(1)
				go func(i int, c *Channel) {
					defer wg.Done()
					var pending []*Completion
					for k := 0; k < perSender; k++ {
						pending = append(pending,
							c.SendAsync(recv.LocalID(), wire.PktEvent, []byte{byte(k)}))
						if len(pending) > 2*window {
							if err := pending[0].Wait(); err != nil {
								errs <- fmt.Errorf("sender %d packet: %w", i, err)
								return
							}
							pending = pending[1:]
						}
					}
					for _, p := range pending {
						if err := p.Wait(); err != nil {
							errs <- fmt.Errorf("sender %d drain: %w", i, err)
							return
						}
					}
				}(i, c)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
			if err := <-recvDone; err != nil {
				t.Fatal(err)
			}

			for id, seq := range got {
				if len(seq) != perSender {
					t.Errorf("sender %s: delivered %d, want %d", id, len(seq), perSender)
				}
				for k := range seq {
					if seq[k] != byte(k) {
						t.Fatalf("sender %s: position %d = %d (FIFO/at-most-once violated): %v",
							id, k, seq[k], seq)
					}
				}
			}
			if st := recv.Stats(); st.Buffered == 0 {
				t.Logf("note: no reordering absorbed (stats %+v)", st)
			}
		})
	}
}

// TestTortureForgetRejoin checks that a Forget on both sides restarts
// a clean stream even while stragglers of the old stream are still in
// the network: the surviving epoch floor keeps old packets out.
func TestTortureForgetRejoin(t *testing.T) {
	n := netsim.New(netsim.Torture, netsim.WithSeed(7))
	defer n.Close()
	ta, err := n.Attach(ident.New(1))
	if err != nil {
		t.Fatal(err)
	}
	tb, err := n.Attach(ident.New(2))
	if err != nil {
		t.Fatal(err)
	}
	a, b := New(ta, tortureCfg(8)), New(tb, tortureCfg(8))
	defer a.Close()
	defer b.Close()

	const phase = 20
	runPhase := func(tag byte) {
		t.Helper()
		var pending []*Completion
		for k := 0; k < phase; k++ {
			pending = append(pending, a.SendAsync(b.LocalID(), wire.PktEvent, []byte{tag, byte(k)}))
		}
		for k, p := range pending {
			if err := p.Wait(); err != nil {
				t.Fatalf("phase %d send %d: %v", tag, k, err)
			}
		}
		for k := 0; k < phase; k++ {
			pkt, err := b.RecvTimeout(30 * time.Second)
			if err != nil {
				t.Fatalf("phase %d recv %d: %v", tag, k, err)
			}
			if pkt.Payload[0] != tag || pkt.Payload[1] != byte(k) {
				t.Fatalf("phase %d position %d: got [%d %d]", tag, k, pkt.Payload[0], pkt.Payload[1])
			}
		}
	}

	runPhase(1)
	// Purge and rejoin immediately: duplicates of phase-1 packets may
	// still be drifting through the torture link.
	a.Forget(b.LocalID())
	b.Forget(a.LocalID())
	runPhase(2)

	// The new stream must have opened under a fresh epoch.
	if st := a.Stats(); st.Failures != 0 {
		t.Errorf("unexpected failures: %+v", st)
	}
	// No phase-1 stragglers may surface later.
	if pkt, err := b.RecvTimeout(300 * time.Millisecond); err == nil {
		t.Errorf("straggler surfaced after rejoin: % x", pkt.Payload)
	}
}

// TestWindowPipeliningFillsTheLink asserts the point of the window:
// with in-flight capacity, N sends over a latency link complete far
// faster than N round trips.
func TestWindowPipeliningFillsTheLink(t *testing.T) {
	p := netsim.Profile{Name: "latency", Latency: 5 * time.Millisecond}
	n := netsim.New(p, netsim.WithSeed(3))
	defer n.Close()
	ta, _ := n.Attach(ident.New(1))
	tb, _ := n.Attach(ident.New(2))
	cfg := fastCfg()
	cfg.Window = 8
	a, b := New(ta, cfg), New(tb, cfg)
	defer a.Close()
	defer b.Close()

	go func() {
		for {
			if _, err := b.Recv(); err != nil {
				return
			}
		}
	}()

	const count = 24 // serial lower bound: 24 × 10 ms RTT = 240 ms
	start := time.Now()
	var pending []*Completion
	for k := 0; k < count; k++ {
		pending = append(pending, a.SendAsync(b.LocalID(), wire.PktEvent, []byte{byte(k)}))
	}
	for _, c := range pending {
		if err := c.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if elapsed := time.Since(start); elapsed > 150*time.Millisecond {
		t.Errorf("24 pipelined sends took %v, want well under the 240 ms serial bound", elapsed)
	}
	if st := a.Stats(); st.Acked != count {
		t.Errorf("acked = %d, want %d", st.Acked, count)
	}
}

// TestResumeAfterGiveUpSuppressesDuplicate reproduces the homecare
// failure mode at the channel level: the packet is delivered but every
// ack is lost, the sender gives up, and the caller re-sends the same
// payload. The resume stash must reuse the original sequence number so
// the receiver suppresses the duplicate.
func TestResumeAfterGiveUpSuppressesDuplicate(t *testing.T) {
	n := netsim.New(netsim.Perfect, netsim.WithSeed(5))
	defer n.Close()
	ta, _ := n.Attach(ident.New(1))
	tb, _ := n.Attach(ident.New(2))
	cfg := Config{RetryTimeout: 15 * time.Millisecond, MaxRetries: 2}
	a, b := New(ta, cfg), New(tb, cfg)
	defer a.Close()
	defer b.Close()

	// Forward path fine, ack path dead.
	n.SetLinkProfile(tb.LocalID(), ta.LocalID(), netsim.Lossy(1.0))

	err := a.Send(b.LocalID(), wire.PktEvent, []byte("ping-3"))
	if !errors.Is(err, ErrGaveUp) {
		t.Fatalf("err = %v, want ErrGaveUp (acks are blocked)", err)
	}
	pkt, err := b.RecvTimeout(time.Second)
	if err != nil || string(pkt.Payload) != "ping-3" {
		t.Fatalf("first delivery: %v %v", pkt, err)
	}

	// Acks heal; the caller re-sends the identical payload — the
	// proxy redelivery loop's behaviour.
	n.SetLinkProfile(tb.LocalID(), ta.LocalID(), netsim.Perfect)
	if err := a.Send(b.LocalID(), wire.PktEvent, []byte("ping-3")); err != nil {
		t.Fatalf("resumed send: %v", err)
	}
	if st := a.Stats(); st.Resumed != 1 {
		t.Errorf("resumed = %d, want 1 (stats %+v)", st.Resumed, st)
	}
	// The receiver must NOT deliver it twice...
	if pkt, err := b.RecvTimeout(200 * time.Millisecond); err == nil {
		t.Fatalf("duplicate delivered: %s", pkt)
	}
	// ...and the stream must continue cleanly.
	if err := a.Send(b.LocalID(), wire.PktEvent, []byte("ping-4")); err != nil {
		t.Fatal(err)
	}
	if pkt, err := b.RecvTimeout(time.Second); err != nil || string(pkt.Payload) != "ping-4" {
		t.Fatalf("follow-up: %v %v", pkt, err)
	}
	if st := b.Stats(); st.DupsDropped == 0 {
		t.Errorf("no duplicate suppressed at receiver (stats %+v)", st)
	}
}

// TestStreamResetAfterDivergentResend: when the caller abandons a
// failed payload and sends different traffic, the stream restarts
// under a new epoch instead of stalling on the sequence gap.
func TestStreamResetAfterDivergentResend(t *testing.T) {
	n := netsim.New(netsim.Perfect, netsim.WithSeed(6))
	defer n.Close()
	ta, _ := n.Attach(ident.New(1))
	tb, _ := n.Attach(ident.New(2))
	cfg := Config{RetryTimeout: 15 * time.Millisecond, MaxRetries: 2}
	a, b := New(ta, cfg), New(tb, cfg)
	defer a.Close()
	defer b.Close()

	// Establish some history so the gap would be mid-stream.
	if err := a.Send(b.LocalID(), wire.PktEvent, []byte("one")); err != nil {
		t.Fatal(err)
	}
	if _, err := b.RecvTimeout(time.Second); err != nil {
		t.Fatal(err)
	}

	// Lose a packet entirely (both directions dead), give up.
	n.Partition(ta.LocalID(), tb.LocalID())
	if err := a.Send(b.LocalID(), wire.PktEvent, []byte("lost")); !errors.Is(err, ErrGaveUp) {
		t.Fatalf("err = %v, want ErrGaveUp", err)
	}
	n.Heal(ta.LocalID(), tb.LocalID())

	// Different traffic follows: stream must reset and flow.
	if err := a.Send(b.LocalID(), wire.PktEvent, []byte("after")); err != nil {
		t.Fatalf("post-reset send: %v", err)
	}
	pkt, err := b.RecvTimeout(time.Second)
	if err != nil || string(pkt.Payload) != "after" {
		t.Fatalf("post-reset recv: %v %v", pkt, err)
	}
	if st := a.Stats(); st.StreamResets != 1 {
		t.Errorf("stream resets = %d, want 1", st.StreamResets)
	}
}

// TestCloseWakesAllPendingSenders covers the shutdown fix: concurrent
// Sends blocked on an unreachable destination must resolve promptly
// with ErrClosed, not linger until their retry budget expires.
func TestCloseWakesAllPendingSenders(t *testing.T) {
	n := netsim.New(netsim.Perfect, netsim.WithSeed(8))
	defer n.Close()
	ta, _ := n.Attach(ident.New(1))
	a := New(ta, Config{RetryTimeout: time.Hour, MaxRetries: 100, Window: 4})

	const blocked = 12
	results := make(chan error, blocked)
	for i := 0; i < blocked; i++ {
		go func(i int) {
			// A mix of destinations: some share a queue, some don't;
			// ops beyond the window sit untransmitted.
			dst := ident.New(uint64(50 + i%3))
			results <- a.Send(dst, wire.PktEvent, []byte{byte(i)})
		}(i)
	}
	time.Sleep(50 * time.Millisecond) // let the sends enqueue
	start := time.Now()
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < blocked; i++ {
		select {
		case err := <-results:
			if !errors.Is(err, ErrClosed) {
				t.Errorf("send %d err = %v, want ErrClosed", i, err)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("send %d still blocked %v after Close", i, time.Since(start))
		}
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("close-wakeup took %v", d)
	}
	// A send racing Close must fail cleanly too.
	if err := a.Send(ident.New(50), wire.PktEvent, nil); !errors.Is(err, ErrClosed) {
		t.Errorf("send after close: %v", err)
	}
}

// TestBacklogBound: SendAsync must fail fast once the per-destination
// backlog cap is reached rather than queueing without bound.
func TestBacklogBound(t *testing.T) {
	n := netsim.New(netsim.Perfect, netsim.WithSeed(9))
	defer n.Close()
	ta, _ := n.Attach(ident.New(1))
	a := New(ta, Config{RetryTimeout: time.Hour, MaxRetries: 100, Window: 2})
	defer a.Close()

	dst := ident.New(99) // unreachable: nothing ever completes
	for i := 0; i < maxPending; i++ {
		if comp := a.SendAsync(dst, wire.PktEvent, []byte{byte(i)}); comp == nil {
			t.Fatal("nil completion")
		}
	}
	if err := a.SendAsync(dst, wire.PktEvent, []byte{4}).Wait(); !errors.Is(err, errBacklog) {
		t.Errorf("overflow err = %v, want ErrBacklog", err)
	}
}

// TestSendAsyncFIFOCompletionOrder: completions resolve in enqueue
// order (cumulative acks cannot complete a later packet first).
func TestSendAsyncFIFOCompletionOrder(t *testing.T) {
	a, b := pair(t, netsim.Lossy(0.2), 11, fastCfg())
	const count = 30
	comps := make([]*Completion, count)
	for i := range comps {
		comps[i] = a.SendAsync(b.LocalID(), wire.PktEvent, []byte{byte(i)})
	}
	go func() {
		for {
			if _, err := b.Recv(); err != nil {
				return
			}
		}
	}()
	for i, c := range comps {
		if err := c.Wait(); err != nil {
			t.Fatalf("completion %d: %v", i, err)
		}
		// All earlier completions must already be resolved.
		for j := 0; j < i; j++ {
			select {
			case <-comps[j].Done():
			default:
				t.Fatalf("completion %d resolved before %d", i, j)
			}
		}
	}
}

// TestOversizeSendFailsFast: a packet over the transport MTU is
// permanently unsendable — it must fail immediately with the
// transport's ErrTooLarge instead of burning the retry budget, and
// the stream must keep flowing for subsequent packets.
func TestOversizeSendFailsFast(t *testing.T) {
	a, err := transport.NewUDPTransport()
	if err != nil {
		t.Skipf("UDP unavailable: %v", err)
	}
	b, err := transport.NewUDPTransport()
	if err != nil {
		t.Skipf("UDP unavailable: %v", err)
	}
	ca := New(a, Config{RetryTimeout: 200 * time.Millisecond, MaxRetries: 10})
	cb := New(b, Config{RetryTimeout: 200 * time.Millisecond, MaxRetries: 10})
	defer ca.Close()
	defer cb.Close()

	start := time.Now()
	err = ca.Send(b.LocalID(), wire.PktEvent, make([]byte, transport.MaxUDPDatagram+1))
	if !errors.Is(err, transport.ErrTooLarge) {
		t.Fatalf("err = %v, want ErrTooLarge", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("oversize send took %v; should fail fast, not retry", d)
	}
	if err := ca.Send(b.LocalID(), wire.PktEvent, []byte("small")); err != nil {
		t.Fatalf("follow-up send: %v", err)
	}
	if pkt, err := cb.RecvTimeout(2 * time.Second); err != nil || string(pkt.Payload) != "small" {
		t.Fatalf("follow-up recv: %v %v", pkt, err)
	}
}
