package proxy

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/amuse/smc/internal/event"
	"github.com/amuse/smc/internal/ident"
	"github.com/amuse/smc/internal/netsim"
	"github.com/amuse/smc/internal/reliable"
	"github.com/amuse/smc/internal/wire"
)

// asyncRecorder is a scripted AsyncSender: it records every send and,
// while holding, leaves the completions unresolved — a stalled member —
// until release settles them.
type asyncRecorder struct {
	mu      sync.Mutex
	sends   []recordedSend
	holding bool
	pending []*reliable.Completion
}

type recordedSend struct {
	ptype   wire.PacketType
	batched bool
	payload []byte
}

func (r *asyncRecorder) record(ptype wire.PacketType, batched bool, payload []byte) *reliable.Completion {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sends = append(r.sends, recordedSend{ptype, batched, append([]byte(nil), payload...)})
	comp := reliable.NewCompletion()
	if r.holding {
		r.pending = append(r.pending, comp)
	} else {
		comp.Resolve(nil)
	}
	return comp
}

func (r *asyncRecorder) Send(dst ident.ID, ptype wire.PacketType, payload []byte) error {
	return r.SendAsync(dst, ptype, payload).Wait()
}

func (r *asyncRecorder) SendAsync(_ ident.ID, ptype wire.PacketType, payload []byte) *reliable.Completion {
	return r.record(ptype, false, payload)
}

func (r *asyncRecorder) SendBatchAsync(_ ident.ID, ptype wire.PacketType, payload []byte) *reliable.Completion {
	return r.record(ptype, true, payload)
}

// release stops holding and settles everything in flight with err.
func (r *asyncRecorder) release(err error) {
	r.mu.Lock()
	pending := r.pending
	r.pending, r.holding = nil, false
	r.mu.Unlock()
	for _, c := range pending {
		c.Resolve(err)
	}
}

func (r *asyncRecorder) snapshot() []recordedSend {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]recordedSend(nil), r.sends...)
}

// delivery is one unpacked frame of a recorded send.
type delivery struct {
	ptype  wire.PacketType
	cursor uint64 // durable deliveries only
	n      int64  // the event's "n" attribute; the raw byte for PktData
}

// unpack splits a recorded send into its deliveries, checking on the
// way that a batch is framed as its packet type says.
func (s recordedSend) unpack(t *testing.T) []delivery {
	t.Helper()
	one := func(payload []byte) delivery {
		d := delivery{ptype: s.ptype}
		switch s.ptype {
		case wire.PktData:
			d.n = int64(payload[0])
			return d
		case wire.PktEventDurable:
			var err error
			if d.cursor, payload, err = wire.SplitDurableEvent(payload); err != nil {
				t.Fatalf("split durable: %v", err)
			}
		}
		e, err := wire.DecodeEvent(payload)
		if err != nil {
			t.Fatalf("decode %s: %v", s.ptype, err)
		}
		v, _ := e.Get("n")
		d.n, _ = v.Int()
		return d
	}
	if !s.batched {
		return []delivery{one(s.payload)}
	}
	r, err := wire.NewBatchReader(s.payload)
	if err != nil {
		t.Fatalf("batch: %v", err)
	}
	var out []delivery
	for r.More() {
		frame, err := r.Next()
		if err != nil {
			t.Fatalf("batch frame: %v", err)
		}
		out = append(out, one(frame))
	}
	return out
}

func numbered(n int64) *event.Event {
	e := event.NewTyped("x").SetInt("n", n)
	e.Sender, e.Seq = ident.New(7), uint64(n)
	e.Stamp = time.Unix(1234, 0)
	return e
}

// TestIdleProxySendsPlainSingleEvent: coalescing is opportunistic, so a
// lone event on an idle proxy goes out at once, as exactly one packet
// that is byte-identical to the uncoalesced form — no FlagBatch, no
// framing, no wait.
func TestIdleProxySendsPlainSingleEvent(t *testing.T) {
	rec := &asyncRecorder{}
	p := New(ident.New(9), &GenericDevice{}, rec, nil, Config{})
	p.Start()
	defer p.Purge()

	e := numbered(1)
	want := wire.AppendEvent(nil, e)
	start := time.Now()
	p.Enqueue(e)
	waitFor(t, 2*time.Second, func() bool { return p.Stats().Delivered == 1 })
	if d := time.Since(start); d > 500*time.Millisecond {
		t.Errorf("lone event took %v: the default must not wait for a fuller batch", d)
	}
	sends := rec.snapshot()
	if len(sends) != 1 {
		t.Fatalf("%d packets for one event", len(sends))
	}
	if s := sends[0]; s.batched || s.ptype != wire.PktEvent || !bytes.Equal(s.payload, want) {
		t.Errorf("send = batched:%v %s % x, want the plain event encoding", s.batched, s.ptype, s.payload)
	}
	if st := p.Stats(); st.Batches != 0 || st.BatchedEvents != 0 {
		t.Errorf("batch counters moved for a lone event: %+v", st)
	}
}

// TestBurstBehindStalledSenderCoalesces: a burst queued behind a
// stalled member goes out in runs capped by both BatchEvents and
// BatchBytes, in FIFO order, every event exactly once — and when the
// member's channel gives up, the redelivery re-sends byte-identical
// payloads (what lets the reliable layer resume the original sequence
// numbers) before anything new.
func TestBurstBehindStalledSenderCoalesces(t *testing.T) {
	const count = 100
	for _, tc := range []struct {
		name    string
		pad     int // bytes of ballast per event
		giveUp  bool
		perPkt  int // expected deliveries in a full packet
		packets int // expected packets for the burst
	}{
		{"event-cap", 0, false, 16, 7},
		{"byte-cap", 1000, false, 7, 15},
		{"give-up-redelivery", 0, true, 16, 7},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec := &asyncRecorder{holding: true}
			p := New(ident.New(9), &GenericDevice{}, rec, nil,
				Config{RedeliveryInterval: 5 * time.Millisecond, Pipeline: 4})
			// The burst is queued before the worker starts, so the runs
			// it gathers are deterministic.
			pad := strings.Repeat("p", tc.pad)
			for i := 1; i <= count; i++ {
				p.Enqueue(numbered(int64(i)).SetStr("pad", pad))
			}
			p.Start()
			defer p.Purge()

			// Pipeline=4 packets go out and stall.
			waitFor(t, 2*time.Second, func() bool { return len(rec.snapshot()) == 4 })
			stalled := rec.snapshot()
			if tc.giveUp {
				rec.release(fmt.Errorf("%w: scripted", reliable.ErrGaveUp))
			} else {
				rec.release(nil)
			}
			waitFor(t, 5*time.Second, func() bool { return p.Stats().Delivered == count })

			sends := rec.snapshot()
			if tc.giveUp {
				// The four failed packets come again first, unchanged.
				for i, s := range stalled {
					re := sends[len(stalled)+i]
					if re.ptype != s.ptype || re.batched != s.batched || !bytes.Equal(re.payload, s.payload) {
						t.Fatalf("redelivery %d is not byte-identical to the failed send", i)
					}
				}
				if st := p.Stats(); st.Redeliveries != uint64(len(stalled)) {
					t.Errorf("Redeliveries = %d, want %d", st.Redeliveries, len(stalled))
				}
				sends = sends[len(stalled):] // what the member accepted
			}
			if len(sends) != tc.packets {
				t.Errorf("%d packets, want %d", len(sends), tc.packets)
			}
			next := int64(1)
			for i, s := range sends {
				ds := s.unpack(t)
				if len(ds) > 16 || len(s.payload) > 8<<10 {
					t.Fatalf("packet %d: %d events, %d bytes — over a cap", i, len(ds), len(s.payload))
				}
				if i < len(sends)-1 && len(ds) != tc.perPkt {
					t.Errorf("packet %d carries %d events, want %d", i, len(ds), tc.perPkt)
				}
				if s.batched != (len(ds) > 1) {
					t.Errorf("packet %d: batched=%v with %d events", i, s.batched, len(ds))
				}
				for _, d := range ds {
					if d.n != next {
						t.Fatalf("packet %d: event %d where %d was due (loss, dup or reorder)", i, d.n, next)
					}
					next++
				}
			}
			if next != count+1 {
				t.Fatalf("deliveries end at %d, want %d", next-1, count)
			}
			st := p.Stats()
			if st.Batches == 0 || st.BatchedEvents == 0 || st.DroppedOldest != 0 {
				t.Errorf("stats = %+v", st)
			}
		})
	}
}

// TestMixedQueueKeepsOrderAndNeverMixesTypes: live events, durable
// deliveries and device-native data queued interleaved keep their FIFO
// order; a batch holds one packet type only, and device data is never
// batched at all.
func TestMixedQueueKeepsOrderAndNeverMixesTypes(t *testing.T) {
	rec := &asyncRecorder{}
	p := New(ident.New(9), translatingDevice{}, rec, nil, Config{})

	// L = live event, D = durable delivery (cursor), C = device data.
	const script = "LLLDDDDLCCLLDLDDCLLLLLLLLLLLLLLLLLLLLDD"
	var want []delivery
	for i, k := range script {
		n := int64(i + 1)
		e := numbered(n)
		var cursor uint64
		switch k {
		case 'L':
			want = append(want, delivery{ptype: wire.PktEvent, n: n})
		case 'D':
			cursor = uint64(1000 + i)
			want = append(want, delivery{ptype: wire.PktEventDurable, cursor: cursor, n: n})
		case 'C':
			e.SetStr(event.AttrType, "cmd") // translatingDevice → PktData 0xC0
			want = append(want, delivery{ptype: wire.PktData, n: 0xC0})
		}
		p.EnqueueAt(e, cursor)
	}
	p.Start()
	defer p.Purge()
	waitFor(t, 2*time.Second, func() bool { return p.Stats().Delivered == uint64(len(script)) })

	var got []delivery
	batches := map[wire.PacketType]int{}
	for i, s := range rec.snapshot() {
		ds := s.unpack(t) // decodes every frame as s.ptype: a mixed batch fails here
		if s.ptype == wire.PktData && (s.batched || len(ds) != 1) {
			t.Fatalf("packet %d: device data was coalesced", i)
		}
		if len(ds) > 16 {
			t.Fatalf("packet %d: %d events", i, len(ds))
		}
		if s.batched {
			batches[s.ptype]++
		}
		got = append(got, ds...)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("deliveries\n got %v\nwant %v", got, want)
	}
	if batches[wire.PktEvent] == 0 || batches[wire.PktEventDurable] == 0 {
		t.Errorf("batches per type = %v, want both live and durable runs coalesced", batches)
	}
}

// TestCoalescingOffSendsOnePacketPerEvent: BatchEvents=1 is the off
// switch — the pipelined loop still runs, every event travels alone.
func TestCoalescingOffSendsOnePacketPerEvent(t *testing.T) {
	rec := &asyncRecorder{}
	p := New(ident.New(9), &GenericDevice{}, rec, nil, Config{BatchEvents: 1})
	for i := 1; i <= 40; i++ {
		p.Enqueue(numbered(int64(i)))
	}
	p.Start()
	defer p.Purge()
	waitFor(t, 2*time.Second, func() bool { return p.Stats().Delivered == 40 })
	sends := rec.snapshot()
	if len(sends) != 40 {
		t.Fatalf("%d packets for 40 events", len(sends))
	}
	for i, s := range sends {
		if s.batched {
			t.Fatalf("packet %d is a batch with coalescing off", i)
		}
	}
}

// TestFlushDelayWaitsForFullerBatch: a positive FlushDelay keeps the
// flush-on-deadline behaviour — a trickle arriving inside the delay is
// gathered into one batch instead of going out event by event.
func TestFlushDelayWaitsForFullerBatch(t *testing.T) {
	rec := &asyncRecorder{}
	p := New(ident.New(9), &GenericDevice{}, rec, nil,
		Config{BatchEvents: 4, FlushDelay: 2 * time.Second})
	p.Start()
	defer p.Purge()
	for i := 1; i <= 4; i++ {
		p.Enqueue(numbered(int64(i)))
		time.Sleep(5 * time.Millisecond) // idle gaps: opportunistic would send singles
	}
	waitFor(t, time.Second, func() bool { return p.Stats().Delivered == 4 })
	sends := rec.snapshot()
	if len(sends) != 1 || !sends[0].batched || len(sends[0].unpack(t)) != 4 {
		t.Fatalf("sends = %d (first batched: %v), want one batch of 4 cut by size",
			len(sends), len(sends) > 0 && sends[0].batched)
	}
}

// TestCoalescedRedeliveryExactlyOnce is TestPipelinedRedeliveryExactlyOnce
// with batches in flight when the member walks out of range: the real
// reliable channel gives up on whole batches, the proxy re-sends them
// byte-identical, the channel resumes their sequence numbers instead of
// resetting the stream, and every ping arrives exactly once, in order.
func TestCoalescedRedeliveryExactlyOnce(t *testing.T) {
	n := netsim.New(netsim.WiFi, netsim.WithSeed(4))
	ta, err := n.Attach(ident.New(1))
	if err != nil {
		t.Fatal(err)
	}
	tb, err := n.Attach(ident.New(2))
	if err != nil {
		t.Fatal(err)
	}
	rcfg := reliable.Config{
		RetryTimeout:    15 * time.Millisecond,
		MaxRetryTimeout: 60 * time.Millisecond,
		MaxRetries:      3,
		Window:          8,
	}
	sender, member := reliable.New(ta, rcfg), reliable.New(tb, rcfg)
	px := New(ident.New(2), &GenericDevice{}, sender, nil,
		Config{RedeliveryInterval: 25 * time.Millisecond, Pipeline: 4})
	t.Cleanup(func() {
		px.Purge()
		sender.Close()
		member.Close()
		n.Close()
	})

	const count = 100
	n.Isolate(ident.New(2))
	for i := 1; i <= count; i++ {
		px.Enqueue(pingEvent(int64(i)))
	}
	px.Start()                         // first gathers are full batches, sent into the void
	time.Sleep(300 * time.Millisecond) // several give-up/redeliver cycles
	n.Restore(ident.New(2))

	got := recvPings(t, member, count, 15*time.Second)
	if len(got) != count {
		t.Fatalf("delivered %d/%d", len(got), count)
	}
	for i, v := range got {
		if v != int64(i+1) {
			t.Fatalf("position %d = %d (dup, loss or reorder): %v", i, v, got)
		}
	}
	if extra := recvPings(t, member, 1, 200*time.Millisecond); len(extra) != 0 {
		t.Errorf("duplicate delivery: %v", extra)
	}
	if st := px.Stats(); st.Redeliveries == 0 || st.Batches == 0 {
		t.Errorf("proxy stats = %+v, want batches redelivered", st)
	}
	if st := sender.Stats(); st.Resumed == 0 || st.StreamResets != 0 || st.BatchesSent == 0 {
		t.Errorf("channel stats = %+v, want resumed batches and no stream reset", st)
	}
}
