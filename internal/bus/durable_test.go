package bus

import (
	"sync"
	"testing"
	"time"

	"github.com/amuse/smc/internal/client"
	"github.com/amuse/smc/internal/event"
	"github.com/amuse/smc/internal/ident"
	"github.com/amuse/smc/internal/matcher"
	"github.com/amuse/smc/internal/proxy"
	"github.com/amuse/smc/internal/reliable"
	"github.com/amuse/smc/internal/store"
	"github.com/amuse/smc/internal/wire"
)

// newDurableRig is a running bus with a memory-backed durable log.
func newDurableRig(t *testing.T, opts ...Option) *rig {
	t.Helper()
	l, err := store.Open(store.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return newRig(t, append([]Option{WithDurableLog(l)}, opts...)...)
}

// durableClient joins a member at id and binds it, through the client
// library, to the durable consumer name from its start.
func (r *rig) durableClient(t *testing.T, id uint64, name string) *client.Client {
	t.Helper()
	c := client.New(r.member(t, id, "generic"), ident.New(busID), client.WithDurable(name, client.DurablePosition{}))
	t.Cleanup(func() { c.Close() })
	return c
}

// publishN publishes readings n = [from, to) from a local service.
func publishN(t *testing.T, svc *LocalService, from, to int) {
	t.Helper()
	for i := from; i < to; i++ {
		if err := svc.Publish(event.NewTyped("reading").SetInt("n", int64(i))); err != nil {
			t.Errorf("publish %d: %v", i, err)
			return
		}
	}
}

// consumer resolves a durable consumer by name.
func (b *Bus) consumer(name string) *durableState {
	b.durMu.Lock()
	defer b.durMu.Unlock()
	return b.durables[name]
}

// waitDurable polls until the named consumer exists and is attached
// (or detached, with attached false).
func waitDurable(t *testing.T, b *Bus, name string, attached bool) *durableState {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if ds := b.consumer(name); ds != nil && (ds.attached.Load() != nil) == attached {
			return ds
		}
		if time.Now().After(deadline) {
			t.Fatalf("consumer %q never became attached=%v", name, attached)
		}
		time.Sleep(time.Millisecond)
	}
}

// readDurable takes n events from c and checks they are readings
// from, from+1, … with strictly ascending cursors.
func readDurable(t *testing.T, c *client.Client, from, n int) (last uint64) {
	t.Helper()
	for i := 0; i < n; i++ {
		e, err := c.NextEvent(20 * time.Second)
		if err != nil {
			t.Fatalf("after %d of %d events: %v", i, n, err)
		}
		v, _ := e.Get("n")
		got, _ := v.Int()
		if got != int64(from+i) || e.Cursor <= last {
			t.Fatalf("delivery %d: n=%d cursor %d after %d, want n=%d (loss, dup or reorder)", i, got, e.Cursor, last, from+i)
		}
		last = e.Cursor
		e.Release()
	}
	return last
}

// waitLogged polls until the durable log's newest cursor is n.
func waitLogged(t *testing.T, b *Bus, n uint64) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); b.DurableLog().Stats().NewestCursor != n; {
		if time.Now().After(deadline) {
			t.Fatalf("log holds %d records, want %d", b.DurableLog().Stats().NewestCursor, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// expectQuiet fails if c receives anything within d.
func expectQuiet(t *testing.T, c *client.Client, d time.Duration) {
	t.Helper()
	if e, err := c.NextEvent(d); err == nil {
		t.Fatalf("unexpected delivery: %v (cursor %d)", e, e.Cursor)
	}
}

// TestDurableHandOverUnderLoad: a consumer binds behind a 2 000-record
// backlog while publishing continues. Its walker catches up and hands
// over to the appending shards at the tail: every reading arrives
// exactly once and in cursor order across the hand-over, the consumer
// ends attached, and its proxy never sheds.
func TestDurableHandOverUnderLoad(t *testing.T) {
	r := newDurableRig(t)
	svc := r.bus.Local("pub")
	const backlog, live = 2000, 2000
	publishN(t, svc, 0, backlog)

	c := r.durableClient(t, 0x31, "handover")
	if err := c.Subscribe(event.NewFilter().WhereType("reading")); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := backlog; i < backlog+live; i += 100 {
			publishN(t, svc, i, i+100)
			time.Sleep(time.Millisecond)
		}
	}()
	readDurable(t, c, 0, backlog+live)
	<-done
	waitDurable(t, r.bus, "handover", true)
	expectQuiet(t, c, 100*time.Millisecond)
	if st := r.bus.MemberProxy(ident.New(0x31)).Stats(); st.DroppedOldest != 0 {
		t.Fatalf("proxy shed %d durable deliveries", st.DroppedOldest)
	}
	if _, rows := r.bus.LogReport(); len(rows) != 1 || rows[0].Lag != 0 {
		t.Fatalf("LogReport rows = %+v, want one consumer at lag 0", rows)
	}
}

// stallSender is a scripted AsyncSender for a member whose link can
// stall: while holding, completions stay unresolved — the member has
// stopped acknowledging — until release settles them. Every send is
// recorded for the test to unpack.
type stallSender struct {
	mu      sync.Mutex
	holding bool
	pending []*reliable.Completion
	sends   []stalledSend
}

type stalledSend struct {
	ptype   wire.PacketType
	batched bool
	payload []byte
}

func (s *stallSender) record(ptype wire.PacketType, batched bool, payload []byte) *reliable.Completion {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sends = append(s.sends, stalledSend{ptype, batched, append([]byte(nil), payload...)})
	comp := reliable.NewCompletion()
	if s.holding {
		s.pending = append(s.pending, comp)
	} else {
		comp.Resolve(nil)
	}
	return comp
}

func (s *stallSender) Send(dst ident.ID, ptype wire.PacketType, payload []byte) error {
	return s.SendAsync(dst, ptype, payload).Wait()
}

func (s *stallSender) SendAsync(_ ident.ID, ptype wire.PacketType, payload []byte) *reliable.Completion {
	return s.record(ptype, false, payload)
}

func (s *stallSender) SendBatchAsync(_ ident.ID, ptype wire.PacketType, payload []byte) *reliable.Completion {
	return s.record(ptype, true, payload)
}

func (s *stallSender) hold() {
	s.mu.Lock()
	s.holding = true
	s.mu.Unlock()
}

func (s *stallSender) release() {
	s.mu.Lock()
	pending := s.pending
	s.pending, s.holding = nil, false
	s.mu.Unlock()
	for _, c := range pending {
		c.Resolve(nil)
	}
}

// readings unpacks every durable delivery sent so far into its cursor
// and its reading number, in send order.
func (s *stallSender) readings(t *testing.T) (cursors []uint64, ns []int64) {
	t.Helper()
	s.mu.Lock()
	sends := append([]stalledSend(nil), s.sends...)
	s.mu.Unlock()
	for _, snd := range sends {
		if snd.ptype != wire.PktEventDurable {
			continue
		}
		frames := [][]byte{snd.payload}
		if snd.batched {
			frames = frames[:0]
			br, err := wire.NewBatchReader(snd.payload)
			if err != nil {
				t.Fatal(err)
			}
			for br.More() {
				f, err := br.Next()
				if err != nil {
					t.Fatal(err)
				}
				frames = append(frames, f)
			}
		}
		for _, f := range frames {
			cursor, body, err := wire.SplitDurableEvent(f)
			if err != nil {
				t.Fatal(err)
			}
			e, err := wire.DecodeEvent(body)
			if err != nil {
				t.Fatal(err)
			}
			v, _ := e.Get("n")
			n, _ := v.Int()
			cursors, ns = append(cursors, cursor), append(ns, n)
		}
	}
	return cursors, ns
}

// bindDurable binds member id to the durable consumer name and
// subscribes it to f, as the member's resume and subscribe packets
// would.
func bindDurable(b *Bus, id ident.ID, name string, f *event.Filter) {
	b.handleDurableResume(&wire.Packet{Type: wire.PktDurableResume, Sender: id,
		Payload: wire.AppendDurableResume(nil, wire.DurableResume{Name: name})})
	b.handleSubscriptionPacket(&wire.Packet{Type: wire.PktSubscribe, Sender: id,
		Payload: wire.EncodeFilter(f)})
}

// TestDurableParkToCursor drives an attached consumer's proxy queue to
// high water by stalling its member's link. The appending shard must
// detach it in front of the record that found the queue full — parked
// at its cursor, nothing shed, no shard blocked — and once the link
// recovers the walker must deliver the rest in order and exactly once
// and hand back to the shards.
func TestDurableParkToCursor(t *testing.T) {
	r := newDurableRig(t, withProxyConfig(proxy.Config{QueueCap: 64}))
	id := ident.New(0x41)
	snd := &stallSender{}
	if err := r.bus.addMember(id, "generic", "stall", snd); err != nil {
		t.Fatal(err)
	}
	bindDurable(r.bus, id, "stall", event.NewFilter().WhereType("reading"))
	waitDurable(t, r.bus, "stall", true)
	waitLogged(t, r.bus, 1) // the member's New Member
	svc := r.bus.Local("pub")

	publishN(t, svc, 0, 10)
	snd.hold()
	const stalled = 1000
	publishN(t, svc, 10, 10+stalled)
	waitDurable(t, r.bus, "stall", false)
	if r.bus.Stats().DurableParks == 0 {
		t.Fatal("consumer detached without a park counted")
	}
	// The shards carried on past the stalled member: every publish
	// reaches the log while the link is still stalled.
	waitLogged(t, r.bus, 1+10+stalled)

	snd.release()
	publishN(t, svc, 10+stalled, 10+stalled+100)
	const total = 10 + stalled + 100
	deadline := time.Now().Add(20 * time.Second)
	for {
		cursors, ns := snd.readings(t)
		if len(ns) >= total {
			for i := range ns {
				if ns[i] != int64(i) || cursors[i] != uint64(i+2) {
					t.Fatalf("delivery %d: n=%d cursor %d (loss, dup or reorder)", i, ns[i], cursors[i])
				}
			}
			if len(ns) != total {
				t.Fatalf("%d deliveries, want %d", len(ns), total)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d deliveries after the stall", len(ns), total)
		}
		time.Sleep(5 * time.Millisecond)
	}
	waitDurable(t, r.bus, "stall", true)
	if st := r.bus.MemberProxy(id).Stats(); st.DroppedOldest != 0 {
		t.Fatalf("proxy shed %d durable deliveries", st.DroppedOldest)
	}
}

// TestDurableLastFilterRemovedWhileAttached: unsubscribing an attached
// consumer's last filter detaches it where it stands. It must not
// advance while it has no filters, so what is published meanwhile
// arrives, in order, once it subscribes again.
func TestDurableLastFilterRemovedWhileAttached(t *testing.T) {
	r := newDurableRig(t)
	svc := r.bus.Local("pub")
	f := event.NewFilter().WhereType("reading")
	c := r.durableClient(t, 0x51, "unsub")
	if err := c.Subscribe(f); err != nil {
		t.Fatal(err)
	}
	publishN(t, svc, 0, 20)
	last := readDurable(t, c, 0, 20)
	ds := waitDurable(t, r.bus, "unsub", true)

	if err := c.Unsubscribe(f); err != nil {
		t.Fatal(err)
	}
	waitDurable(t, r.bus, "unsub", false)
	at := ds.delivered.Load()
	if at != last {
		t.Fatalf("detached at cursor %d, want %d", at, last)
	}
	publishN(t, svc, 20, 70)
	expectQuiet(t, c, 100*time.Millisecond)
	if got := ds.delivered.Load(); got != at {
		t.Fatalf("consumer advanced from %d to %d with no filters", at, got)
	}

	if err := c.Subscribe(f); err != nil {
		t.Fatal(err)
	}
	readDurable(t, c, 20, 50)
	waitDurable(t, r.bus, "unsub", true)
}

// TestDurableSubscribeBetweenMatchAndAppend: a shard matches an event
// before an attached consumer's new filter reaches the matcher, and
// appends it after. The match does not name the consumer, yet its
// filters now want the event; the append hook must see that a durable
// filter changed in between and hand the record to the walker instead
// of skipping it.
func TestDurableSubscribeBetweenMatchAndAppend(t *testing.T) {
	r := newDurableRig(t)
	c := r.durableClient(t, 0x61, "between")
	if err := c.Subscribe(event.NewFilter().WhereType("a")); err != nil {
		t.Fatal(err)
	}
	ds := waitDurable(t, r.bus, "between", true)

	// A shard of its own, so the running shards' scratch is untouched.
	w := &shardWorker{b: r.bus, sc: matcher.NewScratch(), ctr: r.bus.ctl()}
	e := event.NewTyped("b").SetInt("n", 7)
	gen := r.bus.durGen.Load()
	w.targets = r.bus.match.MatchAppendScratch(e, nil, w.sc)
	if len(w.targets) != 0 {
		t.Fatalf("match named %v before the subscribe", w.targets)
	}
	if err := c.Subscribe(event.NewFilter().WhereType("b")); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); r.bus.durGen.Load() == gen; {
		if time.Now().After(deadline) {
			t.Fatal("subscribe never reached the consumer")
		}
		time.Sleep(time.Millisecond)
	}
	if ds.attached.Load() == nil {
		t.Fatal("consumer detached by the subscribe itself")
	}
	if !r.bus.appendDurable(w, e, gen) {
		t.Fatal("append suppressed")
	}
	got, err := c.NextEvent(5 * time.Second)
	if err != nil {
		t.Fatalf("the record appended across the subscribe never arrived: %v", err)
	}
	v, _ := got.Get("n")
	if n, _ := v.Int(); got.Type() != "b" || n != 7 {
		t.Fatalf("got %v", got)
	}
	waitDurable(t, r.bus, "between", true)
}

// sinkSender is a member link that acknowledges everything at once.
type sinkSender struct{}

func (sinkSender) Send(ident.ID, wire.PacketType, []byte) error { return nil }

func (sinkSender) SendAsync(ident.ID, wire.PacketType, []byte) *reliable.Completion {
	c := reliable.NewCompletion()
	c.Resolve(nil)
	return c
}

func (s sinkSender) SendBatchAsync(dst ident.ID, ptype wire.PacketType, payload []byte) *reliable.Completion {
	return s.SendAsync(dst, ptype, payload)
}

// attachDurableSink binds a member on a sinkSender link to a durable
// consumer subscribed to f and waits until it is attached.
func attachDurableSink(tb testing.TB, b *Bus, id ident.ID, f *event.Filter) {
	tb.Helper()
	if err := b.addMember(id, "generic", "sink", sinkSender{}); err != nil {
		tb.Fatal(err)
	}
	bindDurable(b, id, id.String(), f)
	for deadline := time.Now().Add(5 * time.Second); b.durableFor(id).attached.Load() == nil; {
		if time.Now().After(deadline) {
			tb.Fatal("durable sink never attached")
		}
		time.Sleep(time.Millisecond)
	}
}
