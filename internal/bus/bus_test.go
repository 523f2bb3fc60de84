package bus

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/amuse/smc/internal/bootstrap"
	"github.com/amuse/smc/internal/client"
	"github.com/amuse/smc/internal/event"
	"github.com/amuse/smc/internal/ident"
	"github.com/amuse/smc/internal/matcher"
	"github.com/amuse/smc/internal/netsim"
	"github.com/amuse/smc/internal/reliable"
	"github.com/amuse/smc/internal/wire"
)

const busID = 0x1000

func testCfg() reliable.Config {
	return reliable.Config{
		RetryTimeout:    20 * time.Millisecond,
		MaxRetryTimeout: 100 * time.Millisecond,
		MaxRetries:      20,
	}
}

// rig is a bus plus its simulated network.
type rig struct {
	net *netsim.Network
	bus *Bus
}

func newRig(t *testing.T, opts ...Option) *rig {
	t.Helper()
	return newRigOver(t, matcher.NewFast(), opts...)
}

// newRigOver is newRig with the matching mechanism of the caller's
// choice.
func newRigOver(t *testing.T, m matcher.Matcher, opts ...Option) *rig {
	t.Helper()
	r := newStoppedRig(t, m, opts...)
	r.bus.Start()
	return r
}

// newStoppedRig leaves Start to the caller, for what must be installed
// on the bus before it runs.
func newStoppedRig(t *testing.T, m matcher.Matcher, opts ...Option) *rig {
	t.Helper()
	n := netsim.New(netsim.Perfect, netsim.WithSeed(21))
	tr, err := n.Attach(ident.New(busID))
	if err != nil {
		t.Fatal(err)
	}
	b := New(reliable.New(tr, testCfg()), m, bootstrap.NewRegistry(), opts...)
	t.Cleanup(func() {
		b.Close()
		n.Close()
	})
	return &rig{net: n, bus: b}
}

// member attaches a raw reliable channel and registers it as a member.
func (r *rig) member(t *testing.T, id uint64, deviceType string) *reliable.Channel {
	t.Helper()
	tr, err := r.net.Attach(ident.New(id))
	if err != nil {
		t.Fatal(err)
	}
	ch := reliable.New(tr, testCfg())
	t.Cleanup(func() { ch.Close() })
	if err := r.bus.AddMember(ident.New(id), deviceType, "dev"); err != nil {
		t.Fatal(err)
	}
	return ch
}

func publish(t *testing.T, ch *reliable.Channel, e *event.Event) {
	t.Helper()
	e.Sender = ch.LocalID()
	if err := ch.Send(ident.New(busID), wire.PktEvent, wire.EncodeEvent(e)); err != nil {
		t.Fatalf("publish: %v", err)
	}
}

func subscribe(t *testing.T, ch *reliable.Channel, f *event.Filter) {
	t.Helper()
	if err := ch.Send(ident.New(busID), wire.PktSubscribe, wire.EncodeFilter(f)); err != nil {
		t.Fatalf("subscribe: %v", err)
	}
}

// waitForSubs blocks until the bus's matcher holds n installed filters:
// a subscribe Send returns on the channel-level ack, before the bus has
// processed the packet, so tests that publish immediately after
// subscribing must wait for installation.
func waitForSubs(t *testing.T, b *Bus, n int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for b.match.SubscriptionCount() < n {
		if time.Now().After(deadline) {
			t.Fatalf("subscriptions = %d, want %d", b.match.SubscriptionCount(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// packetEvents decodes every event a PktEvent packet carries: the bare
// payload, or — for a coalesced delivery (wire.FlagBatch) — each frame
// in order.
func packetEvents(pkt *wire.Packet) ([]*event.Event, error) {
	if pkt.Flags&wire.FlagBatch == 0 {
		e, err := wire.DecodeEvent(pkt.Payload)
		return []*event.Event{e}, err
	}
	r, err := wire.NewBatchReader(pkt.Payload)
	if err != nil {
		return nil, err
	}
	var out []*event.Event
	for r.More() {
		frame, err := r.Next()
		if err != nil {
			return nil, err
		}
		e, err := wire.DecodeEvent(frame)
		if err != nil {
			return nil, err
		}
		out = append(out, e)
	}
	return out, nil
}

// unread holds events a raw test receiver unpacked from a coalesced
// packet but has not handed out yet, per channel.
var unread = struct {
	sync.Mutex
	m map[*reliable.Channel][]*event.Event
}{m: make(map[*reliable.Channel][]*event.Event)}

func expectEvent(t *testing.T, ch *reliable.Channel, timeout time.Duration) *event.Event {
	t.Helper()
	unread.Lock()
	events := unread.m[ch]
	unread.Unlock()
	deadline := time.Now().Add(timeout)
	for len(events) == 0 {
		remain := time.Until(deadline)
		if remain <= 0 {
			t.Fatal("no event delivered")
		}
		pkt, err := ch.RecvTimeout(remain)
		if err != nil {
			t.Fatalf("recv: %v", err)
		}
		if pkt.Type != wire.PktEvent {
			continue
		}
		if events, err = packetEvents(pkt); err != nil {
			t.Fatalf("decode: %v", err)
		}
	}
	unread.Lock()
	unread.m[ch] = events[1:]
	unread.Unlock()
	return events[0]
}

func TestBusRoutesToRemoteSubscriber(t *testing.T) {
	r := newRig(t)
	pub := r.member(t, 1, "generic")
	sub := r.member(t, 2, "generic")
	subscribe(t, sub, event.NewFilter().WhereType("alarm"))
	waitForSubs(t, r.bus, 1)

	publish(t, pub, event.NewTyped("alarm").SetInt("v", 5))
	e := expectEvent(t, sub, 2*time.Second)
	if e.Type() != "alarm" || e.Sender != pub.LocalID() {
		t.Errorf("event = %s", e)
	}
	// Published counts the two members' New Member events as well.
	for deadline := time.Now().Add(2 * time.Second); r.bus.Stats().Published < 3 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	st := r.bus.Stats()
	if st.Published != 3 || st.Matched != 1 || st.EnqueuedRemote != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestBusIgnoresNonMembers(t *testing.T) {
	r := newRig(t)
	tr, _ := r.net.Attach(ident.New(66))
	outsider := reliable.New(tr, testCfg())
	defer outsider.Close()

	e := event.NewTyped("alarm")
	e.Sender = outsider.LocalID()
	if err := outsider.Send(ident.New(busID), wire.PktEvent, wire.EncodeEvent(e)); err != nil {
		t.Fatalf("send: %v", err)
	}
	deadline := time.Now().Add(time.Second)
	for time.Now().Before(deadline) {
		if r.bus.Stats().NonMember > 0 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Error("non-member traffic not counted")
}

func TestLocalPubSub(t *testing.T) {
	r := newRig(t)
	a := r.bus.Local("svc-a")
	b := r.bus.Local("svc-b")
	if a.ID() == b.ID() {
		t.Fatal("local IDs collide")
	}
	if got := r.bus.Local("svc-a"); got != a {
		t.Error("Local not idempotent by name")
	}

	var mu sync.Mutex
	var got []*event.Event
	err := b.Subscribe(event.NewFilter().WhereType("tick"), func(e *event.Event) {
		mu.Lock()
		got = append(got, e)
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Publish(event.NewTyped("tick").SetInt("n", 1)); err != nil {
		t.Fatal(err)
	}
	if err := a.Publish(event.NewTyped("tock")); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(time.Second)
	for time.Now().Before(deadline) {
		mu.Lock()
		n := len(got)
		mu.Unlock()
		if n >= 1 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 1 || got[0].Type() != "tick" {
		t.Fatalf("got %v", got)
	}
	if got[0].Sender != a.ID() || got[0].Seq != 1 {
		t.Errorf("origin = %s/%d", got[0].Sender, got[0].Seq)
	}
}

func TestLocalUnsubscribe(t *testing.T) {
	r := newRig(t)
	svc := r.bus.Local("svc")
	f := event.NewFilter().WhereType("x")
	calls := 0
	var mu sync.Mutex
	remove, err := svc.Handle(f, func(*event.Event) { mu.Lock(); calls++; mu.Unlock() })
	if err != nil {
		t.Fatal(err)
	}
	if err := remove(); err != nil {
		t.Fatal(err)
	}
	if err := svc.Publish(event.NewTyped("x")); err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond)
	mu.Lock()
	defer mu.Unlock()
	if calls != 0 {
		t.Errorf("handler called %d times after unsubscribe", calls)
	}
}

func TestPerSenderFIFOEndToEnd(t *testing.T) {
	r := newRig(t)
	pub := r.member(t, 1, "generic")
	sub := r.member(t, 2, "generic")
	subscribe(t, sub, event.NewFilter().WhereType("seq"))
	waitForSubs(t, r.bus, 1)

	const count = 30
	for i := 0; i < count; i++ {
		publish(t, pub, event.NewTyped("seq").SetInt("n", int64(i)))
	}
	for i := 0; i < count; i++ {
		e := expectEvent(t, sub, 5*time.Second)
		v, _ := e.Get("n")
		if n, _ := v.Int(); n != int64(i) {
			t.Fatalf("position %d got n=%d", i, n)
		}
	}
}

func TestRemoveMemberDiscardsQueue(t *testing.T) {
	r := newRig(t)
	pub := r.member(t, 1, "generic")
	subID := ident.New(2)
	// Member 2 exists but is unreachable (never attached to the net):
	// deliveries stall in its proxy queue.
	if err := r.bus.AddMember(subID, "generic", "ghost"); err != nil {
		t.Fatal(err)
	}
	if err := r.bus.match.Subscribe(subID, event.NewFilter().WhereType("x")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		publish(t, pub, event.NewTyped("x").SetInt("n", int64(i)))
	}
	// Wait for the events to reach the proxy.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if px := r.bus.MemberProxy(subID); px != nil && px.Stats().Enqueued == 5 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	px := r.bus.MemberProxy(subID)
	if px == nil {
		t.Fatal("no proxy")
	}
	r.bus.RemoveMember(subID, "test")
	if got := r.bus.MemberProxy(subID); got != nil {
		t.Error("proxy survives removal")
	}
	st := px.Stats()
	if st.DiscardedOnPurge == 0 && st.Delivered > 0 {
		t.Errorf("purge did not discard queue: %+v", st)
	}
	if len(r.bus.Members()) != 1 {
		t.Errorf("members = %v", r.bus.Members())
	}
}

func TestDuplicateMemberRejected(t *testing.T) {
	r := newRig(t)
	r.member(t, 1, "generic")
	if err := r.bus.AddMember(ident.New(1), "generic", "again"); err == nil {
		t.Error("duplicate member accepted")
	}
}

func TestRemoteUnsubscribeStopsDelivery(t *testing.T) {
	r := newRig(t)
	pub := r.member(t, 1, "generic")
	sub := r.member(t, 2, "generic")
	f := event.NewFilter().WhereType("x")
	subscribe(t, sub, f)
	waitForSubs(t, r.bus, 1)

	publish(t, pub, event.NewTyped("x").SetInt("n", 1))
	expectEvent(t, sub, 2*time.Second)

	if err := sub.Send(ident.New(busID), wire.PktUnsubscribe, wire.EncodeFilter(f)); err != nil {
		t.Fatal(err)
	}
	// Give the unsubscribe time to process, then publish again.
	time.Sleep(100 * time.Millisecond)
	publish(t, pub, event.NewTyped("x").SetInt("n", 2))
	if pkt, err := sub.RecvTimeout(200 * time.Millisecond); err == nil && pkt.Type == wire.PktEvent {
		t.Error("delivery after unsubscribe")
	}
}

type denyAll struct{}

func (denyAll) AuthorizePublish(ident.ID, string, *event.Event) error {
	return errors.New("denied")
}
func (denyAll) AuthorizeSubscribe(ident.ID, string, *event.Filter) error {
	return errors.New("denied")
}

func TestAuthorizerBlocksPublishAndSubscribe(t *testing.T) {
	r := newStoppedRig(t, matcher.NewFast())
	r.bus.SetAuthorizer(denyAll{})
	r.bus.Start()
	m := r.member(t, 1, "generic")
	subscribe(t, m, event.NewFilter().WhereType("x")) // acked but denied
	publish(t, m, event.NewTyped("x"))

	deadline := time.Now().Add(time.Second)
	for time.Now().Before(deadline) {
		if r.bus.Stats().AuthDenied >= 2 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st := r.bus.Stats(); st.AuthDenied < 2 {
		t.Errorf("AuthDenied = %d, want 2", st.AuthDenied)
	}
	if r.bus.match.SubscriptionCount() != 0 {
		t.Error("denied subscription installed")
	}
}

// TestAuthorizerBlocksTranslatedData: device data a member sends as
// PktData is translated into events by its proxy and published on its
// behalf — through the same authorisation as a PktEvent publish. A
// generic member's PktData payload is simply an encoded event, so
// without the gate it is a way round any publish rule.
func TestAuthorizerBlocksTranslatedData(t *testing.T) {
	r := newStoppedRig(t, matcher.NewFast())
	r.bus.SetAuthorizer(denyAll{})
	var dispatched atomic.Int64
	if err := r.bus.Local("watch").Subscribe(event.NewFilter().WhereType("actuate"), func(*event.Event) {
		dispatched.Add(1)
	}); err != nil {
		t.Fatal(err)
	}
	r.bus.Start()
	c := client.New(r.member(t, 1, "generic"), ident.New(busID))
	if err := c.PublishRaw(wire.EncodeEvent(event.NewTyped("actuate").SetStr("command", "shock"))); err != nil {
		t.Fatal(err) // acked by the hop; the refusal is the bus's
	}

	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) && (r.bus.Stats().AuthDenied == 0 || r.bus.Stats().Published == 0) && dispatched.Load() == 0 {
		time.Sleep(5 * time.Millisecond)
	}
	// The one publish is the member's New Member.
	st := r.bus.Stats()
	if st.AuthDenied != 1 || st.Published != 1 || dispatched.Load() != 0 {
		t.Errorf("AuthDenied = %d, Published = %d, dispatched = %d; want 1, 1, 0",
			st.AuthDenied, st.Published, dispatched.Load())
	}
	if px := r.bus.MemberProxy(ident.New(1)); px.Stats().TranslatedIn != 1 {
		t.Errorf("TranslatedIn = %d, want 1: the data never reached the proxy", px.Stats().TranslatedIn)
	}
}

func TestQuenchAndUnquench(t *testing.T) {
	r := newRig(t, WithQuench(true))
	pub := r.member(t, 1, "generic")

	// No subscribers: the publisher gets quenched.
	publish(t, pub, event.NewTyped("lonely"))
	var quenched bool
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		pkt, err := pub.RecvTimeout(100 * time.Millisecond)
		if err == nil && pkt.Type == wire.PktQuench {
			quenched = true
			break
		}
	}
	if !quenched {
		t.Fatal("no quench received")
	}

	// A new subscription unquenches.
	sub := r.member(t, 2, "generic")
	subscribe(t, sub, event.NewFilter().WhereType("lonely"))
	var unquenched bool
	deadline = time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		pkt, err := pub.RecvTimeout(100 * time.Millisecond)
		if err == nil && pkt.Type == wire.PktUnquench {
			unquenched = true
			break
		}
	}
	if !unquenched {
		t.Fatal("no unquench received")
	}
	st := r.bus.Stats()
	if st.Quenches != 1 || st.Unquenches != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestCloseIsIdempotentAndStopsProcessing(t *testing.T) {
	n := netsim.New(netsim.Perfect, netsim.WithSeed(30))
	defer n.Close()
	tr, _ := n.Attach(ident.New(busID))
	b := New(reliable.New(tr, testCfg()), matcher.NewFast(), bootstrap.NewRegistry())
	b.Start()
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
	if err := b.AddMember(ident.New(5), "generic", "x"); !errors.Is(err, errClosed) {
		t.Errorf("AddMember after close: %v", err)
	}
	if err := b.Local("x").Publish(event.New()); !errors.Is(err, errClosed) {
		t.Errorf("publish after close: %v", err)
	}
}

func TestBusReportsMatcherName(t *testing.T) {
	r := newRig(t)
	if r.bus.MatcherName() != "fast" {
		t.Errorf("name = %s", r.bus.MatcherName())
	}
	if r.bus.ID() != ident.New(busID) {
		t.Errorf("ID = %s", r.bus.ID())
	}
}

// slowMatcher stalls the shard worker in every match.
type slowMatcher struct {
	matcher.Matcher
	d time.Duration
}

func (m slowMatcher) MatchAppendScratch(e *event.Event, dst []ident.ID, sc *matcher.Scratch) []ident.ID {
	time.Sleep(m.d)
	return m.Matcher.MatchAppendScratch(e, dst, sc)
}

// TestDroppedCounterDistinguishesOverload floods a one-slot queue
// behind a slow matcher: queue-full sheds must land in Stats.Dropped,
// not BadPackets, so overload stays distinguishable from corruption.
func TestDroppedCounterDistinguishesOverload(t *testing.T) {
	r := newRigOver(t, slowMatcher{matcher.NewFast(), 10 * time.Millisecond},
		WithShards(1),
		WithQueueDepth(1),
	)
	pub := r.member(t, 1, "generic")
	for i := 0; i < 20; i++ {
		publish(t, pub, event.NewTyped("flood").SetInt("n", int64(i)))
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if r.bus.Stats().Dropped > 0 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	st := r.bus.Stats()
	if st.Dropped == 0 {
		t.Fatal("overload did not increment Dropped")
	}
	if st.BadPackets != 0 {
		t.Errorf("overload counted as BadPackets (%d)", st.BadPackets)
	}
}
