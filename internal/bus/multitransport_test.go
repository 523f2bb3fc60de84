package bus

import (
	"testing"
	"time"

	"github.com/amuse/smc/internal/bootstrap"
	"github.com/amuse/smc/internal/event"
	"github.com/amuse/smc/internal/ident"
	"github.com/amuse/smc/internal/matcher"
	"github.com/amuse/smc/internal/netsim"
	"github.com/amuse/smc/internal/reliable"
	"github.com/amuse/smc/internal/wire"
)

// TestMemberOnSecondTransport realises §III-B's per-proxy transport: a
// diagnostic device lives on a separate (Ethernet-like) network while
// the body sensors use the wireless one. The bus holds one endpoint on
// each network; the diagnostic member's proxy sends through the second
// endpoint, and its inbound packets are routed to the bus via
// AttachChannel.
func TestMemberOnSecondTransport(t *testing.T) {
	wireless := netsim.New(netsim.Perfect, netsim.WithSeed(31))
	defer wireless.Close()
	ethernet := netsim.New(netsim.Perfect, netsim.WithSeed(32))
	defer ethernet.Close()

	// The bus's main endpoint on the wireless segment.
	busWTr, err := wireless.Attach(ident.New(busID))
	if err != nil {
		t.Fatal(err)
	}
	b := New(reliable.New(busWTr, testCfg()), matcher.NewFast(), bootstrap.NewRegistry())
	b.Start()
	defer b.Close()

	// A second bus endpoint on the Ethernet segment.
	busETr, err := ethernet.Attach(ident.New(busID + 1))
	if err != nil {
		t.Fatal(err)
	}
	ethCh := reliable.New(busETr, testCfg())
	b.AttachChannel(ethCh)

	// A wireless member (subscriber).
	wsubTr, err := wireless.Attach(ident.New(0x21))
	if err != nil {
		t.Fatal(err)
	}
	wsub := reliable.New(wsubTr, testCfg())
	defer wsub.Close()
	if err := b.AddMember(wsub.LocalID(), "generic", "body-sensor"); err != nil {
		t.Fatal(err)
	}
	if err := wsub.Send(ident.New(busID), wire.PktSubscribe,
		wire.EncodeFilter(event.NewFilter().WhereType("diagnostic"))); err != nil {
		t.Fatal(err)
	}
	// The subscribe ack is channel-level: wait for the bus to install
	// the filter before publishing, or the event matches nothing.
	waitForSubs(t, b, 1)

	// The diagnostic device on Ethernet, proxied via the second
	// channel.
	diagTr, err := ethernet.Attach(ident.New(0xE1))
	if err != nil {
		t.Fatal(err)
	}
	diag := reliable.New(diagTr, testCfg())
	defer diag.Close()
	if err := b.AddMemberVia(diag.LocalID(), "generic", "diagnostic-station", ethCh); err != nil {
		t.Fatal(err)
	}

	// Ethernet → wireless: the diagnostic device publishes (to the
	// bus's Ethernet endpoint); the wireless subscriber receives.
	e := event.NewTyped("diagnostic").SetStr("result", "ok")
	e.Sender = diag.LocalID()
	if err := diag.Send(ident.New(busID+1), wire.PktEvent, wire.EncodeEvent(e)); err != nil {
		t.Fatalf("publish over ethernet: %v", err)
	}
	got := expectEvent(t, wsub, 5*time.Second)
	if got.Type() != "diagnostic" || got.Sender != diag.LocalID() {
		t.Errorf("event = %s", got)
	}

	// Wireless → Ethernet: the diagnostic station subscribes and
	// receives a wireless publish through its own transport.
	if err := diag.Send(ident.New(busID+1), wire.PktSubscribe,
		wire.EncodeFilter(event.NewFilter().WhereType("vitals"))); err != nil {
		t.Fatal(err)
	}
	waitForSubs(t, b, 2)
	v := event.NewTyped("vitals").SetFloat("hr", 71)
	v.Sender = wsub.LocalID()
	if err := wsub.Send(ident.New(busID), wire.PktEvent, wire.EncodeEvent(v)); err != nil {
		t.Fatal(err)
	}
	got = expectEvent(t, diag, 5*time.Second)
	if got.Type() != "vitals" {
		t.Errorf("event = %s", got)
	}
}

// TestUnreliableDataPath covers the NoAck periodic-sensor style: data
// packets flagged NoAck still reach the member's proxy for
// translation.
func TestUnreliableDataPath(t *testing.T) {
	r := newRig(t)
	pub := r.member(t, 1, "generic")
	sub := r.member(t, 2, "generic")
	subscribe(t, sub, event.NewFilter().WhereType("periodic"))

	// Generic proxy translates PktData payloads as encoded events.
	e := event.NewTyped("periodic").SetFloat("v", 36.6)
	e.Sender = pub.LocalID()
	e.Seq = 1
	if err := pub.SendUnreliable(ident.New(busID), wire.PktData, wire.EncodeEvent(e)); err != nil {
		t.Fatal(err)
	}
	got := expectEvent(t, sub, 5*time.Second)
	if got.Type() != "periodic" {
		t.Errorf("event = %s", got)
	}
	if got.Sender != pub.LocalID() {
		t.Errorf("sender = %s (proxy must stamp the member)", got.Sender)
	}
}

func TestAttachChannelAfterCloseClosesIt(t *testing.T) {
	n := netsim.New(netsim.Perfect, netsim.WithSeed(33))
	defer n.Close()
	tr, _ := n.Attach(ident.New(busID))
	b := New(reliable.New(tr, testCfg()), matcher.NewFast(), bootstrap.NewRegistry())
	b.Start()
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	tr2, _ := n.Attach(ident.New(busID + 7))
	ch := reliable.New(tr2, testCfg())
	b.AttachChannel(ch)
	// The channel was closed by the refused attach.
	if err := ch.Send(ident.New(1), wire.PktEvent, nil); err == nil {
		t.Error("channel usable after attach-on-closed-bus")
	}
}
