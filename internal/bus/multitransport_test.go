package bus

import (
	"testing"
	"time"

	"github.com/amuse/smc/internal/event"
	"github.com/amuse/smc/internal/ident"
	"github.com/amuse/smc/internal/wire"
)

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
