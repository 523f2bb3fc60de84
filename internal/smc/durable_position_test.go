package smc_test

import (
	"testing"
	"time"

	"github.com/amuse/smc/internal/netsim"
	"github.com/amuse/smc/internal/smc"
)

// TestDurablePositionCoversHeldEvent pins DurablePosition's contract
// on every delivery of a long replay: by the time Events() has handed
// the application an event, the resume position already covers it. A
// position read right after a receive must never trail the event just
// received — an application that persists it and restarts would be
// sent that event again.
func TestDurablePositionCoversHeldEvent(t *testing.T) {
	net := netsim.New(netsim.Perfect, netsim.WithSeed(29))
	defer net.Close()
	newTestCell(t, net, durableCellConfig())

	pub, err := smc.JoinCell(attach(t, net, 0x25001), smc.DeviceConfig{
		Type: "generic", Name: "publisher", Secret: testSecret,
	})
	if err != nil {
		t.Fatalf("join publisher: %v", err)
	}
	defer pub.Close()
	const n = 5000
	publishReadings(t, pub, 0, n)

	sub, err := smc.JoinCell(attach(t, net, 0x25002), smc.DeviceConfig{
		Type: "generic", Name: "replayer", Secret: testSecret,
		Durable: "replayer",
	})
	if err != nil {
		t.Fatalf("join subscriber: %v", err)
	}
	defer sub.Leave()
	if err := sub.Client.Subscribe(readingFilter()); err != nil {
		t.Fatalf("subscribe: %v", err)
	}
	timeout := time.After(60 * time.Second)
	for i := 0; i < n; i++ {
		select {
		case e := <-sub.Client.Events():
			if pos := sub.Client.DurablePosition(); pos.Cursor < e.Cursor {
				t.Fatalf("delivery %d: position %d trails the held event's cursor %d", i, pos.Cursor, e.Cursor)
			}
			v, _ := e.Get("n")
			if got, _ := v.Int(); got != int64(i) {
				t.Fatalf("delivery %d: n=%d (dup, loss or reorder)", i, got)
			}
			e.Release()
		case <-timeout:
			t.Fatalf("%d of %d replayed events", i, n)
		}
	}
}
