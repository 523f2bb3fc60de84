package smc_test

import (
	"sync/atomic"
	"testing"
	"time"

	"github.com/amuse/smc/internal/event"
	"github.com/amuse/smc/internal/netsim"
	"github.com/amuse/smc/internal/smc"
)

// TestMembershipSurvivesStalledCell: a device joins while every shard
// of the cell is held and every shard queue is full. Its New Member
// waits for room instead of being shed, so once the stall clears the
// obligation scoped to its device type deploys and fires on its next
// reading.
func TestMembershipSurvivesStalledCell(t *testing.T) {
	net := netsim.New(netsim.Perfect, netsim.WithSeed(91))
	defer net.Close()
	cfg := defaultCellConfig()
	cfg.PolicyText = `obligation hr-high for "hr-sensor" {
  on type = "reading"
  do publish(type = "alarm")
}`
	cell := newTestCell(t, net, cfg)
	// One New Member and one alarm are expected: each handler signals
	// into a channel with room for exactly that one.
	newMember, alarm := make(chan struct{}, 1), make(chan struct{}, 1)
	watch := cell.Bus.Local("watch")
	if err := watch.Subscribe(event.NewFilter().WhereType(event.TypeNewMember), func(*event.Event) { newMember <- struct{}{} }); err != nil {
		t.Fatal(err)
	}
	if err := watch.Subscribe(event.NewFilter().WhereType("alarm"), func(*event.Event) { alarm <- struct{}{} }); err != nil {
		t.Fatal(err)
	}

	release := smc.StallShards(t, cell.Bus)
	dev, err := smc.JoinCell(attach(t, net, 0x20001), smc.DeviceConfig{
		Type: "hr-sensor", Name: "hr", Secret: testSecret,
	})
	if err != nil {
		t.Fatalf("join: %v", err)
	}
	defer dev.Close()
	release()

	select {
	case <-newMember:
	case <-time.After(5 * time.Second):
		t.Fatal("New Member never arrived")
	}
	if n := cell.Discovery.Stats().EmitFailures; n != 0 {
		t.Fatalf("EmitFailures = %d", n)
	}
	// The policy engine's handler for the same event may still be
	// running: wait for it to deploy the obligation.
	for deadline := time.Now().Add(5 * time.Second); !deployed(cell, "hr-high"); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("scoped obligation never deployed")
		}
	}
	if err := dev.Client.Publish(event.NewTyped("reading").SetFloat("value", 190)); err != nil {
		t.Fatal(err)
	}
	select {
	case <-alarm:
	case <-time.After(5 * time.Second):
		t.Fatal("scoped obligation did not fire")
	}
}

func deployed(cell *smc.Cell, name string) bool {
	for _, p := range cell.Policy.Obligations() {
		if p.Name == name {
			return p.Deployed
		}
	}
	return false
}

// TestFederationImportWaitsOutStalledHome: the home cell's shards are
// held for longer than the 64 × 2 ms the import pump once retried for.
// The pump waits for room instead of dropping: no import is lost, and
// every one lands after the release.
func TestFederationImportWaitsOutStalledHome(t *testing.T) {
	net := netsim.New(netsim.Perfect, netsim.WithSeed(83))
	defer net.Close()
	newNamedCell(t, net, "patient-8", 0x140000)
	home := newNamedCell(t, net, "ward-8", 0x150000)
	link, err := smc.Federate(home, attach(t, net, 0x160001), smc.FederateConfig{
		Name:         "ward8-gw",
		RemoteSecret: testSecret,
		RemoteCell:   "patient-8",
		Import:       event.NewFilter().WhereType("alarm"),
	})
	if err != nil {
		t.Fatalf("federate: %v", err)
	}
	defer link.Close()

	const n = 8
	var landed atomic.Int64
	all := make(chan struct{})
	if err := home.Bus.Local("observer").Subscribe(event.NewFilter().WhereType("alarm"), func(*event.Event) {
		if landed.Add(1) == n {
			close(all)
		}
	}); err != nil {
		t.Fatal(err)
	}
	dev, err := smc.JoinCell(attach(t, net, 0x160002), smc.DeviceConfig{
		Type: "generic", Name: "hr-monitor", Secret: testSecret, Cell: "patient-8",
	})
	if err != nil {
		t.Fatalf("join patient cell: %v", err)
	}
	defer dev.Close()

	release := smc.StallShards(t, home.Bus)
	for i := 0; i < n; i++ {
		if err := dev.Client.Publish(event.NewTyped("alarm").SetInt("n", int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(300 * time.Millisecond) // the stall outlasts the old retry budget
	if got := landed.Load(); got != 0 {
		t.Fatalf("%d imports landed on a stalled home cell", got)
	}
	release()
	select {
	case <-all:
	case <-time.After(5 * time.Second):
		t.Fatalf("%d of %d imports landed after the release (stats %+v)", landed.Load(), n, link.Stats())
	}
	if st := link.Stats(); st.Dropped != 0 || st.Imported != n {
		t.Errorf("link stats = %+v", st)
	}
}
