package smc_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"github.com/amuse/smc/internal/discovery"
	"github.com/amuse/smc/internal/event"
	"github.com/amuse/smc/internal/matcher"
	"github.com/amuse/smc/internal/netsim"
	"github.com/amuse/smc/internal/sensor"
	"github.com/amuse/smc/internal/smc"
	"github.com/amuse/smc/internal/store"
)

func TestNewCellValidation(t *testing.T) {
	net := netsim.New(netsim.Perfect, netsim.WithSeed(201))
	defer net.Close()

	// Empty cell name.
	if _, err := smc.NewCell(attach(t, net, 1), attach(t, net, 2), smc.Config{
		Secret: testSecret,
	}); err == nil {
		t.Error("empty cell name accepted")
	}

	// Unknown matcher kind.
	if _, err := smc.NewCell(attach(t, net, 3), attach(t, net, 4), smc.Config{
		Cell: "c", Secret: testSecret, Matcher: matcher.Kind("bogus"),
	}); err == nil {
		t.Error("unknown matcher accepted")
	}

	// Broken policy text.
	if _, err := smc.NewCell(attach(t, net, 5), attach(t, net, 6), smc.Config{
		Cell: "c", Secret: testSecret, PolicyText: "obligation {",
	}); err == nil {
		t.Error("broken policy text accepted")
	}
}

// TestNewCellClosesLogOnFailure: a NewCell that fails after opening
// the durable log closes it, so the directory is left clean and the
// next open keeps the log's epoch — durable consumers keep their
// cursors.
func TestNewCellClosesLogOnFailure(t *testing.T) {
	dir := t.TempDir()
	log, err := store.Open(store.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	log.Append(event.NewTyped("x"), 0, false)
	epoch := log.Epoch()
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	net := netsim.New(netsim.Perfect, netsim.WithSeed(207))
	defer net.Close()
	cfg := defaultCellConfig()
	cfg.PolicyText = "obligation {"
	cfg.Durable = &store.Config{Dir: dir}
	if _, err := smc.NewCell(attach(t, net, 1), attach(t, net, 2), cfg); err == nil {
		t.Fatal("broken policy text accepted")
	}

	log, err = store.Open(store.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	if got := log.Epoch(); got != epoch {
		t.Errorf("epoch %d after the failed NewCell, want %d: the log was left open", got, epoch)
	}
}

func TestCellStartIsIdempotent(t *testing.T) {
	net := netsim.New(netsim.Perfect, netsim.WithSeed(202))
	defer net.Close()
	cell, err := smc.NewCell(attach(t, net, 1), attach(t, net, 2), defaultCellConfig())
	if err != nil {
		t.Fatal(err)
	}
	cell.Start()
	cell.Start() // second start is a no-op, not a crash
	if err := cell.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestJoinTimeoutWithoutCell(t *testing.T) {
	net := netsim.New(netsim.Perfect, netsim.WithSeed(203))
	defer net.Close()
	start := time.Now()
	_, err := smc.JoinCell(attach(t, net, 9), smc.DeviceConfig{
		Type: "generic", Name: "orphan", Secret: testSecret,
		JoinTimeout: 300 * time.Millisecond,
	})
	if !errors.Is(err, discovery.ErrNoCell) {
		t.Fatalf("err = %v", err)
	}
	if time.Since(start) > 2*time.Second {
		t.Error("join timeout not respected")
	}
}

// TestJoinRetryTinyBaseDelay: a sub-2ns BaseDelay has no room for
// jitter; the backoff must wait (next to) nothing, not panic.
func TestJoinRetryTinyBaseDelay(t *testing.T) {
	net := netsim.New(netsim.Perfect, netsim.WithSeed(205))
	defer net.Close()
	_, err := smc.JoinCellWithRetry(context.Background(), attach(t, net, 10), smc.DeviceConfig{
		Type: "generic", Name: "orphan", Secret: testSecret,
		JoinTimeout: 50 * time.Millisecond,
	}, smc.RetryConfig{Attempts: 3, BaseDelay: 1, MaxDelay: 1})
	if !errors.Is(err, discovery.ErrNoCell) {
		t.Fatalf("err = %v", err)
	}
}

func TestDirectJoinSkipsBeacons(t *testing.T) {
	net := netsim.New(netsim.Perfect, netsim.WithSeed(204))
	defer net.Close()
	cfg := defaultCellConfig()
	cfg.BeaconInterval = time.Hour // beacons effectively disabled
	cell := newTestCell(t, net, cfg)

	dev, err := smc.JoinCell(attach(t, net, 0x31), smc.DeviceConfig{
		Type: "generic", Name: "direct", Secret: testSecret,
		Cell: cfg.Cell, Discovery: cell.Discovery.ID(),
		JoinTimeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatalf("direct join: %v", err)
	}
	defer dev.Close()
	if dev.Join.Cell != cfg.Cell {
		t.Errorf("joined %q", dev.Join.Cell)
	}
}

func TestUnreliableSensorPathEndToEnd(t *testing.T) {
	net := netsim.New(netsim.Perfect, netsim.WithSeed(205))
	defer net.Close()
	newTestCell(t, net, defaultCellConfig())

	mon, err := smc.JoinCell(attach(t, net, 0x41), smc.DeviceConfig{
		Type: "generic", Name: "monitor", Secret: testSecret,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()
	if err := mon.Client.Subscribe(event.NewFilter().WhereType(sensor.TypeReading)); err != nil {
		t.Fatal(err)
	}

	temp, err := smc.JoinCell(attach(t, net, 0x42), smc.DeviceConfig{
		Type: sensor.DeviceTypeTemperature, Name: "temp-1", Secret: testSecret,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer temp.Close()

	sim := sensor.NewSim(sensor.KindTemperature, sensor.TemperatureWaveform(1),
		time.Second, temp.Client, sensor.WithUnreliable(true))
	for i := 0; i < 3; i++ {
		if err := sim.EmitOnce(); err != nil {
			t.Fatalf("emit %d: %v", i, err)
		}
	}
	// All three readings arrive translated despite the NoAck path
	// (the link is perfect here; loss tolerance is the sensor's
	// business, §III-B).
	for i := 0; i < 3; i++ {
		e, err := mon.Client.NextEvent(3 * time.Second)
		if err != nil {
			t.Fatalf("reading %d: %v", i, err)
		}
		if e.Type() != sensor.TypeReading {
			t.Errorf("type = %q", e.Type())
		}
		if e.Sender != temp.Client.ID() {
			t.Errorf("sender = %s", e.Sender)
		}
	}
}

func TestCellMemberListsAgree(t *testing.T) {
	net := netsim.New(netsim.Perfect, netsim.WithSeed(206))
	defer net.Close()
	cell := newTestCell(t, net, defaultCellConfig())

	var devs []*smc.Device
	for i := 0; i < 4; i++ {
		dev, err := smc.JoinCell(attach(t, net, uint64(0x51+i)), smc.DeviceConfig{
			Type: "generic", Name: "m", Secret: testSecret,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer dev.Close()
		devs = append(devs, dev)
	}
	discMembers := cell.Discovery.Members()
	busMembers := cell.Bus.Members()
	if len(discMembers) != 4 || len(busMembers) != 4 {
		t.Fatalf("members = %d/%d", len(discMembers), len(busMembers))
	}
	for _, id := range busMembers {
		if _, ok := cell.Discovery.Member(id); !ok {
			t.Errorf("member %s in bus but not discovery", id)
		}
	}
}
