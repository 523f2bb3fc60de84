package smc_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"github.com/amuse/smc/internal/discovery"
	"github.com/amuse/smc/internal/event"
	"github.com/amuse/smc/internal/ident"
	"github.com/amuse/smc/internal/netsim"
	"github.com/amuse/smc/internal/reliable"
	"github.com/amuse/smc/internal/smc"
)

// TestStatsQueryOverWire exercises the management plane end to end: a
// bare endpoint (no admission) sends PktStatsRequest to the discovery
// service and gets back a decodable snapshot that agrees with the
// cell's in-process view.
func TestStatsQueryOverWire(t *testing.T) {
	net := netsim.New(netsim.Perfect, netsim.WithSeed(31))
	defer net.Close()
	cell := newTestCell(t, net, defaultCellConfig())

	dev, err := smc.JoinCell(attach(t, net, 0x91001), smc.DeviceConfig{
		Type: "generic", Name: "member", Secret: testSecret,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer dev.Close()
	if err := dev.Client.Publish(event.NewTyped("ping")); err != nil {
		t.Fatal(err)
	}

	// A second, never-admitted endpoint queries the cell.
	probe := reliable.New(attach(t, net, 0x91002), reliable.Config{})
	defer probe.Close()
	stats, err := smc.QueryStats(probe, cell.Discovery.ID(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Cell != "test-cell" {
		t.Fatalf("cell name %q", stats.Cell)
	}
	if n, _ := stats.Get("discovery.members"); n != 1 {
		t.Fatalf("members = %d, want 1", n)
	}
	if n, _ := stats.Get("bus.published"); n == 0 {
		t.Fatalf("published = 0 after a publish: %+v", stats)
	}
	for _, name := range []string{"reliable.bus.packets_acquired", "reliable.disc.packets_acquired"} {
		if n, _ := stats.Get(name); n == 0 {
			t.Fatalf("%s = 0: %+v", name, stats)
		}
	}
}

// TestShutdownDrainsAndBalancesPool pins the graceful-stop contract:
// after traffic, Shutdown drains and closes, and the packet pool
// balances (acquired == recycled) — the invariant smcd turns into its
// exit code.
func TestShutdownDrainsAndBalancesPool(t *testing.T) {
	net := netsim.New(netsim.Perfect, netsim.WithSeed(32))
	defer net.Close()

	busTr, err := net.Attach(ident.New(0x92001))
	if err != nil {
		t.Fatal(err)
	}
	discTr, err := net.Attach(ident.New(0x92002))
	if err != nil {
		t.Fatal(err)
	}
	cell, err := smc.NewCell(busTr, discTr, defaultCellConfig())
	if err != nil {
		t.Fatal(err)
	}
	cell.Start()

	sub, err := smc.JoinCell(attach(t, net, 0x92003), smc.DeviceConfig{
		Type: "generic", Name: "sub", Secret: testSecret,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sub.Client.Subscribe(event.NewFilter().WhereType("t")); err != nil {
		t.Fatal(err)
	}
	pub, err := smc.JoinCell(attach(t, net, 0x92004), smc.DeviceConfig{
		Type: "generic", Name: "pub", Secret: testSecret,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := pub.Client.Publish(event.NewTyped("t").SetInt("n", int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 20; i++ {
		e, err := sub.Client.NextEvent(5 * time.Second)
		if err != nil {
			t.Fatalf("delivery %d: %v", i, err)
		}
		e.Release()
	}
	// Stop the devices first so no new traffic arrives mid-drain.
	if err := pub.Leave(); err != nil {
		t.Fatal(err)
	}
	if err := sub.Leave(); err != nil {
		t.Fatal(err)
	}

	if err := cell.Shutdown(5 * time.Second); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	acq, rec, clean := cell.LeakCheck()
	if !clean {
		t.Fatalf("pool leak after shutdown: acquired=%d recycled=%d", acq, rec)
	}
	if acq == 0 {
		t.Fatal("no pooled packets seen — test exercised nothing")
	}
}

// TestJoinCellWithRetrySurvivesLoss joins through a link lossy enough
// to defeat a fair share of single attempts.
func TestJoinCellWithRetrySurvivesLoss(t *testing.T) {
	net := netsim.New(netsim.Profile{Name: "lossy", Loss: 0.25}, netsim.WithSeed(33))
	defer net.Close()
	newTestCell(t, net, defaultCellConfig())

	dev, err := smc.JoinCellWithRetry(context.Background(), attach(t, net, 0x93001),
		smc.DeviceConfig{
			Type: "generic", Name: "roamer", Secret: testSecret,
			JoinTimeout: time.Second,
		},
		smc.RetryConfig{Attempts: 10, BaseDelay: 20 * time.Millisecond})
	if err != nil {
		t.Fatalf("join with retry: %v", err)
	}
	defer dev.Close()
	if err := dev.Client.Subscribe(event.NewFilter().WhereType("x")); err != nil {
		t.Fatal(err)
	}
}

// TestJoinCellWithRetryStopsOnRejection asserts a rejection verdict is
// terminal — backoff must not hammer a cell that said no.
func TestJoinCellWithRetryStopsOnRejection(t *testing.T) {
	net := netsim.New(netsim.Perfect, netsim.WithSeed(34))
	defer net.Close()
	newTestCell(t, net, defaultCellConfig())

	start := time.Now()
	_, err := smc.JoinCellWithRetry(context.Background(), attach(t, net, 0x94001),
		smc.DeviceConfig{
			Type: "generic", Name: "intruder", Secret: []byte("wrong"),
			JoinTimeout: 2 * time.Second,
		},
		smc.RetryConfig{Attempts: 8, BaseDelay: 500 * time.Millisecond, MaxDelay: 500 * time.Millisecond})
	if !errors.Is(err, discovery.ErrRejected) {
		t.Fatalf("want ErrRejected, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("rejection retried for %v", elapsed)
	}
}

// TestJoinCellWithRetryHonoursContext cancels mid-backoff.
func TestJoinCellWithRetryHonoursContext(t *testing.T) {
	net := netsim.New(netsim.Perfect, netsim.WithSeed(35))
	defer net.Close()
	// No cell at all: every attempt times out.
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := smc.JoinCellWithRetry(ctx, attach(t, net, 0x95001),
		smc.DeviceConfig{
			Type: "generic", Name: "orphan", Secret: testSecret,
			JoinTimeout: 100 * time.Millisecond,
		},
		smc.RetryConfig{Attempts: 50, BaseDelay: 50 * time.Millisecond})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("context ignored for %v", elapsed)
	}
}
