package smc_test

import (
	"fmt"
	"reflect"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/amuse/smc/internal/bus"
	"github.com/amuse/smc/internal/discovery"
	"github.com/amuse/smc/internal/event"
	"github.com/amuse/smc/internal/ident"
	"github.com/amuse/smc/internal/netsim"
	"github.com/amuse/smc/internal/policy"
	"github.com/amuse/smc/internal/proxy"
	"github.com/amuse/smc/internal/reliable"
	"github.com/amuse/smc/internal/smc"
	"github.com/amuse/smc/internal/store"
	"github.com/amuse/smc/internal/wire"
)

// TestStatsSnapshotCarriesLiveCounters queries a live cell over its
// discovery channel, as smctap -stats does, for counters the
// fixed-layout snapshot never carried: a bus refusal of a non-member's
// publish and a policy action whose output a full shard queue refused.
func TestStatsSnapshotCarriesLiveCounters(t *testing.T) {
	// The action must run on a shard other than the full one.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
	net := netsim.New(netsim.Perfect, netsim.WithSeed(33))
	defer net.Close()
	cfg := defaultCellConfig()
	cfg.PolicyText = `obligation echo { on type = "trigger" do publish(type = "echo") }`
	cell := newTestCell(t, net, cfg)
	probe := reliable.New(attach(t, net, 0x93001), reliable.Config{})
	defer probe.Close()
	query := func(name string) uint64 {
		t.Helper()
		st, err := smc.QueryStats(probe, cell.Discovery.ID(), 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		n, ok := st.Get(name)
		if !ok {
			t.Fatalf("%s is not in the snapshot", name)
		}
		return n
	}

	// A publish from an endpoint that never joined.
	if err := probe.Send(cell.Bus.ID(), wire.PktEvent, wire.EncodeEvent(event.NewTyped("reading"))); err != nil {
		t.Fatal(err)
	}
	if n := query("bus.non_member"); n != 1 {
		t.Fatalf("bus.non_member = %d, want 1", n)
	}

	// Hold the shard the policy service publishes to, and fill it.
	entered, hold := make(chan struct{}), make(chan struct{})
	defer close(hold)
	if err := cell.Bus.Local("tester").Subscribe(event.NewFilter().WhereType("hold"), func(*event.Event) {
		entered <- struct{}{}
		<-hold
	}); err != nil {
		t.Fatal(err)
	}
	pol := cell.Bus.Local("policy")
	if err := pol.TryPublish(event.NewTyped("hold")); err != nil {
		t.Fatal(err)
	}
	<-entered
	for pol.TryPublish(event.NewTyped("fill")) == nil {
	}
	// A trigger from a service on another shard: its action's output
	// meets the full queue.
	for i := 0; cell.Bus.Local(fmt.Sprintf("app-%d", i)).TryPublish(event.NewTyped("trigger")) != nil; i++ {
	}
	for deadline := time.Now().Add(5 * time.Second); query("policy.action_failures") == 0; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("policy.action_failures never rose")
		}
	}
}

// TestStatsSnapshotCoversEveryStatsField: every exported field of each
// layer's Stats struct reaches the snapshot as <layer>.<snake_field>,
// so a counter added to one needs no edit anywhere else. A field of
// a kind the snapshot cannot carry fails here; only the string facts a
// row is named after are exempt.
func TestStatsSnapshotCoversEveryStatsField(t *testing.T) {
	net := netsim.New(netsim.Perfect, netsim.WithSeed(34))
	defer net.Close()
	newNamedCell(t, net, "remote", 0x94000)
	home := newDurableNamedCell(t, net, "home", 0x95000, &store.Config{})
	link, err := smc.Federate(home, attach(t, net, 0x95101), smc.FederateConfig{
		Name: "gw", RemoteSecret: testSecret, RemoteCell: "remote",
		Import: event.NewFilter().WhereType("alarm"),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer link.Close()
	dev, err := smc.JoinCell(attach(t, net, 0x95102), smc.DeviceConfig{
		Type: "generic", Name: "nurse", Secret: testSecret, Cell: "home", Durable: "nurse",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer dev.Close()
	if err := dev.Client.Subscribe(event.NewFilter().WhereType("alarm")); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		if _, rows := home.Bus.LogReport(); len(rows) == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the durable consumer never bound")
		}
	}
	st, err := wire.DecodeCellStats(wire.AppendCellStats(nil, home.StatsReport()))
	if err != nil {
		t.Fatal(err)
	}
	if st.Cell != "home" {
		t.Fatalf("cell %q", st.Cell)
	}

	px := "proxy." + dev.Client.ID().String()
	for prefix, v := range map[string]any{
		"bus":                  bus.Stats{},
		"reliable.bus":         reliable.Stats{},
		"reliable.disc":        reliable.Stats{},
		"store":                store.Stats{},
		"policy":               policy.Stats{},
		"discovery":            discovery.Stats{},
		px:                     proxy.Stats{},
		"durable.nurse":        bus.DurableRow{},
		"federation.gw@remote": smc.FederationStats{},
	} {
		typ := reflect.TypeOf(v)
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if !f.IsExported() || f.Type.Kind() == reflect.String && rowNames[typ.Name()+"."+f.Name] {
				continue
			}
			name := prefix + "." + statName(f.Name)
			if _, ok := st.Get(name); !ok {
				t.Errorf("%s.%s (%s) is not in the snapshot as %s", typ, f.Name, f.Type, name)
			}
		}
	}
}

// TestBusIgnoresDiscoveryBeacons: on a shared medium the cell's own
// discovery beacons reach the bus endpoint too. They are not bad
// packets; a malformed event frame from a member still is.
func TestBusIgnoresDiscoveryBeacons(t *testing.T) {
	net := netsim.New(netsim.Perfect, netsim.WithSeed(39))
	defer net.Close()
	cell := newTestCell(t, net, defaultCellConfig())
	const beacons = 4
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		st, err := wire.DecodeCellStats(wire.AppendCellStats(nil, cell.StatsReport()))
		if err != nil {
			t.Fatal(err)
		}
		if n, _ := st.Get("reliable.bus.unreliable_in"); n >= beacons {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("the bus endpoint heard fewer than %d beacons", beacons)
		}
	}
	const memberID = 0x10101
	ch := reliable.New(attach(t, net, memberID), reliable.Config{})
	defer ch.Close()
	if err := cell.Bus.AddMember(ident.New(memberID), "generic", "raw"); err != nil {
		t.Fatal(err)
	}
	// The bus handles its inbox in order, so once the junk frame is
	// counted every beacon before it has been handled too.
	if err := ch.Send(ident.New(0x10001), wire.PktEvent, []byte("junk")); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(2 * time.Second); cell.Bus.Stats().BadPackets == 0; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the malformed event frame was not counted")
		}
	}
	if n := cell.Bus.Stats().BadPackets; n != 1 {
		t.Errorf("BadPackets = %d, want 1: the junk frame and no beacon", n)
	}
}

// rowNames are the string fields a snapshot row is named after.
var rowNames = map[string]bool{"DurableRow.Name": true, "FederationStats.RemoteCell": true}

var (
	wordStart     = regexp.MustCompile(`([a-z0-9])([A-Z])`)
	initialismEnd = regexp.MustCompile(`([A-Z])([A-Z][a-z])`)
)

// statName derives a field's stat name apart from package wire: an
// initialism stays one word (MaxRTOMicros is max_rto_micros).
func statName(field string) string {
	field = initialismEnd.ReplaceAllString(field, "${1}_${2}")
	return strings.ToLower(wordStart.ReplaceAllString(field, "${1}_${2}"))
}
