package smc_test

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/amuse/smc/internal/discovery"
	"github.com/amuse/smc/internal/event"
	"github.com/amuse/smc/internal/ident"
	"github.com/amuse/smc/internal/netsim"
	"github.com/amuse/smc/internal/reliable"
	"github.com/amuse/smc/internal/smc"
	"github.com/amuse/smc/internal/wire"
)

// obligationCell starts a cell whose one obligation, scoped to
// "hr-sensor" devices, turns a reading into an alarm; the returned
// channel has room for exactly one alarm.
func obligationCell(t *testing.T, net *netsim.Network, cfg smc.Config) (*smc.Cell, <-chan struct{}) {
	t.Helper()
	cfg.PolicyText = `obligation hr-high for "hr-sensor" {
  on type = "reading"
  do publish(type = "alarm")
}`
	cell := newTestCell(t, net, cfg)
	alarm := make(chan struct{}, 1)
	if err := cell.Bus.Local("watch").Subscribe(event.NewFilter().WhereType("alarm"), func(*event.Event) { alarm <- struct{}{} }); err != nil {
		t.Fatal(err)
	}
	return cell, alarm
}

// firstReadingFires publishes the device's first reading and waits for
// the scoped obligation's alarm.
func firstReadingFires(t *testing.T, dev *smc.Device, alarm <-chan struct{}) {
	t.Helper()
	if err := dev.Client.Publish(event.NewTyped("reading").SetFloat("value", 190)); err != nil {
		t.Fatal(err)
	}
	select {
	case <-alarm:
	case <-time.After(5 * time.Second):
		t.Fatal("scoped obligation did not fire on the first reading")
	}
}

// TestMembershipSurvivesStalledCell: a device joins while every shard
// of the cell is held and every shard queue is full. Its New Member
// waits for room instead of being shed, and the join waits with it.
// Once the stall clears, the device's first reading fires the
// obligation scoped to its device type.
func TestMembershipSurvivesStalledCell(t *testing.T) {
	net := netsim.New(netsim.Perfect, netsim.WithSeed(91))
	defer net.Close()
	cell, alarm := obligationCell(t, net, defaultCellConfig())

	release := smc.StallShards(t, cell.Bus)
	type joinResult struct {
		dev *smc.Device
		err error
	}
	joined := make(chan joinResult, 1)
	tr := attach(t, net, 0x20001)
	go func() {
		dev, err := smc.JoinCell(tr, smc.DeviceConfig{
			Type: "hr-sensor", Name: "hr", Secret: testSecret,
		})
		joined <- joinResult{dev, err}
	}()
	select {
	case j := <-joined:
		t.Fatalf("join returned (err %v) while every shard queue was full", j.err)
	case <-time.After(300 * time.Millisecond):
	}
	release()
	var j joinResult
	select {
	case j = <-joined:
	case <-time.After(10 * time.Second):
		t.Fatal("join never returned after the release")
	}
	if j.err != nil {
		t.Fatalf("join: %v", j.err)
	}
	defer j.dev.Close()
	firstReadingFires(t, j.dev, alarm)
}

// TestFirstReadingFollowsNewMemberPastStalledShard holds the one shard
// that the events of the cell's local service "discovery" hash onto,
// and joins a device whose events hash elsewhere. A New Member
// published from that service would wait behind the hold while the
// device's first reading went through, so the obligation scoped to its
// type would miss it. The bus announces the member on the member's own
// shard: New Member comes first, and the first reading fires.
func TestFirstReadingFollowsNewMemberPastStalledShard(t *testing.T) {
	net := netsim.New(netsim.Perfect, netsim.WithSeed(92))
	defer net.Close()
	cell, alarm := obligationCell(t, net, defaultCellConfig())

	var (
		mu   sync.Mutex
		seen []string
	)
	reading := make(chan struct{}, 1)
	watch := cell.Bus.Local("watch")
	for _, class := range []string{event.TypeNewMember, "reading"} {
		if err := watch.Subscribe(event.NewFilter().WhereType(class), func(e *event.Event) {
			mu.Lock()
			seen = append(seen, e.Type())
			mu.Unlock()
			if e.Type() == "reading" {
				reading <- struct{}{}
			}
		}); err != nil {
			t.Fatal(err)
		}
	}

	disc := cell.Bus.Local("discovery")
	hold, entered := make(chan struct{}), make(chan struct{})
	release := sync.OnceFunc(func() { close(hold) })
	defer release()
	if err := cell.Bus.Local("stall").Subscribe(event.NewFilter().WhereType("hold"), func(*event.Event) {
		close(entered)
		<-hold
	}); err != nil {
		t.Fatal(err)
	}
	if err := disc.Publish(event.NewTyped("hold")); err != nil {
		t.Fatal(err)
	}
	<-entered

	addr := uint64(0x20001)
	for shards := cell.Bus.Shards(); shards > 1 && shardOf(ident.New(addr), shards) == shardOf(disc.ID(), shards); addr++ {
	}
	dev, err := smc.JoinCell(attach(t, net, addr), smc.DeviceConfig{
		Type: "hr-sensor", Name: "hr", Secret: testSecret,
	})
	if err != nil {
		t.Fatalf("join: %v", err)
	}
	defer dev.Close()
	if err := dev.Client.Publish(event.NewTyped("reading").SetFloat("value", 190)); err != nil {
		t.Fatal(err)
	}
	if cell.Bus.Shards() > 1 {
		select {
		case <-reading:
		case <-time.After(5 * time.Second):
			t.Fatal("the first reading waited on the held shard")
		}
	}
	release()
	select {
	case <-alarm:
	case <-time.After(5 * time.Second):
		mu.Lock()
		defer mu.Unlock()
		t.Fatalf("scoped obligation did not fire on the first reading (seen %v)", seen)
	}
}

// shardOf mirrors the bus's shard hash, so that a test can pick a
// device address whose events land on another shard than a given
// service's.
func shardOf(key ident.ID, shards int) int {
	return int(uint64(key) * 0x9E3779B97F4A7C15 >> 32 % uint64(shards))
}

// TestRolledBackJoinAnnouncesPurge: a device asks to join and is gone
// before the JoinAccept can be acknowledged. The cell announced it as
// it admitted it, so the rollback announces its purge: New Member then
// Purge Member, and the obligation scoped to its type is withdrawn.
func TestRolledBackJoinAnnouncesPurge(t *testing.T) {
	net := netsim.New(netsim.Perfect, netsim.WithSeed(93))
	defer net.Close()
	cfg := defaultCellConfig()
	cfg.Reliable = reliable.Config{RetryTimeout: 10 * time.Millisecond, MaxRetries: 3}
	cell, _ := obligationCell(t, net, cfg)

	const addr = 0x20005
	var (
		mu   sync.Mutex
		seen []string
	)
	purged := make(chan struct{})
	watch := cell.Bus.Local("membership-watch")
	for _, class := range []string{event.TypeNewMember, event.TypePurgeMember} {
		if err := watch.Subscribe(event.NewFilter().WhereType(class), func(e *event.Event) {
			if v, _ := e.Get(event.AttrMember); !v.Equal(event.Int(addr)) {
				return
			}
			mu.Lock()
			seen = append(seen, e.Type())
			mu.Unlock()
			if e.Type() == event.TypePurgeMember {
				close(purged)
			}
		}); err != nil {
			t.Fatal(err)
		}
	}

	// A device that sends its join request and is gone: the request
	// arrives, the JoinAccept finds no one to acknowledge it.
	tr := attach(t, net, addr)
	req := wire.AppendJoinRequest(nil, wire.JoinRequest{
		DeviceType: "hr-sensor",
		DeviceName: "hr",
		Auth:       discovery.AuthDigest(testSecret, ident.New(addr), cfg.Cell),
	})
	ch := reliable.New(tr, cfg.Reliable)
	if err := ch.SendUnreliable(cell.Discovery.ID(), wire.PktJoinRequest, req); err != nil {
		t.Fatal(err)
	}
	_ = ch.Close()

	select {
	case <-purged:
	case <-time.After(10 * time.Second):
		t.Fatal("the rolled-back join was never purged")
	}
	mu.Lock()
	got := fmt.Sprint(seen)
	mu.Unlock()
	if want := fmt.Sprint([]string{event.TypeNewMember, event.TypePurgeMember}); got != want {
		t.Fatalf("announcements = %s, want %s", got, want)
	}
	// The policy engine's handler for the same Purge Member may still
	// be running.
	for deadline := time.Now().Add(5 * time.Second); deployed(cell, "hr-high"); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("scoped obligation still deployed after the rollback")
		}
	}
	if _, ok := cell.Discovery.Member(ident.New(addr)); ok {
		t.Error("rolled-back device is in the member table")
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
