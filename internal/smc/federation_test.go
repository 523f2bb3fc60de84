package smc_test

import (
	"context"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/amuse/smc/internal/event"
	"github.com/amuse/smc/internal/ident"
	"github.com/amuse/smc/internal/netsim"
	"github.com/amuse/smc/internal/reliable"
	"github.com/amuse/smc/internal/smc"
	"github.com/amuse/smc/internal/store"
	"github.com/amuse/smc/internal/transport"
)

// newNamedCell builds a cell with a distinct name on the shared net.
func newNamedCell(t *testing.T, net *netsim.Network, name string, base uint64) *smc.Cell {
	t.Helper()
	busTr, err := net.Attach(ident.New(base))
	if err != nil {
		t.Fatal(err)
	}
	discTr, err := net.Attach(ident.New(base + 1))
	if err != nil {
		t.Fatal(err)
	}
	cfg := defaultCellConfig()
	cfg.Cell = name
	cell, err := smc.NewCell(busTr, discTr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cell.Start()
	t.Cleanup(func() { cell.Close() })
	return cell
}

func TestFederationImportsMatchingEvents(t *testing.T) {
	net := netsim.New(netsim.Perfect, netsim.WithSeed(81))
	defer net.Close()

	// Patient cell and ward cell. Note: both share one simulated
	// radio space, so the federation pins the remote cell by name.
	patient := newNamedCell(t, net, "patient-7", 0x30000)
	ward := newNamedCell(t, net, "ward-3", 0x40000)

	// The ward cell watches the patient cell's alarms.
	link, err := smc.Federate(ward, attach(t, net, 0x50001), smc.FederateConfig{
		Name:         "ward3-gw",
		RemoteSecret: testSecret,
		RemoteCell:   "patient-7",
		Import:       event.NewFilter().WhereType("alarm"),
	})
	if err != nil {
		t.Fatalf("federate: %v", err)
	}
	defer link.Close()
	if link.Stats().RemoteCell != "patient-7" {
		t.Errorf("remote cell = %q", link.Stats().RemoteCell)
	}

	// A ward-side observer of the imported alarms.
	seen := make(chan *event.Event, 4)
	obs := ward.Bus.Local("observer")
	if err := obs.Subscribe(event.NewFilter().WhereType("alarm"), func(e *event.Event) {
		select {
		case seen <- e:
		default:
		}
	}); err != nil {
		t.Fatal(err)
	}

	// A device in the patient cell raises an alarm.
	dev, err := smc.JoinCell(attach(t, net, 0x50002), smc.DeviceConfig{
		Type: "generic", Name: "hr-monitor", Secret: testSecret, Cell: "patient-7",
	})
	if err != nil {
		t.Fatalf("join patient cell: %v", err)
	}
	defer dev.Close()
	if err := dev.Client.Publish(event.NewTyped("alarm").SetFloat("value", 201)); err != nil {
		t.Fatal(err)
	}
	// A non-matching event must not cross.
	if err := dev.Client.Publish(event.NewTyped("reading").SetFloat("value", 70)); err != nil {
		t.Fatal(err)
	}

	select {
	case e := <-seen:
		if v, ok := e.Get(smc.AttrFederatedFrom); !ok {
			t.Error("imported event not tagged with origin cell")
		} else if s, _ := v.Str(); s != "patient-7" {
			t.Errorf("federated-from = %q", s)
		}
		if v, _ := e.Get("value"); !v.Equal(event.Float(201)) {
			t.Errorf("value = %s", v)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("alarm did not cross the federation link")
	}
	// Nothing else crosses.
	select {
	case e := <-seen:
		t.Fatalf("unexpected import: %s", e)
	case <-time.After(300 * time.Millisecond):
	}
	if link.Stats().Imported != 1 {
		t.Errorf("Imported = %d", link.Stats().Imported)
	}
	_ = patient
}

func TestFederationLoopPrevention(t *testing.T) {
	net := netsim.New(netsim.Perfect, netsim.WithSeed(82))
	defer net.Close()
	a := newNamedCell(t, net, "cell-a", 0x60000)
	b := newNamedCell(t, net, "cell-b", 0x70000)

	// Bidirectional links on the same event type. A link's subscription
	// is acknowledged when the remote bus has queued it, so wait until
	// both buses have installed it: an alarm that overtakes a link's
	// subscription is never offered to that link.
	subsA, subsB := a.Bus.Stats().Subscriptions, b.Bus.Stats().Subscriptions
	ab, err := smc.Federate(b, attach(t, net, 0x80001), smc.FederateConfig{
		RemoteSecret: testSecret, RemoteCell: "cell-a",
		Import: event.NewFilter().WhereType("alarm"),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ab.Close()
	ba, err := smc.Federate(a, attach(t, net, 0x80002), smc.FederateConfig{
		RemoteSecret: testSecret, RemoteCell: "cell-b",
		Import: event.NewFilter().WhereType("alarm"),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ba.Close()
	for deadline := time.Now().Add(5 * time.Second); a.Bus.Stats().Subscriptions == subsA || b.Bus.Stats().Subscriptions == subsB; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("a link's subscription was never installed")
		}
	}

	// Raise one alarm in cell A.
	svc := a.Bus.Local("raiser")
	if err := svc.Publish(event.NewTyped("alarm").SetInt("n", 1)); err != nil {
		t.Fatal(err)
	}

	// It crosses into B exactly once and must not echo back into A.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if ab.Stats().Imported >= 1 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if ab.Stats().Imported != 1 {
		t.Fatalf("a→b imported = %d", ab.Stats().Imported)
	}
	// The reverse link sees the imported copy and must skip it: wait
	// for the skip, then assert nothing was echoed back.
	deadline = time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) && ba.Stats().Skipped == 0 {
		time.Sleep(10 * time.Millisecond)
	}
	if ba.Stats().Skipped == 0 {
		t.Error("loop prevention never triggered")
	}
	time.Sleep(200 * time.Millisecond) // any echo would land by now
	if ba.Stats().Imported != 0 {
		t.Errorf("b→a imported = %d (federation loop)", ba.Stats().Imported)
	}
}

func TestFederationRequiresFilter(t *testing.T) {
	net := netsim.New(netsim.Perfect, netsim.WithSeed(83))
	defer net.Close()
	cell := newNamedCell(t, net, "solo", 0x90000)
	if _, err := smc.Federate(cell, attach(t, net, 0x90009), smc.FederateConfig{
		RemoteSecret: testSecret,
	}); err == nil {
		t.Fatal("nil import filter accepted")
	}
}

// newDurableNamedCell is newNamedCell with a durable log attached.
func newDurableNamedCell(t *testing.T, net *netsim.Network, name string, base uint64, cfg *store.Config) *smc.Cell {
	t.Helper()
	busTr, err := net.Attach(ident.New(base))
	if err != nil {
		t.Fatal(err)
	}
	discTr, err := net.Attach(ident.New(base + 1))
	if err != nil {
		t.Fatal(err)
	}
	ccfg := defaultCellConfig()
	ccfg.Cell = name
	ccfg.Durable = cfg
	cell, err := smc.NewCell(busTr, discTr, ccfg)
	if err != nil {
		t.Fatal(err)
	}
	cell.Start()
	t.Cleanup(func() { cell.Close() })
	return cell
}

// dialer hands the link fresh simulated endpoints for reconnects.
func dialer(net *netsim.Network, base uint64) (func() (transport.Transport, error), *atomic.Uint64) {
	var n atomic.Uint64
	return func() (transport.Transport, error) {
		return net.Attach(ident.New(base + n.Add(1)))
	}, &n
}

// TestFederationReconnectResumesAfterRemoteRestart pins the fix for
// the pump permanent-death bug: a remote cell restart must not kill
// the link — it reconnects with backoff, resumes its durable consumer
// from the last imported cursor, and keeps importing, with no
// duplicate delivery in the home cell.
func TestFederationReconnectResumesAfterRemoteRestart(t *testing.T) {
	net := netsim.New(netsim.Perfect, netsim.WithSeed(84))
	defer net.Close()
	srcDir, dstDir := t.TempDir(), t.TempDir()

	src := newDurableNamedCell(t, net, "src", 0xA0000, &store.Config{Dir: srcDir})
	dst := newDurableNamedCell(t, net, "dst", 0xB0000, &store.Config{Dir: dstDir})

	dial, _ := dialer(net, 0xC0000)
	link, err := smc.Federate(dst, attach(t, net, 0xC9999), smc.FederateConfig{
		Name:         "dst-gw",
		RemoteSecret: testSecret,
		RemoteCell:   "src",
		Import:       event.NewFilter().WhereType("alarm"),
		Dial:         dial,
		Retry:        smc.RetryConfig{Attempts: 4, BaseDelay: 50 * time.Millisecond, MaxDelay: 300 * time.Millisecond},
		// Fast death detection so the restart round-trip stays quick.
		ProbeInterval: 50 * time.Millisecond,
		Device: smc.DeviceConfig{
			Reliable: reliable.Config{RetryTimeout: 20 * time.Millisecond, MaxRetries: 3},
		},
	})
	if err != nil {
		t.Fatalf("federate: %v", err)
	}
	defer link.Close()

	// Home-side observer counting each alarm by its n attribute.
	var mu sync.Mutex
	counts := map[int64]int{}
	obs := dst.Bus.Local("observer")
	if err := obs.Subscribe(event.NewFilter().WhereType("alarm"), func(e *event.Event) {
		if v, ok := e.Get("n"); ok {
			if n, isInt := v.Int(); isInt {
				mu.Lock()
				counts[n]++
				mu.Unlock()
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
	waitCount := func(n int64) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for {
			mu.Lock()
			c := counts[n]
			mu.Unlock()
			if c >= 1 {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("alarm n=%d never crossed the link", n)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	pub, err := smc.JoinCell(attach(t, net, 0xC5001), smc.DeviceConfig{
		Type: "generic", Name: "pub", Secret: testSecret, Cell: "src",
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := pub.Client.Publish(event.NewTyped("alarm").SetInt("n", 1)); err != nil {
		t.Fatal(err)
	}
	waitCount(1)
	_ = pub.Close()

	// Restart the remote cell (graceful: the disk log keeps its epoch).
	if err := src.Close(); err != nil {
		t.Fatalf("close src: %v", err)
	}
	src = newDurableNamedCell(t, net, "src", 0xA0100, &store.Config{Dir: srcDir})

	// The link must notice the dead membership and reconnect.
	deadline := time.Now().Add(15 * time.Second)
	for link.Stats().Reconnects == 0 || !link.Stats().Connected {
		if time.Now().After(deadline) {
			t.Fatalf("link never reconnected (reconnects=%d connected=%v)",
				link.Stats().Reconnects, link.Stats().Connected)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// New traffic in the restarted remote cell keeps flowing home.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	pub2, err := smc.JoinCellWithRetry(ctx, attach(t, net, 0xC5002), smc.DeviceConfig{
		Type: "generic", Name: "pub2", Secret: testSecret, Cell: "src",
	}, smc.RetryConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer pub2.Close()
	if err := pub2.Client.Publish(event.NewTyped("alarm").SetInt("n", 2)); err != nil {
		t.Fatal(err)
	}
	waitCount(2)

	// Exactly once each: the resume cursor (or, failing that, the home
	// log's dedup) must prevent replayed duplicates.
	time.Sleep(300 * time.Millisecond)
	mu.Lock()
	defer mu.Unlock()
	for n, c := range counts {
		if c != 1 {
			t.Errorf("alarm n=%d delivered %d times, want exactly once", n, c)
		}
	}
	if s := link.Stats(); s.ResumeCursor == 0 || s.ResumeEpoch == 0 {
		t.Errorf("resume position not tracked: %+v", s)
	}
	_ = src
}

// TestFederationEpochMismatchReplaysFromOldest: a remote crash
// recovery (here: a memory log lost wholesale) rotates the remote
// epoch, so the link's stale cursor must mean replay-from-oldest —
// redelivered events dedup to exactly-once in the home cell, new
// events are never silently lost.
func TestFederationEpochMismatchReplaysFromOldest(t *testing.T) {
	net := netsim.New(netsim.Perfect, netsim.WithSeed(85))
	defer net.Close()

	src := newDurableNamedCell(t, net, "src", 0xD0000, &store.Config{})
	dst := newDurableNamedCell(t, net, "dst", 0xE0000, &store.Config{})

	dial, _ := dialer(net, 0xF0000)
	link, err := smc.Federate(dst, attach(t, net, 0xF9999), smc.FederateConfig{
		Name:          "dst-gw",
		RemoteSecret:  testSecret,
		RemoteCell:    "src",
		Import:        event.NewFilter().WhereType("alarm"),
		Dial:          dial,
		Retry:         smc.RetryConfig{Attempts: 4, BaseDelay: 50 * time.Millisecond, MaxDelay: 300 * time.Millisecond},
		ProbeInterval: 50 * time.Millisecond,
		Device: smc.DeviceConfig{
			Reliable: reliable.Config{RetryTimeout: 20 * time.Millisecond, MaxRetries: 3},
		},
	})
	if err != nil {
		t.Fatalf("federate: %v", err)
	}
	defer link.Close()

	var mu sync.Mutex
	counts := map[int64]int{}
	obs := dst.Bus.Local("observer")
	if err := obs.Subscribe(event.NewFilter().WhereType("alarm"), func(e *event.Event) {
		if v, ok := e.Get("n"); ok {
			if n, isInt := v.Int(); isInt {
				mu.Lock()
				counts[n]++
				mu.Unlock()
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
	total := func() int {
		mu.Lock()
		defer mu.Unlock()
		n := 0
		for _, c := range counts {
			n += c
		}
		return n
	}

	// The publisher stamps explicit dedup IDs, as a durable producer
	// would for idempotent redelivery.
	publish := func(dev *smc.Device, ns ...int64) {
		t.Helper()
		for _, n := range ns {
			e := event.NewTyped("alarm").SetInt("n", n).SetInt(store.AttrDedup, n)
			if err := dev.Client.Publish(e); err != nil {
				t.Fatalf("publish n=%d: %v", n, err)
			}
		}
	}

	pub, err := smc.JoinCell(attach(t, net, 0xF5001), smc.DeviceConfig{
		Type: "generic", Name: "pub", Secret: testSecret, Cell: "src",
	})
	if err != nil {
		t.Fatal(err)
	}
	publish(pub, 1, 2, 3)
	deadline := time.Now().Add(10 * time.Second)
	for total() < 3 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of 3 alarms crossed", total())
		}
		time.Sleep(10 * time.Millisecond)
	}
	oldEpoch := link.Stats().ResumeEpoch
	_ = pub.Close()

	// Crash the remote: the memory log (and its epoch) is gone.
	if err := src.Close(); err != nil {
		t.Fatalf("close src: %v", err)
	}
	src = newDurableNamedCell(t, net, "src", 0xD0100, &store.Config{})

	deadline = time.Now().Add(15 * time.Second)
	for link.Stats().Reconnects == 0 || !link.Stats().Connected {
		if time.Now().After(deadline) {
			t.Fatal("link never reconnected")
		}
		time.Sleep(20 * time.Millisecond)
	}

	// The producer redelivers 1..3 (same dedup IDs) and adds 4, 5.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	pub2, err := smc.JoinCellWithRetry(ctx, attach(t, net, 0xF5001), smc.DeviceConfig{
		Type: "generic", Name: "pub", Secret: testSecret, Cell: "src",
	}, smc.RetryConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer pub2.Close()
	publish(pub2, 1, 2, 3, 4, 5)

	deadline = time.Now().Add(10 * time.Second)
	for {
		mu.Lock()
		got4, got5 := counts[4] > 0, counts[5] > 0
		mu.Unlock()
		if got4 && got5 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("post-restart alarms never crossed: silent loss")
		}
		time.Sleep(10 * time.Millisecond)
	}
	time.Sleep(300 * time.Millisecond)
	mu.Lock()
	defer mu.Unlock()
	for n := int64(1); n <= 5; n++ {
		if counts[n] != 1 {
			t.Errorf("alarm n=%d delivered %d times, want exactly once", n, counts[n])
		}
	}
	if newEpoch := link.Stats().ResumeEpoch; newEpoch == oldEpoch {
		t.Errorf("remote restart did not rotate the resume epoch (%x)", newEpoch)
	}
	_ = src
}

// TestFederationCursorFilePersistsAcrossLinks: a closed link leaves
// its resume cursor under the home cell's durable dir, and a new link
// with the same consumer name resumes from it instead of zero.
func TestFederationCursorFilePersistsAcrossLinks(t *testing.T) {
	net := netsim.New(netsim.Perfect, netsim.WithSeed(86))
	defer net.Close()
	dstDir := t.TempDir()

	src := newDurableNamedCell(t, net, "src", 0x110000, &store.Config{})
	dst := newDurableNamedCell(t, net, "dst", 0x120000, &store.Config{Dir: dstDir})

	mk := func(base uint64) *smc.FederationLink {
		t.Helper()
		link, err := smc.Federate(dst, attach(t, net, base), smc.FederateConfig{
			Name:         "dst-gw",
			RemoteSecret: testSecret,
			RemoteCell:   "src",
			Import:       event.NewFilter().WhereType("alarm"),
		})
		if err != nil {
			t.Fatalf("federate: %v", err)
		}
		return link
	}
	link := mk(0x130001)

	pub, err := smc.JoinCell(attach(t, net, 0x130002), smc.DeviceConfig{
		Type: "generic", Name: "pub", Secret: testSecret, Cell: "src",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	if err := pub.Client.Publish(event.NewTyped("alarm").SetInt("n", 1)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for link.Stats().Imported == 0 {
		if time.Now().After(deadline) {
			t.Fatal("alarm never crossed")
		}
		time.Sleep(10 * time.Millisecond)
	}
	want := link.Stats()
	if err := link.Close(); err != nil {
		t.Fatalf("close link: %v", err)
	}

	ents, err := os.ReadDir(dstDir)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, ent := range ents {
		if filepath.Ext(ent.Name()) == ".fedcursor" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no .fedcursor file under the home durable dir (%v)", ents)
	}

	link2 := mk(0x130003)
	defer link2.Close()
	if s := link2.Stats(); s.ResumeEpoch != want.ResumeEpoch || s.ResumeCursor != want.ResumeCursor {
		t.Fatalf("new link resumed at %x/%d, want persisted %x/%d",
			s.ResumeEpoch, s.ResumeCursor, want.ResumeEpoch, want.ResumeCursor)
	}
	_ = src
}

// TestFederationImportsBacklogOverBatchedLink: a link established after
// the remote cell has retained a long backlog imports it as a durable
// consumer, so the remote cell's walker bulk-feeds the link's proxy and
// the backlog crosses coalesced (PktEventDurable batches). Every alarm
// must reach the home cell exactly once, in order, and the link's
// resume cursor must land on the last one.
func TestFederationImportsBacklogOverBatchedLink(t *testing.T) {
	net := netsim.New(netsim.Perfect, netsim.WithSeed(86))
	defer net.Close()

	src := newDurableNamedCell(t, net, "src", 0x110000, &store.Config{})
	dst := newDurableNamedCell(t, net, "dst", 0x120000, &store.Config{})

	const backlog = 1200
	pub, err := smc.JoinCell(attach(t, net, 0x130001), smc.DeviceConfig{
		Type: "generic", Name: "pub", Secret: testSecret, Cell: "src",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	comps := make([]*reliable.Completion, 0, 200)
	for n := 1; n <= backlog; n++ {
		comp, err := pub.Client.PublishAsync(event.NewTyped("alarm").SetInt("n", int64(n)))
		if err != nil {
			t.Fatalf("publish %d: %v", n, err)
		}
		if comps = append(comps, comp); len(comps) == cap(comps) || n == backlog {
			for _, c := range comps {
				if err := c.Wait(); err != nil {
					t.Fatalf("publish not acked: %v", err)
				}
			}
			comps = comps[:0]
		}
	}

	var mu sync.Mutex
	var order []int64
	obs := dst.Bus.Local("observer")
	if err := obs.Subscribe(event.NewFilter().WhereType("alarm"), func(e *event.Event) {
		if v, ok := e.Get("n"); ok {
			n, _ := v.Int()
			mu.Lock()
			order = append(order, n)
			mu.Unlock()
		}
	}); err != nil {
		t.Fatal(err)
	}

	link, err := smc.Federate(dst, attach(t, net, 0x130002), smc.FederateConfig{
		Name:         "dst-gw",
		RemoteSecret: testSecret,
		RemoteCell:   "src",
		Import:       event.NewFilter().WhereType("alarm"),
	})
	if err != nil {
		t.Fatalf("federate: %v", err)
	}
	defer link.Close()

	deadline := time.Now().Add(30 * time.Second)
	for link.Stats().Imported < backlog {
		if time.Now().After(deadline) {
			t.Fatalf("imported %d/%d", link.Stats().Imported, backlog)
		}
		time.Sleep(5 * time.Millisecond)
	}
	time.Sleep(200 * time.Millisecond) // nothing further may trickle in
	mu.Lock()
	defer mu.Unlock()
	if len(order) != backlog {
		t.Fatalf("home cell saw %d alarms, want %d", len(order), backlog)
	}
	for i, n := range order {
		if n != int64(i+1) {
			t.Fatalf("position %d: alarm %d (dup, loss or reorder)", i, n)
		}
	}
	if st := link.Stats(); st.Skipped != 0 || st.Dropped != 0 || st.ResumeCursor == 0 {
		t.Errorf("link stats = %+v", st)
	}
	if busCh, _ := src.ChannelStats(); busCh.BatchesSent == 0 {
		t.Errorf("remote cell sent no batch packets: the backlog crossed one delivery per packet (%+v)", busCh)
	}
}
