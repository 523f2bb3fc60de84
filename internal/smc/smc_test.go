package smc_test

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/amuse/smc/internal/event"
	"github.com/amuse/smc/internal/ident"
	"github.com/amuse/smc/internal/netsim"
	"github.com/amuse/smc/internal/sensor"
	"github.com/amuse/smc/internal/smc"
	"github.com/amuse/smc/internal/transport"
	"github.com/amuse/smc/internal/wire"
)

var testSecret = []byte("ward-secret")

// newTestCell builds a cell on a fresh simulated network.
func newTestCell(t *testing.T, net *netsim.Network, cfg smc.Config) *smc.Cell {
	t.Helper()
	busTr, err := net.Attach(ident.New(0x10001))
	if err != nil {
		t.Fatalf("attach bus: %v", err)
	}
	discTr, err := net.Attach(ident.New(0x10002))
	if err != nil {
		t.Fatalf("attach discovery: %v", err)
	}
	cell, err := smc.NewCell(busTr, discTr, cfg)
	if err != nil {
		t.Fatalf("new cell: %v", err)
	}
	cell.Start()
	t.Cleanup(func() {
		if err := cell.Close(); err != nil {
			t.Errorf("close cell: %v", err)
		}
	})
	return cell
}

func attach(t *testing.T, net *netsim.Network, id uint64) transport.Transport {
	t.Helper()
	tr, err := net.Attach(ident.New(id))
	if err != nil {
		t.Fatalf("attach %x: %v", id, err)
	}
	return tr
}

func defaultCellConfig() smc.Config {
	return smc.Config{
		Cell:           "test-cell",
		Secret:         testSecret,
		Lease:          500 * time.Millisecond,
		Grace:          500 * time.Millisecond,
		BeaconInterval: 50 * time.Millisecond,
	}
}

func TestEndToEndPublishSubscribe(t *testing.T) {
	net := netsim.New(netsim.Perfect, netsim.WithSeed(7))
	defer net.Close()
	newTestCell(t, net, defaultCellConfig())

	pub, err := smc.JoinCell(attach(t, net, 0x20001), smc.DeviceConfig{
		Type: "generic", Name: "publisher", Secret: testSecret,
	})
	if err != nil {
		t.Fatalf("join publisher: %v", err)
	}
	defer pub.Close()

	sub, err := smc.JoinCell(attach(t, net, 0x20002), smc.DeviceConfig{
		Type: "generic", Name: "subscriber", Secret: testSecret,
	})
	if err != nil {
		t.Fatalf("join subscriber: %v", err)
	}
	defer sub.Close()

	filter := event.NewFilter().WhereType("alarm")
	if err := sub.Client.Subscribe(filter); err != nil {
		t.Fatalf("subscribe: %v", err)
	}

	e := event.NewTyped("alarm").SetStr("source", "hr").SetFloat("value", 190)
	if err := pub.Client.Publish(e); err != nil {
		t.Fatalf("publish: %v", err)
	}

	got, err := sub.Client.NextEvent(3 * time.Second)
	if err != nil {
		t.Fatalf("receive: %v", err)
	}
	if got.Type() != "alarm" {
		t.Errorf("type = %q, want alarm", got.Type())
	}
	if v, ok := got.Get("value"); !ok {
		t.Error("missing value attribute")
	} else if f, _ := v.Float(); f != 190 {
		t.Errorf("value = %v, want 190", f)
	}
	if got.Sender != pub.Client.ID() {
		t.Errorf("sender = %s, want %s", got.Sender, pub.Client.ID())
	}

	// A non-matching publish must not be delivered.
	if err := pub.Client.Publish(event.NewTyped("reading")); err != nil {
		t.Fatalf("publish non-matching: %v", err)
	}
	if _, err := sub.Client.NextEvent(150 * time.Millisecond); err == nil {
		t.Error("received event that should not match")
	}
}

func TestJoinRejectedWithWrongSecret(t *testing.T) {
	net := netsim.New(netsim.Perfect, netsim.WithSeed(8))
	defer net.Close()
	newTestCell(t, net, defaultCellConfig())

	_, err := smc.JoinCell(attach(t, net, 0x20003), smc.DeviceConfig{
		Type: "generic", Name: "intruder", Secret: []byte("wrong"),
		JoinTimeout: 2 * time.Second,
	})
	if err == nil {
		t.Fatal("join with wrong secret succeeded")
	}
}

func TestSensorTranslationThroughProxy(t *testing.T) {
	net := netsim.New(netsim.Perfect, netsim.WithSeed(9))
	defer net.Close()
	cell := newTestCell(t, net, defaultCellConfig())

	// A monitor subscribed to translated readings.
	monitor, err := smc.JoinCell(attach(t, net, 0x20010), smc.DeviceConfig{
		Type: "generic", Name: "monitor", Secret: testSecret,
	})
	if err != nil {
		t.Fatalf("join monitor: %v", err)
	}
	defer monitor.Close()
	if err := monitor.Client.Subscribe(event.NewFilter().WhereType(sensor.TypeReading)); err != nil {
		t.Fatalf("subscribe: %v", err)
	}

	// A heart-rate sensor publishing native bytes.
	hr, err := smc.JoinCell(attach(t, net, 0x20011), smc.DeviceConfig{
		Type: sensor.DeviceTypeHeartRate, Name: "hr-1", Secret: testSecret,
	})
	if err != nil {
		t.Fatalf("join sensor: %v", err)
	}
	defer hr.Close()

	reading := sensor.Reading{Kind: sensor.KindHeartRate, Seq: 42, Millis: 1718000000000, Value: 71.5}
	if err := hr.Client.PublishRaw(sensor.EncodeReading(reading)); err != nil {
		t.Fatalf("publish raw: %v", err)
	}

	got, err := monitor.Client.NextEvent(3 * time.Second)
	if err != nil {
		t.Fatalf("receive translated event: %v", err)
	}
	if got.Type() != sensor.TypeReading {
		t.Fatalf("type = %q, want %q", got.Type(), sensor.TypeReading)
	}
	if v, _ := got.Get(sensor.AttrValue); !v.Equal(event.Float(71.5)) {
		t.Errorf("value = %s, want 71.5", v)
	}
	if v, _ := got.Get(sensor.AttrKind); !v.Equal(event.Str("heart-rate")) {
		t.Errorf("kind = %s, want heart-rate", v)
	}
	if got.Sender != hr.Client.ID() {
		t.Errorf("sender = %s, want sensor %s", got.Sender, hr.Client.ID())
	}
	_ = cell
}

func TestPolicyAlarmToActuator(t *testing.T) {
	net := netsim.New(netsim.Perfect, netsim.WithSeed(10))
	defer net.Close()
	cfg := defaultCellConfig()
	cfg.PolicyText = `
obligation hr-high for "hr-sensor" {
  on type = "reading" && kind = "heart-rate"
  when value > 180
  do publish(type = "actuate", target = "defib-1", action = "analyse"),
     log("tachycardia detected")
}
`
	newTestCell(t, net, cfg)

	defib, err := smc.JoinCell(attach(t, net, 0x20021), smc.DeviceConfig{
		Type: sensor.DeviceTypeDefib, Name: "defib-1", Secret: testSecret,
	})
	if err != nil {
		t.Fatalf("join defib: %v", err)
	}
	defer defib.Close()
	act := sensor.NewActuatorSim("defib-1")
	act.Start(defib.Client.Data())
	defer act.Stop()

	hr, err := smc.JoinCell(attach(t, net, 0x20022), smc.DeviceConfig{
		Type: sensor.DeviceTypeHeartRate, Name: "hr-1", Secret: testSecret,
	})
	if err != nil {
		t.Fatalf("join sensor: %v", err)
	}
	defer hr.Close()

	// Normal reading: no actuation.
	normal := sensor.Reading{Kind: sensor.KindHeartRate, Seq: 1, Millis: 1, Value: 70}
	if err := hr.Client.PublishRaw(sensor.EncodeReading(normal)); err != nil {
		t.Fatalf("publish normal: %v", err)
	}
	// Tachycardia: policy fires, actuator commanded.
	tachy := sensor.Reading{Kind: sensor.KindHeartRate, Seq: 2, Millis: 2, Value: 195}
	if err := hr.Client.PublishRaw(sensor.EncodeReading(tachy)); err != nil {
		t.Fatalf("publish tachy: %v", err)
	}

	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if len(act.Actions()) > 0 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	actions := act.Actions()
	if len(actions) != 1 {
		t.Fatalf("actuator actions = %d, want 1 (%v)", len(actions), actions)
	}
	if actions[0].Opcode != sensor.OpAnalyse {
		t.Errorf("opcode = %d, want analyse", actions[0].Opcode)
	}
}

// TestPolicyDeniesTranslatedData runs the bodyarea example's shipped
// policy, plus the same deny rule for generic devices, on a real cell:
// an encoded event a generic member sends as raw device data (PktData)
// is published by its proxy on its behalf, and the policy engine must
// refuse it exactly as it refuses the PktEvent form — while raw data
// the rules do not target, and the sensors' translated readings, still
// flow.
func TestPolicyDeniesTranslatedData(t *testing.T) {
	shipped, err := os.ReadFile(filepath.Join("..", "..", "examples", "bodyarea", "bodyarea.pol"))
	if err != nil {
		t.Fatal(err)
	}
	net := netsim.New(netsim.Perfect, netsim.WithSeed(12))
	defer net.Close()
	cfg := defaultCellConfig()
	cfg.PolicyText = string(shipped) + `
authorization no-generic-actuation {
  effect deny
  subject "generic"
  action publish
  target type = "actuate"
}
`
	cell := newTestCell(t, net, cfg)
	if n := len(cell.Policy.Authorizations()); n != 2 {
		t.Fatalf("authorisation rules loaded = %d, want 2", n)
	}

	join := func(id uint64, deviceType, name string) *smc.Device {
		t.Helper()
		dev, err := smc.JoinCell(attach(t, net, id), smc.DeviceConfig{Type: deviceType, Name: name, Secret: testSecret})
		if err != nil {
			t.Fatalf("join %s: %v", name, err)
		}
		t.Cleanup(func() { dev.Close() })
		return dev
	}
	monitor := join(0x20071, "generic", "monitor")
	for _, class := range []string{"actuate", "note", sensor.TypeReading} {
		if err := monitor.Client.Subscribe(event.NewFilter().WhereType(class)); err != nil {
			t.Fatalf("subscribe %s: %v", class, err)
		}
	}
	rogue := join(0x20072, "generic", "rogue")
	hr := join(0x20073, sensor.DeviceTypeHeartRate, "hr-1")

	// Same stream, in order: the denied command, then two publishes the
	// policy allows. Seeing the last two and nothing else proves the
	// first was refused, not late.
	command := event.NewTyped("actuate").SetStr("target", "defib-1").SetStr("action", "shock")
	if err := rogue.Client.PublishRaw(wire.EncodeEvent(command)); err != nil {
		t.Fatalf("publish raw command: %v", err)
	}
	if err := rogue.Client.PublishRaw(wire.EncodeEvent(event.NewTyped("note"))); err != nil {
		t.Fatalf("publish raw note: %v", err)
	}
	reading := sensor.Reading{Kind: sensor.KindHeartRate, Seq: 1, Millis: 1, Value: 70}
	if err := hr.Client.PublishRaw(sensor.EncodeReading(reading)); err != nil {
		t.Fatalf("publish reading: %v", err)
	}
	seen := map[string]int{}
	for len(seen) < 2 {
		e, err := monitor.Client.NextEvent(3 * time.Second)
		if err != nil {
			t.Fatalf("after %v: %v", seen, err)
		}
		seen[e.Type()]++
	}
	if e, err := monitor.Client.NextEvent(100 * time.Millisecond); err == nil {
		t.Errorf("unexpected delivery %s", e)
	}
	if seen["actuate"] != 0 || seen["note"] != 1 || seen[sensor.TypeReading] != 1 {
		t.Errorf("delivered %v; want one note, one reading, no actuate", seen)
	}
	if st := cell.Bus.Stats(); st.AuthDenied != 1 {
		t.Errorf("AuthDenied = %d, want 1", st.AuthDenied)
	}
}

func TestPurgeAfterSilence(t *testing.T) {
	net := netsim.New(netsim.Perfect, netsim.WithSeed(11))
	defer net.Close()
	cfg := defaultCellConfig()
	cfg.Lease = 300 * time.Millisecond
	cfg.Grace = 300 * time.Millisecond
	cell := newTestCell(t, net, cfg)

	dev, err := smc.JoinCell(attach(t, net, 0x20031), smc.DeviceConfig{
		Type: "generic", Name: "wanderer", Secret: testSecret,
	})
	if err != nil {
		t.Fatalf("join: %v", err)
	}
	id := dev.Client.ID()

	// Watch for the purge event via a local service.
	purged := make(chan struct{}, 1)
	watcher := cell.Bus.Local("watcher")
	err = watcher.Subscribe(event.NewFilter().WhereType(event.TypePurgeMember), func(e *event.Event) {
		if v, ok := e.Get(event.AttrMember); ok {
			if i, _ := v.Int(); ident.New(uint64(i)) == id {
				select {
				case purged <- struct{}{}:
				default:
				}
			}
		}
	})
	if err != nil {
		t.Fatalf("watch: %v", err)
	}

	// Device silently disappears (no Leave): heartbeats stop.
	if err := dev.Close(); err != nil {
		t.Fatalf("close device: %v", err)
	}

	select {
	case <-purged:
	case <-time.After(5 * time.Second):
		t.Fatal("member was not purged after lease+grace silence")
	}
	if _, ok := cell.Discovery.Member(id); ok {
		t.Error("member still in discovery table after purge")
	}
}

func TestTransientDisconnectionMasked(t *testing.T) {
	net := netsim.New(netsim.Perfect, netsim.WithSeed(12))
	defer net.Close()
	cfg := defaultCellConfig()
	cfg.Lease = 200 * time.Millisecond
	cfg.Grace = 2 * time.Second
	cell := newTestCell(t, net, cfg)

	dev, err := smc.JoinCell(attach(t, net, 0x20041), smc.DeviceConfig{
		Type: "generic", Name: "nurse-pda", Secret: testSecret,
	})
	if err != nil {
		t.Fatalf("join: %v", err)
	}
	defer dev.Close()
	id := dev.Client.ID()

	// Nurse leaves the room: isolate the endpoint briefly (shorter
	// than lease+grace), then return.
	net.Isolate(id)
	time.Sleep(600 * time.Millisecond) // > lease, < lease+grace
	if info, ok := cell.Discovery.Member(id); !ok {
		t.Fatal("member purged during grace period")
	} else if info.State == 0 {
		t.Fatal("missing member state")
	}
	net.Restore(id)
	time.Sleep(500 * time.Millisecond) // heartbeats resume

	info, ok := cell.Discovery.Member(id)
	if !ok {
		t.Fatal("member purged despite returning within grace")
	}
	if info.State.String() != "active" {
		t.Errorf("state = %s, want active after return", info.State)
	}
	st := cell.Discovery.Stats()
	if st.GraceReturns == 0 {
		t.Error("no grace return recorded")
	}
}

func TestVoluntaryLeavePurgesImmediately(t *testing.T) {
	net := netsim.New(netsim.Perfect, netsim.WithSeed(13))
	defer net.Close()
	cell := newTestCell(t, net, defaultCellConfig())

	dev, err := smc.JoinCell(attach(t, net, 0x20051), smc.DeviceConfig{
		Type: "generic", Name: "leaver", Secret: testSecret,
	})
	if err != nil {
		t.Fatalf("join: %v", err)
	}
	id := dev.Client.ID()
	if err := dev.Leave(); err != nil && !errors.Is(err, nil) {
		t.Fatalf("leave: %v", err)
	}

	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if _, ok := cell.Discovery.Member(id); !ok {
			return // purged
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("member not purged after voluntary leave")
}

// TestRestartedDeviceFirstPublishDelivered: a device restarts under
// its own ID before its lease lapses, with nothing sent but one event
// in its first life, and joins again. Its new reliable streams start
// over at sequence 1, where the cell's streams of the old session
// stand, so stale state would drop the new session's first event as a
// duplicate while acknowledging it. The join renews the member's
// session instead: the event arrives, and the member is announced
// once.
func TestRestartedDeviceFirstPublishDelivered(t *testing.T) {
	net := netsim.New(netsim.Perfect, netsim.WithSeed(15))
	defer net.Close()
	cell := newTestCell(t, net, defaultCellConfig())
	var (
		mu     sync.Mutex
		events []string
	)
	watch := cell.Bus.Local("watch")
	for _, class := range []string{event.TypeNewMember, event.TypePurgeMember} {
		if err := watch.Subscribe(event.NewFilter().WhereType(class), func(e *event.Event) {
			if m, _ := e.Get(event.AttrMember); !m.Equal(event.Int(int64(ident.New(0x20062)))) {
				return // the subscriber's
			}
			mu.Lock()
			events = append(events, e.Type())
			mu.Unlock()
		}); err != nil {
			t.Fatal(err)
		}
	}

	sub, err := smc.JoinCell(attach(t, net, 0x20061), smc.DeviceConfig{
		Type: "generic", Name: "subscriber", Secret: testSecret,
	})
	if err != nil {
		t.Fatalf("join subscriber: %v", err)
	}
	defer sub.Close()
	if err := sub.Client.Subscribe(event.NewFilter().WhereType("reading")); err != nil {
		t.Fatal(err)
	}
	join := func() *smc.Device {
		t.Helper()
		dev, err := smc.JoinCellWithRetry(context.Background(), attach(t, net, 0x20062), smc.DeviceConfig{
			Type: "generic", Name: "restarter", Secret: testSecret, JoinTimeout: 500 * time.Millisecond,
		}, smc.RetryConfig{Attempts: 4, BaseDelay: 10 * time.Millisecond})
		if err != nil {
			t.Fatalf("join: %v", err)
		}
		return dev
	}
	for life := int64(1); life <= 2; life++ {
		dev := join()
		if err := dev.Client.Publish(event.NewTyped("reading").SetInt("life", life)); err != nil {
			t.Fatalf("life %d publish: %v", life, err)
		}
		got, err := sub.Client.NextEvent(3 * time.Second)
		if err != nil {
			t.Fatalf("life %d: reading not delivered: %v", life, err)
		}
		if v, _ := got.Get("life"); !v.Equal(event.Int(life)) {
			t.Fatalf("life %d: got reading of life %v", life, v)
		}
		got.Release()
		// The device restarts: no Leave, its lease still runs.
		if err := dev.Close(); err != nil {
			t.Fatal(err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if got, want := strings.Join(events, ", "), "new-member"; got != want {
		t.Errorf("membership events = %s, want %s", got, want)
	}
}

func TestAuthorizationDeniesPublish(t *testing.T) {
	net := netsim.New(netsim.Perfect, netsim.WithSeed(14))
	defer net.Close()
	cfg := defaultCellConfig()
	cfg.PolicyText = `
authorization no-actuate-from-sensors {
  effect deny
  subject "hr-sensor"
  action publish
  target type = "actuate"
}
`
	cell := newTestCell(t, net, cfg)

	sub, err := smc.JoinCell(attach(t, net, 0x20061), smc.DeviceConfig{
		Type: "generic", Name: "sub", Secret: testSecret,
	})
	if err != nil {
		t.Fatalf("join sub: %v", err)
	}
	defer sub.Close()
	if err := sub.Client.Subscribe(event.NewFilter().WhereType("actuate")); err != nil {
		t.Fatalf("subscribe: %v", err)
	}

	hr, err := smc.JoinCell(attach(t, net, 0x20062), smc.DeviceConfig{
		Type: sensor.DeviceTypeHeartRate, Name: "hr-1", Secret: testSecret,
	})
	if err != nil {
		t.Fatalf("join hr: %v", err)
	}
	defer hr.Close()

	// The sensor tries to command an actuator directly: denied.
	if err := hr.Client.Publish(event.NewTyped("actuate").SetStr("target", "defib-1")); err != nil {
		t.Fatalf("publish returned transport error: %v", err)
	}
	if _, err := sub.Client.NextEvent(300 * time.Millisecond); err == nil {
		t.Fatal("denied publish was delivered")
	}
	if cell.Bus.Stats().AuthDenied == 0 {
		t.Error("no auth denial recorded")
	}

	// But its readings still flow.
	if err := hr.Client.Publish(event.NewTyped("reading").SetFloat("value", 70)); err != nil {
		t.Fatalf("publish reading: %v", err)
	}
}
