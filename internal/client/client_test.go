package client_test

import (
	"errors"
	"testing"
	"time"

	"github.com/amuse/smc/internal/bootstrap"
	"github.com/amuse/smc/internal/bus"
	"github.com/amuse/smc/internal/client"
	"github.com/amuse/smc/internal/event"
	"github.com/amuse/smc/internal/ident"
	"github.com/amuse/smc/internal/matcher"
	"github.com/amuse/smc/internal/netsim"
	"github.com/amuse/smc/internal/proxy"
	"github.com/amuse/smc/internal/reliable"
	"github.com/amuse/smc/internal/sensor"
)

const busID = 0xB000

type rig struct {
	net *netsim.Network
	bus *bus.Bus
}

func relCfg() reliable.Config {
	return reliable.Config{
		RetryTimeout:    20 * time.Millisecond,
		MaxRetryTimeout: 100 * time.Millisecond,
		MaxRetries:      15,
	}
}

func newRig(t *testing.T, opts ...bus.Option) *rig {
	t.Helper()
	n := netsim.New(netsim.Perfect, netsim.WithSeed(71))
	tr, err := n.Attach(ident.New(busID))
	if err != nil {
		t.Fatal(err)
	}
	b := bus.New(reliable.New(tr, relCfg()), matcher.NewFast(), newRegistry(), opts...)
	b.Start()
	t.Cleanup(func() {
		b.Close()
		n.Close()
	})
	return &rig{net: n, bus: b}
}

func newRegistry() *bootstrap.Registry {
	reg := bootstrap.NewRegistry()
	_ = reg.Register(sensor.DeviceTypeHeartRate, func(_ ident.ID, _ string) proxy.Device {
		return sensor.NewSensorProxyDevice(sensor.DeviceTypeHeartRate)
	})
	_ = reg.Register(sensor.DeviceTypeDefib, func(_ ident.ID, name string) proxy.Device {
		return sensor.NewActuatorProxyDevice(sensor.DeviceTypeDefib, name)
	})
	return reg
}

func (r *rig) client(t *testing.T, id uint64, deviceType, name string) *client.Client {
	t.Helper()
	tr, err := r.net.Attach(ident.New(id))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.bus.AddMember(ident.New(id), deviceType, name); err != nil {
		t.Fatal(err)
	}
	c := client.New(reliable.New(tr, relCfg()), ident.New(busID))
	t.Cleanup(func() { c.Close() })
	return c
}

func TestClientPublishSubscribe(t *testing.T) {
	r := newRig(t)
	pub := r.client(t, 1, "generic", "p")
	sub := r.client(t, 2, "generic", "s")

	if err := sub.Subscribe(event.NewFilter().WhereType("x")); err != nil {
		t.Fatal(err)
	}
	if err := pub.Publish(event.NewTyped("x").SetInt("n", 7)); err != nil {
		t.Fatal(err)
	}
	e, err := sub.NextEvent(2 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if e.Type() != "x" || e.Sender != pub.ID() || e.Seq != 1 {
		t.Errorf("event = %s", e)
	}
	if pub.Stats().Published != 1 || sub.Stats().EventsReceived != 1 {
		t.Errorf("stats = %+v / %+v", pub.Stats(), sub.Stats())
	}
}

func TestClientSeqIncrements(t *testing.T) {
	r := newRig(t)
	pub := r.client(t, 1, "generic", "p")
	sub := r.client(t, 2, "generic", "s")
	if err := sub.Subscribe(event.NewFilter().WhereType("x")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := pub.Publish(event.NewTyped("x")); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		e, err := sub.NextEvent(2 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if e.Seq != uint64(i+1) {
			t.Fatalf("seq = %d, want %d", e.Seq, i+1)
		}
	}
}

func TestClientUnsubscribe(t *testing.T) {
	r := newRig(t)
	pub := r.client(t, 1, "generic", "p")
	sub := r.client(t, 2, "generic", "s")
	f := event.NewFilter().WhereType("x")
	if err := sub.Subscribe(f); err != nil {
		t.Fatal(err)
	}
	if err := sub.Unsubscribe(f); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	if err := pub.Publish(event.NewTyped("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := sub.NextEvent(200 * time.Millisecond); err == nil {
		t.Error("delivery after unsubscribe")
	}
}

func TestClientValidatesEvents(t *testing.T) {
	r := newRig(t)
	pub := r.client(t, 1, "generic", "p")
	bad := event.New().Set("", event.Int(1))
	if err := pub.Publish(bad); err == nil {
		t.Error("invalid event published")
	}
	badFilter := event.NewFilter().Where("", event.OpEq, event.Int(1))
	if err := pub.Subscribe(badFilter); err == nil {
		t.Error("invalid filter subscribed")
	}
}

func TestClientRawPathThroughSensorProxy(t *testing.T) {
	r := newRig(t)
	hr := r.client(t, 1, sensor.DeviceTypeHeartRate, "hr-1")
	mon := r.client(t, 2, "generic", "monitor")
	if err := mon.Subscribe(event.NewFilter().WhereType(sensor.TypeReading)); err != nil {
		t.Fatal(err)
	}
	reading := sensor.Reading{Kind: sensor.KindHeartRate, Seq: 9, Millis: 5, Value: 64}
	if err := hr.PublishRaw(sensor.EncodeReading(reading)); err != nil {
		t.Fatal(err)
	}
	e, err := mon.NextEvent(2 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := e.Get(sensor.AttrValue); !v.Equal(event.Float(64)) {
		t.Errorf("value = %s", v)
	}
}

func TestClientDataChannelForActuator(t *testing.T) {
	r := newRig(t)
	defib := r.client(t, 1, sensor.DeviceTypeDefib, "defib-1")
	ctrl := r.client(t, 2, "generic", "controller")

	cmd := event.NewTyped(sensor.TypeActuate).
		SetStr(sensor.AttrTarget, "defib-1").
		SetStr(sensor.AttrAction, "analyse")
	if err := ctrl.Publish(cmd); err != nil {
		t.Fatal(err)
	}
	select {
	case raw := <-defib.Data():
		c, err := sensor.DecodeCommand(raw)
		if err != nil || c.Opcode != sensor.OpAnalyse {
			t.Errorf("cmd = %+v %v", c, err)
		}
		if defib.Stats().DataReceived != 1 {
			t.Errorf("DataReceived = %d", defib.Stats().DataReceived)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no native command delivered")
	}
}

func TestClientQuenchSuppression(t *testing.T) {
	r := newRig(t, bus.WithQuench(true))
	pub := r.client(t, 1, "generic", "p")

	// First publish matches nothing: bus quenches the client.
	if err := pub.Publish(event.NewTyped("lonely")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) && !pub.Quenched() {
		time.Sleep(5 * time.Millisecond)
	}
	if !pub.Quenched() {
		t.Fatal("client not quenched")
	}
	// Publishing while quenched is suppressed locally.
	if err := pub.Publish(event.NewTyped("lonely")); !errors.Is(err, client.ErrQuenched) {
		t.Fatalf("err = %v, want client.ErrQuenched", err)
	}
	if err := pub.PublishRaw([]byte{1}); !errors.Is(err, client.ErrQuenched) {
		t.Fatalf("raw err = %v", err)
	}
	if pub.Stats().QuenchSuppressed != 2 {
		t.Errorf("suppressed = %d", pub.Stats().QuenchSuppressed)
	}

	// A subscription appears: bus unquenches.
	sub := r.client(t, 2, "generic", "s")
	if err := sub.Subscribe(event.NewFilter().WhereType("lonely")); err != nil {
		t.Fatal(err)
	}
	deadline = time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) && pub.Quenched() {
		time.Sleep(5 * time.Millisecond)
	}
	if pub.Quenched() {
		t.Fatal("client not unquenched")
	}
	if err := pub.Publish(event.NewTyped("lonely")); err != nil {
		t.Errorf("publish after unquench: %v", err)
	}
}

func TestClientCloseIdempotentAndUnblocks(t *testing.T) {
	r := newRig(t)
	c := r.client(t, 1, "generic", "p")
	done := make(chan error, 1)
	go func() {
		_, err := c.NextEvent(10 * time.Second)
		done <- err
	}()
	time.Sleep(30 * time.Millisecond)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err == nil {
			t.Error("NextEvent returned event after close")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("NextEvent did not unblock")
	}
	if err := c.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
	if err := c.Publish(event.NewTyped("x")); err == nil {
		t.Error("publish after close")
	}
}

func TestPublishAsyncPipelinesInOrder(t *testing.T) {
	r := newRig(t)
	pub := r.client(t, 1, "generic", "pub")
	sub := r.client(t, 2, "generic", "sub")
	if err := sub.Subscribe(event.NewFilter().WhereType("tick")); err != nil {
		t.Fatal(err)
	}

	const count = 20
	comps := make([]*reliable.Completion, 0, count)
	for i := 1; i <= count; i++ {
		comp, err := pub.PublishAsync(event.NewTyped("tick").SetInt("n", int64(i)))
		if err != nil {
			t.Fatalf("publish %d: %v", i, err)
		}
		comps = append(comps, comp)
	}
	for i, comp := range comps {
		if err := comp.Wait(); err != nil {
			t.Fatalf("completion %d: %v", i, err)
		}
	}
	for want := int64(1); want <= count; want++ {
		e, err := sub.NextEvent(5 * time.Second)
		if err != nil {
			t.Fatalf("waiting for tick %d: %v", want, err)
		}
		v, _ := e.Get("n")
		n, _ := v.Int()
		if n != want {
			t.Fatalf("tick %d arrived, want %d (order violated)", n, want)
		}
	}
	if st := pub.Stats(); st.Published != count {
		t.Errorf("published = %d, want %d", st.Published, count)
	}
}

func TestPublishAsyncQuenched(t *testing.T) {
	r := newRig(t, bus.WithQuench(true))
	pub := r.client(t, 1, "generic", "pub")
	// No subscriber matches: the first publish provokes a quench.
	if _, err := pub.PublishAsync(event.NewTyped("lonely")); err != nil {
		t.Fatalf("first publish: %v", err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for !pub.Quenched() && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := pub.PublishAsync(event.NewTyped("lonely")); !errors.Is(err, client.ErrQuenched) {
		t.Errorf("quenched publish err = %v", err)
	}
}
