package proxy

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/amuse/smc/internal/event"
	"github.com/amuse/smc/internal/ident"
	"github.com/amuse/smc/internal/wire"
)

// fakeSender records sends and can be programmed to fail.
type fakeSender struct {
	mu    sync.Mutex
	sends []sentPacket
	fail  int // fail this many sends before succeeding
	errIs error
}

type sentPacket struct {
	dst     ident.ID
	ptype   wire.PacketType
	payload []byte
}

func (f *fakeSender) Send(dst ident.ID, ptype wire.PacketType, payload []byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.fail > 0 {
		f.fail--
		if f.errIs != nil {
			return f.errIs
		}
		return errors.New("transient failure")
	}
	cp := make([]byte, len(payload))
	copy(cp, payload)
	f.sends = append(f.sends, sentPacket{dst: dst, ptype: ptype, payload: cp})
	return nil
}

func (f *fakeSender) snapshot() []sentPacket {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]sentPacket, len(f.sends))
	copy(out, f.sends)
	return out
}

func collectPublishes() (Publisher, *[]*event.Event, *sync.Mutex) {
	var mu sync.Mutex
	var events []*event.Event
	return func(e *event.Event) error {
		mu.Lock()
		events = append(events, e)
		mu.Unlock()
		return nil
	}, &events, &mu
}

func fastCfg() Config {
	return Config{QueueCap: 16, RedeliveryInterval: 10 * time.Millisecond}
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("condition not reached")
}

func TestProxyDeliversFIFO(t *testing.T) {
	fs := &fakeSender{}
	pub, _, _ := collectPublishes()
	p := New(ident.New(9), &GenericDevice{}, fs, pub, fastCfg())
	p.Start()
	defer p.Purge()

	for i := 0; i < 10; i++ {
		e := event.NewTyped("x").SetInt("n", int64(i))
		e.Sender, e.Seq = 1, uint64(i+1)
		p.Enqueue(e)
	}
	waitFor(t, 2*time.Second, func() bool { return len(fs.snapshot()) == 10 })
	for i, s := range fs.snapshot() {
		if s.ptype != wire.PktEvent || s.dst != ident.New(9) {
			t.Fatalf("send %d: %v to %s", i, s.ptype, s.dst)
		}
		e, err := wire.DecodeEvent(s.payload)
		if err != nil {
			t.Fatal(err)
		}
		v, _ := e.Get("n")
		if n, _ := v.Int(); n != int64(i) {
			t.Fatalf("send %d carries n=%d", i, n)
		}
	}
	if st := p.Stats(); st.Delivered != 10 || st.Enqueued != 10 {
		t.Errorf("stats = %+v", st)
	}
}

func TestProxyRedeliversAfterFailures(t *testing.T) {
	fs := &fakeSender{fail: 3}
	pub, _, _ := collectPublishes()
	p := New(ident.New(9), &GenericDevice{}, fs, pub, fastCfg())
	p.Start()
	defer p.Purge()

	p.Enqueue(event.NewTyped("x"))
	waitFor(t, 2*time.Second, func() bool { return len(fs.snapshot()) == 1 })
	if st := p.Stats(); st.Redeliveries != 3 || st.Delivered != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestProxyQueueBoundedDropOldest(t *testing.T) {
	// A sender that never succeeds wedges the head; the queue then
	// overflows and drops the oldest.
	fs := &fakeSender{fail: 1 << 30}
	pub, _, _ := collectPublishes()
	cfg := Config{QueueCap: 4, RedeliveryInterval: time.Hour}
	p := New(ident.New(9), &GenericDevice{}, fs, pub, cfg)
	p.Start()
	defer p.Purge()

	for i := 0; i < 10; i++ {
		p.Enqueue(event.NewTyped("x").SetInt("n", int64(i)))
	}
	waitFor(t, time.Second, func() bool { return p.Stats().DroppedOldest >= 5 })
	if q := p.QueueLen(); q > 4 {
		t.Errorf("queue len = %d, cap 4", q)
	}
}

// TestQueueReusesItsArray: a queue in steady state — drained as fast as
// it fills, or full and shedding its oldest — keeps its backing array:
// the slack a pop leaves is reused, not abandoned to the next growth.
func TestQueueReusesItsArray(t *testing.T) {
	p := New(ident.New(9), &GenericDevice{}, &fakeSender{}, nil, Config{QueueCap: 64})
	e := event.NewTyped("x")
	// mallocs counts allocations over n runs of op; a queue that slides
	// over its array reallocates every few dozen operations.
	mallocs := func(n int, op func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < n; i++ {
			op()
		}
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	for i := 0; i < 32; i++ {
		p.EnqueueAt(e, uint64(i))
	}
	if n := mallocs(10000, func() { p.Enqueue(e); p.mu.Lock(); p.popLocked(); p.mu.Unlock() }); n > 10 {
		t.Errorf("10 000 enqueue + pop pairs allocated %d objects", n)
	}
	for p.QueueLen() < 64 {
		p.Enqueue(e)
	}
	if n := mallocs(10000, func() { p.Enqueue(e) }); n > 10 {
		t.Errorf("10 000 enqueues onto a full queue allocated %d objects", n)
	}
	if st := p.Stats(); st.DroppedOldest != 10000 || p.QueueLen() != 64 {
		t.Errorf("DroppedOldest = %d, queue %d; want 10000, 64", st.DroppedOldest, p.QueueLen())
	}
}

func TestPurgeDiscardsQueueAndStops(t *testing.T) {
	fs := &fakeSender{fail: 1 << 30}
	pub, _, _ := collectPublishes()
	p := New(ident.New(9), &GenericDevice{}, fs, pub, fastCfg())
	p.Start()

	for i := 0; i < 5; i++ {
		p.Enqueue(event.NewTyped("x"))
	}
	p.Purge()
	st := p.Stats()
	if st.DiscardedOnPurge == 0 {
		t.Errorf("nothing discarded: %+v", st)
	}
	// After purge, enqueue is a no-op.
	p.Enqueue(event.NewTyped("y"))
	if p.QueueLen() != 0 {
		t.Error("enqueue after purge")
	}
	// Purge is idempotent.
	p.Purge()
}

func TestHandleInboundGenericDevice(t *testing.T) {
	fs := &fakeSender{}
	pub, events, mu := collectPublishes()
	p := New(ident.New(9), &GenericDevice{}, fs, pub, fastCfg())
	p.Start()
	defer p.Purge()

	src := event.NewTyped("reading").SetFloat("v", 1.5)
	if err := p.HandleInbound(wire.EncodeEvent(src)); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(*events) != 1 {
		t.Fatalf("published %d", len(*events))
	}
	got := (*events)[0]
	if got.Sender != ident.New(9) {
		t.Errorf("sender = %s, want member", got.Sender)
	}
	if got.Seq != 1 {
		t.Errorf("seq = %d", got.Seq)
	}
	if got.Type() != "reading" {
		t.Errorf("type = %s", got.Type())
	}
}

func TestHandleInboundBadData(t *testing.T) {
	fs := &fakeSender{}
	pub, _, _ := collectPublishes()
	p := New(ident.New(9), &GenericDevice{}, fs, pub, fastCfg())
	p.Start()
	defer p.Purge()
	if err := p.HandleInbound([]byte("garbage")); err == nil {
		t.Error("garbage accepted")
	}
}

// translatingDevice converts outbound events to raw command bytes.
type translatingDevice struct{}

func (translatingDevice) DeviceType() string { return "xlate" }
func (translatingDevice) TranslateIn(data []byte) ([]*event.Event, error) {
	return []*event.Event{event.NewTyped("in")}, nil
}
func (translatingDevice) TranslateOut(e *event.Event) ([]byte, bool, error) {
	if e.Type() == "cmd" {
		return []byte{0xC0}, true, nil
	}
	return nil, false, nil
}
func (translatingDevice) InitialSubscriptions() []*event.Filter {
	return []*event.Filter{event.NewFilter().WhereType("cmd")}
}

func TestTranslateOutProducesDataPackets(t *testing.T) {
	fs := &fakeSender{}
	pub, _, _ := collectPublishes()
	p := New(ident.New(9), translatingDevice{}, fs, pub, fastCfg())
	p.Start()
	defer p.Purge()

	p.Enqueue(event.NewTyped("cmd"))
	p.Enqueue(event.NewTyped("other"))
	waitFor(t, 2*time.Second, func() bool { return len(fs.snapshot()) == 2 })
	sends := fs.snapshot()
	if sends[0].ptype != wire.PktData || sends[0].payload[0] != 0xC0 {
		t.Errorf("first send = %v % x", sends[0].ptype, sends[0].payload)
	}
	if sends[1].ptype != wire.PktEvent {
		t.Errorf("second send = %v", sends[1].ptype)
	}
	if p.Stats().TranslatedOut != 1 {
		t.Errorf("TranslatedOut = %d", p.Stats().TranslatedOut)
	}
	if p.deviceType() != "xlate" {
		t.Errorf("DeviceType = %s", p.deviceType())
	}
	if len(p.InitialSubscriptions()) != 1 {
		t.Error("initial subscriptions lost")
	}
}

// failingOutDevice errors on translation.
type failingOutDevice struct{ GenericDevice }

func (failingOutDevice) TranslateOut(*event.Event) ([]byte, bool, error) {
	return nil, false, fmt.Errorf("cannot translate")
}

func TestTranslateOutErrorDropsEvent(t *testing.T) {
	fs := &fakeSender{}
	pub, _, _ := collectPublishes()
	p := New(ident.New(9), &failingOutDevice{}, fs, pub, fastCfg())
	p.Start()
	defer p.Purge()
	p.Enqueue(event.NewTyped("x"))
	p.Enqueue(event.NewTyped("y"))
	time.Sleep(100 * time.Millisecond)
	if n := len(fs.snapshot()); n != 0 {
		t.Errorf("%d sends despite translation errors", n)
	}
	if p.QueueLen() != 0 {
		t.Error("undeliverable events wedged the queue")
	}
}

func TestGenericDeviceDefaults(t *testing.T) {
	g := &GenericDevice{}
	if g.DeviceType() != "generic" {
		t.Errorf("type = %s", g.DeviceType())
	}
	g2 := &GenericDevice{Type: "custom"}
	if g2.DeviceType() != "custom" {
		t.Errorf("type = %s", g2.DeviceType())
	}
	if data, ok, err := g.TranslateOut(event.New()); data != nil || ok || err != nil {
		t.Error("generic TranslateOut not pass-through")
	}
	if g.InitialSubscriptions() != nil {
		t.Error("generic device has subscriptions")
	}
}

// deviceType returns the concrete device class.
func (p *Proxy) deviceType() string { return p.dev.DeviceType() }
