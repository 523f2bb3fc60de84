package discovery

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/amuse/smc/internal/event"
	"github.com/amuse/smc/internal/ident"
	"github.com/amuse/smc/internal/netsim"
	"github.com/amuse/smc/internal/reliable"
)

var secret = []byte("s3cret")

// sink collects emitted membership events.
type sink struct {
	mu     sync.Mutex
	events []*event.Event
}

func (s *sink) Publish(e *event.Event) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.events = append(s.events, e)
	return nil
}

func (s *sink) ofType(class string) []*event.Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []*event.Event
	for _, e := range s.events {
		if e.Type() == class {
			out = append(out, e)
		}
	}
	return out
}

func relCfg() reliable.Config {
	return reliable.Config{
		RetryTimeout:    20 * time.Millisecond,
		MaxRetryTimeout: 100 * time.Millisecond,
		MaxRetries:      15,
	}
}

type fixture struct {
	net  *netsim.Network
	svc  *Service
	sink *sink
}

func newFixture(t *testing.T, cfg ServiceConfig) *fixture {
	t.Helper()
	n := netsim.New(netsim.Perfect, netsim.WithSeed(41))
	tr, err := n.Attach(ident.New(0xD15C))
	if err != nil {
		t.Fatal(err)
	}
	s := &sink{}
	if cfg.Cell == "" {
		cfg.Cell = "cell-1"
	}
	if cfg.Secret == nil {
		cfg.Secret = secret
	}
	if cfg.BusID == 0 {
		cfg.BusID = ident.New(0xB05)
	}
	if cfg.BeaconInterval == 0 {
		cfg.BeaconInterval = 30 * time.Millisecond
	}
	if cfg.Lease == 0 {
		cfg.Lease = 250 * time.Millisecond
	}
	if cfg.Grace == 0 {
		cfg.Grace = 250 * time.Millisecond
	}
	svc, err := NewService(reliable.New(tr, relCfg()), s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	svc.Start()
	t.Cleanup(func() {
		svc.Close()
		n.Close()
	})
	return &fixture{net: n, svc: svc, sink: s}
}

func (f *fixture) device(t *testing.T, id uint64) *reliable.Channel {
	t.Helper()
	tr, err := f.net.Attach(ident.New(id))
	if err != nil {
		t.Fatal(err)
	}
	ch := reliable.New(tr, relCfg())
	t.Cleanup(func() { ch.Close() })
	return ch
}

func TestJoinHappyPath(t *testing.T) {
	f := newFixture(t, ServiceConfig{})
	ch := f.device(t, 1)

	res, err := Join(ch, JoinConfig{
		DeviceType: "hr-sensor", DeviceName: "hr-1", Secret: secret,
		Timeout: 3 * time.Second,
	})
	if err != nil {
		t.Fatalf("join: %v", err)
	}
	if res.Cell != "cell-1" || res.Bus != ident.New(0xB05) || res.Discovery != f.svc.ID() {
		t.Errorf("result = %+v", res)
	}
	if res.Lease != 250*time.Millisecond || res.Grace != 250*time.Millisecond {
		t.Errorf("lease/grace = %v/%v", res.Lease, res.Grace)
	}

	info, ok := f.svc.Member(ch.LocalID())
	if !ok || info.DeviceType != "hr-sensor" || info.Name != "hr-1" || info.State != StateActive {
		t.Errorf("member = %+v, %v", info, ok)
	}
	var news []*event.Event
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if news = f.sink.ofType(event.TypeNewMember); len(news) > 0 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if len(news) != 1 {
		t.Fatalf("new-member events = %d", len(news))
	}
	if v, _ := news[0].Get(event.AttrDeviceType); !v.Equal(event.Str("hr-sensor")) {
		t.Errorf("device-type attr = %s", v)
	}
}

func TestJoinWrongSecretRejected(t *testing.T) {
	f := newFixture(t, ServiceConfig{})
	ch := f.device(t, 2)
	_, err := Join(ch, JoinConfig{
		DeviceType: "x", DeviceName: "y", Secret: []byte("wrong"),
		Timeout: 2 * time.Second,
	})
	if !errors.Is(err, ErrRejected) {
		t.Fatalf("err = %v, want rejection", err)
	}
	if f.svc.Stats().Rejected == 0 {
		t.Error("rejection not counted")
	}
	if len(f.svc.Members()) != 0 {
		t.Error("rejected device admitted")
	}
}

func TestJoinAdmitHookRejects(t *testing.T) {
	f := newFixture(t, ServiceConfig{
		Admit: func(id ident.ID, deviceType, name string) error {
			if deviceType == "banned" {
				return errors.New("device type banned on this ward")
			}
			return nil
		},
	})
	ch := f.device(t, 3)
	_, err := Join(ch, JoinConfig{DeviceType: "banned", DeviceName: "n", Secret: secret, Timeout: 2 * time.Second})
	if !errors.Is(err, ErrRejected) {
		t.Fatalf("err = %v", err)
	}
	ch2 := f.device(t, 4)
	if _, err := Join(ch2, JoinConfig{DeviceType: "fine", DeviceName: "n", Secret: secret, Timeout: 2 * time.Second}); err != nil {
		t.Fatalf("allowed type rejected: %v", err)
	}
}

func TestJoinPinsCellName(t *testing.T) {
	f := newFixture(t, ServiceConfig{Cell: "ward-7"})
	ch := f.device(t, 5)
	if _, err := Join(ch, JoinConfig{
		DeviceType: "x", DeviceName: "y", Secret: secret,
		Cell: "other-cell", Timeout: 400 * time.Millisecond,
	}); !errors.Is(err, ErrNoCell) {
		t.Errorf("err = %v, want ErrNoCell", err)
	}
	_ = f
}

func TestJoinNoCellTimeout(t *testing.T) {
	n := netsim.New(netsim.Perfect, netsim.WithSeed(50))
	defer n.Close()
	tr, _ := n.Attach(ident.New(9))
	ch := reliable.New(tr, relCfg())
	defer ch.Close()
	start := time.Now()
	_, err := Join(ch, JoinConfig{DeviceType: "x", Secret: secret, Timeout: 200 * time.Millisecond})
	if !errors.Is(err, ErrNoCell) {
		t.Fatalf("err = %v", err)
	}
	if time.Since(start) < 150*time.Millisecond {
		t.Error("gave up too early")
	}
}

func TestRegisterHookOrderingAndVeto(t *testing.T) {
	var mu sync.Mutex
	registered := []ident.ID{}
	veto := false
	f := newFixture(t, ServiceConfig{
		Register: func(id ident.ID, deviceType, name string) error {
			mu.Lock()
			defer mu.Unlock()
			if veto {
				return errors.New("no room")
			}
			registered = append(registered, id)
			return nil
		},
		Unregister: func(id ident.ID) {
			mu.Lock()
			defer mu.Unlock()
			for i, r := range registered {
				if r == id {
					registered = append(registered[:i], registered[i+1:]...)
				}
			}
		},
	})
	ch := f.device(t, 6)
	if _, err := Join(ch, JoinConfig{DeviceType: "x", DeviceName: "a", Secret: secret, Timeout: 2 * time.Second}); err != nil {
		t.Fatalf("join: %v", err)
	}
	mu.Lock()
	if len(registered) != 1 || registered[0] != ch.LocalID() {
		t.Errorf("registered = %v", registered)
	}
	veto = true
	mu.Unlock()

	ch2 := f.device(t, 7)
	if _, err := Join(ch2, JoinConfig{DeviceType: "x", DeviceName: "b", Secret: secret, Timeout: 2 * time.Second}); !errors.Is(err, ErrRejected) {
		t.Errorf("vetoed join: %v", err)
	}
}

func TestHeartbeatsKeepMemberAlive(t *testing.T) {
	f := newFixture(t, ServiceConfig{Lease: 150 * time.Millisecond, Grace: 150 * time.Millisecond})
	ch := f.device(t, 8)
	res, err := Join(ch, JoinConfig{DeviceType: "x", DeviceName: "a", Secret: secret, Timeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	hb := StartHeartbeats(ch, res.Discovery, 50*time.Millisecond)
	defer hb.Stop()

	time.Sleep(600 * time.Millisecond) // several leases
	info, ok := f.svc.Member(ch.LocalID())
	if !ok || info.State != StateActive {
		t.Errorf("member = %+v, %v after heartbeats", info, ok)
	}
	if f.sink.ofType(event.TypePurgeMember) != nil {
		t.Error("purged despite heartbeats")
	}
}

func TestSilenceLeadsToGraceThenPurge(t *testing.T) {
	f := newFixture(t, ServiceConfig{Lease: 120 * time.Millisecond, Grace: 200 * time.Millisecond})
	ch := f.device(t, 9)
	if _, err := Join(ch, JoinConfig{DeviceType: "x", DeviceName: "a", Secret: secret, Timeout: 2 * time.Second}); err != nil {
		t.Fatal(err)
	}
	// No heartbeats at all. First the member enters grace...
	deadline := time.Now().Add(2 * time.Second)
	sawGrace := false
	for time.Now().Before(deadline) {
		if info, ok := f.svc.Member(ch.LocalID()); ok && info.State == StateGrace {
			sawGrace = true
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !sawGrace {
		t.Fatal("member never entered grace")
	}
	// ...then gets purged.
	deadline = time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if _, ok := f.svc.Member(ch.LocalID()); !ok {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if _, ok := f.svc.Member(ch.LocalID()); ok {
		t.Fatal("member never purged")
	}
	purges := f.sink.ofType(event.TypePurgeMember)
	if len(purges) != 1 {
		t.Fatalf("purge events = %d", len(purges))
	}
	if v, _ := purges[0].Get("reason"); !v.Equal(event.Str("lease-expired")) {
		t.Errorf("reason = %s", v)
	}
	st := f.svc.Stats()
	if st.GraceEntries == 0 || st.Purged != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestHeartbeatDuringGraceRecovers(t *testing.T) {
	f := newFixture(t, ServiceConfig{Lease: 100 * time.Millisecond, Grace: 2 * time.Second})
	ch := f.device(t, 10)
	res, err := Join(ch, JoinConfig{DeviceType: "x", DeviceName: "a", Secret: secret, Timeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	// Fall silent long enough to enter grace.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if info, _ := f.svc.Member(ch.LocalID()); info.State == StateGrace {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	// Resume contact.
	hb := StartHeartbeats(ch, res.Discovery, 30*time.Millisecond)
	defer hb.Stop()
	deadline = time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if info, ok := f.svc.Member(ch.LocalID()); ok && info.State == StateActive {
			if f.svc.Stats().GraceReturns == 0 {
				t.Error("grace return not counted")
			}
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("member did not recover from grace")
}

func TestLeavePurgesImmediately(t *testing.T) {
	f := newFixture(t, ServiceConfig{Lease: 10 * time.Second, Grace: 10 * time.Second})
	ch := f.device(t, 11)
	res, err := Join(ch, JoinConfig{DeviceType: "x", DeviceName: "a", Secret: secret, Timeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if err := Leave(ch, res.Discovery); err != nil {
		t.Fatalf("leave: %v", err)
	}
	// purge drops the member before it publishes the event, so the
	// member's absence does not yet mean the event is out: poll for both.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		_, member := f.svc.Member(ch.LocalID())
		purges := f.sink.ofType(event.TypePurgeMember)
		if member || len(purges) == 0 {
			time.Sleep(10 * time.Millisecond)
			continue
		}
		if len(purges) != 1 {
			t.Fatalf("purge events = %d", len(purges))
		}
		if v, _ := purges[0].Get("reason"); !v.Equal(event.Str("leave")) {
			t.Errorf("reason = %s", v)
		}
		return
	}
	t.Fatal("leave did not purge")
}

func TestKick(t *testing.T) {
	f := newFixture(t, ServiceConfig{Lease: 10 * time.Second, Grace: 10 * time.Second})
	ch := f.device(t, 12)
	if _, err := Join(ch, JoinConfig{DeviceType: "x", DeviceName: "a", Secret: secret, Timeout: 2 * time.Second}); err != nil {
		t.Fatal(err)
	}
	if !f.svc.Kick(ch.LocalID(), "admin") {
		t.Fatal("kick failed")
	}
	if f.svc.Kick(ch.LocalID(), "again") {
		t.Error("double kick succeeded")
	}
	purges := f.sink.ofType(event.TypePurgeMember)
	if len(purges) != 1 {
		t.Fatalf("purge events = %d", len(purges))
	}
}

func TestRejoinOfLiveMemberDoesNotDuplicateNewMember(t *testing.T) {
	f := newFixture(t, ServiceConfig{Lease: 10 * time.Second, Grace: 10 * time.Second})
	ch := f.device(t, 13)
	for i := 0; i < 2; i++ {
		if _, err := Join(ch, JoinConfig{DeviceType: "x", DeviceName: "a", Secret: secret, Timeout: 2 * time.Second}); err != nil {
			t.Fatalf("join %d: %v", i, err)
		}
	}
	if got := len(f.sink.ofType(event.TypeNewMember)); got != 1 {
		t.Errorf("new-member events = %d, want 1", got)
	}
	if f.svc.Stats().Admitted != 1 {
		t.Errorf("Admitted = %d", f.svc.Stats().Admitted)
	}
}

func TestServiceConfigValidation(t *testing.T) {
	n := netsim.New(netsim.Perfect)
	defer n.Close()
	tr, _ := n.Attach(ident.New(1))
	ch := reliable.New(tr, relCfg())
	defer ch.Close()

	if _, err := NewService(ch, nil, ServiceConfig{Cell: "c", BusID: 1}); err == nil {
		t.Error("nil emitter accepted")
	}
	if _, err := NewService(ch, &sink{}, ServiceConfig{BusID: 1}); err == nil {
		t.Error("empty cell accepted")
	}
	if _, err := NewService(ch, &sink{}, ServiceConfig{Cell: "c"}); err == nil {
		t.Error("missing bus ID accepted")
	}
}

func TestAuthDigestProperties(t *testing.T) {
	d1 := AuthDigest(secret, ident.New(1), "cell")
	d2 := AuthDigest(secret, ident.New(2), "cell")
	d3 := AuthDigest(secret, ident.New(1), "other")
	d4 := AuthDigest([]byte("other secret"), ident.New(1), "cell")
	if fmt.Sprintf("%x", d1) == fmt.Sprintf("%x", d2) ||
		fmt.Sprintf("%x", d1) == fmt.Sprintf("%x", d3) ||
		fmt.Sprintf("%x", d1) == fmt.Sprintf("%x", d4) {
		t.Error("digests collide across inputs")
	}
	if !VerifyAuth(secret, ident.New(1), "cell", d1) {
		t.Error("valid digest rejected")
	}
	if VerifyAuth(secret, ident.New(1), "cell", d2) {
		t.Error("wrong digest accepted")
	}
	if VerifyAuth(secret, ident.New(1), "cell", nil) {
		t.Error("nil digest accepted")
	}
}

func TestHeartbeaterStopIsIdempotent(t *testing.T) {
	n := netsim.New(netsim.Perfect, netsim.WithSeed(51))
	defer n.Close()
	tr, _ := n.Attach(ident.New(20))
	ch := reliable.New(tr, relCfg())
	defer ch.Close()
	hb := StartHeartbeats(ch, ident.New(99), 10*time.Millisecond)
	hb.Stop()
	hb.Stop()
}
