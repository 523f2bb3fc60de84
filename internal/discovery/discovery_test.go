package discovery

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/amuse/smc/internal/ident"
	"github.com/amuse/smc/internal/netsim"
	"github.com/amuse/smc/internal/reliable"
)

var secret = []byte("s3cret")

// change is one call the service made on its Members.
type change struct {
	id         ident.ID
	deviceType string
	reason     string // of a removal
}

// cellMembers is a fake Members that records adds and removes. While
// hook is set, AddMember calls it first and fails with its error; while
// onRemove is set, RemoveMember calls it first.
type cellMembers struct {
	mu       sync.Mutex
	hook     func(id ident.ID) error
	onRemove func(id ident.ID)
	adds     []change
	removes  []change
	renews   []ident.ID
}

func (m *cellMembers) AddMember(id ident.ID, deviceType, name string) error {
	m.mu.Lock()
	hook := m.hook
	m.mu.Unlock()
	if hook != nil {
		if err := hook(id); err != nil {
			return err
		}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.adds = append(m.adds, change{id: id, deviceType: deviceType})
	return nil
}

func (m *cellMembers) RemoveMember(id ident.ID, reason string) {
	m.mu.Lock()
	onRemove := m.onRemove
	m.mu.Unlock()
	if onRemove != nil {
		onRemove(id)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.removes = append(m.removes, change{id: id, reason: reason})
}

func (m *cellMembers) RenewMember(id ident.ID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.renews = append(m.renews, id)
}

func (m *cellMembers) added() []change {
	m.mu.Lock()
	defer m.mu.Unlock()
	return slices.Clone(m.adds)
}

func (m *cellMembers) removed() []change {
	m.mu.Lock()
	defer m.mu.Unlock()
	return slices.Clone(m.removes)
}

func relCfg() reliable.Config {
	return reliable.Config{
		RetryTimeout:    20 * time.Millisecond,
		MaxRetryTimeout: 100 * time.Millisecond,
		MaxRetries:      15,
	}
}

type fixture struct {
	net     *netsim.Network
	svc     *Service
	members *cellMembers
}

func newFixture(t *testing.T, cfg ServiceConfig) *fixture {
	t.Helper()
	n := netsim.New(netsim.Perfect, netsim.WithSeed(41))
	tr, err := n.Attach(ident.New(0xD15C))
	if err != nil {
		t.Fatal(err)
	}
	m := &cellMembers{}
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
	svc, err := NewService(reliable.New(tr, relCfg()), m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	svc.Start()
	t.Cleanup(func() {
		svc.Close()
		n.Close()
	})
	return &fixture{net: n, svc: svc, members: m}
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
	if !ok || info.DeviceType != "hr-sensor" || info.Name != "hr-1" || info.State != stateActive {
		t.Errorf("member = %+v, %v", info, ok)
	}
	if adds := f.members.added(); len(adds) != 1 || adds[0].id != ch.LocalID() || adds[0].deviceType != "hr-sensor" {
		t.Errorf("adds = %+v", adds)
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

// TestAddMemberBeforeAcceptAndVeto: the service adds a joining device
// to the cell before it sends the JoinAccept, so the device cannot
// publish before it is a member; an error from AddMember rejects the
// join.
func TestAddMemberBeforeAcceptAndVeto(t *testing.T) {
	f := newFixture(t, ServiceConfig{})
	entered, release := make(chan struct{}), make(chan struct{})
	f.members.mu.Lock()
	f.members.hook = func(ident.ID) error {
		close(entered)
		<-release
		return nil
	}
	f.members.mu.Unlock()
	ch := f.device(t, 6)
	joined := make(chan error, 1)
	go func() {
		_, err := Join(ch, JoinConfig{DeviceType: "x", DeviceName: "a", Secret: secret, Timeout: 5 * time.Second})
		joined <- err
	}()
	<-entered
	select {
	case err := <-joined:
		t.Fatalf("join returned (%v) while AddMember was still running", err)
	case <-time.After(100 * time.Millisecond):
	}
	close(release)
	if err := <-joined; err != nil {
		t.Fatalf("join: %v", err)
	}
	if adds := f.members.added(); len(adds) != 1 || adds[0].id != ch.LocalID() {
		t.Errorf("adds = %+v", adds)
	}

	f.members.mu.Lock()
	f.members.hook = func(ident.ID) error { return errors.New("no room") }
	f.members.mu.Unlock()
	ch2 := f.device(t, 7)
	if _, err := Join(ch2, JoinConfig{DeviceType: "x", DeviceName: "b", Secret: secret, Timeout: 2 * time.Second}); !errors.Is(err, ErrRejected) {
		t.Errorf("vetoed join: %v", err)
	}
	if _, ok := f.svc.Member(ch2.LocalID()); ok {
		t.Error("vetoed device is in the member table")
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
	if !ok || info.State != stateActive {
		t.Errorf("member = %+v, %v after heartbeats", info, ok)
	}
	if rm := f.members.removed(); len(rm) != 0 {
		t.Errorf("purged despite heartbeats: %+v", rm)
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
		if info, ok := f.svc.Member(ch.LocalID()); ok && info.State == stateGrace {
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
	if rm := f.members.removed(); len(rm) != 1 || rm[0].id != ch.LocalID() || rm[0].reason != "lease-expired" {
		t.Errorf("removes = %+v", rm)
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
		if info, _ := f.svc.Member(ch.LocalID()); info.State == stateGrace {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	// Resume contact.
	hb := StartHeartbeats(ch, res.Discovery, 30*time.Millisecond)
	defer hb.Stop()
	deadline = time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if info, ok := f.svc.Member(ch.LocalID()); ok && info.State == stateActive {
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
	// purge removes the member from the cell before it drops it from
	// its table, so the member's absence means the removal is done.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if _, member := f.svc.Member(ch.LocalID()); member {
			time.Sleep(10 * time.Millisecond)
			continue
		}
		if rm := f.members.removed(); len(rm) != 1 || rm[0].reason != "leave" {
			t.Errorf("removes = %+v", rm)
		}
		return
	}
	t.Fatal("leave did not purge")
}

// TestPurgeKeepsMemberUntilCellRemoves: while the cell is still
// removing a leaving member, the table keeps listing it, so discovery
// never shows fewer members than the bus.
func TestPurgeKeepsMemberUntilCellRemoves(t *testing.T) {
	f := newFixture(t, ServiceConfig{Lease: 10 * time.Second, Grace: 10 * time.Second})
	ch := f.device(t, 12)
	res, err := Join(ch, JoinConfig{DeviceType: "x", DeviceName: "a", Secret: secret, Timeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	entered, release := make(chan struct{}), make(chan struct{})
	var releaseOnce sync.Once
	t.Cleanup(func() { releaseOnce.Do(func() { close(release) }) })
	f.members.mu.Lock()
	f.members.onRemove = func(ident.ID) {
		close(entered)
		<-release
	}
	f.members.mu.Unlock()
	if err := Leave(ch, res.Discovery); err != nil {
		t.Fatalf("leave: %v", err)
	}
	select {
	case <-entered:
	case <-time.After(2 * time.Second):
		t.Fatal("leave did not reach the cell")
	}
	if _, member := f.svc.Member(ch.LocalID()); !member {
		t.Error("member left the table before the cell removed it")
	}
	releaseOnce.Do(func() { close(release) })
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if _, member := f.svc.Member(ch.LocalID()); !member {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("member still listed after the cell removed it")
}

func TestRejoinOfLiveMemberDoesNotDuplicateNewMember(t *testing.T) {
	f := newFixture(t, ServiceConfig{Lease: 10 * time.Second, Grace: 10 * time.Second})
	ch := f.device(t, 13)
	for i := 0; i < 2; i++ {
		if _, err := Join(ch, JoinConfig{DeviceType: "x", DeviceName: "a", Secret: secret, Timeout: 2 * time.Second}); err != nil {
			t.Fatalf("join %d: %v", i, err)
		}
	}
	if got := len(f.members.added()); got != 1 {
		t.Errorf("adds = %d, want 1", got)
	}
	if f.svc.Stats().Admitted != 1 {
		t.Errorf("Admitted = %d", f.svc.Stats().Admitted)
	}
	f.members.mu.Lock()
	defer f.members.mu.Unlock()
	if len(f.members.renews) != 1 || f.members.renews[0] != ch.LocalID() {
		t.Errorf("renews = %v, want the rejoined device once", f.members.renews)
	}
}

func TestServiceConfigValidation(t *testing.T) {
	n := netsim.New(netsim.Perfect)
	defer n.Close()
	tr, _ := n.Attach(ident.New(1))
	ch := reliable.New(tr, relCfg())
	defer ch.Close()

	if _, err := NewService(ch, nil, ServiceConfig{Cell: "c", BusID: 1}); err == nil {
		t.Error("nil members accepted")
	}
	if _, err := NewService(ch, &cellMembers{}, ServiceConfig{BusID: 1}); err == nil {
		t.Error("empty cell accepted")
	}
	if _, err := NewService(ch, &cellMembers{}, ServiceConfig{Cell: "c"}); err == nil {
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
	if !verifyAuth(secret, ident.New(1), "cell", d1) {
		t.Error("valid digest rejected")
	}
	if verifyAuth(secret, ident.New(1), "cell", d2) {
		t.Error("wrong digest accepted")
	}
	if verifyAuth(secret, ident.New(1), "cell", nil) {
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
