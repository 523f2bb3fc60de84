package bus

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/amuse/smc/internal/event"
	"github.com/amuse/smc/internal/ident"
	"github.com/amuse/smc/internal/matcher"
)

// TestMembershipOrderedWithMemberTraffic: a member whose events hash
// onto another shard than the membership service's. That service's
// shard is held the whole time the member is present, so an
// announcement keyed by its publisher would come after the member's
// first event. Keyed by its subject it comes first, and Purge Member
// comes after the member's last event.
func TestMembershipOrderedWithMemberTraffic(t *testing.T) {
	r := newRig(t, WithShards(4))
	held := r.bus.shardFor(r.bus.announcer.ID())
	id := uint64(1)
	for r.bus.shardFor(ident.New(id)) == held {
		id++
	}
	m := ident.New(id)

	var (
		mu   sync.Mutex
		seen []seenEvent
	)
	saw := make(chan struct{}, 3)
	record := func(e *event.Event) {
		se := seenOf(e)
		if se.member != 0 && se.member != m {
			return // another member's announcement
		}
		mu.Lock()
		seen = append(seen, se)
		mu.Unlock()
		saw <- struct{}{}
	}
	watch := r.bus.Local("watch")
	for _, class := range []string{event.TypeNewMember, event.TypePurgeMember, "reading"} {
		if err := watch.Subscribe(event.NewFilter().WhereType(class), record); err != nil {
			t.Fatal(err)
		}
	}
	hold := make(chan struct{})
	defer close(hold)
	entered := make(chan struct{})
	if err := r.bus.Local("stall").Subscribe(event.NewFilter().WhereType("hold"), func(*event.Event) {
		close(entered)
		<-hold
	}); err != nil {
		t.Fatal(err)
	}
	if err := r.bus.announcer.Publish(event.NewTyped("hold")); err != nil {
		t.Fatal(err)
	}
	<-entered

	ch := r.member(t, id, "generic")
	publish(t, ch, event.NewTyped("reading").SetFloat("value", 72))
	waitSeen(t, saw, 2)
	r.bus.RemoveMember(m, "test")
	waitSeen(t, saw, 1)

	mu.Lock()
	defer mu.Unlock()
	var order []string
	for _, se := range seen {
		order = append(order, se.class)
	}
	if got, want := fmt.Sprint(order), fmt.Sprint([]string{event.TypeNewMember, "reading", event.TypePurgeMember}); got != want {
		t.Fatalf("order = %s, want %s", got, want)
	}
	// The announcements name the member, its device type and name; only
	// Purge Member carries a reason. Their sender is the membership
	// service, never the member.
	service := r.bus.announcer.ID()
	want := []seenEvent{
		{class: event.TypeNewMember, sender: service, member: m, deviceType: "generic", name: "dev"},
		{class: event.TypePurgeMember, sender: service, member: m, deviceType: "generic", name: "dev", reason: "test", hasReason: true},
	}
	for i, se := range []seenEvent{seen[0], seen[2]} {
		if se != want[i] {
			t.Errorf("%s = %+v, want %+v", want[i].class, se, want[i])
		}
	}
}

// seenEvent is what the membership tests read off an event.
type seenEvent struct {
	class            string
	sender, member   ident.ID
	deviceType, name string
	reason           string
	hasReason        bool
}

func seenOf(e *event.Event) seenEvent {
	se := seenEvent{class: e.Type(), sender: e.Sender}
	if v, ok := e.Get(event.AttrMember); ok {
		id, _ := v.Int()
		se.member = ident.ID(id)
	}
	if v, ok := e.Get(event.AttrDeviceType); ok {
		se.deviceType, _ = v.Str()
	}
	if v, ok := e.Get("name"); ok {
		se.name, _ = v.Str()
	}
	if v, ok := e.Get("reason"); ok {
		se.reason, _ = v.Str()
		se.hasReason = true
	}
	return se
}

// TestRemoveAndAddOfOneMemberStayOrdered races RemoveMember against
// AddMember of the same ID. The add waits until the removal has queued
// its Purge Member, so the announcements about the member alternate
// New, Purge, New, … and the last one matches whether it is a member.
func TestRemoveAndAddOfOneMemberStayOrdered(t *testing.T) {
	r := newRig(t, WithShards(4))
	m := ident.New(0x77)
	var (
		mu    sync.Mutex
		order []string
	)
	saw := make(chan struct{}, 1024)
	watch := r.bus.Local("watch")
	for _, class := range []string{event.TypeNewMember, event.TypePurgeMember} {
		if err := watch.Subscribe(event.NewFilter().WhereType(class), func(e *event.Event) {
			mu.Lock()
			order = append(order, e.Type())
			mu.Unlock()
			saw <- struct{}{}
		}); err != nil {
			t.Fatal(err)
		}
	}
	var (
		adds atomic.Int64
		wg   sync.WaitGroup
	)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if (i+g)%2 == 1 {
					r.bus.RemoveMember(m, "test")
				} else if r.bus.AddMember(m, "generic", "dev") == nil {
					adds.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	present := r.bus.MemberProxy(m) != nil
	events := 2 * int(adds.Load())
	if present {
		events--
	}
	waitSeen(t, saw, events)

	mu.Lock()
	defer mu.Unlock()
	for i, class := range order {
		want := event.TypeNewMember
		if i%2 == 1 {
			want = event.TypePurgeMember
		}
		if class != want {
			t.Fatalf("announcement %d of %d is %s, want %s", i, len(order), class, want)
		}
	}
	if last := order[len(order)-1]; present != (last == event.TypeNewMember) {
		t.Fatalf("member present = %v, last announcement %s", present, last)
	}
}

func waitSeen(t *testing.T, saw <-chan struct{}, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		select {
		case <-saw:
		case <-time.After(5 * time.Second):
			t.Fatalf("saw %d of %d events", i, n)
		}
	}
}

// stallAuthorizer holds the receive loop in admit on the first member
// publish until release closes.
type stallAuthorizer struct {
	once             sync.Once
	entered, release chan struct{}
}

func (a *stallAuthorizer) AuthorizePublish(ident.ID, string, *event.Event) error {
	a.once.Do(func() { close(a.entered); <-a.release })
	return nil
}

func (a *stallAuthorizer) AuthorizeSubscribe(ident.ID, string, *event.Filter) error { return nil }

// TestRemoveMemberAdmitsAcknowledgedPublishes: publishes the bus channel
// has acknowledged, but the receive loop has not read yet, are admitted
// even when the member is removed in between — as when its graceful
// leave reaches discovery, on another endpoint, first.
func TestRemoveMemberAdmitsAcknowledgedPublishes(t *testing.T) {
	r := newStoppedRig(t, matcher.NewFast())
	gate := &stallAuthorizer{entered: make(chan struct{}), release: make(chan struct{})}
	r.bus.SetAuthorizer(gate)
	r.bus.Start()
	sub := r.member(t, 1, "generic")
	pub := r.member(t, 2, "generic")
	subscribe(t, sub, event.NewFilter().WhereType("reading"))
	waitForSubs(t, r.bus, 1)

	publish(t, pub, event.NewTyped("reading").SetInt("n", 0))
	<-gate.entered
	// The loop is held on reading 0; the channel still takes and
	// acknowledges readings 1 and 2.
	for n := int64(1); n <= 2; n++ {
		publish(t, pub, event.NewTyped("reading").SetInt("n", n))
	}
	removed := make(chan struct{})
	go func() {
		r.bus.RemoveMember(pub.LocalID(), "left")
		close(removed)
	}()
	// A removal that does not wait for the loop is done long before
	// this; one that waits is still waiting.
	select {
	case <-removed:
	case <-time.After(100 * time.Millisecond):
	}
	close(gate.release)
	<-removed

	for want := int64(0); want <= 2; want++ {
		e := expectEvent(t, sub, 5*time.Second)
		if v, _ := e.Get("n"); !v.Equal(event.Int(want)) {
			t.Fatalf("reading %d: got %s", want, e)
		}
	}
	if st := r.bus.Stats(); st.NonMember != 0 {
		t.Errorf("NonMember = %d, want 0", st.NonMember)
	}
}
