package policy

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/amuse/smc/internal/bootstrap"
	"github.com/amuse/smc/internal/bus"
	"github.com/amuse/smc/internal/event"
	"github.com/amuse/smc/internal/ident"
	"github.com/amuse/smc/internal/matcher"
	"github.com/amuse/smc/internal/netsim"
	"github.com/amuse/smc/internal/reliable"
)

// engineRig hosts a bus and a policy engine.
type engineRig struct {
	bus *bus.Bus
	eng *Engine
	app *bus.LocalService
}

func newEngineRig(t *testing.T, opts ...Option) *engineRig {
	t.Helper()
	n := netsim.New(netsim.Perfect, netsim.WithSeed(61))
	tr, err := n.Attach(ident.New(0xB05))
	if err != nil {
		t.Fatal(err)
	}
	cfg := reliable.Config{RetryTimeout: 20 * time.Millisecond, MaxRetries: 10}
	b := bus.New(reliable.New(tr, cfg), matcher.NewFast(), bootstrap.NewRegistry())
	eng, err := NewEngine(b, opts...)
	if err != nil {
		t.Fatal(err)
	}
	b.SetAuthorizer(eng)
	b.Start()
	t.Cleanup(func() {
		b.Close()
		n.Close()
	})
	return &engineRig{bus: b, eng: eng, app: b.Local("app")}
}

// waitFires polls until the engine has fired at least n times.
func (r *engineRig) waitFires(t *testing.T, n uint64) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if r.eng.Stats().Fires >= n {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("fires = %d, want ≥ %d", r.eng.Stats().Fires, n)
}

// memberEvent fabricates a discovery membership event.
func memberEvent(class, deviceType string, id uint64) *event.Event {
	return event.NewTyped(class).
		Set(event.AttrMember, event.Int(int64(id))).
		Set(event.AttrDeviceType, event.Str(deviceType)).
		SetStr("name", "dev")
}

func TestObligationFiresAndPublishes(t *testing.T) {
	r := newEngineRig(t)
	err := r.eng.LoadString(`
obligation alarm-on-high {
  on type = "reading"
  when value > 100
  do publish(type = "alarm", severity = 2), log("high")
}
`)
	if err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	var alarms []*event.Event
	if err := r.app.Subscribe(event.NewFilter().WhereType("alarm"), func(e *event.Event) {
		mu.Lock()
		alarms = append(alarms, e)
		mu.Unlock()
	}); err != nil {
		t.Fatal(err)
	}

	if err := r.app.Publish(event.NewTyped("reading").SetFloat("value", 50)); err != nil {
		t.Fatal(err)
	}
	if err := r.app.Publish(event.NewTyped("reading").SetFloat("value", 150)); err != nil {
		t.Fatal(err)
	}
	r.waitFires(t, 1)

	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		mu.Lock()
		n := len(alarms)
		mu.Unlock()
		if n >= 1 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(alarms) != 1 {
		t.Fatalf("alarms = %d", len(alarms))
	}
	a := alarms[0]
	if v, _ := a.Get("severity"); !v.Equal(event.Int(2)) {
		t.Errorf("severity = %s", v)
	}
	if v, _ := a.Get("policy"); !v.Equal(event.Str("alarm-on-high")) {
		t.Errorf("policy attr = %s", v)
	}
	st := r.eng.Stats()
	if st.PublishActions != 1 || st.LogActions != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestEnableDisable(t *testing.T) {
	r := newEngineRig(t)
	if err := r.eng.LoadString(`obligation p { on type = "t" do log("x") }`); err != nil {
		t.Fatal(err)
	}
	if err := r.eng.disable("p"); err != nil {
		t.Fatal(err)
	}
	if err := r.app.Publish(event.NewTyped("t")); err != nil {
		t.Fatal(err)
	}
	time.Sleep(150 * time.Millisecond)
	if r.eng.Stats().Fires != 0 {
		t.Error("disabled policy fired")
	}
	if err := r.eng.enable("p"); err != nil {
		t.Fatal(err)
	}
	if err := r.app.Publish(event.NewTyped("t")); err != nil {
		t.Fatal(err)
	}
	r.waitFires(t, 1)

	if err := r.eng.enable("nope"); err == nil {
		t.Error("enable of unknown policy succeeded")
	}
}

func TestPolicyTogglesPolicy(t *testing.T) {
	r := newEngineRig(t)
	err := r.eng.LoadString(`
obligation quiet { on type = "night-mode" do disable("beeper") }
obligation beeper { on type = "reading" do publish(type = "beep") }
`)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.app.Publish(event.NewTyped("night-mode")); err != nil {
		t.Fatal(err)
	}
	r.waitFires(t, 1)
	deadline := time.Now().Add(time.Second)
	for time.Now().Before(deadline) {
		infos := r.eng.Obligations()
		for _, pi := range infos {
			if pi.Name == "beeper" && !pi.Enabled {
				return
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("beeper not disabled by quiet policy")
}

func TestDeviceTypeScopedDeployment(t *testing.T) {
	r := newEngineRig(t)
	err := r.eng.LoadString(`
obligation scoped for "hr-sensor" {
  on type = "tick"
  do log("tick")
}
`)
	if err != nil {
		t.Fatal(err)
	}
	// No hr-sensor member yet: not deployed, must not fire.
	if err := r.app.Publish(event.NewTyped("tick")); err != nil {
		t.Fatal(err)
	}
	time.Sleep(150 * time.Millisecond)
	if r.eng.Stats().Fires != 0 {
		t.Fatal("scoped policy fired without member")
	}

	// A member of the type joins: deployed.
	if err := r.app.Publish(memberEvent(event.TypeNewMember, "hr-sensor", 7)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(time.Second)
	for time.Now().Before(deadline) {
		ob := r.eng.Obligations()
		if len(ob) == 1 && ob[0].Deployed {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := r.app.Publish(event.NewTyped("tick")); err != nil {
		t.Fatal(err)
	}
	r.waitFires(t, 1)

	// The last member leaves: withdrawn again.
	if err := r.app.Publish(memberEvent(event.TypePurgeMember, "hr-sensor", 7)); err != nil {
		t.Fatal(err)
	}
	deadline = time.Now().Add(time.Second)
	for time.Now().Before(deadline) {
		ob := r.eng.Obligations()
		if len(ob) == 1 && !ob[0].Deployed {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	fires := r.eng.Stats().Fires
	if err := r.app.Publish(event.NewTyped("tick")); err != nil {
		t.Fatal(err)
	}
	time.Sleep(150 * time.Millisecond)
	if r.eng.Stats().Fires != fires {
		t.Error("withdrawn policy fired")
	}
}

func TestAddRemoveObligation(t *testing.T) {
	r := newEngineRig(t)
	o := &Obligation{
		Name:    "direct",
		On:      event.NewFilter().WhereType("x"),
		Actions: []Action{{Kind: actionLog, Message: "m"}},
	}
	if err := r.eng.addObligation(o); err != nil {
		t.Fatal(err)
	}
	if err := r.eng.addObligation(o); err == nil {
		t.Error("duplicate obligation accepted")
	}
	if err := r.eng.removeObligation("direct"); err != nil {
		t.Fatal(err)
	}
	if err := r.eng.removeObligation("direct"); err == nil {
		t.Error("double remove succeeded")
	}
	// After removal the policy never fires.
	if err := r.app.Publish(event.NewTyped("x")); err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond)
	if r.eng.Stats().Fires != 0 {
		t.Error("removed policy fired")
	}
}

// TestRemoveObligationSharedFilter: removing one of two obligations on
// an equal filter takes out that obligation's handler, not the older
// one's.
func TestRemoveObligationSharedFilter(t *testing.T) {
	r := newEngineRig(t)
	if err := r.eng.LoadString(`
obligation first { on type = "reading" do log("first") }
obligation second { on type = "reading" do log("second") }
`); err != nil {
		t.Fatal(err)
	}
	if err := r.eng.removeObligation("second"); err != nil {
		t.Fatal(err)
	}
	if err := r.app.Publish(event.NewTyped("reading")); err != nil {
		t.Fatal(err)
	}
	r.waitFires(t, 1)
	time.Sleep(50 * time.Millisecond) // room for a wrong second fire
	infos := r.eng.Obligations()
	if len(infos) != 1 || infos[0].Name != "first" || infos[0].Fires != 1 || r.eng.Stats().Fires != 1 {
		t.Fatalf("after removing second: %+v, %d fires", infos, r.eng.Stats().Fires)
	}
}

// TestDecideZeroAlloc pins the authorisation verdict at 0 allocs, on
// allow and on deny: every refusal is built when its policy is
// installed.
func TestDecideZeroAlloc(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation pin")
	}
	r := newEngineRig(t)
	if err := r.eng.LoadString(`
authorization allow-readings { effect allow subject * action publish target type = "reading" }
authorization deny-actuate { effect deny subject * action publish target type = "actuate" }
`); err != nil {
		t.Fatal(err)
	}
	reading, actuate, other := event.NewTyped("reading"), event.NewTyped("actuate"), event.NewTyped("misc")
	for _, tc := range []struct {
		name string
		ev   *event.Event
		deny string
	}{{"allow", reading, ""}, {"deny", actuate, `denied by policy "deny-actuate"`}, {"unmatched", other, ""}} {
		err := r.eng.AuthorizePublish(1, "hr-sensor", tc.ev)
		if tc.deny == "" && err != nil || tc.deny != "" && (!errors.Is(err, bus.ErrUnauthorized) || !strings.Contains(err.Error(), tc.deny)) {
			t.Fatalf("%s: verdict %v", tc.name, err)
		}
		if allocs := testing.AllocsPerRun(1000, func() { _ = r.eng.AuthorizePublish(1, "hr-sensor", tc.ev) }); allocs != 0 {
			t.Errorf("%s allocates %.1f objects per decision, want 0", tc.name, allocs)
		}
	}
}

func TestAuthorizationDenyOverrides(t *testing.T) {
	r := newEngineRig(t)
	err := r.eng.LoadString(`
authorization allow-readings {
  effect allow
  subject "hr-sensor"
  action publish
  target type = "reading"
}
authorization deny-actuate {
  effect deny
  subject *
  action publish
  target type = "actuate"
}
`)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.eng.AuthorizePublish(1, "hr-sensor", event.NewTyped("reading")); err != nil {
		t.Errorf("allowed publish denied: %v", err)
	}
	err = r.eng.AuthorizePublish(1, "hr-sensor", event.NewTyped("actuate"))
	if !errors.Is(err, bus.ErrUnauthorized) {
		t.Errorf("deny rule ignored: %v", err)
	}
	// Default is allow for unmatched traffic.
	if err := r.eng.AuthorizePublish(1, "other", event.NewTyped("misc")); err != nil {
		t.Errorf("default-allow broken: %v", err)
	}
}

func TestAuthorizeSubscribeTargets(t *testing.T) {
	r := newEngineRig(t)
	err := r.eng.LoadString(`
authorization no-actuate-subs {
  effect deny
  subject "hr-sensor"
  action subscribe
  target type = "actuate"
}
`)
	if err != nil {
		t.Fatal(err)
	}
	// Subscription pinned to another type: allowed.
	f := event.NewFilter().WhereType("reading")
	if err := r.eng.AuthorizeSubscribe(1, "hr-sensor", f); err != nil {
		t.Errorf("reading subscription denied: %v", err)
	}
	// Subscription pinned to the denied type: denied.
	f = event.NewFilter().WhereType("actuate")
	if err := r.eng.AuthorizeSubscribe(1, "hr-sensor", f); err == nil {
		t.Error("actuate subscription allowed")
	}
	// Unpinned subscription could receive actuate events: denied.
	f = event.NewFilter().Where("value", event.OpGt, event.Int(0))
	if err := r.eng.AuthorizeSubscribe(1, "hr-sensor", f); err == nil {
		t.Error("unpinned subscription allowed")
	}
	// Other device types unaffected.
	f = event.NewFilter().WhereType("actuate")
	if err := r.eng.AuthorizeSubscribe(1, "nurse-pda", f); err != nil {
		t.Errorf("other subject denied: %v", err)
	}
}

func TestAddRemoveAuthorization(t *testing.T) {
	r := newEngineRig(t)
	a := &Authorization{Name: "a1", Effect: effectDeny, Subject: "*", Verb: verbPublish}
	if err := r.eng.addAuthorization(a); err != nil {
		t.Fatal(err)
	}
	if err := r.eng.addAuthorization(a); err == nil {
		t.Error("duplicate authorization accepted")
	}
	if err := r.eng.AuthorizePublish(1, "x", event.New()); err == nil {
		t.Error("deny-all rule inert")
	}
	if got := r.eng.Authorizations(); len(got) != 1 || got[0] != "a1" {
		t.Errorf("auths = %v", got)
	}
}

func TestWhenClauseGatesActions(t *testing.T) {
	r := newEngineRig(t)
	if err := r.eng.LoadString(`
obligation gated {
  on type = "reading"
  when value >= 10 && value < 20
  do log("in band")
}
`); err != nil {
		t.Fatal(err)
	}
	for _, v := range []float64{5, 25} {
		if err := r.app.Publish(event.NewTyped("reading").SetFloat("value", v)); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(150 * time.Millisecond)
	if r.eng.Stats().Fires != 0 {
		t.Fatal("out-of-band values fired")
	}
	if err := r.app.Publish(event.NewTyped("reading").SetFloat("value", 15)); err != nil {
		t.Fatal(err)
	}
	r.waitFires(t, 1)
}

func TestLogfHook(t *testing.T) {
	var mu sync.Mutex
	var lines []string
	r := newEngineRig(t, WithLogf(func(format string, args ...interface{}) {
		mu.Lock()
		lines = append(lines, format)
		mu.Unlock()
	}))
	if err := r.eng.LoadString(`obligation l { on type = "t" do log("msg") }`); err != nil {
		t.Fatal(err)
	}
	if err := r.app.Publish(event.NewTyped("t")); err != nil {
		t.Fatal(err)
	}
	r.waitFires(t, 1)
	deadline := time.Now().Add(time.Second)
	for time.Now().Before(deadline) {
		mu.Lock()
		n := len(lines)
		mu.Unlock()
		if n > 0 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Error("log action produced no output")
}

func TestObligationsListing(t *testing.T) {
	r := newEngineRig(t)
	if err := r.eng.LoadString(`
obligation a { on type = "x" do log("a") }
obligation b for "pump" { on type = "y" do log("b") }
`); err != nil {
		t.Fatal(err)
	}
	infos := r.eng.Obligations()
	if len(infos) != 2 {
		t.Fatalf("infos = %d", len(infos))
	}
	byName := map[string]PolicyInfo{}
	for _, pi := range infos {
		byName[pi.Name] = pi
	}
	if !byName["a"].Enabled || !byName["a"].Deployed {
		t.Errorf("a = %+v", byName["a"])
	}
	if byName["b"].Deployed {
		t.Errorf("scoped b deployed without member: %+v", byName["b"])
	}
	if byName["b"].DeviceType != "pump" {
		t.Errorf("b device type = %q", byName["b"].DeviceType)
	}
}

// TestActionRefusedOnFullShard: an obligation's output goes to the
// policy service's shard. With that queue full, the action — running
// on the other shard's worker — must not wait for it: the output is
// refused, counted and logged, and a trigger after the drain publishes.
func TestActionRefusedOnFullShard(t *testing.T) {
	n := netsim.New(netsim.Perfect, netsim.WithSeed(62))
	tr, err := n.Attach(ident.New(0xB06))
	if err != nil {
		t.Fatal(err)
	}
	b := bus.New(reliable.New(tr, reliable.Config{}), matcher.NewFast(), bootstrap.NewRegistry(),
		bus.WithShards(2), bus.WithQueueDepth(4))
	var mu sync.Mutex
	var logs []string
	eng, err := NewEngine(b, WithLogf(func(format string, args ...interface{}) {
		mu.Lock()
		logs = append(logs, fmt.Sprintf(format, args...))
		mu.Unlock()
	}))
	if err != nil {
		t.Fatal(err)
	}
	b.Start()
	hold := make(chan struct{})
	release := sync.OnceFunc(func() { close(hold) })
	t.Cleanup(func() {
		release()
		b.Close()
		n.Close()
	})
	if err := eng.LoadString(`obligation act { on type = "trigger" do publish(type = "out") }`); err != nil {
		t.Fatal(err)
	}
	watch := b.Local("watch")
	entered, marked := make(chan struct{}, 1), make(chan struct{}, 1)
	if err := watch.Subscribe(event.NewFilter().WhereType("hold"), func(*event.Event) {
		entered <- struct{}{}
		<-hold
	}); err != nil {
		t.Fatal(err)
	}
	if err := watch.Subscribe(event.NewFilter().WhereType("mark"), func(*event.Event) { marked <- struct{}{} }); err != nil {
		t.Fatal(err)
	}

	// Hold the shard the policy service publishes to, and fill it.
	pol := b.Local("policy")
	if err := pol.TryPublish(event.NewTyped("hold")); err != nil {
		t.Fatal(err)
	}
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("hold handler never entered")
	}
	for pol.TryPublish(event.NewTyped("fill")) == nil {
	}
	// Trigger from a service on the other shard: the full one refuses
	// every publish.
	var app *bus.LocalService
	for i := 0; app == nil; i++ {
		if svc := b.Local(fmt.Sprintf("app-%d", i)); svc.TryPublish(event.NewTyped("trigger")) == nil {
			app = svc
		}
	}
	for deadline := time.Now().Add(5 * time.Second); eng.Stats().ActionFailures == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the action never ran")
		}
	}
	if st := eng.Stats(); st.Fires != 1 || st.ActionFailures != 1 || st.PublishActions != 0 {
		t.Fatalf("stats = %+v; want 1 fire, 1 action failure, 0 publish actions", st)
	}

	release()
	if err := pol.Publish(event.NewTyped("mark")); err != nil {
		t.Fatal(err)
	}
	<-marked // the policy shard has drained
	if err := app.Publish(event.NewTyped("trigger")); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); eng.Stats().PublishActions == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("second trigger published nothing: %+v", eng.Stats())
		}
	}
	if st := eng.Stats(); st.ActionFailures != 1 {
		t.Errorf("ActionFailures = %d after the drain", st.ActionFailures)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(logs) != 1 || !strings.Contains(logs[0], "refused") {
		t.Errorf("logs = %q; want one refusal", logs)
	}
}

// removeObligation uninstalls an obligation policy.
func (e *Engine) removeObligation(name string) error {
	e.mu.Lock()
	st, ok := e.obligations[name]
	delete(e.obligations, name)
	e.mu.Unlock()
	if !ok {
		return fmt.Errorf("policy: no obligation %q", name)
	}
	return st.remove()
}
