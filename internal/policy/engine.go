package policy

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"github.com/amuse/smc/internal/bus"
	"github.com/amuse/smc/internal/event"
	"github.com/amuse/smc/internal/ident"
)

// Logf is the engine's logging hook.
type Logf func(format string, args ...interface{})

// Engine is the policy service: it hosts obligation policies
// (subscribing to their triggering events on the bus) and evaluates
// authorisation policies for the bus (it implements bus.Authorizer).
type Engine struct {
	svc  *bus.LocalService
	logf Logf

	mu          sync.Mutex
	obligations map[string]*obligationState
	auths       []installedAuth
	typeCount   map[string]int // live members per device type
	stats       Stats
}

var _ bus.Authorizer = (*Engine)(nil)

// installedAuth is an authorisation policy with its refusal built at
// install time, so a denial allocates nothing.
type installedAuth struct {
	*Authorization
	denied error
}

type obligationState struct {
	pol *Obligation
	// remove takes the obligation's handler off the bus.
	remove func() error
	// enabled is the management switch (enable/disable).
	enabled bool
	// deployed tracks device-type scoping: scoped policies are
	// deployed while a member of the type is in the cell.
	deployed bool
	fires    uint64
}

// Stats counts engine activity.
type Stats struct {
	Fires          uint64
	ActionsRun     uint64
	PublishActions uint64
	// ActionFailures counts publish actions whose output the bus
	// refused (a full shard queue, or a closed bus).
	ActionFailures uint64
	LogActions     uint64
	Toggles        uint64
	AllowDecisions uint64
	DenyDecisions  uint64
}

// Option configures the engine.
type Option func(*Engine)

// WithLogf installs a logging hook (default: discard).
func WithLogf(f Logf) Option {
	return func(e *Engine) { e.logf = f }
}

// NewEngine attaches a policy service to the bus as the local service
// "policy". The engine immediately subscribes to membership events so
// that device-type-scoped policies deploy and withdraw automatically.
func NewEngine(b *bus.Bus, opts ...Option) (*Engine, error) {
	e := &Engine{
		svc:         b.Local("policy"),
		logf:        func(string, ...interface{}) {},
		obligations: make(map[string]*obligationState),
		typeCount:   make(map[string]int),
	}
	for _, o := range opts {
		o(e)
	}
	newMember := event.NewFilter().WhereType(event.TypeNewMember)
	purge := event.NewFilter().WhereType(event.TypePurgeMember)
	if err := e.svc.Subscribe(newMember, e.onNewMember); err != nil {
		return nil, fmt.Errorf("policy: subscribe new-member: %w", err)
	}
	if err := e.svc.Subscribe(purge, e.onPurgeMember); err != nil {
		return nil, fmt.Errorf("policy: subscribe purge-member: %w", err)
	}
	return e, nil
}

// Stats returns a snapshot of the counters.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stats
}

// LoadString parses policy text and installs every policy in it.
func (e *Engine) LoadString(src string) error {
	f, err := Parse(src)
	if err != nil {
		return err
	}
	return e.install(f)
}

// install adds the policies of a parsed file.
func (e *Engine) install(f *File) error {
	for _, o := range f.Obligations {
		if err := e.addObligation(o); err != nil {
			return err
		}
	}
	for _, a := range f.Authorizations {
		if err := e.addAuthorization(a); err != nil {
			return err
		}
	}
	return nil
}

// addObligation installs one obligation policy (enabled). Scoped
// policies deploy when a member of their device type is present.
func (e *Engine) addObligation(o *Obligation) error {
	if err := o.validate(); err != nil {
		return err
	}
	// The handler fires nothing until the obligation is installed:
	// deployed is false until then.
	st := &obligationState{pol: o, enabled: true}
	remove, err := e.svc.Handle(o.On, func(ev *event.Event) { e.fire(st, ev) })
	if err != nil {
		return fmt.Errorf("policy: subscribe obligation %q: %w", o.Name, err)
	}
	e.mu.Lock()
	_, dup := e.obligations[o.Name]
	if !dup {
		st.remove = remove
		st.deployed = o.DeviceType == "" || e.typeCount[o.DeviceType] > 0
		e.obligations[o.Name] = st
	}
	e.mu.Unlock()
	if dup {
		_ = remove()
		return fmt.Errorf("policy: duplicate obligation %q", o.Name)
	}
	return nil
}

// addAuthorization installs one authorisation policy.
func (e *Engine) addAuthorization(a *Authorization) error {
	if err := a.validate(); err != nil {
		return err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, have := range e.auths {
		if have.Name == a.Name {
			return fmt.Errorf("policy: duplicate authorization %q", a.Name)
		}
	}
	denied := fmt.Errorf("%w: denied by policy %q", bus.ErrUnauthorized, a.Name)
	e.auths = append(e.auths, installedAuth{a, denied})
	return nil
}

// enable switches an obligation policy on.
func (e *Engine) enable(name string) error { return e.setEnabled(name, true) }

// disable switches an obligation policy off without removing it.
func (e *Engine) disable(name string) error { return e.setEnabled(name, false) }

func (e *Engine) setEnabled(name string, on bool) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	st, ok := e.obligations[name]
	if !ok {
		return fmt.Errorf("policy: no obligation %q", name)
	}
	if st.enabled != on {
		st.enabled = on
		e.stats.Toggles++
	}
	return nil
}

// PolicyInfo is a management snapshot of one obligation.
type PolicyInfo struct {
	Name       string
	DeviceType string
	Enabled    bool
	Deployed   bool
	Fires      uint64
}

// Obligations lists installed obligations.
func (e *Engine) Obligations() []PolicyInfo {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]PolicyInfo, 0, len(e.obligations))
	for _, st := range e.obligations {
		out = append(out, PolicyInfo{
			Name:       st.pol.Name,
			DeviceType: st.pol.DeviceType,
			Enabled:    st.enabled,
			Deployed:   st.deployed,
			Fires:      st.fires,
		})
	}
	return out
}

// Authorizations lists installed authorisation policy names.
func (e *Engine) Authorizations() []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]string, 0, len(e.auths))
	for _, a := range e.auths {
		out = append(out, a.Name)
	}
	return out
}

// ---- obligation execution ----

func (e *Engine) fire(st *obligationState, ev *event.Event) {
	e.mu.Lock()
	active := st.enabled && st.deployed
	e.mu.Unlock()
	if !active {
		return
	}
	if st.pol.When != nil && !st.pol.When.Matches(ev) {
		return
	}
	e.mu.Lock()
	st.fires++
	e.stats.Fires++
	e.mu.Unlock()
	for _, a := range st.pol.Actions {
		e.runAction(st.pol, a, ev)
	}
}

func (e *Engine) runAction(pol *Obligation, a Action, trigger *event.Event) {
	e.mu.Lock()
	e.stats.ActionsRun++
	e.mu.Unlock()
	switch a.Kind {
	case actionPublish:
		out := event.New()
		out.Stamp = time.Now()
		for _, asg := range a.Attrs {
			out.Set(asg.Name, asg.Value)
		}
		// Correlation: record which policy and triggering event
		// produced this event.
		out.SetStr("policy", pol.Name)
		out.SetInt("trigger-sender", int64(trigger.Sender))
		out.SetInt("trigger-seq", int64(trigger.Seq))
		// Actions run on a shard worker, which must never wait on a
		// shard queue (it may be its own): a full one refuses the
		// output, and the refusal is counted and logged at the 1st,
		// 2nd, 4th, 8th … one.
		err := e.svc.TryPublish(out)
		e.mu.Lock()
		if err == nil {
			e.stats.PublishActions++
		} else {
			e.stats.ActionFailures++
		}
		n := e.stats.ActionFailures
		e.mu.Unlock()
		if err != nil && n&(n-1) == 0 {
			e.logf("policy %s: action output refused, %d so far: %v", pol.Name, n, err)
		}
	case actionLog:
		e.mu.Lock()
		e.stats.LogActions++
		e.mu.Unlock()
		e.logf("policy %s: %s (trigger %s)", pol.Name, a.Message, trigger)
	case actionEnable:
		_ = e.enable(a.Message)
	case actionDisable:
		_ = e.disable(a.Message)
	}
}

// ---- deployment on membership changes ----

func (e *Engine) onNewMember(ev *event.Event) {
	dt := deviceTypeOf(ev)
	if dt == "" {
		return
	}
	e.mu.Lock()
	e.typeCount[dt]++
	if e.typeCount[dt] == 1 {
		for _, st := range e.obligations {
			if st.pol.DeviceType == dt {
				st.deployed = true
			}
		}
	}
	e.mu.Unlock()
	e.logf("policy: deployed policies for device type %q", dt)
}

func (e *Engine) onPurgeMember(ev *event.Event) {
	dt := deviceTypeOf(ev)
	if dt == "" {
		return
	}
	e.mu.Lock()
	if e.typeCount[dt] > 0 {
		e.typeCount[dt]--
	}
	if e.typeCount[dt] == 0 {
		for _, st := range e.obligations {
			if st.pol.DeviceType == dt {
				st.deployed = false
			}
		}
	}
	e.mu.Unlock()
}

// deviceTypeOf extracts the device-type attribute as an owned string.
// The copy matters: delivered events may be borrowing decodes whose
// strings die with the event, and the result is stored as a typeCount
// map key that outlives the handler callback.
func deviceTypeOf(ev *event.Event) string {
	v, ok := ev.Get(event.AttrDeviceType)
	if !ok {
		return ""
	}
	s, _ := v.Str()
	return strings.Clone(s)
}

// ---- authorisation (bus.Authorizer) ----

// AuthorizePublish implements bus.Authorizer: a publish a deny rule
// matches is refused, and any other is allowed — an open cell, which
// deny rules close; an allow rule changes no verdict.
func (e *Engine) AuthorizePublish(member ident.ID, deviceType string, ev *event.Event) error {
	return e.decide(verbPublish, deviceType, func(a *Authorization) bool {
		return a.Target == nil || a.Target.Matches(ev)
	})
}

// AuthorizeSubscribe implements bus.Authorizer. A target clause is
// matched against the subscription's equality constraints, projected
// as an event: a subscription for type="alarm" is governed by target
// rules over type. Subscriptions without an equality constraint on a
// targeted attribute are treated as touching it (so deny rules hit).
func (e *Engine) AuthorizeSubscribe(member ident.ID, deviceType string, f *event.Filter) error {
	proj := event.New()
	for _, c := range f.Constraints() {
		if c.Op == event.OpEq {
			proj.Set(c.Name, c.Value)
		}
	}
	return e.decide(verbSubscribe, deviceType, func(a *Authorization) bool {
		if a.Target == nil {
			return true
		}
		for _, tc := range a.Target.Constraints() {
			v, ok := proj.Get(tc.Name)
			if !ok {
				// Subscription does not pin this attribute: it can
				// receive anything there, so the rule applies.
				continue
			}
			if tc.Op != event.OpExists && !tc.MatchValue(v) {
				return false
			}
		}
		return true
	})
}

func (e *Engine) decide(verb Verb, deviceType string, targetMatch func(*Authorization) bool) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, a := range e.auths {
		if a.Effect != effectDeny || a.Verb != verbAny && a.Verb != verb {
			continue
		}
		if a.Subject != "*" && a.Subject != deviceType {
			continue
		}
		if targetMatch(a.Authorization) {
			e.stats.DenyDecisions++
			return a.denied
		}
	}
	e.stats.AllowDecisions++
	return nil
}
