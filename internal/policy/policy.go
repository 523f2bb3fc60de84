// Package policy implements the SMC policy service (§II-A): Ponder-
// style obligation policies (event-condition-action rules specifying
// how components react to events) and authorisation policies
// (specifying what resources components assigned to a role can
// access). Policies can be added, removed, enabled and disabled at
// runtime to change the behaviour of cell components without
// reprogramming them; policies scoped to a device type are deployed
// when such a device is discovered and granted membership.
//
// The full Ponder language is substituted by a small text DSL
// ("Ponder-lite") preserving the ECA and authorisation semantics the
// paper relies on; the grammar below is all of it. The chaos harness
// reloads policies on running cells, see test/e2e/README.md.
//
// Grammar:
//
//	policyfile   := (obligation | authorization)*
//	obligation   := "obligation" name ["for" string] "{"
//	                    "on" constraints
//	                    ["when" constraints]
//	                    "do" action ("," action)*
//	                "}"
//	authorization:= "authorization" name "{"
//	                    "effect" ("allow"|"deny")
//	                    "subject" (string|"*")
//	                    "action" ("publish"|"subscribe"|"*")
//	                    ["target" constraints]
//	                "}"
//	constraints  := constraint ("&&" constraint)*
//	constraint   := ident op literal | ident "exists"
//	op           := "=" | "!=" | "<" | "<=" | ">" | ">=" |
//	                "prefix" | "suffix" | "contains"
//	action       := "publish" "(" ident "=" literal ("," ident "=" literal)* ")"
//	              | "log" "(" string ")"
//	              | "enable" "(" string ")"
//	              | "disable" "(" string ")"
//	literal      := number | string | "true" | "false"
package policy

import (
	"errors"
	"fmt"

	"github.com/amuse/smc/internal/event"
)

// Effect is an authorisation verdict.
type Effect int

// Authorisation effects.
const (
	effectAllow Effect = iota + 1
	effectDeny
)

// String names the effect.
func (e Effect) String() string {
	switch e {
	case effectAllow:
		return "allow"
	case effectDeny:
		return "deny"
	default:
		return "invalid"
	}
}

// Verb is the operation an authorisation policy governs.
type Verb int

// Authorisation verbs.
const (
	verbPublish Verb = iota + 1
	verbSubscribe
	verbAny
)

// String names the verb.
func (v Verb) String() string {
	switch v {
	case verbPublish:
		return "publish"
	case verbSubscribe:
		return "subscribe"
	case verbAny:
		return "*"
	default:
		return "invalid"
	}
}

// ActionKind discriminates obligation actions.
type ActionKind int

// Obligation action kinds.
const (
	actionPublish ActionKind = iota + 1
	actionLog
	actionEnable
	actionDisable
)

// Action is one step of an obligation's "do" clause.
type Action struct {
	Kind ActionKind
	// Message is the log text, or the policy name for enable/disable.
	Message string
	// Attrs are the attributes of the event to publish.
	Attrs []AttrAssign
}

// AttrAssign is one attr=literal assignment in a publish action.
type AttrAssign struct {
	Name  string
	Value event.Value
}

// Obligation is an event-condition-action rule. On selects triggering
// events; When adds a further condition on the same event; Actions run
// when both hold and the policy is active.
type Obligation struct {
	Name string
	// DeviceType scopes deployment: the policy activates while at
	// least one member of this device type is in the cell. Empty
	// means always deployed.
	DeviceType string
	On         *event.Filter
	When       *event.Filter
	Actions    []Action
}

// Authorization is an access-control rule.
type Authorization struct {
	Name   string
	Effect Effect
	// Subject is the device type the rule applies to; "*" for all.
	Subject string
	// Verb is the governed operation.
	Verb Verb
	// Target constrains which events (for publish) or which
	// subscription interests (for subscribe, matched against the
	// subscription's equality constraints) the rule covers. A nil
	// target covers everything.
	Target *event.Filter
}

// File is a parsed policy file.
type File struct {
	Obligations    []*Obligation
	Authorizations []*Authorization
}

// errParse reports a syntax error; the message carries line context.
var errParse = errors.New("policy: parse error")

// validate checks structural validity of an obligation.
func (o *Obligation) validate() error {
	if o.Name == "" {
		return fmt.Errorf("%w: obligation without name", errParse)
	}
	if o.On == nil {
		return fmt.Errorf("%w: obligation %q without on-clause", errParse, o.Name)
	}
	if len(o.Actions) == 0 {
		return fmt.Errorf("%w: obligation %q without actions", errParse, o.Name)
	}
	if err := o.On.Validate(); err != nil {
		return fmt.Errorf("obligation %q on-clause: %w", o.Name, err)
	}
	if o.When != nil {
		if err := o.When.Validate(); err != nil {
			return fmt.Errorf("obligation %q when-clause: %w", o.Name, err)
		}
	}
	return nil
}

// validate checks structural validity of an authorisation.
func (a *Authorization) validate() error {
	if a.Name == "" {
		return fmt.Errorf("%w: authorization without name", errParse)
	}
	if a.Effect != effectAllow && a.Effect != effectDeny {
		return fmt.Errorf("%w: authorization %q without effect", errParse, a.Name)
	}
	if a.Subject == "" {
		return fmt.Errorf("%w: authorization %q without subject", errParse, a.Name)
	}
	if a.Verb == 0 {
		return fmt.Errorf("%w: authorization %q without action", errParse, a.Name)
	}
	if a.Target != nil {
		if err := a.Target.Validate(); err != nil {
			return fmt.Errorf("authorization %q target: %w", a.Name, err)
		}
	}
	return nil
}
