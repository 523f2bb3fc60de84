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
//	                    "effect" "deny"
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

// authVerb is the operation an authorisation policy governs.
type authVerb int

// Authorisation verbs.
const (
	verbPublish authVerb = iota + 1
	verbSubscribe
	verbAny
)

// String names the verb.
func (v authVerb) String() string {
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

// actionKind discriminates obligation actions.
type actionKind int

// Obligation action kinds.
const (
	actionPublish actionKind = iota + 1
	actionLog
	actionEnable
	actionDisable
)

// action is one step of an obligation's "do" clause.
type action struct {
	kind actionKind
	// message is the log text, or the policy name for enable/disable.
	message string
	// attrs are the attributes of the event to publish.
	attrs []attrAssign
}

// attrAssign is one attr=literal assignment in a publish action.
type attrAssign struct {
	name  string
	value event.Value
}

// Obligation is an event-condition-action rule. On selects triggering
// events; when adds a further condition on the same event; actions run
// when both hold and the policy is active.
type Obligation struct {
	name string
	// deviceType scopes deployment: the policy activates while at
	// least one member of this device type is in the cell. Empty
	// means always deployed.
	deviceType string
	On         *event.Filter
	when       *event.Filter
	actions    []action
}

// Authorization is a deny rule: the publish or subscribe it covers is
// refused. Everything no rule covers is allowed.
type Authorization struct {
	name string
	// subject is the device type the rule applies to; "*" for all.
	subject string
	// verb is the governed operation.
	verb authVerb
	// target constrains which events (for publish) or which
	// subscription interests (for subscribe, matched against the
	// subscription's equality constraints) the rule covers. A nil
	// target covers everything.
	target *event.Filter
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
	if o.name == "" {
		return fmt.Errorf("%w: obligation without name", errParse)
	}
	if o.On == nil {
		return fmt.Errorf("%w: obligation %q without on-clause", errParse, o.name)
	}
	if len(o.actions) == 0 {
		return fmt.Errorf("%w: obligation %q without actions", errParse, o.name)
	}
	if err := o.On.Validate(); err != nil {
		return fmt.Errorf("obligation %q on-clause: %w", o.name, err)
	}
	if o.when != nil {
		if err := o.when.Validate(); err != nil {
			return fmt.Errorf("obligation %q when-clause: %w", o.name, err)
		}
	}
	return nil
}

// validate checks structural validity of an authorisation.
func (a *Authorization) validate() error {
	if a.name == "" {
		return fmt.Errorf("%w: authorization without name", errParse)
	}
	if a.subject == "" {
		return fmt.Errorf("%w: authorization %q without subject", errParse, a.name)
	}
	if a.verb == 0 {
		return fmt.Errorf("%w: authorization %q without action", errParse, a.name)
	}
	if a.target != nil {
		if err := a.target.Validate(); err != nil {
			return fmt.Errorf("authorization %q target: %w", a.name, err)
		}
	}
	return nil
}
