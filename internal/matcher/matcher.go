// Package matcher provides the content-based matching mechanisms behind
// the event bus (§III-A).
//
// The paper deliberately hides the pub/sub engine behind an interface
// ("The 'EventBus' interface ... has allowed us to replace Siena with a
// more lightweight mechanism"). Two engines are provided:
//
//   - sienaMatcher mirrors the Siena-based prototype: a general engine
//     with its own internal attribute model, requiring translation of
//     every event and filter to and from that model — the overhead §V
//     blames for the Siena bus's lower performance.
//   - FastMatcher mirrors the dedicated replacement built on Siena's
//     fast forwarding (counting) algorithm, operating directly on the
//     bus-native types with no translation: filters are partitioned by
//     one equality constraint each, and the per-constraint counting
//     indexes run only inside the partitions an event hits.
//
// typedMatcher adds the type-based engine §VI names as future work. All
// three share one writer: the per-subscriber filter book and the
// copy-on-write snapshot its writers publish for the lock-free read
// path. An engine contributes only its entry and its snapshot edit.
package matcher

import (
	"errors"

	"github.com/amuse/smc/internal/event"
	"github.com/amuse/smc/internal/ident"
)

// Matcher matches events against installed subscriptions. All methods
// must be safe for concurrent use.
type Matcher interface {
	// Name identifies the engine ("siena", "fast") in logs/benchmarks.
	Name() string
	// Subscribe installs a filter for a subscriber. Installing an
	// identical (subscriber, filter) pair twice is a no-op.
	Subscribe(sub ident.ID, f *event.Filter) error
	// Unsubscribe removes a previously installed (subscriber, filter)
	// pair; it reports ErrNoSuchSubscription if absent.
	Unsubscribe(sub ident.ID, f *event.Filter) error
	// UnsubscribeAll removes every filter of the subscriber (used on
	// Purge Member).
	UnsubscribeAll(sub ident.ID)
	// MatchAppendScratch appends the distinct subscribers whose
	// filters the event satisfies to dst, in unspecified order, and
	// returns the extended slice; dst may be nil. It is the one read
	// entry point: it takes no lock, and its working state is the
	// caller's sc, so the bus gives each shard worker a private Scratch
	// and the dispatch hot path allocates nothing. sc must not be
	// shared between concurrent calls.
	MatchAppendScratch(e *event.Event, dst []ident.ID, sc *Scratch) []ident.ID
	// SubscriptionCount reports the number of installed filters.
	SubscriptionCount() int
}

// ErrNoSuchSubscription reports an unsubscribe for an unknown pair.
var ErrNoSuchSubscription = errors.New("matcher: no such subscription")

// errNilFilter reports a nil filter argument.
var errNilFilter = errors.New("matcher: nil filter")

// Kind selects a matcher implementation by name.
type Kind string

// Matcher kinds.
const (
	KindSiena Kind = "siena"
	KindFast  Kind = "fast"
	KindTyped Kind = "typed"
)

// New builds a matcher of the given kind.
func New(kind Kind) (Matcher, error) {
	switch kind {
	case KindSiena:
		return newSiena(), nil
	case KindFast:
		return NewFast(), nil
	case KindTyped:
		return newTypedMatcher(), nil
	default:
		return nil, errors.New("matcher: unknown kind " + string(kind))
	}
}
