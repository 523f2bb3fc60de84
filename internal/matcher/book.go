package matcher

import (
	"slices"
	"sync"
	"sync/atomic"

	"github.com/amuse/smc/internal/event"
	"github.com/amuse/smc/internal/ident"
)

// book is the one writer behind every engine. It keeps the installed
// filters per subscriber, which decide idempotence and Unsubscribe, and
// publishes the immutable snapshot S of the engine's index through an
// atomic pointer; the read path only ever loads that pointer. An engine
// supplies two things: how a private clone of an installed filter
// becomes its entry E, and the copy-on-write edit that derives the next
// snapshot from the current one. The zero S is the empty snapshot.
type book[S, E any] struct {
	// snap is the immutable snapshot the lock-free read path loads.
	// Everything reachable from it is frozen: writers replace the
	// pointer, never mutate through it.
	snap atomic.Pointer[S]

	// mu serialises writers only; the read path never touches it.
	mu sync.Mutex
	// bySub holds the installed filters per subscriber.
	bySub map[ident.ID][]installed[E]
	count atomic.Int64

	// entry builds the engine's entry for a filter the book owns (a
	// clone of the caller's); an error refuses the subscription.
	entry func(sub ident.ID, f *event.Filter) (E, error)
	// edit derives the next snapshot from cur with the entries added
	// and removed. It runs under mu and must leave everything
	// reachable from cur untouched.
	edit func(cur *S, added, removed []E) *S
}

// installed is one (subscriber, filter) pair and the entry built for it.
type installed[E any] struct {
	filter *event.Filter
	entry  E
}

func (b *book[S, E]) init(entry func(ident.ID, *event.Filter) (E, error), edit func(cur *S, added, removed []E) *S) {
	b.snap.Store(new(S))
	b.bySub = make(map[ident.ID][]installed[E])
	b.entry, b.edit = entry, edit
}

// Subscribe implements Matcher.
func (b *book[S, E]) Subscribe(sub ident.ID, f *event.Filter) error {
	if f == nil {
		return errNilFilter
	}
	if err := f.Validate(); err != nil {
		return err
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, in := range b.bySub[sub] {
		if in.filter.Equal(f) {
			return nil // idempotent
		}
	}
	f = f.Clone()
	e, err := b.entry(sub, f)
	if err != nil {
		return err
	}
	b.bySub[sub] = append(b.bySub[sub], installed[E]{filter: f, entry: e})
	b.count.Add(1)
	b.snap.Store(b.edit(b.snap.Load(), []E{e}, nil))
	return nil
}

// Unsubscribe implements Matcher.
func (b *book[S, E]) Unsubscribe(sub ident.ID, f *event.Filter) error {
	if f == nil {
		return errNilFilter
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	list := b.bySub[sub]
	for i, in := range list {
		if !in.filter.Equal(f) {
			continue
		}
		if list = slices.Delete(list, i, i+1); len(list) > 0 {
			b.bySub[sub] = list
		} else {
			delete(b.bySub, sub)
		}
		b.count.Add(-1)
		b.snap.Store(b.edit(b.snap.Load(), nil, []E{in.entry}))
		return nil
	}
	return ErrNoSuchSubscription
}

// UnsubscribeAll implements Matcher: one edit removes every filter of
// the subscriber.
func (b *book[S, E]) UnsubscribeAll(sub ident.ID) {
	b.mu.Lock()
	defer b.mu.Unlock()
	list := b.bySub[sub]
	if len(list) == 0 {
		return
	}
	delete(b.bySub, sub)
	removed := make([]E, len(list))
	for i, in := range list {
		removed[i] = in.entry
	}
	b.count.Add(-int64(len(list)))
	b.snap.Store(b.edit(b.snap.Load(), nil, removed))
}

// SubscriptionCount implements Matcher. Lock-free.
func (b *book[S, E]) SubscriptionCount() int {
	return int(b.count.Load())
}
