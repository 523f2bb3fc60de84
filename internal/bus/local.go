package bus

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/amuse/smc/internal/event"
	"github.com/amuse/smc/internal/ident"
	"github.com/amuse/smc/internal/matcher"
)

// LocalService is a core service co-located with the bus (discovery,
// policy, bootstrap, monitoring UIs). Local services publish and
// subscribe without crossing the network or the proxy layer, but share
// the same matcher, so local and remote subscribers are matched
// uniformly.
type LocalService struct {
	id   ident.ID
	name string
	b    *Bus

	mu sync.Mutex // serialises handler mutations
	// handlers is the copy-on-write handler table, read lock-free by
	// dispatch. Handler identities only ever ascend, so appending keeps
	// it sorted by id.
	handlers    atomic.Pointer[[]localHandler]
	lastHandler ident.ID // guarded by mu; handler numbers handed out so far

	// pubMu spans a publish's sequence number and its enqueue, waiting
	// included, so the shard queue holds the service's events in seq
	// order. It is apart from mu: a publish waiting for room never
	// holds up Subscribe or a handler's removal.
	pubMu sync.Mutex
	seq   uint64 // guarded by pubMu
}

// localHandler is one subscription of a local service. It is installed
// in the matcher under an identity of its own, so a match reports the
// handlers to call, not just the service.
type localHandler struct {
	id     ident.ID
	filter *event.Filter
	fn     Handler
}

// Local subscriber identities have a space of their own: the top octet
// is 0xFE, outside the address-derived IDs transports hand out; the
// next 12 bits number the service (from 1) and the low 28 the handler
// within it (from 1; 0 is the service itself, its publisher identity).
// Handler numbers are never reused: a match computed just before a
// handler's removal names an identity that resolves to nothing, never to a
// handler installed since.
const (
	localIDBase      = ident.ID(0xFE) << 40
	localHandlerBits = 28
	maxLocalHandlers = 1<<localHandlerBits - 1
	maxLocalServices = 1<<(40-localHandlerBits) - 1
)

// errLocalHandlers reports a local service that has used up its
// handler numbers.
var errLocalHandlers = errors.New("bus: local service out of subscription identities")

// Local registers (or returns) a local service with the given name.
// A bus numbers at most maxLocalServices of them; asking for more
// panics.
func (b *Bus) Local(name string) *LocalService {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, ls := range b.locals {
		if ls.name == name {
			return ls
		}
	}
	if len(b.locals) == maxLocalServices {
		panic(fmt.Sprintf("bus: more than %d local services", maxLocalServices))
	}
	id := localIDBase | ident.ID(len(b.locals)+1)<<localHandlerBits
	ls := &LocalService{id: id, name: name, b: b}
	b.locals = append(b.locals, ls)
	b.rebuildSnapshot()
	return ls
}

// localHandler resolves a matched subscriber identity to the local
// handler installed under it; nil when id is not one, or not any more.
func (s *membership) localHandler(id ident.ID) Handler {
	if id>>40 != localIDBase>>40 {
		return nil
	}
	n := int(id>>localHandlerBits) & maxLocalServices
	if n == 0 || n > len(s.locals) {
		return nil
	}
	tab := s.locals[n-1].table()
	// Hand-rolled: this runs once per matched handler, and the
	// comparison callback of slices.BinarySearchFunc measured half as
	// fast again.
	lo, hi := 0, len(tab)
	for lo < hi {
		if mid := int(uint(lo+hi) >> 1); tab[mid].id < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(tab) || tab[lo].id != id {
		return nil
	}
	return tab[lo].fn
}

// ID returns the local service's synthetic ID.
func (l *LocalService) ID() ident.ID { return l.id }

// Subscribe installs a filter whose matches are delivered to fn, once
// per event, whatever else the service has subscribed to: installing
// an equal filter twice gives two handlers and two calls. The handler
// runs on a bus shard goroutine and must not block; the event it
// receives is shared with other subscribers and must be treated as
// read-only. A handler that publishes uses TryPublish, never Publish:
// Publish waits for room in a shard queue, and that queue may be the
// one the handler's own worker drains.
func (l *LocalService) Subscribe(f *event.Filter, fn Handler) error {
	_, err := l.Handle(f, fn)
	return err
}

// Handle is Subscribe returning a func that removes exactly the handler
// it installed; it reports matcher.ErrNoSuchSubscription when called
// again.
func (l *LocalService) Handle(f *event.Filter, fn Handler) (remove func() error, err error) {
	if f == nil || fn == nil {
		return nil, fmt.Errorf("bus: local subscribe needs filter and handler")
	}
	l.mu.Lock()
	if l.lastHandler == maxLocalHandlers {
		l.mu.Unlock()
		return nil, errLocalHandlers
	}
	l.lastHandler++
	h := localHandler{id: l.id | l.lastHandler, filter: f.Clone(), fn: fn}
	// Into the table before into the matcher: every hit the matcher
	// can report finds its handler.
	hs := append(slices.Clone(l.table()), h)
	l.handlers.Store(&hs)
	l.mu.Unlock()
	if err := l.b.match.Subscribe(h.id, h.filter); err != nil {
		_ = l.remove(h.id)
		return nil, err
	}
	l.b.ctl().subscriptions.Add(1)
	l.b.unquenchAll()
	return func() error { return l.remove(h.id) }, nil
}

// remove takes handler id out of the table and the matcher; it reports
// matcher.ErrNoSuchSubscription when it is already gone.
func (l *LocalService) remove(id ident.ID) error {
	l.mu.Lock()
	cur := l.table()
	i := slices.IndexFunc(cur, func(have localHandler) bool { return have.id == id })
	if i < 0 {
		l.mu.Unlock()
		return matcher.ErrNoSuchSubscription
	}
	hs := slices.Delete(slices.Clone(cur), i, i+1)
	l.handlers.Store(&hs)
	l.mu.Unlock()
	return l.b.match.Unsubscribe(cur[i].id, cur[i].filter)
}

// table returns the current handler table; it is shared with dispatch
// and must not be modified.
func (l *LocalService) table() []localHandler {
	if cur := l.handlers.Load(); cur != nil {
		return *cur
	}
	return nil
}

// Publish injects an event into the bus under this service's ID. A
// per-service sequence number is assigned so that local publishes obey
// the same per-sender FIFO contract as remote ones. When the shard
// queue is full, Publish waits for room; it fails only with errClosed.
// It must not be called from a Subscribe handler (use TryPublish).
func (l *LocalService) Publish(e *event.Event) error { return l.publish(e, l.id, true) }

// TryPublish is Publish that never waits: a full shard queue refuses
// the event with errBusy. It is the publish for code running on a
// shard worker, such as a Subscribe handler.
func (l *LocalService) TryPublish(e *event.Event) error { return l.publish(e, l.id, false) }

// publish stamps e as the service's next event and hands it to the
// shard of key: the service itself, except for the bus's membership
// events (Bus.announce).
func (l *LocalService) publish(e *event.Event, key ident.ID, wait bool) error {
	e.Sender = l.id
	l.pubMu.Lock()
	l.seq++
	e.Seq = l.seq
	err := l.b.enqueuePublish(e, key, wait)
	l.pubMu.Unlock()
	return err
}
