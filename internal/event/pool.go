package event

import (
	"sync"
	"sync/atomic"
)

// Recycled-event lifecycle. The publish hot path's one residual
// allocation after the inline attribute refactor is the Event struct
// itself; publishers that control their subscribers opt into recycling
// it through a free list:
//
//	e := event.Acquire()
//	e.SetStr(event.AttrType, "reading")...
//	svc.Publish(e) // ownership moves to the bus
//
// The bus retains a reference per proxy it enqueues the event to and
// releases its own once dispatch finishes; each proxy releases after
// the event is encoded for the wire. When the count hits zero the
// event is cleared and recycled. Events built with New are never
// recycled: Retain/Release are no-ops for them, so every existing
// caller keeps plain garbage-collected semantics.
//
// A pooled event is recycled as soon as its refcount drains — for a
// purely local fan-out that is when the synchronous subscriber
// callbacks have returned. Subscribers of pooled traffic must
// therefore Clone anything they keep beyond the callback. Handing a
// pooled event to subscribers that retain is a use-after-release bug;
// when in doubt, publish events from New.

// eventPool recycles Event structs released via Release.
var eventPool = sync.Pool{New: func() interface{} { return new(Event) }}

// Acquire returns an empty event from the free list with a reference
// count of one. Release it (directly, or by publishing it on a bus
// that manages the lifecycle) to recycle it.
func Acquire() *Event {
	e := eventPool.Get().(*Event)
	e.pooled = true
	atomic.StoreInt32(&e.refs, 1)
	return e
}

// Retain adds a reference to a pooled event and returns it. It is a
// no-op for events built with New.
func (e *Event) Retain() *Event {
	if e != nil && e.pooled {
		atomic.AddInt32(&e.refs, 1)
	}
	return e
}

// Release drops one reference; the last release clears the event and
// returns it to the free list. It is a no-op for events built with
// New, so lifecycle-managing code may call it unconditionally.
func (e *Event) Release() {
	if e == nil || !e.pooled {
		return
	}
	if atomic.AddInt32(&e.refs, -1) != 0 {
		return
	}
	e.dropSpill()
	e.releaseBacking() // borrowed decode: let the backing packet recycle
	*e = Event{}       // clear attribute names/values so recycled events pin nothing
	eventPool.Put(e)
}
