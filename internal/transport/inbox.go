package transport

import (
	"sync"
	"sync/atomic"
	"time"
)

// Inbox is the bounded receive queue every layer of the receive path
// owns one of: the three transports queue datagrams in one, the
// reliable channel queues released packets in one. Put never blocks —
// a full (or closed) inbox hands the item to the owner's recycle func
// and reports the drop, which is the datagram contract: receivers shed
// under load, and counts what it sheds (Dropped). Get blocks; after
// Close it first drains whatever was queued before the close and only
// then reports closedErr.
type Inbox[T any] struct {
	queue     chan T
	done      chan struct{}
	closeOnce sync.Once
	closedErr error
	recycle   func(T)
	dropped   atomic.Uint64
}

// NewInbox returns an inbox holding up to depth items. closedErr is
// what Get and GetTimeout return once closed and drained; recycle
// receives every item Put could not queue.
func NewInbox[T any](depth int, closedErr error, recycle func(T)) *Inbox[T] {
	return &Inbox[T]{
		queue:     make(chan T, depth),
		done:      make(chan struct{}),
		closedErr: closedErr,
		recycle:   recycle,
	}
}

// NewDatagramInbox is the inbox of a Transport implementation: it
// reports ErrClosed and recycles dropped datagrams into the shared
// buffer pool.
func NewDatagramInbox(depth int) *Inbox[Datagram] {
	return NewInbox(depth, ErrClosed, func(d Datagram) { d.Recycle() })
}

// Put queues v without blocking. It reports false when the inbox is
// closed or full; v has then been recycled. Closed is looked at first,
// so an inbox never accepts anything once Close has returned.
func (b *Inbox[T]) Put(v T) bool {
	if !b.Closed() {
		select {
		case b.queue <- v:
			return true
		default:
		}
	}
	b.recycle(v)
	b.dropped.Add(1)
	return false
}

// Dropped counts the items Put could not queue.
func (b *Inbox[T]) Dropped() uint64 { return b.dropped.Load() }

// Get blocks until an item arrives or the inbox is closed and drained.
func (b *Inbox[T]) Get() (T, error) {
	select {
	case v := <-b.queue:
		return v, nil
	case <-b.done:
		return b.drain()
	}
}

// GetTimeout is Get with a deadline; it returns ErrTimeout when the
// deadline passes with nothing queued.
func (b *Inbox[T]) GetTimeout(d time.Duration) (T, error) {
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case v := <-b.queue:
		return v, nil
	case <-timer.C:
		var zero T
		return zero, ErrTimeout
	case <-b.done:
		return b.drain()
	}
}

// drain hands out what was queued before Close, then closedErr.
func (b *Inbox[T]) drain() (T, error) {
	select {
	case v := <-b.queue:
		return v, nil
	default:
		var zero T
		return zero, b.closedErr
	}
}

// Close closes the inbox; it is idempotent. Items already queued stay
// available to Get.
func (b *Inbox[T]) Close() { b.closeOnce.Do(func() { close(b.done) }) }

// Closed reports whether Close has been called.
func (b *Inbox[T]) Closed() bool {
	select {
	case <-b.done:
		return true
	default:
		return false
	}
}

// Done is closed by Close: the owner's own goroutines select on it to
// stop with the inbox.
func (b *Inbox[T]) Done() <-chan struct{} { return b.done }
