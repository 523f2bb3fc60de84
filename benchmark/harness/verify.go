package harness

import (
	"sync/atomic"

	"github.com/amuse/smc/internal/event"
	"github.com/amuse/smc/internal/ident"
)

// The verifier. Before an event is published the publisher appends its
// sequence number to the expectation ring of every (expected
// recipient, publisher) pair; when a delivery arrives the subscriber
// side pops the head of its ring for that publisher and the two must
// agree. Because the bus promises per-publisher FIFO, that one
// comparison catches a missing, duplicated, reordered or unexpected
// delivery at the moment it happens, in O(1) and without a lock; what
// is still queued at quiesce was never delivered.

// countedBit marks an expectation whose delivery returns publisher
// credit (the recipient was online when the event was published); the
// entry then also names the slot to settle (see publisher.go).
// Deliveries owed to a roamer that is away are expected all the same
// but cannot hold credit.
const countedBit = 1 << 63

// ring is a single-producer single-consumer queue of expected
// sequence numbers: the producer is one publisher goroutine, the
// consumer whichever goroutine takes that publisher's deliveries for
// the subscriber.
type ring struct {
	buf  []uint64
	head atomic.Uint64 // next to pop; written by the consumer
	_    [56]byte      // keep producer and consumer indexes on separate cache lines
	tail atomic.Uint64 // next to push; written by the producer
}

func newRing(capacity int) *ring {
	return &ring{buf: make([]uint64, capacity)} // capacity is a power of two
}

func (r *ring) push(v uint64) bool {
	t := r.tail.Load()
	if t-r.head.Load() >= uint64(len(r.buf)) {
		return false
	}
	r.buf[t&uint64(len(r.buf)-1)] = v
	r.tail.Store(t + 1)
	return true
}

func (r *ring) pop() (uint64, bool) {
	h := r.head.Load()
	if h == r.tail.Load() {
		return 0, false
	}
	v := r.buf[h&uint64(len(r.buf)-1)]
	r.head.Store(h + 1)
	return v, true
}

func (r *ring) len() int { return int(r.tail.Load() - r.head.Load()) }

// lane is the state of one delivering goroutine: a member's consumer
// loop, or — for bus-local subscribers, whose handlers run on the
// publisher's shard worker — one publisher's shard. Each lane is
// written by one goroutine and read by the controller.
type lane struct {
	idx       int
	hist      *liveHistogram // response times of the steady phase
	spans     *spanBuf       // nil unless the run is traced
	delivered atomic.Uint64
	failed    atomic.Uint64
	_         [64]byte
}

// subscriber is one member or bus-local service of the population.
type subscriber struct {
	spec  subSpec
	rings []*ring // expectation ring per publisher
	// online is false while a roamer is away: its deliveries are still
	// expected but are not counted against publisher credit.
	online atomic.Bool
	// backlog counts uncounted expectations outstanding; caughtUp is
	// the run clock when it last reached zero.
	backlog  atomic.Int64
	caughtUp atomic.Int64
	// lastCursor is the durable cursor of the last delivery consumed:
	// the position a rejoin resumes from. Written by the consumer
	// goroutine, read after it has exited.
	lastCursor uint64
	consumed   atomic.Uint64 // everything taken from the inbox, system events included
	// consumerDone closes when the member's current consumer loop has
	// exited (nil for bus-local subscribers).
	consumerDone chan struct{}
}

// deliver checks one delivery against the expectations and settles the
// publisher's credit. It runs on the lane's goroutine.
func (r *run) deliver(l *lane, s *subscriber, e *event.Event) {
	p := r.publisherOf(e.Sender)
	if p == nil {
		r.system.Add(1)
		return
	}
	if l == nil {
		l = r.lanes[p.idx] // bus-local: the publisher's shard worker is the lane
	}
	want, ok := s.rings[p.idx].pop()
	if !ok || want&seqMask != e.Seq {
		// Unexpected recipient, duplicate, gap or reorder.
		l.failed.Add(1)
		return
	}
	now := r.now()
	if r.timing.Load() {
		l.hist.Record(now - e.Stamp.UnixNano())
	}
	if l.spans != nil && r.spansOn.Load() {
		l.spans.add(spanDeliver, p.idx, l.idx, e.Seq, e.Stamp.UnixNano(), now)
	}
	l.delivered.Add(1)
	if want&countedBit != 0 {
		p.settle(int(want >> slotShift & (maxCredit - 1)))
	} else if s.backlog.Add(-1) == 0 {
		s.caughtUp.Store(now)
	}
}

// publisherOf resolves an event's sender to the harness publisher that
// sent it (nil for events the cell itself published).
func (r *run) publisherOf(id ident.ID) *publisher {
	for _, p := range r.pubs {
		if p.id == id {
			return p
		}
	}
	return nil
}
