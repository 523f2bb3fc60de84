package harness

import (
	"sync/atomic"
	"time"

	"github.com/amuse/smc/internal/event"
	"github.com/amuse/smc/internal/ident"
	"github.com/amuse/smc/internal/reliable"
)

// Delivery credit. A publisher may have `credit` events outstanding,
// and an event stays outstanding until the bus has acknowledged it AND
// every recipient that was online when it was published has received
// it. Anything weaker — capping by acknowledgements, or by what one
// subscriber has seen — lets the slower proxies fall a queue's length
// behind, where the proxy sheds its oldest events and the client inbox
// drops new ones uncounted (README, finding 1).

// maxCredit bounds a publisher's outstanding events (a power of two).
const maxCredit = 128

// A credit is a slot: the token a publisher takes before publishing is
// the index of the slot that tracks the event until it has settled, so
// an event that stays outstanding while thousands of others complete
// (one subscriber's goroutine was descheduled) can never share its
// slot with a later one.
type slot struct {
	// remaining settlements: one per counted delivery, plus one for
	// the acknowledgement.
	remaining atomic.Int32
}

// Expectation entries carry the slot next to the sequence number:
// bit 63 counted, bits 48–55 slot, bits 0–47 seq.
const (
	slotShift = 48
	seqMask   = 1<<slotShift - 1
)

// pendingAck is a publish whose acknowledgement has not been observed.
type pendingAck struct {
	comp  *reliable.Completion
	seq   uint64
	slot  int
	start int64 // run clock at the publish call
}

// ackQueue is a fixed FIFO of pendingAcks; credit bounds its length.
type ackQueue struct {
	buf        [maxCredit]pendingAck
	head, size int
}

func (q *ackQueue) push(pa pendingAck) {
	q.buf[(q.head+q.size)&(maxCredit-1)] = pa
	q.size++
}

func (q *ackQueue) pop() pendingAck {
	pa := q.buf[q.head]
	q.head = (q.head + 1) & (maxCredit - 1)
	q.size--
	return pa
}

// publisher is one credit-paced publishing goroutine: a member's
// client, or a bus-local service.
type publisher struct {
	idx  int
	id   ident.ID
	pool []poolEvent
	next int
	// seq mirrors the sequence number the client (or local service)
	// stamps on the next publish: one goroutine publishes per client,
	// so the counter is the harness's own.
	seq uint64
	// send publishes one event. Members return the completion of the
	// acknowledged hop; bus-local services return nil.
	send func(e *event.Event) (*reliable.Completion, error)

	slots   [maxCredit]slot
	tokens  chan int // free slots; holds at most the credit in circulation
	pending ackQueue // unobserved acknowledgements, oldest first

	// Traced runs only (nil otherwise): the publisher's span ring, and
	// the time it spent blocked waiting for credit while spans were on.
	spans  *spanBuf
	waitNs int64

	published uint64        // events sent in the current phase
	attempted uint64        // deliveries expected, all phases
	failed    atomic.Uint64 // publishes refused or never acknowledged
	overflow  uint64        // expectations that did not fit their ring
}

func newPublisher(idx int, pool []poolEvent) *publisher {
	return &publisher{
		idx:    idx,
		pool:   pool,
		tokens: make(chan int, maxCredit),
	}
}

// settle records one settlement of the event in slot and returns the
// credit when it was the last.
func (p *publisher) settle(slot int) {
	if p.slots[slot].remaining.Add(-1) == 0 {
		p.tokens <- slot
	}
}

// observe settles the oldest pending acknowledgement, which has
// resolved (or blocks until it does).
func (p *publisher) observe(r *run) {
	pa := p.pending.pop()
	err := pa.comp.Wait()
	if p.spans != nil && r.spansOn.Load() {
		p.spans.add(spanAck, p.idx, -1, pa.seq, pa.start, r.now())
	}
	if err != nil {
		p.failed.Add(1)
	}
	pa.comp.Recycle()
	p.settle(pa.slot)
}

// acquire takes one credit — a free slot. While none is free it waits
// for whichever comes first: a credit returned by a delivery, or the
// oldest pending acknowledgement (they resolve in publish order), whose
// settlement may free one. Waiting on the acknowledgement alone would
// sleep through credits that events acknowledged earlier return in the
// meantime. It reports false when the run is aborted.
func (p *publisher) acquire(r *run) (slot int, ok bool) {
	select {
	case slot = <-p.tokens:
		return slot, true
	default:
	}
	traced := p.spans != nil && r.spansOn.Load()
	var t0 int64
	if traced {
		t0 = r.now()
	}
	for {
		var acked <-chan struct{}
		if p.pending.size > 0 {
			acked = p.pending.buf[p.pending.head].comp.Done()
		}
		select {
		case slot = <-p.tokens:
			if traced {
				p.waitNs += r.now() - t0
			}
			return slot, true
		case <-acked:
			p.observe(r)
		case <-r.abort:
			return 0, false
		}
	}
}

// publishOne registers the next pool event's expectations and sends it
// under the given slot.
func (p *publisher) publishOne(r *run, slot int) {
	pe := &p.pool[p.next]
	if p.next++; p.next == len(p.pool) {
		p.next = 0
	}
	p.seq++
	counted := int32(0)
	for _, rc := range pe.recips {
		s := r.subs[rc.sub]
		entry := p.seq | uint64(slot)<<slotShift
		if s.online.Load() {
			entry |= countedBit
			counted += rc.mult
		} else {
			s.backlog.Add(int64(rc.mult))
		}
		for m := int32(0); m < rc.mult; m++ {
			if !s.rings[p.idx].push(entry) {
				p.overflow++
			}
		}
	}
	p.attempted += uint64(pe.deliveries)
	ack := int32(0)
	if !r.spec.local {
		ack = 1
	}
	p.slots[slot].remaining.Store(counted + ack)

	start := r.now()
	pe.e.Stamp = time.Unix(0, start)
	comp, err := p.send(pe.e)
	if p.spans != nil && r.spansOn.Load() {
		p.spans.add(spanPublishCall, p.idx, -1, p.seq, start, r.now())
	}
	p.published++
	switch {
	case err != nil:
		p.failed.Add(1)
		// Nothing will settle this event; free its credit so the run
		// ends instead of stalling. The verifier reports what is
		// missing.
		p.slots[slot].remaining.Store(0)
		p.tokens <- slot
	case comp != nil:
		p.pending.push(pendingAck{comp: comp, seq: p.seq, slot: slot, start: start})
	case counted == 0:
		p.tokens <- slot // bus-local event nobody receives
	}
}

// publish sends events under the given credit until stop is set or
// limit events have gone out (limit 0 = no limit), then waits until
// every one of them has settled: on return nothing of this publisher's
// is in flight towards an online subscriber.
func (p *publisher) publish(r *run, credit int, limit uint64, stop *atomic.Bool) {
	for i := 0; i < credit; i++ {
		p.tokens <- i
	}
	p.published = 0
	for !stop.Load() && (limit == 0 || p.published < limit) {
		slot, ok := p.acquire(r)
		if !ok {
			break
		}
		p.publishOne(r, slot)
	}
	for p.pending.size > 0 {
		p.observe(r)
	}
	for i := 0; i < credit; i++ {
		select {
		case <-p.tokens:
		case <-r.abort:
			return
		}
	}
}
